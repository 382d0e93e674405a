"""Golden outputs: `wipcast ingest`, `stories`, `evaluate` and `forecast` must
reproduce these files byte for byte. Every pin of a file the CLI writes lives
here; other tests compare one run with another, never with a digest.

Acceptance 5 only checks that two runs agree with each other, so it cannot
catch a refactor that changes the numbers. These sha256 digests pin
predictions.csv, metrics.csv and forecast_reports.jsonl for two seeded
synthetic workloads in both fusion modes. A change that is meant to alter
forecasts must update them on purpose and say why.

- ``log``: an event log ingested through the CLI, default parameters.
- ``empty-window``: a 20-day window with only 14 days before the split, so the
  windowed index starts empty and fills mid-run.

The ingest digests pin ``wip.csv`` for one seeded log written as XES (plain
and gzipped) and as CSV, plus a sparse CSV log, with days that have no
events, replayed in a non-UTC zone. The stories digests pin the three
``stories_*.jsonl`` of the ``log`` workload.

The forecast digests pin ``forecast.jsonl`` for one day of the snapshot
workspace in both fusion modes, and in react mode after the daily snapshot's
targets were edited. Each must come out alike whether memory is loaded from
the sidecars, from the JSON lines alone, or, with no snapshot, embedded from
``wip.csv``.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import shutil
from xml.sax.saxutils import quoteattr

import pytest

from wipcast.cli import main
from wipcast.eventlog import EventLog, export_csv
from wipcast.synthetic import synthetic_event_log, synthetic_series
from wipcast.wipseries import export_wip_csv, load_wip_csv

from conftest import SNAPSHOT_TARGET, edit_targets

FILES = ("predictions.csv", "metrics.csv", "forecast_reports.jsonl")
MODES = ("rules", "react")


def _prepare_log(out: str) -> list[str]:
    log_path = os.path.join(out, "log.csv")
    with open(log_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(export_csv(synthetic_event_log(240, seed=11, span_days=90)))
    assert main(["ingest", log_path, "--out", out]) == 0
    with open(os.path.join(out, "wip.csv"), encoding="utf-8") as fh:
        split = load_wip_csv(fh).events[30].date
    return ["--split", split.isoformat()]


def _prepare_empty_window(out: str) -> list[str]:
    series = synthetic_series(90, seed=1)
    with open(os.path.join(out, "wip.csv"), "w", encoding="utf-8", newline="") as fh:
        fh.write(export_wip_csv(series))
    config = os.path.join(out, "config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({"forecast": {"window": 20}}, fh)
    return ["--split", series.events[14].date.isoformat(), "--config", config]


WORKLOADS = {"log": _prepare_log, "empty-window": _prepare_empty_window}


def evaluate_digests(workload: str, mode: str, out: str) -> dict[str, str]:
    """Run one workload through `evaluate` and hash its output files."""
    extra = WORKLOADS[workload](out)
    argv = ["evaluate", "--out", out, "--mode", mode, "--freeze-timestamps", *extra]
    assert main(argv) == 0
    digests = {}
    for name in FILES:
        with open(os.path.join(out, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


# Re-recorded when retrieval moved to the agents' cutoff, as of the current
# day: the story dated that day, which ends with the close being forecast,
# is no longer eligible.
GOLDENS = {
    "log": {
        "rules": {
            "predictions.csv": "136cf38a20186a121cbef7c297548948d8c8563519ab2a63e5a2aea09e314dd8",
            "metrics.csv": "25405a5d70bf5ccbbb838ec86e4e26fdabf77a9b510edc19253c690559d91e7d",
            "forecast_reports.jsonl": "be298468acfebb776c4ca327e22f18296bb34eb2aaded52c0ebe387a10b91551",
        },
        "react": {
            "predictions.csv": "d746a8cc44382edb4b846b32bbef1ace46bec77d75c8dc202266cd836f82470e",
            "metrics.csv": "e3ca53396c96d8d8126bbbf7678bb438e9cbdf24b17c36f84a37c9fc19ee6207",
            "forecast_reports.jsonl": "5caf6fc0e56d44b78647030391041b70080500f77725689b5e2694ee9da8b2b6",
        },
    },
    # The windowed index starts empty and fills mid-run.
    "empty-window": {
        "rules": {
            "predictions.csv": "cc659148c1da04a9968328ff901d84cde6eaa17e3a7e5e6d7035ed12548e917c",
            "metrics.csv": "f7897eeea6daae3dd36b7807f0c17ec82c1d800250a8795282dd051222384afa",
            "forecast_reports.jsonl": "ad737d78f110fee32c2279a9e40eec8b686d3441906c55ab3994dd1534025427",
        },
        "react": {
            "predictions.csv": "f2c4dae8d79f06e13412d1fc9eff4885489b479bfcb471e38c2069271bbb38f0",
            "metrics.csv": "3bf2f466ec40804a330dbe0f35c870f718e757b129ed04e835f45813fc741482",
            "forecast_reports.jsonl": "362b8b4fd0226caadf91aa2b6696fa0505cdfe4cace20fc497bd0c42b8decde6",
        },
    },
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_evaluate_matches_golden(workload, mode, tmp_path):
    assert evaluate_digests(workload, mode, str(tmp_path)) == GOLDENS[workload][mode]


# sha256 of the `stories` files for the ``log`` workload, recorded when each
# stage rendered its own stories; every row must stay byte for byte.
STORY_GOLDENS = {
    "daily": "7425a6ab1e884b49c65ddf70ff89420969ae36c60b98feaa6f9f77af672f00c2",
    "weekday": "b761d6d7dddefc88ce7a6b82303eb1448e3a9b80bf7670b6d36d99d0138b7240",
    "windowed": "1a4355403aa447c49210d51b12cb85e6af111afa1ec8657e689539a7d109e7a9",
}


def test_stories_match_golden(tmp_path):
    _prepare_log(str(tmp_path))
    assert main(["stories", "--out", str(tmp_path)]) == 0
    for g, digest in STORY_GOLDENS.items():
        with open(tmp_path / f"stories_{g}.jsonl", "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, g


def _xes_bytes(log: EventLog) -> bytes:
    """XES with a default namespace, one trace per case in first-seen order."""
    by_case: dict[str, list] = {}
    for ev in log.events:
        by_case.setdefault(ev.case_id, []).append(ev)
    parts = ['<?xml version="1.0" encoding="UTF-8"?>',
             '<log xes.version="1.0" xmlns="http://www.xes-standard.org/">']
    for case_id, events in by_case.items():
        parts.append(f'<trace><string key="concept:name" value={quoteattr(case_id)}/>')
        for i, ev in enumerate(events):
            parts.append(
                f'<event><string key="concept:name" value={quoteattr(ev.activity)}/>'
                f'<string key="lifecycle:transition" value={quoteattr(ev.lifecycle)}/>'
                f'<int key="step" value="{i}"/>'
                f'<date key="time:timestamp" value="{ev.timestamp.isoformat()}"/></event>')
        parts.append("</trace>")
    parts.append("</log>")
    return "\n".join(parts).encode("utf-8")


# name -> (file name, file bytes, extra ingest arguments, config or None)
_INGEST_LOG = synthetic_event_log(240, seed=11, span_days=90)
_SPARSE_LOG = synthetic_event_log(30, seed=5, span_days=60)
_LIFECYCLE_ARGS = ["--lifecycle", "lifecycle"]
INGEST_WORKLOADS = {
    "xes": ("log.xes", lambda: _xes_bytes(_INGEST_LOG), [], None),
    "xes-gzip": ("log.xes.gz", lambda: gzip.compress(_xes_bytes(_INGEST_LOG), mtime=0), [], None),
    "csv": ("log.csv", lambda: export_csv(_INGEST_LOG).encode("utf-8"), _LIFECYCLE_ARGS, None),
    "csv-sparse-new-york": ("log.csv", lambda: export_csv(_SPARSE_LOG).encode("utf-8"), _LIFECYCLE_ARGS,
                            {"input": {"timezone": "America/New_York"}}),
}


def ingest_digest(workload: str, out: str) -> str:
    """Ingest one workload's log and hash the written wip.csv."""
    name, make, extra, config = INGEST_WORKLOADS[workload]
    log_path = os.path.join(out, name)
    with open(log_path, "wb") as fh:
        fh.write(make())
    if config is not None:
        config_path = os.path.join(out, "config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        extra = [*extra, "--config", config_path]
    assert main(["ingest", log_path, "--out", out, *extra]) == 0
    with open(os.path.join(out, "wip.csv"), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# Recorded before ingest became a streaming parse; the sparse one when
# every calendar day became a row.
INGEST_GOLDENS = {
    "xes": "6499c43af152b10f6e0d28c547af0604edbd1361a4012c2ab760ba4378e48abb",
    "xes-gzip": "6499c43af152b10f6e0d28c547af0604edbd1361a4012c2ab760ba4378e48abb",
    "csv": "6499c43af152b10f6e0d28c547af0604edbd1361a4012c2ab760ba4378e48abb",
    "csv-sparse-new-york": "9bd009ab4a44441753682c44cdacafb67a64e77d7640f16ccaca790b708d1c1a",
}


@pytest.mark.parametrize("workload", sorted(INGEST_WORKLOADS))
def test_ingest_matches_golden(workload, tmp_path):
    assert ingest_digest(workload, str(tmp_path)) == INGEST_GOLDENS[workload]


# (mode, case) -> sha256 of forecast.jsonl for SNAPSHOT_TARGET on the snapshot
# workspace; "edited" adds 5 to every target in the daily snapshot. All were
# re-recorded when retrieval moved to the agents' cutoff, as of the current day.
FORECAST_GOLDENS = {
    ("rules", "as indexed"): "170eb3597a8c28c730a34c7e8c511aba69c07e872c732117f48016db180c4605",
    ("react", "as indexed"): "ebca799407900c84fbe59369183ca47177ce0139ba393daa4f4a0163283ec222",
    ("react", "edited"): "4bb46c5f390524e5c8aeab9794dd3f7fdcf4f759697afe92feb3d05a32e9d96a",
}
# Where memory is loaded from. With no snapshot there is nothing to edit.
FORECAST_LOADS = ("sidecars", "json lines", "no snapshot")
FORECAST_WORKLOADS = [(mode, case, load) for mode, case in FORECAST_GOLDENS for load in FORECAST_LOADS
                      if (case, load) != ("edited", "no snapshot")]


def forecast_digest(workspace, mode: str, case: str, load: str, out) -> str:
    """Forecast SNAPSHOT_TARGET on a copy of the snapshot workspace and hash forecast.jsonl."""
    shutil.copytree(workspace, out)
    if case == "edited":
        edit_targets(out)
    dropped = {"sidecars": (), "json lines": (".npz",), "no snapshot": (".npz", ".jsonl")}[load]
    for name in os.listdir(out):
        if name.startswith("index_") and name.endswith(dropped):
            os.remove(out / name)
    assert main(["forecast", "--out", str(out), "--date", SNAPSHOT_TARGET, "--mode", mode]) == 0
    with open(out / "forecast.jsonl", "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("mode, case, load", FORECAST_WORKLOADS)
def test_forecast_matches_golden(snapshot_workspace, tmp_path, mode, case, load):
    out = tmp_path / "run"
    assert forecast_digest(snapshot_workspace, mode, case, load, out) == FORECAST_GOLDENS[mode, case]
