"""CLI pipeline: subcommands, file products, exit codes, idempotency."""

import dataclasses
import gzip
import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
from collections import OrderedDict
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

from wipcast import cli, evaluation, memory, wipseries
from wipcast.agents import DEFAULT_FUSION_WEIGHTS
from wipcast.cli import main
from wipcast.config import TEST_FRACTION
from wipcast.evaluation import summarize
from wipcast.eventlog import ColumnMapping, export_csv, parse_csv, parse_xes, validate
from wipcast.memory import DeterministicEmbedder, RemoteEmbedder
from wipcast.narrative import GRANULARITIES, Story
from wipcast.synthetic import synthetic_event_log, synthetic_series
from wipcast.wipseries import (
    WipEvent,
    WipSeries,
    build_wip_series,
    export_wip_csv,
    load_wip_csv,
)

from conftest import SNAPSHOT_TARGET, edit_targets, random_wip_event, xes_document


@pytest.fixture(scope="module")
def log_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("logs") / "tickets.csv"
    log = synthetic_event_log(120, seed=21, span_days=45)
    path.write_text(export_csv(log))
    return str(path)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, log_path):
    """A fully populated output directory: ingest + stories + index."""
    out = str(tmp_path_factory.mktemp("work"))
    for argv in (["ingest", log_path, "--out", out],
                 ["stories", "--out", out],
                 ["index", "--out", out]):
        assert main(argv) == 0
    return out


def read_lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


# --- help ---


@pytest.mark.parametrize("command", [[], ["ingest"], ["stories"], ["index"], ["forecast"],
                                     ["evaluate"]])
def test_help_of_every_command_prints_and_exits_0(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_split_help_names_the_test_fraction(capsys):
    with pytest.raises(SystemExit):
        main(["evaluate", "--help"])
    assert f"the last {TEST_FRACTION:.0%} of days" in " ".join(capsys.readouterr().out.split())


# --- ingest ---


def test_ingest_writes_series(workspace):
    with open(os.path.join(workspace, "wip.csv"), encoding="utf-8") as fh:
        series = load_wip_csv(fh)
    assert len(series.events) >= 45
    assert series.events[0].date < series.events[-1].date


def test_ingest_missing_path_exits_2(tmp_path):
    assert main(["ingest", str(tmp_path / "absent.csv"), "--out", str(tmp_path)]) == 2


def test_ingest_without_path_exits_2(tmp_path):
    assert main(["ingest", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("case", ["log is a directory", "out is a file", "out is under a file",
                                  "wip.csv is a directory"])
def test_a_path_that_exists_but_cannot_be_used_exits_2(tmp_path, log_path, capsys, case):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    argv = {
        "log is a directory": ["ingest", str(tmp_path), "--format", "xes", "--out", str(tmp_path / "out")],
        "out is a file": ["ingest", log_path, "--out", str(blocker)],
        "out is under a file": ["ingest", log_path, "--out", str(blocker / "sub")],
        "wip.csv is a directory": ["forecast", "--out", str(tmp_path)],
    }[case]
    (tmp_path / "wip.csv").mkdir()
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_ingest_empty_log_exits_3(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("case,activity,timestamp\n")
    assert main(["ingest", str(empty), "--out", str(tmp_path)]) == 3
    assert "error" in capsys.readouterr().err


def test_ingest_unknown_extension_exits_1(tmp_path):
    weird = tmp_path / "log.parquet"
    weird.write_text("not a log")
    assert main(["ingest", str(weird), "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("name", ["cut.xes.gz", "cut.csv.gz"])
def test_ingest_truncated_gzip_exits_1(tmp_path, capsys, name):
    log = synthetic_event_log(120, seed=21, span_days=45)
    if name.endswith(".xes.gz"):
        by_case = {}
        for ev in log.events:
            by_case.setdefault(ev.case_id, []).append((ev.activity, ev.timestamp))
        text = xes_document(by_case)
    else:
        text = export_csv(log)
    packed = gzip.compress(text.encode("utf-8"))
    path = tmp_path / name
    path.write_bytes(packed[: len(packed) // 2])
    assert main(["ingest", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert name in err and "gzip" in err
    assert not (tmp_path / "out" / "wip.csv").exists()


def test_ingest_is_idempotent(tmp_path, log_path):
    out = str(tmp_path)
    assert main(["ingest", log_path, "--out", out]) == 0
    first = read_lines(os.path.join(out, "wip.csv"))
    assert main(["ingest", log_path, "--out", out]) == 0
    assert read_lines(os.path.join(out, "wip.csv")) == first


def test_ingest_prints_the_event_and_case_counts(tmp_path, nine_event_xes, capsys):
    path = tmp_path / "nine.xes"
    path.write_text(nine_event_xes)
    assert main(["ingest", str(path), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "ingested 9 events / 3 cases -> 4 days (2024-03-01 .. 2024-03-04)")


def test_ingest_counts_match_validate(tmp_path, log_path, capsys):
    with open(log_path, "rb") as fh:
        report = validate(parse_csv(fh, ColumnMapping("case", "activity", "timestamp")))
    assert main(["ingest", log_path, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith(
        f"ingested {report.event_count} events / {report.case_count} cases -> ")


# --- stories ---


def test_stories_counts(workspace):
    with open(os.path.join(workspace, "wip.csv"), encoding="utf-8") as fh:
        n = len(load_wip_csv(fh).events)
    daily = read_lines(os.path.join(workspace, "stories_daily.jsonl"))
    contextual = [json.loads(line) for line in daily if json.loads(line)["kind"] == "contextual"]
    assert len(contextual) == n - 1
    windowed = [json.loads(line) for line in
                read_lines(os.path.join(workspace, "stories_windowed.jsonl"))]
    # windowed stories need a full seven-day window: the first is dated day 7
    first_day = min(s["date"] for s in windowed)
    import datetime

    start = datetime.date.fromisoformat(first_day)
    with open(os.path.join(workspace, "wip.csv"), encoding="utf-8") as fh:
        series_start = load_wip_csv(fh).events[0].date
    assert (start - series_start).days == 6


def test_stories_before_ingest_exits_2(tmp_path):
    assert main(["stories", "--out", str(tmp_path)]) == 2


# --- index ---


def test_index_files_hold_contextual_docs(workspace):
    for granularity in ("daily", "weekday", "windowed"):
        lines = read_lines(os.path.join(workspace, f"index_{granularity}.jsonl"))
        assert lines
        record = json.loads(lines[0])
        assert set(record) >= {"doc_id", "date", "text", "target", "embedding"}


def test_index_before_stories_exits_2(tmp_path):
    assert main(["index", "--out", str(tmp_path)]) == 2


def test_index_reads_the_series_not_the_stories(tmp_path, workspace, log_path):
    out = tmp_path / "run"
    assert main(["ingest", log_path, "--out", str(out)]) == 0
    assert main(["index", "--out", str(out)]) == 0
    assert not list(out.glob("stories_*"))
    for g in ("daily", "weekday", "windowed"):  # the bytes of ingest, stories, index
        assert (out / f"index_{g}.jsonl").read_bytes() == Path(workspace, f"index_{g}.jsonl").read_bytes()


def one_day_run(tmp_path, workspace):
    """A run directory whose wip.csv holds only the first day of the workspace's."""
    out = tmp_path / "run"
    out.mkdir()
    (out / "wip.csv").write_text("\n".join(read_lines(os.path.join(workspace, "wip.csv"))[:2]) + "\n")
    return out


def test_a_one_day_series_has_no_stories_to_write(tmp_path, workspace, capsys):
    out = one_day_run(tmp_path, workspace)
    assert main(["stories", "--out", str(out)]) == 1
    assert "need at least two days to render contextual stories" in capsys.readouterr().err
    assert not list(out.glob("stories_*"))


@pytest.mark.parametrize("snapshots", [False, True])
def test_forecast_on_a_one_day_series_forecasts_from_empty_memory(tmp_path, workspace, snapshots):
    out = one_day_run(tmp_path, workspace)
    if snapshots:
        assert main(["index", "--out", str(out)]) == 0
        assert all((out / f"index_{g}.jsonl").read_bytes() == b""
                   for g in ("daily", "weekday", "windowed"))
    assert main(["forecast", "--out", str(out)]) == 0
    record = json.loads(read_lines(out / "forecast.jsonl")[0])
    close = float(read_lines(out / "wip.csv")[1].split(",")[7])
    # nothing to retrieve, so the stub answers each agent with the current close
    assert [record[aid] for aid in ("daily", "weekday", "windowed")] == [close] * 3
    assert record["final"] == close


# --- forecast ---


def test_forecast_writes_report(workspace, capsys):
    assert main(["forecast", "--out", workspace]) == 0
    out = capsys.readouterr().out
    assert "forecast for" in out
    lines = read_lines(os.path.join(workspace, "forecast.jsonl"))
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert set(record) == {"date", "final", "mode", "daily", "weekday",
                           "windowed", "trend_label", "rationale"}
    assert record["mode"] == "rules"


def test_forecast_react_mode(workspace):
    assert main(["forecast", "--out", workspace, "--mode", "react"]) == 0
    record = json.loads(read_lines(os.path.join(workspace, "forecast.jsonl"))[0])
    assert record["mode"] == "react"


def test_forecast_specific_date(workspace):
    with open(os.path.join(workspace, "wip.csv"), encoding="utf-8") as fh:
        series = load_wip_csv(fh)
    target = series.events[20].date
    assert main(["forecast", "--out", workspace, "--date", target.isoformat()]) == 0
    record = json.loads(read_lines(os.path.join(workspace, "forecast.jsonl"))[0])
    assert record["date"] == target.isoformat()


# Target days whose previous day is not in the series, from its first and last day.
OUTSIDE_TARGETS = {
    "long before": lambda first, last: first - timedelta(days=400),
    "first day": lambda first, last: first,
    "two days after": lambda first, last: last + timedelta(days=2),
    "long after": lambda first, last: last + timedelta(days=400),
}


def test_forecast_in_an_empty_directory_exits_2_naming_the_stage_to_run(tmp_path, capsys):
    assert main(["forecast", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "run `wipcast ingest` first" in err
    assert "--series" not in err  # no subcommand has that flag


@pytest.mark.parametrize("argv", [["evaluate", "--split", "nope"],
                                  ["evaluate", "--split", "2024-13-01"],
                                  ["forecast", "--date", "2024-02-30"]])
def test_a_date_flag_that_is_not_an_iso_date_exits_1_naming_it(workspace, capsys, argv):
    assert main([*argv, "--out", workspace]) == 1
    assert f"{argv[1]} must be an ISO date, got {argv[2]!r}" in capsys.readouterr().err


def test_forecast_date_outside_series_exits_1(workspace):
    assert main(["forecast", "--out", workspace, "--date", "1999-01-01"]) == 1


@pytest.mark.parametrize("where", list(OUTSIDE_TARGETS))
def test_forecast_date_without_its_previous_day_exits_1_naming_it(workspace, capsys, where):
    with open(os.path.join(workspace, "wip.csv"), encoding="utf-8") as fh:
        events = load_wip_csv(fh).events
    target = OUTSIDE_TARGETS[where](events[0].date, events[-1].date)
    assert main(["forecast", "--out", workspace, "--date", target.isoformat()]) == 1
    assert f"cannot forecast {target}: no series day at" in capsys.readouterr().err


def test_forecast_of_the_first_calendar_day_exits_1_naming_it(workspace, capsys):
    # The day before it used to end in an OverflowError traceback.
    assert main(["forecast", "--out", workspace, "--date", "0001-01-01"]) == 1
    assert "error: cannot forecast 0001-01-01: the calendar has no day before it" in (
        capsys.readouterr().err)


def test_forecast_after_the_last_calendar_day_exits_1_naming_it(tmp_path, capsys):
    # The day after it used to end in an OverflowError traceback.
    log = tmp_path / "tickets.csv"
    log.write_text("case,activity,timestamp,lifecycle\n"
                   "c1,open,9999-12-29T09:00:00+00:00,\n"
                   "c2,open,9999-12-30T09:00:00+00:00,\n"
                   "c1,close,9999-12-31T09:00:00+00:00,\n"
                   "c2,close,9999-12-31T10:00:00+00:00,\n")
    assert main(["ingest", str(log), "--out", str(tmp_path)]) == 0
    assert read_lines(tmp_path / "wip.csv")[-1].startswith("9999-12-31,")
    capsys.readouterr()
    assert main(["forecast", "--out", str(tmp_path)]) == 1
    assert "error: cannot forecast the day after 9999-12-31: the calendar ends there" in (
        capsys.readouterr().err)


def test_a_second_forecast_in_one_process_builds_no_days(tmp_path, workspace, monkeypatch):
    out = tmp_path / "run"
    shutil.copytree(workspace, out)
    built = []
    real = WipEvent.__post_init__

    def counted(event):
        built.append(event.date)
        real(event)

    monkeypatch.setattr(WipEvent, "__post_init__", counted)
    argv = ["forecast", "--out", str(out), "--mode", "react"]
    assert main(argv) == 0
    assert built  # the first forecast read the series
    built.clear()
    assert main(argv) == 0
    assert built == []


# A wip.csv row edited by a fault, and the message that names it.
WIP_ROW_FAULTS = {
    "short row": (lambda fields: fields[:-2], "expected 11 fields, got 9"),
    "non-integer count": (lambda fields: fields[:7] + ["x"] + fields[8:],
                          "invalid literal for int() with base 10: 'x'"),
    "bad date": (lambda fields: ["2024-13-05"] + fields[1:], "month must be in 1..12"),
    "OHLC out of order": (lambda fields: fields[:5] + [str(int(fields[6]) - 1)] + fields[6:],
                          "OHLC out of order"),
    "repeated date": (None, "dates not strictly increasing"),
    "day of week": (lambda fields: fields[:1] + ["9"] + fields[2:], "do not match the date"),
    "huge count": (lambda fields: fields[:-1] + ["9" * 20], "out of the 64-bit range"),
}


@pytest.mark.parametrize("fault", list(WIP_ROW_FAULTS))
def test_forecast_on_a_malformed_wip_csv_row_exits_1_naming_file_and_line(tmp_path, workspace,
                                                                           capsys, fault):
    out = tmp_path / "run"
    shutil.copytree(workspace, out)
    lines = read_lines(out / "wip.csv")
    edit, want = WIP_ROW_FAULTS[fault]
    lines[3] = lines[2] if edit is None else ",".join(edit(lines[3].split(",")))
    (out / "wip.csv").write_text("\n".join(lines) + "\n")
    assert main(["forecast", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "wip.csv, line 4: " in err and want in err


@pytest.mark.parametrize("stage", ["stories", "index", "forecast", "evaluate"])
def test_a_wip_csv_with_a_missing_day_exits_1_naming_the_line_and_the_day(tmp_path, workspace, capsys,
                                                                          stage):
    # a day's stories name the next row's close as the next day's WiP, so
    # every stage refuses a series whose next row is a later day
    out = tmp_path / "run"
    shutil.copytree(workspace, out)
    lines = read_lines(out / "wip.csv")
    missing = lines.pop(5).split(",")[0]
    (out / "wip.csv").write_text("\n".join(lines) + "\n")
    assert main([stage, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "wip.csv, line 6: " in err and f": {missing} is missing" in err


def test_forecast_without_index_snapshots_embeds_on_the_fly(tmp_path, log_path):
    out = str(tmp_path)
    assert main(["ingest", log_path, "--out", out]) == 0
    assert main(["forecast", "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "forecast.jsonl"))


# Days j of synthetic_series(200, seed=3) whose close is forecast, spread over the series.
TRUNCATION_STEPS = (2, 30, 61, 95, 128, 164, 199)


@pytest.mark.parametrize("snapshots", [False, True], ids=["no snapshots", "snapshots"])
@pytest.mark.parametrize("mode", ["rules", "react"])
def test_a_forecast_is_the_same_on_a_wip_csv_cut_before_the_day_it_forecasts(tmp_path, mode,
                                                                              snapshots):
    # the story dated the day before d ends with d's close, the very value
    # being forecast: were it eligible, cutting wip.csv after that day would
    # change the forecast of d
    events = synthetic_series(200, seed=3).events

    def run_dir(name, days):
        out = tmp_path / name
        out.mkdir()
        (out / "wip.csv").write_text(export_wip_csv(WipSeries(events=days)), encoding="utf-8",
                                     newline="")
        if snapshots:
            assert main(["index", "--out", str(out)]) == 0
        return out

    def forecast(out, *extra):
        assert main(["forecast", "--out", str(out), "--mode", mode, *extra]) == 0
        return (out / "forecast.jsonl").read_bytes()

    full = run_dir("full", events)
    for j in TRUNCATION_STEPS:
        day = events[j].date.isoformat()
        assert forecast(run_dir(f"cut-{j}", events[:j])) == forecast(full, "--date", day), day


# --- evaluate ---


@pytest.fixture(scope="module")
def evaluated(workspace):
    assert main(["evaluate", "--out", workspace, "--freeze-timestamps"]) == 0
    return workspace


def test_evaluate_emits_metrics_for_all_sources(evaluated):
    lines = read_lines(os.path.join(evaluated, "metrics.csv"))
    assert lines[0] == "source,mape,mae,n,skipped"
    assert [line.split(",")[0] for line in lines[1:]] == [
        "multi_agent", "daily_only", "weekday_only", "windowed_only", "persistence",
    ]


def test_evaluate_predictions_cover_every_source_each_day(evaluated):
    lines = read_lines(os.path.join(evaluated, "predictions.csv"))
    rows = [line.split(",") for line in lines[1:]]
    by_source = {}
    for date_str, source, _, _ in rows:
        by_source.setdefault(source, []).append(date_str)
    days = set(map(tuple, by_source.values()))
    assert len(days) == 1  # every source covers exactly the same days
    assert len(by_source) == 5


def test_evaluate_writes_reports_jsonl(evaluated):
    lines = read_lines(os.path.join(evaluated, "forecast_reports.jsonl"))
    assert lines
    record = json.loads(lines[0])
    assert record["mode"] == "rules"


def test_a_failing_evaluate_leaves_the_last_runs_outputs(tmp_path, workspace, capsys):
    out = tmp_path / "run"
    shutil.copytree(workspace, out)
    assert main(["evaluate", "--out", str(out)]) == 0
    names = ("predictions.csv", "metrics.csv", "report.svg", "forecast_reports.jsonl")
    before = {name: (out / name).read_bytes() for name in names}
    # the latest event closes the last open case, so the log's last close is 0
    *_, second_to_last, last = read_lines(out / "wip.csv")
    assert last.split(",")[7] == "0"
    assert main(["evaluate", "--out", str(out), "--split", second_to_last.split(",")[0]]) == 1
    assert capsys.readouterr().err.endswith("error: MAPE undefined: every actual is zero\n")
    assert {name: (out / name).read_bytes() for name in names} == before


def test_evaluate_summarizes_the_merged_trace_once(tmp_path, workspace, monkeypatch, capsys):
    # metrics.csv and the printed table come from one summary of the trace
    out = tmp_path / "run"
    shutil.copytree(workspace, out)
    traces = []

    def counted(trace):
        traces.append(trace)
        return summarize(trace)

    monkeypatch.setattr(cli, "summarize", counted)
    monkeypatch.setattr(evaluation, "summarize", counted)
    assert main(["evaluate", "--out", str(out), "--freeze-timestamps"]) == 0
    assert len(traces) == 1
    printed = capsys.readouterr().out.splitlines()
    [summary_line] = [line for line in printed if line.startswith("persistence ")]
    [metrics_line] = [line for line in read_lines(out / "metrics.csv") if line.startswith("persistence,")]
    assert summary_line.split()[3] == metrics_line.split(",")[3]  # n


def test_evaluate_is_deterministic(tmp_path_factory, log_path):
    outs = []
    for name in ("run_a", "run_b"):
        out = str(tmp_path_factory.mktemp(name))
        assert main(["ingest", log_path, "--out", out]) == 0
        assert main(["evaluate", "--out", out, "--freeze-timestamps"]) == 0
        outs.append(out)
    for fname in ("predictions.csv", "metrics.csv", "report.svg"):
        a = Path(outs[0], fname).read_bytes()
        b = Path(outs[1], fname).read_bytes()
        assert a == b, fname


def test_evaluate_explicit_split(workspace):
    with open(os.path.join(workspace, "wip.csv"), encoding="utf-8") as fh:
        series = load_wip_csv(fh)
    split = series.events[-5].date
    assert main(["evaluate", "--out", workspace, "--split", split.isoformat(),
                 "--freeze-timestamps"]) == 0
    lines = read_lines(os.path.join(workspace, "predictions.csv"))
    assert len(lines) == 1 + 4 * 5  # four test days, five sources


def test_evaluate_split_too_early_exits_1(workspace):
    assert main(["evaluate", "--out", workspace, "--split", "2024-01-02"]) == 1


# --- config and global flags ---


def test_config_file_sets_out_dir(tmp_path, log_path):
    out = tmp_path / "results"
    cfg_path = tmp_path / "pipeline.json"
    cfg_path.write_text(json.dumps({"out_dir": str(out)}))
    assert main(["ingest", log_path, "--config", str(cfg_path)]) == 0
    assert (out / "wip.csv").exists()


def test_config_file_missing_exits_2(tmp_path, log_path):
    assert main(["ingest", log_path, "--config", str(tmp_path / "no.json")]) == 2


def test_config_invalid_key_exits_1(tmp_path, log_path):
    cfg_path = tmp_path / "pipeline.json"
    cfg_path.write_text(json.dumps({"bogus": True}))
    assert main(["ingest", log_path, "--config", str(cfg_path),
                 "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("section, key", [({"k": "5"}, "forecast.k"),
                                          ({"trend_thresholds": 0.5}, "forecast.trend_thresholds")])
def test_config_value_of_the_wrong_type_exits_1_naming_the_key(tmp_path, log_path, capsys,
                                                              section, key):
    cfg_path = tmp_path / "pipeline.json"
    cfg_path.write_text(json.dumps({"forecast": section}))
    assert main(["ingest", log_path, "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    assert f"error: config key {key} must be " in capsys.readouterr().err
    assert not (tmp_path / "wip.csv").exists()


@pytest.mark.parametrize("section, want", [
    ({"trend_window": 14}, "forecast.trend_window (14) must be less than forecast.trend_lookback (14)"),
])
def test_config_that_would_silently_degrade_forecasts_exits_1(tmp_path, workspace, capsys,
                                                               section, want):
    cfg_path = tmp_path / "pipeline.json"
    cfg_path.write_text(json.dumps({"forecast": section}))  # writes NaN, which json reads back
    for stage in ("forecast", "evaluate"):
        assert main([stage, "--out", workspace, "--config", str(cfg_path)]) == 1
        assert f"error: {want}" in capsys.readouterr().err


def test_an_unknown_lifecycle_in_config_exits_1_naming_it(tmp_path, workspace, capsys):
    out = tmp_path / "run"
    shutil.copytree(workspace, out)
    cfg_path = tmp_path / "pipeline.json"
    cfg_path.write_text(json.dumps({"lifecycle": "nope"}))
    for stage in ("forecast", "evaluate"):  # forecast used to run, ignoring the key
        assert main([stage, "--out", str(out), "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == "error: unknown config keys: ['lifecycle']\n"


@pytest.mark.parametrize("data, unknown", [
    ({"forecast": {"max_age_days": 10}}, "ForecastParams keys: ['max_age_days']"),
    ({"forecast": {"min_similarity": 0.5}}, "ForecastParams keys: ['min_similarity']"),
    ({"test_fraction": 0.25}, "config keys: ['test_fraction']"),
])
def test_a_retention_or_test_fraction_key_exits_1_as_unknown(tmp_path, workspace, capsys,
                                                             data, unknown):
    # a story is eligible exactly when it is dated before the forecast day, and
    # evaluate's default split holds out TEST_FRACTION: neither has a knob
    cfg_path = tmp_path / "pipeline.json"
    cfg_path.write_text(json.dumps(data))
    for stage in ("forecast", "evaluate"):
        assert main([stage, "--out", workspace, "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"error: unknown {unknown}\n"


def test_a_gap_policy_is_refused_in_config_and_on_the_command_line(tmp_path, workspace, log_path,
                                                                    capsys):
    # every calendar day is a row of wip.csv; there is no gap policy to choose
    out = tmp_path / "run"
    shutil.copytree(workspace, out)
    cfg_path = tmp_path / "pipeline.json"
    cfg_path.write_text(json.dumps({"gap_policy": "carry"}))
    for argv in (["ingest", log_path], ["forecast"], ["evaluate"]):
        assert main([*argv, "--out", str(out), "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == "error: unknown config keys: ['gap_policy']\n"
    with pytest.raises(SystemExit) as err:
        main(["ingest", log_path, "--out", str(out), "--gap-policy", "drop"])
    assert err.value.code == 2


def test_backend_remote_without_endpoint_exits_1(workspace):
    assert main(["forecast", "--out", workspace, "--backend", "remote"]) == 1


@pytest.mark.parametrize("timeout", ["1e308", "Infinity"])
def test_a_backend_timeout_a_socket_cannot_take_exits_1_naming_the_key(tmp_path, workspace, capsys,
                                                                       timeout):
    # each used to end in an OverflowError traceback from sock.settimeout
    cfg_path = tmp_path / "pipeline.json"
    cfg_path.write_text('{"backend": {"kind": "remote", "endpoint": "http://127.0.0.1:9/chat", '
                        f'"timeout": {timeout}}}}}')
    argv = ["forecast", "--out", workspace, "--mode", "react", "--config", str(cfg_path)]
    assert main(argv) == 1
    assert "error: config key backend.timeout must be positive and at most 9223372036 s" in (
        capsys.readouterr().err)


def test_scheme_less_endpoint_in_config_exits_1_naming_the_key(tmp_path, log_path, capsys):
    cfg_path = tmp_path / "pipeline.json"
    cfg_path.write_text(json.dumps({"backend": {"kind": "remote",
                                                "endpoint": "llm.example/v1/chat"}}))
    assert main(["ingest", log_path, "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    assert "error: config key backend.endpoint must be an http:// or https:// URL" in (
        capsys.readouterr().err)


def test_parser_is_built_once(tmp_path):
    assert main(["stories", "--out", str(tmp_path)]) == 2
    built = cli.build_parser.cache_info().misses
    assert main(["stories", "--out", str(tmp_path)]) == 2
    assert cli.build_parser.cache_info().misses == built == 1


def test_a_rebound_command_decides_what_the_next_call_runs(tmp_path, monkeypatch):
    assert main(["stories", "--out", str(tmp_path)]) == 2
    calls = []
    monkeypatch.setattr(cli, "cmd_forecast", lambda args, cfg: calls.append(args.date) or 0)
    assert main(["forecast", "--out", str(tmp_path), "--date", "2024-01-02"]) == 0
    assert calls == ["2024-01-02"]


def test_no_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["transmogrify"])
    assert err.value.code == 2


# --- index snapshots: binary sidecar and JSON-lines fallback ---
# The forecast these tests expect is what a cold forecast of the same files
# writes; its bytes are pinned in test_goldens.py.


@pytest.fixture
def jsonl_loads(monkeypatch):
    """Records every snapshot that is parsed from its JSON lines."""
    parsed = []
    real = memory.load_index

    def spy(fp, *args, **kwargs):
        parsed.append(fp)
        return real(fp, *args, **kwargs)

    monkeypatch.setattr(memory, "load_index", spy)
    return parsed


def forecast_jsonl(out, *extra) -> bytes:
    """The forecast.jsonl that `forecast` writes for SNAPSHOT_TARGET in react mode on ``out``."""
    argv = ["forecast", "--out", str(out), "--date", SNAPSHOT_TARGET, "--mode", "react", *extra]
    assert main(argv) == 0
    return (Path(out) / "forecast.jsonl").read_bytes()


# What the spies below replace, as a cold forecast calls it.
UNSPIED = [(memory, "load_index", memory.load_index),
           (memory, "_load_sidecar", memory._load_sidecar),
           (memory, "_sha256", memory._sha256),
           (wipseries, "load_wip_csv", wipseries.load_wip_csv)]


def cold_forecast_jsonl(out, *extra) -> bytes:
    """What :func:`forecast_jsonl` writes from the JSON lines and wip.csv in ``out``
    when nothing is held: on a fresh copy of the run without its sidecars, on an
    empty hold swapped in for the call, with no spy counting its loads. A warm,
    edited, fallback or respelled load must forecast as this does."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(memory, "_held", OrderedDict())
        for owner, name, real in UNSPIED:
            patch.setattr(owner, name, real)
        copy = Path(tmp) / "run"
        shutil.copytree(out, copy, ignore=shutil.ignore_patterns("*.npz"))
        return forecast_jsonl(copy, *extra)


def test_index_writes_sidecar_beside_each_snapshot(snapshot_workspace):
    for g in ("daily", "weekday", "windowed"):
        jsonl = (snapshot_workspace / f"index_{g}.jsonl").read_bytes()
        with np.load(snapshot_workspace / f"index_{g}.npz", allow_pickle=False) as npz:
            assert str(npz["jsonl_sha256"]) == hashlib.sha256(jsonl).hexdigest()
            assert npz["int_columns"].shape == (len(jsonl.splitlines()), 3)


def test_forecast_uses_sidecar(tmp_path, snapshot_workspace, jsonl_loads):
    out = tmp_path / "run"
    shutil.copytree(snapshot_workspace, out)
    assert forecast_jsonl(out) == cold_forecast_jsonl(out)
    assert jsonl_loads == []


def write_older_sidecar(out, utf8_texts=False):
    """The sidecar as written before it held int columns and granularity codes: one
    array per column, granularities as a fixed-width string array, with the right
    sha256. Texts are a fixed-width string array too or, with ``utf8_texts``,
    one UTF-8 byte array cut at the character offsets in text_ends."""
    path = out / "index_daily.jsonl"
    records = [json.loads(line) for line in read_lines(path)]
    columns = {name: [r[key] for r in records] for name, key in (
        ("embeddings", "embedding"), ("doc_ids", "doc_id"), ("targets", "target"),
        ("texts", "text"), ("granularities", "granularity"))}
    columns["dates"] = [date.fromisoformat(r["date"]).toordinal() for r in records]
    arrays = {name: np.array(values) for name, values in columns.items()}
    if utf8_texts:
        texts = columns["texts"]
        arrays.update(texts=np.frombuffer("".join(texts).encode("utf-8"), dtype=np.uint8),
                      text_ends=np.cumsum([len(text) for text in texts], dtype=np.int64))
    with open(out / "index_daily.npz", "wb") as fh:
        np.savez(fh, jsonl_sha256=np.array(hashlib.sha256(path.read_bytes()).hexdigest()),
                 **arrays)


@pytest.mark.parametrize("damage", ["edited jsonl", "deleted sidecar", "truncated sidecar",
                                    "older sidecar layout", "text_ends sidecar layout"])
def test_forecast_falls_back_to_jsonl(tmp_path, snapshot_workspace, jsonl_loads, damage):
    out = tmp_path / "run"
    shutil.copytree(snapshot_workspace, out)
    sidecar = out / "index_daily.npz"
    if damage == "edited jsonl":
        edit_targets(out)
    elif damage == "deleted sidecar":
        sidecar.unlink()
    elif damage == "older sidecar layout":
        write_older_sidecar(out)
        with np.load(sidecar) as npz:
            assert npz["texts"].dtype.kind == "U" and "text_ends" not in npz
    elif damage == "text_ends sidecar layout":
        write_older_sidecar(out, utf8_texts=True)
        with np.load(sidecar) as npz:
            assert npz["texts"].dtype == np.uint8 and npz["granularities"].dtype.kind == "U"
    else:
        data = sidecar.read_bytes()
        sidecar.write_bytes(data[:len(data) // 2])
    want = cold_forecast_jsonl(out)
    if damage == "edited jsonl":
        assert want != cold_forecast_jsonl(snapshot_workspace)
    assert forecast_jsonl(out) == want
    assert len(jsonl_loads) == 1  # only the daily snapshot was parsed


# --- snapshots held across forecasts in one process ---
SNAPSHOTS = [f"index_{g}.jsonl" for g in ("daily", "weekday", "windowed")]


@pytest.fixture
def sidecar_loads(monkeypatch):
    """Records the JSON-lines path of every snapshot whose sidecar is opened."""
    opened = []
    real = memory._load_sidecar

    def spy(path, *args):
        opened.append(path)
        return real(path, *args)

    monkeypatch.setattr(memory, "_load_sidecar", spy)
    return opened


def test_forecasts_in_one_process_open_each_sidecar_once(tmp_path, snapshot_workspace,
                                                         sidecar_loads, jsonl_loads):
    run, copy = tmp_path / "run", tmp_path / "copy"
    for out in (run, copy):
        shutil.copytree(snapshot_workspace, out)
    cold = cold_forecast_jsonl(run)
    assert [forecast_jsonl(run) for _ in range(2)] == [cold, cold]
    assert sorted(sidecar_loads) == [str(run / name) for name in SNAPSHOTS]
    # the same bytes in another run directory are that directory's own snapshots
    assert forecast_jsonl(copy) == cold
    assert sorted(sidecar_loads[3:]) == [str(copy / name) for name in SNAPSHOTS]
    assert jsonl_loads == []


def test_a_snapshot_edited_between_forecasts_is_read_again(tmp_path, snapshot_workspace,
                                                           jsonl_loads):
    out = tmp_path / "run"
    shutil.copytree(snapshot_workspace, out)
    indexed = cold_forecast_jsonl(out)
    assert forecast_jsonl(out) == indexed
    edit_targets(out)
    edited = cold_forecast_jsonl(out)
    assert edited != indexed
    assert forecast_jsonl(out) == edited
    assert len(jsonl_loads) == 1  # only the edited daily snapshot was parsed


def test_a_snapshot_broken_between_forecasts_fails_on_every_call(tmp_path, snapshot_workspace,
                                                                 capsys):
    out = tmp_path / "run"
    shutil.copytree(snapshot_workspace, out)
    indexed = cold_forecast_jsonl(out)
    assert forecast_jsonl(out) == indexed
    path = out / "index_daily.jsonl"
    good = path.read_bytes()
    lines = good.splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:3] + [lines[3][:40] + b"\n"] + lines[4:]))
    for _ in range(2):  # a failed load is not held
        assert main(["forecast", "--out", str(out), "--date", SNAPSHOT_TARGET]) == 1
        assert (f"error: {path}, line 4: not a snapshot record (JSONDecodeError"
                in capsys.readouterr().err)
    path.write_bytes(good)
    assert forecast_jsonl(out) == indexed


@pytest.mark.parametrize("missing", [("windowed",), ("daily", "weekday")])
def test_a_run_with_only_some_index_snapshots_exits_2_naming_the_first_missing(
        tmp_path, snapshot_workspace, capsys, missing):
    # the snapshots present used to be ignored: forecast embedded every story
    # on the fly and exited 0, whatever they held
    out = tmp_path / "run"
    shutil.copytree(snapshot_workspace, out)
    for g in missing:
        (out / f"index_{g}.jsonl").unlink()
    argv = ["forecast", "--out", str(out), "--date", SNAPSHOT_TARGET]
    assert main(argv) == 2
    first = out / f"index_{missing[0]}.jsonl"
    assert capsys.readouterr().err == (f"error: {first} not found (other index snapshots exist; "
                                       "run `wipcast index` to write all of them)\n")
    assert not (out / "forecast.jsonl").exists()
    for g in GRANULARITIES:  # with none, every story is embedded on the fly
        (out / f"index_{g}.jsonl").unlink(missing_ok=True)
    assert main(argv) == 0


def test_held_snapshot_columns_are_read_only(tmp_path, snapshot_workspace):
    out = tmp_path / "run"
    shutil.copytree(snapshot_workspace, out)
    path = str(out / "index_daily.jsonl")
    index = memory.load_snapshot(path)
    for column in index._state[:6]:
        with pytest.raises(ValueError, match="read-only"):
            column[:1] = column[:1]
    assert isinstance(index._state[6], tuple)  # the texts
    size = len(index)
    story = Story("The WiP items opened at 3.", "contextual", "daily", date(2030, 1, 1), 4.0)
    index.add_many([story], [np.ones(index.dim)])  # builds new columns
    assert (len(index), len(memory.load_snapshot(path))) == (size + 1, size)


def test_a_snapshot_replaced_after_it_was_hashed_is_parsed_as_hashed(tmp_path, snapshot_workspace,
                                                                     monkeypatch):
    out = tmp_path / "run"
    shutil.copytree(snapshot_workspace, out)
    (out / "index_daily.npz").unlink()
    path = out / "index_daily.jsonl"
    targets = [json.loads(line)["target"] for line in read_lines(path)]
    real, edited = memory._sha256, []

    def hash_then_edit(data):
        if not edited:
            edit_targets(out)
            edited.append(path)
        return real(data)

    monkeypatch.setattr(memory, "_sha256", hash_then_edit)
    as_hashed = memory.load_snapshot(str(path))
    assert [story.target for story in as_hashed.documents().values()] == targets
    as_edited = memory.load_snapshot(str(path))
    assert [story.target for story in as_edited.documents().values()] == [t + 5 for t in targets]


@pytest.fixture
def hashed(monkeypatch):
    """Records the bytes of every run file that is hashed."""
    seen = []
    real = memory._sha256

    def spy(data):
        seen.append(data)
        return real(data)

    monkeypatch.setattr(memory, "_sha256", spy)
    return seen


def test_a_warm_forecast_hashes_nothing(tmp_path, snapshot_workspace, hashed):
    out = tmp_path / "run"
    shutil.copytree(snapshot_workspace, out)
    indexed = cold_forecast_jsonl(out)
    assert forecast_jsonl(out) == indexed
    assert sorted(hashed) == sorted((out / name).read_bytes() for name in [*SNAPSHOTS, "wip.csv"])
    assert forecast_jsonl(out) == indexed
    assert len(hashed) == 4  # unchanged files are compared with the held bytes, not hashed
    edit_targets(out)
    edited = cold_forecast_jsonl(out)
    assert edited != indexed
    assert forecast_jsonl(out) == edited
    assert hashed[4:] == [(out / "index_daily.jsonl").read_bytes()]


def rewrite_keeping_size_and_mtime(path, data):
    """Writes ``data``, as long as what ``path`` holds, and restores its modification time."""
    before = os.stat(path)
    path.write_bytes(data)
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(path)
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)


def test_the_hold_compares_content_not_size_or_mtime(tmp_path, snapshot_workspace, sidecar_loads,
                                                     jsonl_loads):
    out = tmp_path / "run"
    shutil.copytree(snapshot_workspace, out)
    path = out / "index_daily.jsonl"
    indexed = path.read_bytes()
    at = indexed.index(b'"target": ') + len(b'"target": ')  # the first story's target
    edited = indexed[:at] + str(int(indexed[at:at + 1]) % 9 + 1).encode() + indexed[at + 1:]
    daily_loads = []
    for data in (indexed, edited, indexed):  # A, B, A again, each of one size and mtime
        rewrite_keeping_size_and_mtime(path, data)
        assert main(["forecast", "--out", str(out), "--date", SNAPSHOT_TARGET, "--mode", "react"]) == 0
        daily_loads.append(sidecar_loads.count(str(path)))
        assert memory._held[os.path.realpath(path)][0] == data
    assert daily_loads == [1, 2, 3]  # loaded on each flip
    assert len(jsonl_loads) == 1  # B, whose bytes the sidecar was not written from, was parsed
    assert sorted(memory._held) == sorted(os.path.realpath(out / name)
                                          for name in [*SNAPSHOTS, "wip.csv"])
    assert len(memory._held) == len(GRANULARITIES) + 1


# --- wip.csv held with the snapshots ---


@pytest.fixture
def wip_csv_parses(monkeypatch):
    """Records the file name of every wip.csv that is parsed."""
    parsed = []
    real = wipseries.load_wip_csv

    def spy(source):
        parsed.append(source.name)
        return real(source)

    monkeypatch.setattr(wipseries, "load_wip_csv", spy)
    return parsed


def edit_wip_day(out):
    """Count one more new item on the day before SNAPSHOT_TARGET, which its query stories tell."""
    path = out / "wip.csv"
    day = (date.fromisoformat(SNAPSHOT_TARGET) - timedelta(days=1)).isoformat()
    lines = read_lines(path)
    (i, fields), = [(i, line.split(",")) for i, line in enumerate(lines) if line.startswith(day)]
    fields[8] = str(int(fields[8]) + 1)
    lines[i] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def test_forecasts_in_one_process_parse_wip_csv_once(tmp_path, snapshot_workspace, sidecar_loads,
                                                      wip_csv_parses):
    out = tmp_path / "run"
    shutil.copytree(snapshot_workspace, out)
    cold = cold_forecast_jsonl(out)
    assert [forecast_jsonl(out) for _ in range(2)] == [cold, cold]
    assert wip_csv_parses == [str(out / "wip.csv")]
    assert sorted(sidecar_loads) == [str(out / name) for name in SNAPSHOTS]


def test_a_wip_csv_edited_between_forecasts_is_read_again(tmp_path, snapshot_workspace,
                                                          wip_csv_parses):
    out = tmp_path / "run"
    shutil.copytree(snapshot_workspace, out)
    indexed = cold_forecast_jsonl(out)
    assert forecast_jsonl(out) == indexed
    edit_wip_day(out)
    edited = cold_forecast_jsonl(out)
    assert edited != indexed
    assert forecast_jsonl(out) == edited
    memory._held.clear()
    assert forecast_jsonl(out) == edited
    assert wip_csv_parses == [str(out / "wip.csv")] * 3


def test_a_wip_csv_broken_between_forecasts_fails_on_every_call(tmp_path, snapshot_workspace,
                                                                capsys):
    out = tmp_path / "run"
    shutil.copytree(snapshot_workspace, out)
    indexed = cold_forecast_jsonl(out)
    assert forecast_jsonl(out) == indexed
    path = out / "wip.csv"
    good = path.read_bytes()
    lines = good.splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:3] + [lines[3][:20] + b"\n"] + lines[4:]))
    for _ in range(2):  # a failed parse is not held
        assert main(["forecast", "--out", str(out), "--date", SNAPSHOT_TARGET]) == 1
        assert f"error: {path}, line 4: expected 11 fields" in capsys.readouterr().err
    path.write_bytes(good)
    assert forecast_jsonl(out) == indexed


def test_a_wip_csv_rewritten_after_it_was_hashed_is_parsed_as_hashed(tmp_path, snapshot_workspace,
                                                                     monkeypatch):
    out = tmp_path / "run"
    shutil.copytree(snapshot_workspace, out)
    with open(out / "wip.csv", encoding="utf-8") as fh:
        days = tuple(load_wip_csv(fh).events)
    real, edited = memory._sha256, []

    def hash_then_edit(data):
        if not edited:
            edit_wip_day(out)
            edited.append(out)
        return real(data)

    monkeypatch.setattr(memory, "_sha256", hash_then_edit)
    assert cli._load_series(str(out)).events == days
    as_edited = cli._load_series(str(out)).events
    assert len(as_edited) == len(days) and as_edited != days


def test_unchanged_wip_csv_loads_as_one_frozen_series(tmp_path, snapshot_workspace):
    out = tmp_path / "run"
    shutil.copytree(snapshot_workspace, out)
    series = cli._load_series(str(out))
    assert cli._load_series(str(out)) is series
    assert type(series.events) is tuple
    with pytest.raises(dataclasses.FrozenInstanceError):
        series.events[5].close = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        series.events = ()


def test_forecasts_on_one_run_spelled_three_ways_load_it_once(tmp_path, snapshot_workspace,
                                                              monkeypatch, sidecar_loads,
                                                              wip_csv_parses):
    shutil.copytree(snapshot_workspace, tmp_path / "run")
    monkeypatch.chdir(tmp_path)
    outputs = set()
    for out in ("run", "./run", "run/"):
        assert main(["forecast", "--out", out, "--date", SNAPSHOT_TARGET, "--mode", "react"]) == 0
        outputs.add((tmp_path / "run" / "forecast.jsonl").read_bytes())
    assert outputs == {cold_forecast_jsonl(tmp_path / "run")}
    assert sorted(sidecar_loads) == [os.path.join("run", name) for name in SNAPSHOTS]
    assert wip_csv_parses == [os.path.join("run", "wip.csv")]


@pytest.mark.parametrize("damage", ["no doc_id", "repeated doc_id", "weekday story",
                                    "short embedding"])
def test_forecast_on_a_malformed_snapshot_exits_1_naming_it(tmp_path, snapshot_workspace,
                                                             capsys, damage):
    out = tmp_path / "run"
    shutil.copytree(snapshot_workspace, out)
    path = out / "index_daily.jsonl"
    records = [json.loads(line) for line in read_lines(path)]
    if damage == "no doc_id":
        del records[3]["doc_id"]
        want = "index_daily.jsonl, line 4: not a snapshot record (KeyError: 'doc_id')"
    elif damage == "repeated doc_id":  # the line used to replace the earlier one silently
        records[3]["doc_id"] = records[2]["doc_id"]
        want = f"index_daily.jsonl: doc_id {records[2]['doc_id']} is repeated"
    elif damage == "weekday story":  # used to serve the daily agent
        records[3]["granularity"] = "weekday"
        want = "index_daily.jsonl: holds weekday stories, not only daily"
    else:  # used to end in numpy's "inhomogeneous shape" message
        records[3]["embedding"].pop()
        want = (f"index_daily.jsonl, line 4: not a snapshot record (ValueError: doc_id "
                f"{records[3]['doc_id']} has 71 embedding entries, the first line 72)")
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    assert main(["forecast", "--out", str(out), "--date", SNAPSHOT_TARGET]) == 1
    assert want in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["doc_id beyond 64 bits", "infinite target", "fractional doc_id",
                                    "boolean doc_id", "string target", "boolean target",
                                    "number text", "nested text", "list granularity",
                                    "object embedding entry", "boolean embedding entry"])
def test_forecast_on_a_snapshot_row_out_of_range_exits_1_naming_it(tmp_path, snapshot_workspace,
                                                                   capsys, damage):
    out = tmp_path / "run"
    shutil.copytree(snapshot_workspace, out)
    (out / "index_daily.npz").unlink()
    path = out / "index_daily.jsonl"
    records = [json.loads(line) for line in read_lines(path)]
    if damage == "doc_id beyond 64 bits":  # used to end in an OverflowError traceback
        records[3]["doc_id"] = 2**70
        want = "index_daily.jsonl: a doc_id is out of the 64-bit range"
    elif damage == "infinite target":  # used to reach the model and fail on "PREDICTION: inf"
        records[3]["target"] = math.inf
        want = f"index_daily.jsonl: target inf of the story dated {records[3]['date']} is not finite"
    elif damage.endswith("embedding entry"):  # an object used to end in a TypeError
        # traceback, and true to load as 1.0
        records[3]["embedding"][5] = {"a": 1} if damage.startswith("object") else True
        want = ("index_daily.jsonl, line 4: not a snapshot record "
                "(TypeError: embedding must be a nonempty flat list of numbers)")
    else:  # each used to load silently as doc_id 3 or 1, as target 72.0 or 1.0, or as a
        # text that is not a string; a list granularity ended in a TypeError traceback
        key, value = {"fractional doc_id": ("doc_id", 3.7), "boolean doc_id": ("doc_id", True),
                      "string target": ("target", "72"), "boolean target": ("target", True),
                      "number text": ("text", 5), "nested text": ("text", ["x", {"a": 1}]),
                      "list granularity": ("granularity", ["daily"])}[damage]
        records[3][key] = value
        kind = {"doc_id": "an integer", "target": "a number"}.get(key, "a string")
        want = (f"index_daily.jsonl, line 4: not a snapshot record "
                f"(TypeError: {key} must be {kind}, got {value!r})")
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    assert main(["forecast", "--out", str(out), "--date", SNAPSHOT_TARGET]) == 1
    assert want in capsys.readouterr().err


@pytest.mark.parametrize("stage", ["stories", "forecast", "evaluate"])
def test_a_wip_csv_without_days_exits_1_naming_it(tmp_path, workspace, capsys, stage):
    out = tmp_path / "run"
    shutil.copytree(workspace, out)
    (out / "wip.csv").write_text(read_lines(out / "wip.csv")[0] + "\n")
    assert main([stage, "--out", str(out)]) == 1
    assert "wip.csv: holds no days" in capsys.readouterr().err


@pytest.mark.parametrize("stage", ["stories", "forecast"])
@pytest.mark.parametrize("line", [2, 300])
def test_a_wip_csv_that_is_not_utf8_exits_1_naming_file_and_line(tmp_path, capsys, stage, line):
    rng, first = random.Random(3), date(2024, 1, 1)
    series = WipSeries(tuple(random_wip_event(rng, first + timedelta(days=i)) for i in range(400)))
    lines = export_wip_csv(series).encode("utf-8").splitlines(keepends=True)
    lines[line - 1] = lines[line - 1].replace(b",", b",\xff", 1)  # 16 KB in, at line 300
    path = tmp_path / "wip.csv"
    path.write_bytes(b"".join(lines))
    assert main([stage, "--out", str(tmp_path)]) == 1
    assert f"error: {path}, line {line}: not valid UTF-8 (invalid start byte)" in (
        capsys.readouterr().err)


def test_a_snapshot_that_is_not_utf8_exits_1_naming_file_and_line(tmp_path, snapshot_workspace,
                                                                    capsys):
    out = tmp_path / "run"
    shutil.copytree(snapshot_workspace, out)
    path = out / "index_daily.jsonl"  # its sidecar no longer matches, so it is parsed
    lines = path.read_bytes().splitlines(keepends=True)
    lines[5] = lines[5].replace(b",", b",\xff", 1)
    path.write_bytes(b"".join(lines))
    assert main(["forecast", "--out", str(out), "--date", SNAPSHOT_TARGET]) == 1
    assert f"error: {path}, line 6: not valid UTF-8 (invalid start byte)" in (
        capsys.readouterr().err)


def test_a_crlf_wip_csv_forecasts_as_the_lf_one(tmp_path, snapshot_workspace):
    out = tmp_path / "run"
    shutil.copytree(snapshot_workspace, out)
    path = out / "wip.csv"
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert forecast_jsonl(out) == cold_forecast_jsonl(snapshot_workspace)


class EmbeddingSession:
    """Answers embedding POSTs with the deterministic embedder's vectors."""

    def __init__(self):
        self.embedder = DeterministicEmbedder()
        self.posts = 0
        self.batches = []

    def post(self, url, json=None, timeout=None):
        self.posts += 1
        self.batches.append(json["input"])
        rows = self.embedder.embed_many(json["input"])
        body = {"data": [{"embedding": row.tolist()} for row in rows]}
        return type("Response", (), {"raise_for_status": lambda self: None, "status_code": 200,
                                     "text": "", "json": lambda self: body})()


class SecondBatchFails(EmbeddingSession):
    """Answers the second embedding request with no rows."""

    def post(self, url, json=None, timeout=None):
        if self.posts == 1:
            json = {**json, "input": []}
        return super().post(url, json=json, timeout=timeout)


def test_index_that_fails_on_a_later_granularity_writes_no_snapshot(tmp_path, workspace, capsys,
                                                                    monkeypatch):
    out = tmp_path / "run"
    shutil.copytree(workspace, out)
    before = {name: (out / name).read_bytes() for name in ("index_daily.jsonl", "index_daily.npz")}
    lines = read_lines(out / "wip.csv")
    (out / "wip.csv").write_text("\n".join(lines[:-4]) + "\n")  # would change index_daily
    session = SecondBatchFails()
    monkeypatch.setattr("wipcast.cli.build_embedder",
                        lambda cfg: RemoteEmbedder("http://embed.test", session=session))
    assert main(["index", "--out", str(out)]) == 1
    assert "embeddings, got 0" in capsys.readouterr().err
    assert session.posts == 2  # the weekday stories failed; the windowed were never sent
    assert {name: (out / name).read_bytes() for name in before} == before


def test_index_embeds_once_per_granularity(tmp_path, workspace, monkeypatch):
    out = tmp_path / "run"
    shutil.copytree(workspace, out)
    session = EmbeddingSession()
    monkeypatch.setattr("wipcast.cli.build_embedder",
                        lambda cfg: RemoteEmbedder("http://embed.test", session=session))
    assert main(["index", "--out", str(out)]) == 0
    assert session.posts == 3
    for g in ("daily", "weekday", "windowed"):  # same vectors as the local embedder
        assert read_lines(out / f"index_{g}.jsonl") == read_lines(
            os.path.join(workspace, f"index_{g}.jsonl"))


def test_evaluate_embeds_each_contextual_story_once(tmp_path, workspace, monkeypatch):
    local, remote = tmp_path / "local", tmp_path / "remote"
    for out in (local, remote):
        shutil.copytree(workspace, out)
    assert main(["evaluate", "--out", str(local), "--freeze-timestamps"]) == 0
    session = EmbeddingSession()
    monkeypatch.setattr("wipcast.cli.build_embedder",
                        lambda cfg: RemoteEmbedder("http://embed.test", session=session))
    assert main(["evaluate", "--out", str(remote), "--freeze-timestamps"]) == 0

    contextual = [json.loads(line)["text"]
                  for g in ("daily", "weekday", "windowed")
                  for line in read_lines(os.path.join(workspace, f"stories_{g}.jsonl"))
                  if json.loads(line)["kind"] == "contextual"]
    posted = [text for batch in session.batches for text in batch]
    assert sorted(t for t in posted if t in set(contextual)) == sorted(contextual)
    stories = [batch for batch in session.batches if set(batch) <= set(contextual)]
    assert len(stories) == 3  # one per granularity
    assert sorted(t for batch in stories for t in batch) == sorted(contextual)
    # one batch per agent holds every step's query story, so no step posts its own
    queries = [batch for batch in session.batches if not set(batch) & set(contextual)]
    assert session.posts == len(stories) + len(queries) == 6
    starts = ("The WiP items ", "On ", "Over the past ")  # daily, weekday, windowed queries
    kinds = [start for batch in queries
             for start in {next(s for s in starts if text.startswith(s)) for text in batch}]
    assert sorted(kinds) == sorted(starts)  # each batch holds one agent's queries
    queried = [text for batch in queries for text in batch]
    assert len(queried) == len(set(queried)) > 3  # each query text posted exactly once
    for name in ("predictions.csv", "forecast_reports.jsonl"):  # same vectors, same outputs
        assert read_lines(remote / name) == read_lines(local / name)


# --- input timezone ---


def test_ingest_honours_input_timezone(tmp_path):
    log = tmp_path / "midnight.csv"
    rows = ["case,activity,timestamp"]
    for i, (opened, closed) in enumerate([("01T23:30", "03T00:30"), ("02T00:15", "02T23:45"),
                                          ("02T22:00", "04T01:00"), ("03T23:59", "04T00:01")]):
        rows += [f"c{i},open,2024-01-{opened}:00Z", f"c{i},close,2024-01-{closed}:00Z"]
    log.write_text("\n".join(rows) + "\n")
    wip = {}
    for zone in ("UTC", "Asia/Tokyo"):
        config = tmp_path / f"{zone.replace('/', '_')}.json"
        config.write_text(json.dumps({"input": {"timezone": zone}}))
        out = tmp_path / zone.replace("/", "_")
        assert main(["ingest", str(log), "--config", str(config), "--out", str(out)]) == 0
        wip[zone] = read_lines(out / "wip.csv")
    assert wip["UTC"][1].startswith("2024-01-01,")
    assert wip["Asia/Tokyo"][1].startswith("2024-01-02,")
    assert wip["UTC"] != wip["Asia/Tokyo"]


def test_unknown_timezone_exits_1(tmp_path, log_path, capsys):
    config = tmp_path / "pipeline.json"
    config.write_text(json.dumps({"input": {"timezone": "Mars/Olympus_Mons"}}))
    assert main(["ingest", log_path, "--config", str(config), "--out", str(tmp_path)]) == 1
    assert "Mars/Olympus_Mons" in capsys.readouterr().err
    assert not (tmp_path / "wip.csv").exists()


# --- ingest edge cases ---


def test_ingest_skips_a_timestamp_out_of_range_in_utc(tmp_path):
    path = tmp_path / "early.csv"
    path.write_text("case,activity,timestamp\n"
                    "c1,A,2024-01-01T09:00:00Z\n"
                    "c2,A,0001-01-01T00:00:00+01:00\n")
    assert main(["ingest", str(path), "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "wip.csv", encoding="utf-8") as fh:
        assert len(load_wip_csv(fh).events) == 1


@pytest.mark.parametrize("first, last, zone", [
    ("9999-12-31T10:00:00Z", "9999-12-31T20:00:00Z", "Pacific/Kiritimati"),
    ("0001-01-01T01:00:00Z", "0001-01-01T20:00:00Z", "America/Los_Angeles"),
])
def test_ingest_an_instant_without_a_local_date_exits_1_naming_it(tmp_path, capsys, first, last, zone):
    path = tmp_path / "edge.csv"
    path.write_text(f"case,activity,timestamp\nc1,A,{first}\nc1,B,{last}\n")
    config = tmp_path / "pipeline.json"
    config.write_text(json.dumps({"input": {"timezone": zone}}))
    assert main(["ingest", str(path), "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the instant ") and zone in err and "Traceback" not in err
    assert not (tmp_path / "out" / "wip.csv").exists()


def test_ingest_csv_that_is_not_utf8_exits_1_naming_the_file(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes("case,activity,timestamp\nc1,Café,2024-01-01T09:00:00Z\n".encode("latin-1"))
    assert main(["ingest", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "latin1.csv: line 2 is not valid UTF-8" in capsys.readouterr().err
    assert not (tmp_path / "out" / "wip.csv").exists()


def test_ingest_csv_with_a_cell_over_the_field_size_limit_exits_1_naming_it(tmp_path, capsys):
    path = tmp_path / "notes.csv"
    path.write_text("case,activity,timestamp,note\nc1,A,2024-01-01T09:00:00Z," + "x" * 200_000 + "\n")
    assert main(["ingest", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "error: notes.csv: line 2: field larger than field limit" in capsys.readouterr().err
    assert not (tmp_path / "out" / "wip.csv").exists()


# --- fusion weights ---


def test_evaluate_with_a_partial_fusion_weight_table(tmp_path, workspace):
    # labels the table leaves out keep their default rows
    out = tmp_path / "run"
    out.mkdir()
    shutil.copy(os.path.join(workspace, "wip.csv"), out / "wip.csv")
    cfg_path = tmp_path / "weights.json"
    row = {"daily": 0.5, "weekday": 0.25, "windowed": 0.25}
    table = {"increasing_significantly": row}
    cfg_path.write_text(json.dumps({"forecast": {"fusion_weights": table}}))
    assert main(["evaluate", "--out", str(out), "--config", str(cfg_path),
                 "--freeze-timestamps"]) == 0
    records = [json.loads(line) for line in read_lines(out / "forecast_reports.jsonl")]
    weights = {r["trend_label"]: r["rationale"].split("weights ")[1] for r in records}
    assert weights.pop("increasing_significantly") == "daily=0.5, weekday=0.25, windowed=0.25"
    assert weights  # some days had another trend label
    for label, text in weights.items():
        assert text == ", ".join(f"{a}={w:.4g}" for a, w in DEFAULT_FUSION_WEIGHTS[label].items())


# --- forecast and evaluate share one step ---


@pytest.fixture(scope="module")
def golden_log_run(tmp_path_factory):
    """The `log` golden workload ingested twice, one copy with index snapshots,
    plus the forecast_reports.jsonl lines of `evaluate` in each fusion mode."""
    base = tmp_path_factory.mktemp("parity")
    log_file = base / "log.csv"
    log_file.write_text(export_csv(synthetic_event_log(240, seed=11, span_days=90)))
    bare, indexed = str(base / "bare"), str(base / "indexed")
    for argv in (["ingest", str(log_file), "--out", bare],
                 ["ingest", str(log_file), "--out", indexed],
                 ["stories", "--out", indexed],
                 ["index", "--out", indexed]):
        assert main(argv) == 0
    with open(os.path.join(bare, "wip.csv"), encoding="utf-8") as fh:
        split = load_wip_csv(fh).events[30].date
    reports = {}
    for mode in ("rules", "react"):
        assert main(["evaluate", "--out", bare, "--mode", mode, "--split", split.isoformat(),
                     "--freeze-timestamps"]) == 0
        reports[mode] = read_lines(os.path.join(bare, "forecast_reports.jsonl"))
    return bare, indexed, reports


@pytest.mark.parametrize("snapshots", [False, True])
@pytest.mark.parametrize("mode", ["rules", "react"])
def test_forecast_writes_the_evaluate_record_for_its_day(golden_log_run, mode, snapshots):
    bare, indexed, reports = golden_log_run
    out = indexed if snapshots else bare
    lines = reports[mode]
    assert len(lines) == 59
    for line in lines[::10] + lines[-1:]:
        day = json.loads(line)["date"]
        assert main(["forecast", "--out", out, "--date", day, "--mode", mode]) == 0
        assert read_lines(os.path.join(out, "forecast.jsonl")) == [line]


# --- streamed ingest ---


def _xes_trace(case_id, events) -> str:
    """One trace; a None case id, timestamp or lifecycle leaves that attribute out."""
    parts = ["<trace>"]
    if case_id is not None:
        parts.append(f'<string key="concept:name" value="{case_id}"/>')
    for activity, ts, lifecycle in events:
        parts.append(f'<event><string key="concept:name" value="{activity}"/>'
                     + (f'<date key="time:timestamp" value="{ts.isoformat()}"/>' if ts else "")
                     + (f'<string key="lifecycle:transition" value="{lifecycle}"/>' if lifecycle else "")
                     + "</event>")
    parts.append("</trace>")
    return "".join(parts)


def shuffled_log(fmt: str, start: datetime, seed: int = 5) -> bytes:
    """A synthetic log listed out of time order, with events the parsers skip.

    A case's touch and resolution are both start-marked, so its earliest
    start-marked event is often not the first one the log shows. As XES, one
    case is split into two traces at either end of the document, and a trace
    has no name; as CSV, one row has no timestamp and one no case id. Both
    are larger than one 64 KiB read."""
    marks = {"open": "schedule", "work": "start", "resolve": "START"}
    events = [(ev.case_id, ev.activity, ev.timestamp, marks[ev.activity])
              for ev in synthetic_event_log(600, seed=seed, start=start, span_days=60).events]
    random.Random(seed).shuffle(events)
    if fmt == "csv":
        rows = ["case,activity,timestamp,lifecycle",
                *(f"{c},{a},{ts.isoformat()},{m}" for c, a, ts, m in events)]
        rows[40:40] = ["c-x,open,not a time,start", ",open,2024-01-01T00:00:00Z,start"]
        return ("\n".join(rows) + "\n").encode("utf-8")
    by_case: dict[str, list] = {}
    for case_id, *event in events:
        by_case.setdefault(case_id, []).append(event)
    (split_case, split_events), *rest = by_case.items()
    half = len(split_events) // 2
    traces = [_xes_trace(split_case, split_events[:half]),
              _xes_trace(None, [("open", start, "start")]),
              *(_xes_trace(case_id, evs) for case_id, evs in rest),
              _xes_trace("c-x", [("open", None, "start")]),
              _xes_trace(split_case, split_events[half:])]
    return ("<log>\n" + "\n".join(traces) + "\n</log>\n").encode("utf-8")


# Zones with a daylight-saving change (Europe/Berlin on 2024-03-31), a
# half-hour one (Australia/Lord_Howe on 2024-04-07) and a local date that
# steps back (America/Sitka on 1867-10-18) inside the log's span.
INGEST_ZONES = [("UTC", datetime(2024, 1, 1, 8, tzinfo=timezone.utc)),
                ("Europe/Berlin", datetime(2024, 3, 1, tzinfo=timezone.utc)),
                ("America/Sitka", datetime(1867, 10, 1, tzinfo=timezone.utc)),
                ("Australia/Lord_Howe", datetime(2024, 3, 20, tzinfo=timezone.utc))]


@pytest.mark.parametrize("tz, start", INGEST_ZONES, ids=[z for z, _ in INGEST_ZONES])
@pytest.mark.parametrize("name", ["log.xes", "log.xes.gz", "log.csv"])
def test_streamed_ingest_writes_what_the_parsed_log_replays_into(tmp_path, capsys, name, tz, start):
    data = shuffled_log(name.split(".")[1], start)
    assert len(data) > 65536
    path = tmp_path / name
    path.write_bytes(gzip.compress(data) if name.endswith(".gz") else data)
    if name.startswith("log.xes"):
        log = parse_xes(data, source_name=name)
    else:
        log = parse_csv(data, ColumnMapping("case", "activity", "timestamp", "lifecycle"),
                        source_name=name)
    assert log.source_meta.skipped == 2
    report = validate(log)
    config = tmp_path / "pipeline.json"
    config.write_text(json.dumps({"input": {"timezone": tz, "lifecycle_column": "lifecycle"}}))
    assert main(["ingest", str(path), "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "wip.csv").read_text(encoding="utf-8") == export_wip_csv(
        build_wip_series(log, tz))
    assert capsys.readouterr().out.startswith(
        f"ingested {report.event_count} events / {report.case_count} cases -> ")


@pytest.mark.parametrize("name", ["edge.xes.gz", "edge.csv.gz"])
def test_an_ingest_that_stops_mid_fold_closes_the_parser_and_exits_1(tmp_path, capsys, monkeypatch,
                                                                     name):
    # A fold that stops at its first event leaves the rest of the log unread.
    # A parsed log gives the fold nothing to stop at, so the stop is stubbed.
    events = synthetic_event_log(2000, seed=3).events
    if name.startswith("edge.xes"):
        by_case: dict[str, list] = {}
        for ev in events:
            by_case.setdefault(ev.case_id, []).append((ev.activity, ev.timestamp))
        text = xes_document(by_case)
    else:
        text = "case,activity,timestamp\n" + "".join(
            f"{ev.case_id},{ev.activity},{ev.timestamp.isoformat()}\n" for ev in events)
    assert len(text) > 3 * 65536
    path = tmp_path / name
    path.write_bytes(gzip.compress(text.encode("utf-8")))
    streams = []

    def kept(stream):
        def keep(*args, **kwargs):
            streams.append(stream(*args, **kwargs))
            return streams[-1]
        return keep

    def stops_at_the_first_event(events, local_day):
        next(iter(events))
        raise ValueError("the fold stopped")

    monkeypatch.setattr(cli, "_event_stream", kept(cli._event_stream))
    monkeypatch.setattr(wipseries, "_case_rows", stops_at_the_first_event)
    assert main(["ingest", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: the fold stopped\n"
    assert not (tmp_path / "out" / "wip.csv").exists()
    [stream] = streams
    assert stream.gi_frame is None  # closed by the ingest, not left for the collector


# --- standard output closed early ---


@pytest.mark.parametrize("stage", ["forecast", "evaluate"])
def test_a_stage_whose_stdout_is_closed_exits_1_without_a_traceback(tmp_path, workspace, stage):
    out = tmp_path / "run"
    shutil.copytree(workspace, out)
    read_end, write_end = os.pipe()
    os.close(read_end)  # nothing will read: every write to the pipe fails
    try:
        proc = subprocess.run([sys.executable, "-m", "wipcast.cli", stage, "--out", str(out)],
                              stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])))
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


# --- report ---


def test_the_report_rolling_mape_window_is_not_the_trend_window(tmp_path, workspace):
    out = tmp_path / "run"
    shutil.copytree(workspace, out)
    config = tmp_path / "pipeline.json"
    config.write_text(json.dumps({"forecast": {"trend_window": 5}}))
    assert main(["evaluate", "--config", str(config), "--out", str(out), "--freeze-timestamps"]) == 0
    svg = (out / "report.svg").read_text(encoding="utf-8")
    assert "Rolling MAPE (7-day window, %)" in svg
