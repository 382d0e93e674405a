"""CLI pipeline: subcommands, file products, exit codes, idempotency."""

import gzip
import hashlib
import json
import math
import os
import shutil
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from wipcast import cli, memory
from wipcast.agents import DEFAULT_FUSION_WEIGHTS
from wipcast.cli import main
from wipcast.config import ForecastParams
from wipcast.eventlog import ColumnMapping, export_csv, parse_csv, validate
from wipcast.memory import DeterministicEmbedder, RemoteEmbedder
from wipcast.synthetic import synthetic_event_log
from wipcast.wipseries import WipEvent, load_wip_csv

from conftest import xes_document


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


def test_forecast_builds_only_the_days_it_reads(tmp_path, workspace, monkeypatch):
    out = tmp_path / "run"
    shutil.copytree(workspace, out)
    built = []
    real = WipEvent.__post_init__

    def counted(event):
        built.append(event.date)
        real(event)

    monkeypatch.setattr(WipEvent, "__post_init__", counted)
    with open(out / "wip.csv", encoding="utf-8") as fh:
        target = load_wip_csv(fh).events[30].date + timedelta(days=1)
    assert built == [target - timedelta(days=1)]
    built.clear()
    argv = ["forecast", "--out", str(out), "--date", target.isoformat(), "--mode", "react"]
    assert main(argv) == 0
    params = ForecastParams()
    assert target - timedelta(days=1) in built
    assert len(built) == len(set(built)) <= params.window + params.trend_lookback + 2


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


def test_forecast_without_index_snapshots_embeds_on_the_fly(tmp_path, log_path):
    out = str(tmp_path)
    assert main(["ingest", log_path, "--out", out]) == 0
    assert main(["forecast", "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "forecast.jsonl"))


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
    ({"min_similarity": math.nan}, "min_similarity must be in [-1, 1], got nan"),
    ({"min_similarity": 2.0}, "min_similarity must be in [-1, 1], got 2.0"),
])
def test_config_that_would_silently_degrade_forecasts_exits_1(tmp_path, workspace, capsys,
                                                               section, want):
    cfg_path = tmp_path / "pipeline.json"
    cfg_path.write_text(json.dumps({"forecast": section}))  # writes NaN, which json reads back
    for stage in ("forecast", "evaluate"):
        assert main([stage, "--out", workspace, "--config", str(cfg_path)]) == 1
        assert f"error: {want}" in capsys.readouterr().err


def test_a_max_age_beyond_the_calendar_keeps_every_story(tmp_path, workspace):
    # an age reaching back before year 1 must not overflow date arithmetic
    # into a traceback; it keeps every story, as no limit does
    outputs = {}
    for name, section in (("unbounded", {}), ("beyond", {"max_age_days": 1_000_000})):
        out = tmp_path / name
        shutil.copytree(workspace, out)
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps({"forecast": section}))
        for stage in ("forecast", "evaluate"):
            assert main([stage, "--out", str(out), "--config", str(cfg_path),
                         "--freeze-timestamps"]) == 0
        outputs[name] = [(out / f).read_bytes() for f in ("forecast.jsonl", "forecast_reports.jsonl",
                                                          "predictions.csv")]
    assert outputs["beyond"] == outputs["unbounded"]


def test_backend_remote_without_endpoint_exits_1(workspace):
    assert main(["forecast", "--out", workspace, "--backend", "remote"]) == 1


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
SNAPSHOT_TARGET = "2024-02-20"
# sha256 of forecast.jsonl for SNAPSHOT_TARGET from index_*.jsonl alone, as
# forecast wrote it before index snapshots had a sidecar.
JSONL_FORECAST_SHA256 = {
    "as indexed": "2895350ff491ee67f29e34f37c3cdbaf6c2338d677255432302b790a7c53f5db",
    "edited": "0969c42f047701ec0dc6b465febb303a1351c6919a1f85b00419c1b1d967ed7c",
}


@pytest.fixture(scope="module")
def snapshot_workspace(tmp_path_factory):
    out = tmp_path_factory.mktemp("snapshots")
    log = out / "tickets.csv"
    log.write_text(export_csv(synthetic_event_log(600, seed=5, span_days=60)))
    for argv in (["ingest", str(log), "--out", str(out)],
                 ["stories", "--out", str(out)],
                 ["index", "--out", str(out)]):
        assert main(argv) == 0
    return out


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


def forecast_sha256(out) -> str:
    argv = ["forecast", "--out", str(out), "--date", SNAPSHOT_TARGET, "--mode", "react"]
    assert main(argv) == 0
    return hashlib.sha256((out / "forecast.jsonl").read_bytes()).hexdigest()


def edit_targets(out):
    path = out / "index_daily.jsonl"
    records = [json.loads(line) for line in read_lines(path)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for record in records:
            record["target"] += 5
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def test_index_writes_sidecar_beside_each_snapshot(snapshot_workspace):
    for g in ("daily", "weekday", "windowed"):
        jsonl = (snapshot_workspace / f"index_{g}.jsonl").read_bytes()
        with np.load(snapshot_workspace / f"index_{g}.npz", allow_pickle=False) as npz:
            assert str(npz["jsonl_sha256"]) == hashlib.sha256(jsonl).hexdigest()
            assert npz["int_columns"].shape == (len(jsonl.splitlines()), 3)


def test_forecast_uses_sidecar(tmp_path, snapshot_workspace, jsonl_loads):
    out = tmp_path / "run"
    shutil.copytree(snapshot_workspace, out)
    assert forecast_sha256(out) == JSONL_FORECAST_SHA256["as indexed"]
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
    want = JSONL_FORECAST_SHA256["edited" if damage == "edited jsonl" else "as indexed"]
    assert forecast_sha256(out) == want
    assert len(jsonl_loads) == 1  # only the daily snapshot was parsed


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
                                    "boolean doc_id", "string target", "boolean target"])
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
    else:  # each used to load silently as doc_id 3 or 1, or as target 72.0 or 1.0
        key, value = {"fractional doc_id": ("doc_id", 3.7), "boolean doc_id": ("doc_id", True),
                      "string target": ("target", "72"), "boolean target": ("target", True)}[damage]
        records[3][key] = value
        kind = "an integer" if key == "doc_id" else "a number"
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


def test_ingest_csv_that_is_not_utf8_exits_1_naming_the_file(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes("case,activity,timestamp\nc1,Café,2024-01-01T09:00:00Z\n".encode("latin-1"))
    assert main(["ingest", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "latin1.csv: line 2 is not valid UTF-8" in capsys.readouterr().err
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


# sha256 of the `stories` files for the `log` golden workload, recorded when
# each stage rendered its own stories; every row must stay byte for byte.
STORY_DIGESTS = {
    "daily": "7425a6ab1e884b49c65ddf70ff89420969ae36c60b98feaa6f9f77af672f00c2",
    "weekday": "b761d6d7dddefc88ce7a6b82303eb1448e3a9b80bf7670b6d36d99d0138b7240",
    "windowed": "1a4355403aa447c49210d51b12cb85e6af111afa1ec8657e689539a7d109e7a9",
}


def test_stories_files_are_unchanged(golden_log_run):
    _, indexed, _ = golden_log_run
    for g, digest in STORY_DIGESTS.items():
        with open(os.path.join(indexed, f"stories_{g}.jsonl"), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, g
