"""CLI pipeline: subcommands, file products, exit codes, idempotency."""

import gzip
import hashlib
import json
import os
import shutil

import numpy as np
import pytest

from wipcast import memory
from wipcast.agents import DEFAULT_FUSION_WEIGHTS
from wipcast.cli import main
from wipcast.eventlog import export_csv
from wipcast.memory import DeterministicEmbedder, RemoteEmbedder
from wipcast.synthetic import synthetic_event_log
from wipcast.wipseries import load_wip_csv

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


def test_forecast_date_outside_series_exits_1(workspace):
    assert main(["forecast", "--out", workspace, "--date", "1999-01-01"]) == 1


def test_forecast_without_index_snapshots_embeds_on_the_fly(tmp_path, log_path):
    out = str(tmp_path)
    assert main(["ingest", log_path, "--out", out]) == 0
    assert main(["forecast", "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "forecast.jsonl"))


# --- evaluate / plot ---


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
        a = open(os.path.join(outs[0], fname), "rb").read()
        b = open(os.path.join(outs[1], fname), "rb").read()
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


def plotted_data(svg: str) -> list[str]:
    return [line for line in svg.splitlines()
            if line.startswith(("<polyline", "<path"))]


def test_plot_round_trips_report(evaluated):
    # plot rebuilds the same curves from predictions.csv; only the header
    # subtitle (which carries the split note) may differ
    report = os.path.join(evaluated, "report.svg")
    assert main(["evaluate", "--out", evaluated, "--freeze-timestamps"]) == 0
    original = open(report, encoding="utf-8").read()
    os.remove(report)
    assert main(["plot", "--out", evaluated, "--freeze-timestamps"]) == 0
    regenerated = open(report, encoding="utf-8").read()
    assert plotted_data(regenerated) == plotted_data(original)
    assert plotted_data(regenerated)  # non-empty: curves actually present


def test_plot_without_predictions_exits_2(tmp_path):
    assert main(["plot", "--out", str(tmp_path)]) == 2


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


def test_backend_remote_without_endpoint_exits_1(workspace):
    assert main(["forecast", "--out", workspace, "--backend", "remote"]) == 1


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
            assert len(npz["doc_ids"]) == len(jsonl.splitlines())


def test_forecast_uses_sidecar(tmp_path, snapshot_workspace, jsonl_loads):
    out = tmp_path / "run"
    shutil.copytree(snapshot_workspace, out)
    assert forecast_sha256(out) == JSONL_FORECAST_SHA256["as indexed"]
    assert jsonl_loads == []


@pytest.mark.parametrize("damage", ["edited jsonl", "deleted sidecar", "truncated sidecar"])
def test_forecast_falls_back_to_jsonl(tmp_path, snapshot_workspace, jsonl_loads, damage):
    out = tmp_path / "run"
    shutil.copytree(snapshot_workspace, out)
    sidecar = out / "index_daily.npz"
    if damage == "edited jsonl":
        edit_targets(out)
    elif damage == "deleted sidecar":
        sidecar.unlink()
    else:
        data = sidecar.read_bytes()
        sidecar.write_bytes(data[:len(data) // 2])
    want = JSONL_FORECAST_SHA256["edited" if damage == "edited jsonl" else "as indexed"]
    assert forecast_sha256(out) == want
    assert len(jsonl_loads) == 1  # only the daily snapshot was parsed


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
        return type("Response", (), {"raise_for_status": lambda self: None,
                                     "json": lambda self: body})()


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
    batches = [batch for batch in session.batches if len(batch) > 1]
    assert len(batches) == 3  # one per granularity; query embeds post one text each
    assert sorted(t for batch in batches for t in batch) == sorted(contextual)
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
