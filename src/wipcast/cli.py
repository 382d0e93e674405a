"""Command-line pipeline: event log -> WiP series -> index -> forecast.

Every stage after `ingest` reads its ``wip.csv`` from the output directory
(`forecast` also the snapshots `index` writes) and overwrites its own files,
so re-running any stage with the same inputs reproduces the same files
(timestamps in the SVG report can be frozen with a flag). `stories` writes
out the stories the other stages render, to read; no stage reads them back.

Exit codes: 0 success, 1 processing error, 2 missing/invalid path or usage,
3 empty event log.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from datetime import timedelta
from functools import cache

from .config import (
    PipelineConfig,
    build_backend,
    build_embedder,
    build_lifecycle,
    iso_date,
    load_config,
)
from .eventlog import (
    ColumnMapping,
    EmptyLogError,
    EventLogError,
    parse_csv,
    parse_xes,
)
from .evaluation import (
    default_split_date,
    embed_queries,
    emit_report,
    forecast_day,
    merge_traces,
    persistence_baseline,
    rolling_forecast,
    summarize,
)
from .llm import LlmError
from .memory import EmbeddingError, StoryIndex, build_indexes, load_snapshot, save_snapshot
from .narrative import GRANULARITIES, contextual_story, query_story, write_stories_jsonl
from .wipseries import build_wip_series, export_wip_csv, load_wip_csv

SERIES_FILE = "wip.csv"


def _stories_file(out_dir: str, granularity: str) -> str:
    return os.path.join(out_dir, f"stories_{granularity}.jsonl")


def _index_file(out_dir: str, granularity: str) -> str:
    return os.path.join(out_dir, f"index_{granularity}.jsonl")


def _require(path: str, hint: str) -> str:
    if not os.path.exists(path):
        raise FileNotFoundError(f"{path} not found ({hint})")
    return path


def _load_series(out_dir: str):
    path = _require(os.path.join(out_dir, SERIES_FILE), "run `wipcast ingest` first")
    with open(path, encoding="utf-8") as fh:
        series = load_wip_csv(fh)
    if not len(series):
        raise ValueError(f"{path}: holds no days")
    return series


def _detect_format(path: str, declared: str) -> str:
    if declared != "auto":
        return declared
    name = path.lower()
    if name.endswith((".xes", ".xes.gz")):
        return "xes"
    if name.endswith((".csv", ".csv.gz")):
        return "csv"
    raise ValueError(f"cannot infer log format from {path!r}; pass --format")


def _day_stories(events, granularity: str, window: int):
    """Each day's query story and contextual story, for days with a known
    next-day close. Windowed stories require a full window, so they start at
    the window-th day."""
    for i in range(len(events) - 1):
        contextual = contextual_story(events, i, granularity, window)
        if contextual is not None:
            yield query_story(events, i, granularity, window)
            yield contextual


def _write_reports(path: str, reports) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for report in reports:
            fh.write(json.dumps(report.to_dict(), sort_keys=True) + "\n")


# --- subcommands ---


def cmd_ingest(args, cfg: PipelineConfig) -> int:
    path = args.path or cfg.input.path
    if not path:
        raise FileNotFoundError("no input log given (positional path or config input.path)")
    _require(path, "input event log")

    fmt = _detect_format(path, args.format or cfg.input.format)
    with open(path, "rb") as fh:
        if fmt == "xes":
            log = parse_xes(fh, source_name=os.path.basename(path))
        else:
            mapping = ColumnMapping(
                case=args.case or cfg.input.case_column,
                activity=args.activity or cfg.input.activity_column,
                timestamp=args.timestamp or cfg.input.timestamp_column,
                lifecycle=args.lifecycle or cfg.input.lifecycle_column,
                timestamp_format=cfg.input.timestamp_format,
            )
            log = parse_csv(fh, mapping, source_name=os.path.basename(path))

    cases = len({ev.case_id for ev in log.events})
    series = build_wip_series(log, build_lifecycle(cfg.lifecycle),
                              gap_policy=args.gap_policy or cfg.gap_policy,
                              tz=cfg.input.timezone)

    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, SERIES_FILE)
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(export_wip_csv(series))
    print(f"ingested {len(log)} events / {cases} cases "
          f"-> {len(series.events)} days ({series.events[0].date} .. "
          f"{series.events[-1].date})")
    print(f"wrote {out_path}")
    return 0


def cmd_stories(args, cfg: PipelineConfig) -> int:
    events = _load_series(args.out).events
    if len(events) < 2:
        raise ValueError("need at least two days to render contextual stories")
    for g in GRANULARITIES:
        path = _stories_file(args.out, g)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            count = write_stories_jsonl(_day_stories(events, g, cfg.forecast.window), fh)
        print(f"wrote {path}: {count} stories ({count // 2} contextual)")
    return 0


def _only_granularity(granularity: str, index: StoryIndex, path: str) -> StoryIndex:
    """``index``, read from ``path``; ValueError if it holds stories of another granularity."""
    stray = index.granularities() - {granularity}
    if stray:
        raise ValueError(f"{path}: holds {' and '.join(sorted(stray))} stories, not only {granularity}")
    return index


def cmd_index(args, cfg: PipelineConfig) -> int:
    """Build every granularity's index from the series before writing any
    snapshot, so a failing embedder leaves the earlier snapshots as they were."""
    indexes = build_indexes(_load_series(args.out).events, build_embedder(cfg.embedder),
                            cfg.forecast.window, cfg.forecast.retention())
    for g, index in indexes.items():
        path = _index_file(args.out, g)
        count = save_snapshot(index, path)
        print(f"wrote {path}: {count} documents")
    return 0


def _load_or_build_indexes(out_dir: str, cfg: PipelineConfig, series, embedder):
    """Prefer snapshots from `wipcast index`; otherwise embed on the fly."""
    snapshots = {g: _index_file(out_dir, g) for g in GRANULARITIES}
    retention = cfg.forecast.retention()
    if all(os.path.exists(p) for p in snapshots.values()):
        return {g: _only_granularity(g, load_snapshot(path, embedder, retention), path)
                for g, path in snapshots.items()}
    return build_indexes(series.events, embedder, cfg.forecast.window, retention)


def cmd_forecast(args, cfg: PipelineConfig) -> int:
    series = _load_series(args.out)
    i = len(series.events) - 1
    if args.date is not None:
        target = iso_date("--date", args.date)
        wanted = target - timedelta(days=1)
        i = series.days_through(wanted) - 1
        if i < 0 or series.events[i].date != wanted:
            raise ValueError(f"cannot forecast {target}: no series day at {wanted}")

    embedder = build_embedder(cfg.embedder)
    indexes = _load_or_build_indexes(args.out, cfg, series, embedder)
    queries = embed_queries(series.events, [i], embedder, cfg.forecast.window)
    report = forecast_day(series.events, i, {g: rows[0] for g, rows in queries.items()},
                          indexes, build_backend(cfg.backend), cfg.forecast)

    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "forecast.jsonl")
    _write_reports(path, [report])
    print(f"forecast for {report.date}: {report.final_value:.2f} "
          f"(mode={report.mode}, trend={report.trend.label})")
    for aid, pred in report.agent_predictions.items():
        print(f"  {aid}: {pred.value:.2f}")
    print(f"wrote {path}")
    return 0


def cmd_evaluate(args, cfg: PipelineConfig) -> int:
    series = _load_series(args.out)
    if args.split:
        split = iso_date("--split", args.split)
    elif cfg.split_date:
        split = iso_date("config key split_date", cfg.split_date)
    else:
        split = default_split_date(series, cfg.test_fraction)

    params = cfg.forecast
    backend = build_backend(cfg.backend)
    embedder = build_embedder(cfg.embedder)

    result = rolling_forecast(series, split_date=split, params=params,
                              backend=backend, embedder=embedder)
    baseline = persistence_baseline(series, split_date=split)
    merged = merge_traces(result.trace, baseline)

    paths = emit_report(merged, args.out, rolling_window=params.trend_window,
                        freeze_timestamps=cfg.freeze_timestamps, split_note=f"split={split}")
    reports_path = os.path.join(args.out, "forecast_reports.jsonl")
    _write_reports(reports_path, result.reports)

    print(f"evaluated {len(result.reports)} days after split {split}")
    print(f"{'source':<16} {'mape':>8} {'mae':>8} {'n':>4} {'skipped':>8}")
    for summary in summarize(merged):
        print(f"{summary.source:<16} {summary.mape:>8.2f} {summary.mae:>8.2f} "
              f"{summary.n:>4} {summary.skipped_zero_actuals:>8}")
    for name in ("predictions", "metrics", "report"):
        print(f"wrote {paths[name]}")
    print(f"wrote {reports_path}")
    return 0


# --- wiring ---


@cache  # one parser per process; main dispatches on args.command, not on a stored function
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="pipeline config JSON file")
    common.add_argument("--out", default=None, help="output directory (default: out)")
    common.add_argument("--backend", choices=["stub", "remote"], default=None,
                        help="chat backend override")
    common.add_argument("--freeze-timestamps", action="store_true",
                        help="write a fixed timestamp into generated reports")

    parser = argparse.ArgumentParser(
        prog="wipcast",
        description="Forecast daily work-in-progress from process event logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[common],
                       help="parse an event log and write the daily WiP series")
    p.add_argument("path", nargs="?", help="XES or CSV event log (gzip ok)")
    p.add_argument("--format", choices=["auto", "xes", "csv"], default=None)
    p.add_argument("--case", help="CSV column holding the case id")
    p.add_argument("--activity", help="CSV column holding the activity name")
    p.add_argument("--timestamp", help="CSV column holding the timestamp")
    p.add_argument("--lifecycle", help="CSV column holding the lifecycle marker")
    p.add_argument("--gap-policy", choices=["carry", "drop"], default=None)

    p = sub.add_parser("stories", parents=[common],
                       help="render query and contextual stories from the series")

    p = sub.add_parser("index", parents=[common],
                       help="embed contextual stories into retrieval indexes")

    p = sub.add_parser("forecast", parents=[common],
                       help="forecast a single day's closing WiP")
    p.add_argument("--date", help="target day (ISO); default: day after the series ends")
    p.add_argument("--mode", choices=["rules", "react"], default=None)

    p = sub.add_parser("evaluate", parents=[common],
                       help="walk-forward evaluation with ablations and baseline")
    p.add_argument("--split", help="last training day (ISO); default: last 20%% as test")
    p.add_argument("--mode", choices=["rules", "react"], default=None)

    return parser


def _effective_config(args) -> PipelineConfig:
    """The config file (or defaults) with the command-line overrides applied."""
    if args.config:
        _require(args.config, "config file")
        with open(args.config, encoding="utf-8") as fh:
            cfg = load_config(fh)
    else:
        cfg = PipelineConfig()
    if args.backend and args.backend != cfg.backend.kind:
        cfg = replace(cfg, backend=replace(cfg.backend, kind=args.backend))
    mode = getattr(args, "mode", None)  # only forecast and evaluate take --mode
    if mode and mode != cfg.forecast.fusion_mode:
        cfg = replace(cfg, forecast=replace(cfg.forecast, fusion_mode=mode))
    if args.freeze_timestamps:
        cfg = replace(cfg, freeze_timestamps=True)
    if args.out is None:
        args.out = cfg.out_dir
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _effective_config(args)
        # Looked up on every call, so a rebound cmd_* (as a tracer does) is the one that runs.
        return globals()[f"cmd_{args.command}"](args, cfg)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EmptyLogError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (EventLogError, EmbeddingError, LlmError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
