"""Command-line pipeline: event log -> WiP series -> stories -> index -> forecast.

Each subcommand reads the previous stage's files from the output directory and
overwrites its own, so re-running any stage with the same inputs reproduces
the same files (timestamps in the SVG report can be frozen with a flag).

Exit codes: 0 success, 1 processing error, 2 missing/invalid path or usage,
3 empty event log.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from datetime import date as Date
from datetime import timedelta

from .agents import _query_story
from .config import (
    PipelineConfig,
    build_backend,
    build_embedder,
    build_lifecycle,
    load_config,
)
from .eventlog import (
    ColumnMapping,
    EmptyLogError,
    EventLogError,
    parse_csv,
    parse_xes,
    validate,
)
from .evaluation import (
    contextual_stories,
    default_split_date,
    emit_report,
    forecast_day,
    load_predictions_csv,
    merge_traces,
    persistence_baseline,
    render_report_svg,
    rolling_forecast,
    summarize,
)
from .llm import LlmError
from .memory import EmbeddingError, StoryIndex, load_snapshot, save_snapshot
from .narrative import GRANULARITIES, read_stories_jsonl, write_stories_jsonl
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
    path = _require(os.path.join(out_dir, SERIES_FILE),
                    "run `wipcast ingest` first or pass --series")
    with open(path, encoding="utf-8") as fh:
        return load_wip_csv(fh)


def _detect_format(path: str, declared: str) -> str:
    if declared != "auto":
        return declared
    name = path.lower()
    if name.endswith((".xes", ".xes.gz")):
        return "xes"
    if name.endswith((".csv", ".csv.gz")):
        return "csv"
    raise ValueError(f"cannot infer log format from {path!r}; pass --format")


def _day_stories(series, window: int):
    """Each day's query story and contextual story, per granularity, for days
    with a known next-day close. Windowed stories require a full window, so
    that file starts at the window-th day."""
    out = {}
    for g in GRANULARITIES:
        days, contextual = contextual_stories(series.events, g, window)
        out[g] = [story for i, ctx in zip(days, contextual)
                  for story in (_query_story(g, series.events[i], series, window), ctx)]
    return out


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

    report = validate(log)
    series = build_wip_series(log, build_lifecycle(cfg.lifecycle),
                              gap_policy=args.gap_policy or cfg.gap_policy,
                              tz=cfg.input.timezone)

    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, SERIES_FILE)
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(export_wip_csv(series))
    print(f"ingested {report.event_count} events / {report.case_count} cases "
          f"-> {len(series.events)} days ({series.events[0].date} .. "
          f"{series.events[-1].date})")
    print(f"wrote {out_path}")
    return 0


def cmd_stories(args, cfg: PipelineConfig) -> int:
    series = _load_series(args.out)
    if len(series.events) < 2:
        raise ValueError("need at least two days to render contextual stories")
    stories = _day_stories(series, cfg.forecast.window)
    for g in GRANULARITIES:
        path = _stories_file(args.out, g)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            count = write_stories_jsonl(stories[g], fh)
        contextual = sum(1 for s in stories[g] if s.kind == "contextual")
        print(f"wrote {path}: {count} stories ({contextual} contextual)")
    return 0


def _build_index(stories, embedder, cfg: PipelineConfig) -> StoryIndex:
    """Index the contextual stories among ``stories``, embedded in one call."""
    contextual = [s for s in stories if s.kind == "contextual"]
    index = StoryIndex(provider=embedder, retention=cfg.forecast.retention())
    index.add_many(contextual, embedder.embed_many(s.text for s in contextual))
    return index


def cmd_index(args, cfg: PipelineConfig) -> int:
    embedder = build_embedder(cfg.embedder)
    for g in GRANULARITIES:
        src = _require(_stories_file(args.out, g), "run `wipcast stories` first")
        with open(src, encoding="utf-8") as fh:
            index = _build_index(read_stories_jsonl(fh), embedder, cfg)
        path = _index_file(args.out, g)
        count = save_snapshot(index, path)
        print(f"wrote {path}: {count} documents")
    return 0


def _load_or_build_indexes(args, cfg: PipelineConfig, series):
    """Prefer snapshots from `wipcast index`; otherwise embed on the fly."""
    embedder = build_embedder(cfg.embedder)
    snapshots = {g: _index_file(args.out, g) for g in GRANULARITIES}
    if all(os.path.exists(p) for p in snapshots.values()):
        return {g: load_snapshot(path, provider=embedder, retention=cfg.forecast.retention())
                for g, path in snapshots.items()}
    return {g: _build_index(contextual_stories(series.events, g, cfg.forecast.window)[1],
                            embedder, cfg)
            for g in GRANULARITIES}


def cmd_forecast(args, cfg: PipelineConfig) -> int:
    series = _load_series(args.out)
    current = series.events[-1]
    if args.date is not None:
        target = Date.fromisoformat(args.date)
        wanted = target - timedelta(days=1)
        current = next((ev for ev in series.events if ev.date == wanted), None)
        if current is None:
            raise ValueError(f"cannot forecast {target}: no series day at {wanted}")

    indexes = _load_or_build_indexes(args, cfg, series)
    report = forecast_day(current, series, indexes, build_backend(cfg.backend), cfg.forecast)

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
        split = Date.fromisoformat(args.split)
    elif cfg.split_date:
        split = Date.fromisoformat(cfg.split_date)
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


def cmd_plot(args, cfg: PipelineConfig) -> int:
    src = _require(os.path.join(args.out, "predictions.csv"),
                   "run `wipcast evaluate` first")
    with open(src, encoding="utf-8") as fh:
        trace = load_predictions_csv(fh)
    svg = render_report_svg(trace, rolling_window=cfg.forecast.trend_window,
                            freeze_timestamps=cfg.freeze_timestamps)
    path = os.path.join(args.out, "report.svg")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(svg)
    print(f"wrote {path}")
    return 0


# --- wiring ---


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
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("stories", parents=[common],
                       help="render query and contextual stories from the series")
    p.set_defaults(func=cmd_stories)

    p = sub.add_parser("index", parents=[common],
                       help="embed contextual stories into retrieval indexes")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("forecast", parents=[common],
                       help="forecast a single day's closing WiP")
    p.add_argument("--date", help="target day (ISO); default: day after the series ends")
    p.add_argument("--mode", choices=["rules", "react"], default=None)
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("evaluate", parents=[common],
                       help="walk-forward evaluation with ablations and baseline")
    p.add_argument("--split", help="last training day (ISO); default: last 20%% as test")
    p.add_argument("--mode", choices=["rules", "react"], default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("plot", parents=[common],
                       help="re-render report.svg from predictions.csv")
    p.set_defaults(func=cmd_plot)

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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _effective_config(args)
        return args.func(args, cfg)
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
