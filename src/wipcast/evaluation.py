"""Walk-forward evaluation of the forecasting pipeline.

The rolling harness moves the forecast origin over one fixed memory: each
granularity's index holds every contextual story of the series, built once,
and each agent retrieves as of the day d it forecasts, so only stories dated
strictly before d can reach that forecast. That as-of cutoff is the one
causal rule, as in ``forecast``; yesterday's contextual story (whose realized
target is today's close) is dated before d, so it is eligible. Each step
audits what the agents actually retrieved against the cutoff.

Alongside the fused multi-agent trace the harness records each predictor's
own value as an ablation trace. All four share the same per-day retrievals,
so any difference between them is attributable to fusion alone.
"""

from __future__ import annotations

import csv
import io
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import date as Date
from datetime import datetime, timedelta, timezone
from typing import Mapping

from .agents import ForecastReport, fuse, predictor_predict, trend_analyze
from .config import ForecastParams
from .llm import AGENT_IDS, StubBackend
from .memory import DeterministicEmbedder, StoryIndex, build_indexes
from .narrative import query_story
from .wipseries import WipSeries

SOURCES = ("multi_agent", "daily_only", "weekday_only", "windowed_only", "persistence")

ROLLING_WINDOW = 7  # days in the report's rolling MAPE

PREDICTIONS_HEADER = ["date", "source", "actual", "predicted"]
METRICS_HEADER = ["source", "mape", "mae", "n", "skipped"]


@dataclass(frozen=True)
class TraceEntry:
    date: Date
    source: str
    actual: float
    predicted: float


@dataclass(frozen=True)
class PredictionTrace:
    """Per-day (actual, predicted) pairs, possibly for several sources at once."""

    entries: tuple[TraceEntry, ...]

    def __post_init__(self):
        last: dict[str, Date] = {}
        for entry in self.entries:
            prev = last.get(entry.source)
            if prev is not None and entry.date <= prev:
                raise ValueError(
                    f"trace dates for {entry.source} must be strictly increasing "
                    f"({entry.date} after {prev})"
                )
            last[entry.source] = entry.date

    def sources(self) -> list[str]:
        seen = dict.fromkeys(entry.source for entry in self.entries)
        return sorted(seen, key=_source_rank)

    def for_source(self, source: str) -> tuple[TraceEntry, ...]:
        return tuple(e for e in self.entries if e.source == source)


def _source_rank(source: str):
    try:
        return (SOURCES.index(source), source)
    except ValueError:
        return (len(SOURCES), source)


def merge_traces(*traces: PredictionTrace) -> PredictionTrace:
    entries = [e for trace in traces for e in trace.entries]
    entries.sort(key=lambda e: (_source_rank(e.source), e.date))
    return PredictionTrace(entries=tuple(entries))


@dataclass(frozen=True)
class MetricsSummary:
    source: str
    mape: float
    mae: float
    n: int
    skipped_zero_actuals: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("metrics need at least one evaluated day")
        if not 0 <= self.skipped_zero_actuals <= self.n:
            raise ValueError("skipped count out of range")
        if self.mape < 0 or self.mae < 0:
            raise ValueError("mape and mae are nonnegative")


def mape(entries) -> float:
    """Mean absolute percentage error; days with a zero actual are excluded."""
    terms = [abs(e.actual - e.predicted) / abs(e.actual) for e in entries if e.actual != 0]
    if not terms:
        raise ValueError("MAPE undefined: every actual is zero")
    return 100.0 * sum(terms) / len(terms)


def mae(entries) -> float:
    entries = list(entries)
    if not entries:
        raise ValueError("MAE needs at least one entry")
    return sum(abs(e.actual - e.predicted) for e in entries) / len(entries)


def summarize(trace: PredictionTrace) -> list[MetricsSummary]:
    out = []
    for source in trace.sources():
        entries = trace.for_source(source)
        skipped = sum(1 for e in entries if e.actual == 0)
        out.append(MetricsSummary(source=source, mape=mape(entries), mae=mae(entries),
                                  n=len(entries), skipped_zero_actuals=skipped))
    return out


def default_split_date(series: WipSeries, test_fraction: float = 0.2) -> Date:
    """Split so the trailing test_fraction of days (at least one) is held out."""
    if not 0 < test_fraction < 1:
        raise ValueError("test_fraction must be in (0, 1)")
    n = len(series.events)
    n_test = max(1, round(n * test_fraction))
    if n_test >= n:
        raise ValueError("series too short to split")
    return series.events[n - n_test - 1].date


def _split_index(series: WipSeries, split_date: Date, min_before: int) -> int:
    s = series.days_through(split_date)
    before = s - (s > 0 and series.events[s - 1].date == split_date)
    if before < min_before:
        raise ValueError(f"need at least {min_before} days before the split, have {before}")
    if s < 1:
        raise ValueError("split precedes the series entirely")
    if s >= len(series):
        raise ValueError("split leaves no test days")
    return s


@dataclass(frozen=True)
class StepAudit:
    """What one forecast step retrieved: each agent's newest retrieved story date."""

    date: Date
    newest_retrieved: dict[str, Date | None] = field(compare=False)  # None: retrieved nothing


@dataclass(frozen=True)
class RollingForecastResult:
    trace: PredictionTrace
    reports: tuple[ForecastReport, ...]
    audit: tuple[StepAudit, ...]


def embed_queries(events, days, embedder, window: int) -> dict[str, list[tuple]]:
    """Each agent's query text and vector for each of ``days``, in order: each
    story rendered once, each agent's distinct texts embedded in one call."""
    out = {}
    for g in AGENT_IDS:
        texts = [query_story(events, i, g, window).text for i in days]
        distinct = list(dict.fromkeys(texts))
        rows = dict(zip(distinct, embedder.embed_many(distinct)))
        out[g] = [(text, rows[text]) for text in texts]
    return out


def forecast_day(events, i: int, queries: Mapping[str, tuple], indexes: Mapping[str, StoryIndex],
                 backend, params: ForecastParams) -> ForecastReport:
    """Forecast the close of the day after ``events[i]``.

    ``queries`` maps each agent to its query story's text and vector for day
    i, as :func:`embed_queries` gives them. Each agent retrieves from its own
    granularity's index as of the forecast day, so the indexes may also hold
    later stories. The trend analyst reads the last ``trend_lookback`` closes
    up to day i, and fusion combines the three values. Predictors run
    inline, in AGENT_IDS order, unless the backend says it is I/O-bound
    (``io_bound``, as RemoteChatBackend does); only then do they fan out to a
    short-lived thread pool.
    """
    forecast_date = events[i].date + timedelta(days=1)
    calls = {}
    for aid in AGENT_IDS:
        text, vector = queries[aid]
        retrieved = indexes[aid].retrieve(vector, as_of=forecast_date, k=params.k)
        calls[aid] = (aid, text, retrieved, float(events[i].close), backend)
    if getattr(backend, "io_bound", False):
        with ThreadPoolExecutor(max_workers=len(AGENT_IDS)) as pool:
            futures = {aid: pool.submit(predictor_predict, *call) for aid, call in calls.items()}
            preds = {aid: fut.result() for aid, fut in futures.items()}
    else:
        preds = {aid: predictor_predict(*call) for aid, call in calls.items()}
    closes = [ev.close for ev in events[max(0, i + 1 - params.trend_lookback):i + 1]]
    trend = trend_analyze(closes, window=params.trend_window, lookback=params.trend_lookback,
                          thresholds=params.trend_thresholds)
    return fuse(preds, trend, forecast_date=forecast_date, index=indexes["daily"],
                backend=backend, mode=params.fusion_mode, weights=params.fusion_weights,
                k=params.k)


def rolling_forecast(series: WipSeries, split_date: Date | None = None,
                     params: ForecastParams | None = None,
                     backend=None, embedder=None) -> RollingForecastResult:
    """Forecast every day after split_date, origin by origin, over one memory.

    The indexes are built once over the whole series by
    :func:`~wipcast.memory.build_indexes`, as ``forecast`` builds them; the
    as-of cutoff of :meth:`StoryIndex.retrieve` keeps each step's future out.
    Every step's query stories are rendered and embedded up front by
    :func:`embed_queries`. Each step is one :func:`forecast_day`, audited:
    RuntimeError if an agent retrieved a story dated on or after the day it
    forecast. Each predictor's own value is an ablation trace, from the
    Prediction objects that fed fusion; an agent with nothing eligible yet
    gets no examples.
    """
    if params is None:
        params = ForecastParams()
    if backend is None:
        backend = StubBackend()
    if embedder is None:
        embedder = DeterministicEmbedder()
    if not series.contiguous:
        raise ValueError("walk-forward evaluation needs a contiguous daily series")
    if split_date is None:
        split_date = default_split_date(series)

    events = series.events
    s = _split_index(series, split_date, min_before=14)

    queries = embed_queries(events, range(s - 1, len(events) - 1), embedder, params.window)
    indexes = build_indexes(events, embedder, params.window, params.retention())
    entries: list[TraceEntry] = []
    reports: list[ForecastReport] = []
    audit: list[StepAudit] = []

    for step, j in enumerate(range(s, len(events))):
        target_day = events[j].date
        report = forecast_day(events, j - 1, {g: queries[g][step] for g in AGENT_IDS},
                              indexes, backend, params)
        newest = {aid: max((r.date for r in pred.retrieved), default=None)
                  for aid, pred in report.agent_predictions.items()}
        for aid, day in newest.items():
            if day is not None and day >= target_day:
                raise RuntimeError(f"memory leak: {aid} retrieved a story dated {day} "
                                   f"while forecasting {target_day}")
        audit.append(StepAudit(date=target_day, newest_retrieved=newest))
        reports.append(report)

        actual = float(events[j].close)
        entries.append(TraceEntry(target_day, "multi_agent", actual, report.final_value))
        for aid, pred in report.agent_predictions.items():
            entries.append(TraceEntry(target_day, f"{aid}_only", actual, pred.value))

    entries.sort(key=lambda e: (_source_rank(e.source), e.date))
    return RollingForecastResult(trace=PredictionTrace(entries=tuple(entries)),
                                 reports=tuple(reports), audit=tuple(audit))


def persistence_baseline(series: WipSeries, split_date: Date | None = None) -> PredictionTrace:
    """Predict every post-split day's close as the previous day's close."""
    if split_date is None:
        split_date = default_split_date(series)
    events = series.events
    s = _split_index(series, split_date, min_before=0)
    entries = tuple(
        TraceEntry(events[j].date, "persistence", float(events[j].close),
                   float(events[j - 1].close))
        for j in range(s, len(events))
    )
    return PredictionTrace(entries=entries)


# --- report emission ---

_PALETTE = {
    "multi_agent": "#1f77b4",
    "daily_only": "#ff7f0e",
    "weekday_only": "#2ca02c",
    "windowed_only": "#d62728",
    "persistence": "#9467bd",
}
_FALLBACK_COLOR = "#7f7f7f"


def _fmt_float(x: float) -> str:
    return f"{x:.6f}"


def _rolling_ape(entries, window: int) -> list[float]:
    """Per-day rolling mean of absolute percentage error; zero actuals drop
    out of the window, and an all-zero window carries the previous value."""
    out: list[float] = []
    apes = [100.0 * abs(e.actual - e.predicted) / abs(e.actual) if e.actual != 0 else None
            for e in entries]
    for i in range(len(apes)):
        window_vals = [a for a in apes[max(0, i - window + 1):i + 1] if a is not None]
        if window_vals:
            out.append(sum(window_vals) / len(window_vals))
        else:
            out.append(out[-1] if out else 0.0)
    return out


def _scaler(lo: float, hi: float, pix_lo: float, pix_hi: float):
    if hi <= lo:
        lo, hi = lo - 1.0, hi + 1.0
    span = hi - lo

    def scale(v: float) -> float:
        return pix_lo + (v - lo) / span * (pix_hi - pix_lo)

    return scale


def _polyline(xs, ys, color: str, width: float = 1.6) -> str:
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    return (f'<polyline fill="none" stroke="{color}" '
            f'stroke-width="{width}" points="{pts}" />')


def render_report_svg(trace: PredictionTrace, rolling_window: int = ROLLING_WINDOW,
                      freeze_timestamps: bool = False, split_note: str = "") -> str:
    """Two-panel SVG: actuals with per-source predictions on top, per-source
    rolling MAPE below. Exactly one polyline per panel per source; the actual
    series is drawn as a dashed path so it never miscounts as a source."""
    sources = trace.sources()
    if not sources:
        raise ValueError("cannot render a report for an empty trace")
    all_dates = sorted({e.date for e in trace.entries})
    x_of = {d: i for i, d in enumerate(all_dates)}

    width, height = 960, 560
    tops = (60.0, 260.0)
    bots = (330.0, 520.0)
    x_lo, x_hi = 60.0, width - 30.0
    xscale = _scaler(0, max(1, len(all_dates) - 1), x_lo, x_hi)

    values = [e.actual for e in trace.entries] + [e.predicted for e in trace.entries]
    yscale = _scaler(min(values), max(values), tops[1], tops[0])

    mape_series = {src: _rolling_ape(trace.for_source(src), rolling_window)
                   for src in sources}
    mape_values = [v for series in mape_series.values() for v in series]
    mscale = _scaler(min(mape_values), max(mape_values), bots[1], bots[0])

    if freeze_timestamps:
        stamp = "1970-01-01T00:00:00+00:00"
    else:
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f"<!-- generated: {stamp} -->",
        f'<rect width="{width}" height="{height}" fill="white" />',
        '<text x="60" y="28" font-family="sans-serif" font-size="16">'
        "Work in progress: actual vs predicted</text>",
        f'<text x="60" y="46" font-family="sans-serif" font-size="11" fill="#555">'
        f"generated {stamp}{('  |  ' + split_note) if split_note else ''}</text>",
    ]

    # top panel: actual closes as a dashed reference path
    first_source = sources[0]
    actual_pts = [(xscale(x_of[e.date]), yscale(e.actual))
                  for e in trace.for_source(first_source)]
    d_attr = "M " + " L ".join(f"{x:.2f} {y:.2f}" for x, y in actual_pts)
    parts.append(f'<path d="{d_attr}" fill="none" stroke="#222" '
                 'stroke-width="1.2" stroke-dasharray="5,3" />')

    for src in sources:
        entries = trace.for_source(src)
        color = _PALETTE.get(src, _FALLBACK_COLOR)
        xs = [xscale(x_of[e.date]) for e in entries]
        parts.append(_polyline(xs, [yscale(e.predicted) for e in entries], color))

    parts.append(f'<text x="60" y="302" font-family="sans-serif" font-size="13">'
                 f"Rolling MAPE ({rolling_window}-day window, %)</text>")
    for src in sources:
        entries = trace.for_source(src)
        color = _PALETTE.get(src, _FALLBACK_COLOR)
        xs = [xscale(x_of[e.date]) for e in entries]
        parts.append(_polyline(xs, [mscale(v) for v in mape_series[src]], color))

    # legend
    for i, src in enumerate(sources):
        color = _PALETTE.get(src, _FALLBACK_COLOR)
        y = 60 + 16 * i
        parts.append(f'<rect x="{width - 180}" y="{y - 9}" width="10" height="10" '
                     f'fill="{color}" />')
        parts.append(f'<text x="{width - 164}" y="{y}" font-family="sans-serif" '
                     f'font-size="11">{src}</text>')
    parts.append(f'<text x="{width - 180}" y="{60 + 16 * len(sources)}" '
                 'font-family="sans-serif" font-size="11">actual (dashed)</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def predictions_csv(trace: PredictionTrace) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(PREDICTIONS_HEADER)
    for e in trace.entries:
        writer.writerow([e.date.isoformat(), e.source,
                         _fmt_float(e.actual), _fmt_float(e.predicted)])
    return buf.getvalue()


def metrics_csv(trace: PredictionTrace) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(METRICS_HEADER)
    for summary in summarize(trace):
        writer.writerow([summary.source, _fmt_float(summary.mape),
                         _fmt_float(summary.mae), summary.n,
                         summary.skipped_zero_actuals])
    return buf.getvalue()


def emit_report(trace: PredictionTrace, out_dir: str, rolling_window: int = ROLLING_WINDOW,
                freeze_timestamps: bool = False, split_note: str = "") -> dict[str, str]:
    """Write predictions.csv, metrics.csv, and report.svg under out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "predictions": os.path.join(out_dir, "predictions.csv"),
        "metrics": os.path.join(out_dir, "metrics.csv"),
        "report": os.path.join(out_dir, "report.svg"),
    }
    with open(paths["predictions"], "w", encoding="utf-8", newline="") as fh:
        fh.write(predictions_csv(trace))
    with open(paths["metrics"], "w", encoding="utf-8", newline="") as fh:
        fh.write(metrics_csv(trace))
    svg = render_report_svg(trace, rolling_window=rolling_window,
                            freeze_timestamps=freeze_timestamps,
                            split_note=split_note)
    with open(paths["report"], "w", encoding="utf-8", newline="") as fh:
        fh.write(svg)
    return paths
