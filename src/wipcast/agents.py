"""Predictor agents, trend analysis, and forecast fusion.

Three predictor agents share one mechanism and differ only in how they frame
the query story (plain daily, weekday-anchored, trailing-window aggregate) and
in which memory index they consult. A trend analyst labels the recent close
trajectory from moving averages. The fusion step combines the three agent
values either by fixed trend-dependent weights (rules mode, fully
deterministic) or by handing them and the trend to the backend, which may
retrieve past stories before it answers (react mode); the answer must stay
near the agent envelope.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from datetime import date as Date
from typing import Mapping, Sequence

from .llm import (
    AGENT_IDS,
    ChatRequest,
    ChatResponse,
    LlmError,
    NoNumberError,
    RetrievedExample,
    StructuredContext,
    extract_prediction,
    parse_action,
)
from .memory import TOP_K, EmbeddingError, StoryIndex

logger = logging.getLogger(__name__)

TREND_LABELS = (
    "increasing_significantly",
    "increasing",
    "stable",
    "decreasing",
    "decreasing_significantly",
)

TREND_TEXTS = {
    "increasing_significantly": "WiP has been increasing significantly.",
    "increasing": "WiP has been increasing.",
    "stable": "WiP has been relatively stable.",
    "decreasing": "WiP has been decreasing.",
    "decreasing_significantly": "WiP has been decreasing significantly.",
}

# Stable periods lean on the windowed view; sharp shifts lean on the daily
# view, which reacts fastest. Moderate trends split evenly.
DEFAULT_FUSION_WEIGHTS: dict[str, dict[str, float]] = {
    "stable": {"daily": 0.2, "weekday": 0.2, "windowed": 0.6},
    "increasing": {"daily": 1 / 3, "weekday": 1 / 3, "windowed": 1 / 3},
    "decreasing": {"daily": 1 / 3, "weekday": 1 / 3, "windowed": 1 / 3},
    "increasing_significantly": {"daily": 0.6, "weekday": 0.2, "windowed": 0.2},
    "decreasing_significantly": {"daily": 0.6, "weekday": 0.2, "windowed": 0.2},
}

TREND_WINDOW = 7  # trend_analyze's defaults
TREND_LOOKBACK = 14
TREND_THRESHOLDS = (0.01, 0.05)

REACT_STEPS = 4  # backend turns react fusion may take before it falls back to rules

PREDICTOR_SYSTEM = (
    "You forecast the next day's work-in-progress (WiP) level of a business "
    "process from its recent story and similar historical episodes. Answer "
    "with a line of the form 'PREDICTION: <number>'."
)

FUSION_SYSTEM = (
    "You combine three WiP forecasts (daily, weekday, windowed views) into one, "
    "given the trend. To see similar past situations and what followed, answer "
    "'ACTION: retrieve(story_text)'. When ready, answer with 'PREDICTION: <number>'."
)


@dataclass(frozen=True)
class Prediction:
    """One agent's next-day forecast plus the evidence it was given."""

    agent_id: str
    value: float
    retrieved: tuple[RetrievedExample, ...]

    def __post_init__(self):
        if self.agent_id not in AGENT_IDS:
            raise ValueError(f"unknown agent_id: {self.agent_id}")
        if self.value < 0:
            raise ValueError("prediction value must be >= 0")


@dataclass(frozen=True)
class TrendInsight:
    label: str
    sma_first: float
    sma_last: float
    relative_change: float
    low_data: bool = False

    def __post_init__(self):
        if self.label not in TREND_LABELS:
            raise ValueError(f"unknown trend label: {self.label}")

    @property
    def text(self) -> str:
        return TREND_TEXTS[self.label]


@dataclass(frozen=True)
class ForecastReport:
    date: Date
    final_value: float
    agent_predictions: dict[str, Prediction]
    trend: TrendInsight
    mode: str
    rationale: str

    def to_dict(self) -> dict:
        return {
            "date": self.date.isoformat(),
            "final": self.final_value,
            "mode": self.mode,
            "daily": self.agent_predictions["daily"].value,
            "weekday": self.agent_predictions["weekday"].value,
            "windowed": self.agent_predictions["windowed"].value,
            "trend_label": self.trend.label,
            "rationale": self.rationale,
        }


def predictor_predict(agent_id: str, query: str, retrieved: Sequence[RetrievedExample],
                      current_close: float, backend) -> Prediction:
    """One agent's forecast of the next day's close: prompt, chat, parse.

    ``query`` is the agent's rendered query story and ``retrieved`` the prior
    stories retrieved for it. Negative model answers clamp to zero since WiP
    counts cannot go below it.
    """
    retrieved = tuple(retrieved)
    lines = [f"Current situation: {query}"]
    if retrieved:
        lines.append("Similar past situations and what followed:")
        lines.extend(f"- {res.text} (similarity {res.similarity:.4f})" for res in retrieved)
    else:
        lines.append("No historical examples available.")
    lines.append("Predict the next day's closing WiP.")
    req = ChatRequest(
        system_text=PREDICTOR_SYSTEM,
        user_text="\n".join(lines),
        structured_context=StructuredContext(retrieved=retrieved, current_close=current_close),
    )
    value = extract_prediction(backend.chat(req).text)
    return Prediction(agent_id=agent_id, value=max(0.0, value), retrieved=retrieved)


def trend_analyze(closes: Sequence[float], window: int = TREND_WINDOW,
                  lookback: int = TREND_LOOKBACK,
                  thresholds: tuple[float, float] = TREND_THRESHOLDS) -> TrendInsight:
    """Label the recent close trajectory by comparing two moving averages.

    Uses the last `lookback` closes; the first and last `window`-wide means
    within that span are compared. With fewer than window+1 points there is
    nothing to compare, so the label degrades to stable with low_data set.
    """
    if not closes:
        raise ValueError("trend analysis needs at least one close value")
    minor, major = thresholds
    if not 0 < minor < major:
        raise ValueError("thresholds must satisfy 0 < minor < major")
    span = [float(c) for c in closes[-lookback:]]
    if len(span) < window + 1:
        mean = sum(span) / len(span)
        return TrendInsight(label="stable", sma_first=mean, sma_last=mean,
                            relative_change=0.0, low_data=True)
    sma_first = sum(span[:window]) / window
    sma_last = sum(span[-window:]) / window
    rc = (sma_last - sma_first) / max(sma_first, 1e-9)
    if rc >= major:
        label = "increasing_significantly"
    elif rc >= minor:
        label = "increasing"
    elif rc > -minor:
        label = "stable"
    elif rc > -major:
        label = "decreasing"
    else:
        label = "decreasing_significantly"
    return TrendInsight(label=label, sma_first=sma_first, sma_last=sma_last,
                        relative_change=rc)


def _check_weights(weights: Mapping[str, Mapping[str, float]], key: str = "weights") -> None:
    """ValueError naming ``key`` and the trend label unless every row gives each
    agent a nonnegative weight and sums to 1."""
    for label, row in weights.items():
        if label not in TREND_LABELS:
            raise ValueError(f"unknown trend label in {key}: {label}")
        if set(row) != set(AGENT_IDS):
            raise ValueError(f"{key}.{label} must cover exactly {AGENT_IDS}")
        if not all(w >= 0 for w in row.values()):  # NaN too
            raise ValueError(f"{key}.{label} must be nonnegative, got {dict(row)}")
        if abs(sum(row.values()) - 1.0) > 1e-9:
            raise ValueError(f"{key}.{label} must sum to 1")


def _rules_fuse(preds: dict[str, Prediction], trend: TrendInsight, forecast_date: Date,
                weights: Mapping[str, Mapping[str, float]], note: str = "") -> ForecastReport:
    row = weights[trend.label]
    values = {a: preds[a].value for a in AGENT_IDS}
    # Pivot form keeps consensus exact: if all values equal v, the sum of
    # weighted deltas is exactly zero regardless of weight rounding.
    pivot = values["daily"]
    final = pivot + sum(row[a] * (values[a] - pivot) for a in AGENT_IDS)
    lo = min(values.values())
    hi = max(values.values())
    final = min(max(final, lo), hi)
    weight_text = ", ".join(f"{a}={row[a]:.4g}" for a in AGENT_IDS)
    rationale = f"{note}rules fusion: trend={trend.label}; weights {weight_text}"
    return ForecastReport(date=forecast_date, final_value=final, agent_predictions=dict(preds),
                          trend=trend, mode="rules", rationale=rationale)


def _react_tool(name: str, arg: str, index: StoryIndex | None, as_of: Date | None,
                k: int) -> str:
    """Run one tool call and return its observation; ``retrieve`` is the only tool."""
    if name != "retrieve":
        return f"unknown tool '{name}'"
    if index is None or not arg.strip():
        return "no memory available"
    results = index.retrieve(arg.strip(), as_of=as_of, k=k)
    if not results:
        return "no stories found"
    return "; ".join(f"{res.date.isoformat()}: next value {res.target}"
                     f" (similarity {res.similarity:.4f})" for res in results)


def fuse(preds: Sequence[Prediction] | Mapping[str, Prediction], trend: TrendInsight,
         forecast_date: Date, index: StoryIndex | None = None, as_of: Date | None = None,
         backend=None, mode: str = "rules",
         weights: Mapping[str, Mapping[str, float]] | None = None, k: int = TOP_K) -> ForecastReport:
    """Combine the three agent predictions into the final forecast.

    ``weights`` maps trend labels to per-agent weights; a label it does not
    name keeps its DEFAULT_FUSION_WEIGHTS row. Rules mode is pure arithmetic.
    React mode gives the backend the three values and the trend; within
    REACT_STEPS turns it may call ``retrieve``, which searches ``index`` for
    stories dated before ``as_of``, the agents' cutoff, before it answers.
    Any failure, budget exhaustion, or an answer straying beyond the agent
    envelope (10% of the spread, at least 1.0) drops back to rules mode with
    the reason recorded in the rationale.
    """
    if isinstance(preds, Mapping):
        by_id = dict(preds)
    else:
        by_id = {p.agent_id: p for p in preds}
    missing = [a for a in AGENT_IDS if a not in by_id]
    if missing or len(by_id) != len(AGENT_IDS):
        raise ValueError(f"need exactly one prediction per agent; missing: {missing}")
    table = {**DEFAULT_FUSION_WEIGHTS, **(weights or {})}
    _check_weights(table)
    if mode == "rules":
        return _rules_fuse(by_id, trend, forecast_date, table)
    if mode != "react":
        raise ValueError(f"unknown fusion mode: {mode}")
    if backend is None:
        raise ValueError("react mode needs a backend")
    if index is not None and as_of is None:
        raise ValueError("react retrieval needs as_of, the agents' cutoff")

    values = [by_id[a].value for a in AGENT_IDS]
    lo, hi = min(values), max(values)
    margin = max(0.1 * (hi - lo), 1.0)

    user_lines = [
        f"Produce the final WiP forecast for {forecast_date.isoformat()}.",
        *(f"{a} predicts {v:.2f}" for a, v in zip(AGENT_IDS, values)),
        f"{trend.text} (label: {trend.label})",
    ]
    context = StructuredContext(agent_predictions=dict(zip(AGENT_IDS, values)),
                                trend_label=trend.label)
    for step in range(REACT_STEPS):
        req = ChatRequest(system_text=FUSION_SYSTEM, user_text="\n".join(user_lines),
                          structured_context=context)
        try:
            resp: ChatResponse = backend.chat(req)
        except LlmError as exc:
            logger.warning("react fusion backend failed: %s", exc)
            return _rules_fuse(by_id, trend, forecast_date, table,
                               note="react fallback (backend unavailable): ")
        action = parse_action(resp.text)
        if action is not None:
            name, arg = action
            try:
                observation = _react_tool(name, arg, index, as_of, k)
            except (EmbeddingError, ValueError) as exc:  # e.g. a lone surrogate in the query
                logger.warning("react fusion retrieve failed: %s", exc)
                return _rules_fuse(by_id, trend, forecast_date, table,
                                   note="react fallback (retrieve failed): ")
            user_lines.append(f"OBSERVATION {name}({arg}): {observation}")
            continue
        try:
            final = extract_prediction(resp.text)
        except NoNumberError:
            return _rules_fuse(by_id, trend, forecast_date, table,
                               note="react fallback (unparseable answer): ")
        if final < lo - margin or final > hi + margin:
            return _rules_fuse(by_id, trend, forecast_date, table,
                               note=f"react fallback (answer {final:.2f} outside envelope): ")
        return ForecastReport(
            date=forecast_date, final_value=final, agent_predictions=by_id, trend=trend,
            mode="react", rationale=f"react fusion accepted after {step} tool step(s)",
        )
    return _rules_fuse(by_id, trend, forecast_date, table,
                       note="react fallback (step budget exhausted): ")
