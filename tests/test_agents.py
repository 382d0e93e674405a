"""Agent tests: trend labeling, predictor behavior with the stub, fusion modes."""

from __future__ import annotations

import random
from datetime import date, timedelta

import numpy as np
import pytest

from wipcast.agents import (
    DEFAULT_FUSION_WEIGHTS,
    ForecastReport,
    Prediction,
    TrendInsight,
    fuse,
    predictor_predict,
    trend_analyze,
)
from wipcast.llm import BackendUnavailable, ChatResponse, StubBackend
from wipcast.memory import DeterministicEmbedder, MemoryDocument, StoryIndex
from wipcast.narrative import Story, render_contextual_story
from wipcast.wipseries import WipSeries, wip_event

from conftest import add_docs, random_wip_event


class ScriptedBackend:
    """Replays a fixed list of response texts (or raises the listed errors)."""

    backend_id = "scripted"

    def __init__(self, script):
        self.script = list(script)
        self.requests = []

    def chat(self, req):
        self.requests.append(req)
        item = self.script.pop(0)
        if isinstance(item, Exception):
            raise item
        return ChatResponse(text=item, backend_id=self.backend_id)


class ConstantProvider:
    """Maps every text to the same vector, forcing all-equal similarities."""

    dim = 4

    def embed(self, text):
        return np.array([1.0, 0.5, 0.25, 0.125])

    def embed_many(self, texts):
        return np.stack([self.embed(t) for t in texts])


def make_history(end_day, n, rng_seed=3):
    rng = random.Random(rng_seed)
    events = []
    for i in range(n):
        day = end_day - timedelta(days=n - 1 - i)
        events.append(random_wip_event(rng, day))
    return WipSeries(events=tuple(events))


def dated_story(base: Story, day) -> Story:
    return Story(text=base.text, kind=base.kind, granularity=base.granularity,
                 date=day, target=base.target)


def make_prediction(agent_id, value):
    return Prediction(agent_id=agent_id, value=value, retrieved=(), prompt_ref="t")


def three_preds(daily, weekday, windowed):
    return [
        make_prediction("daily", daily),
        make_prediction("weekday", weekday),
        make_prediction("windowed", windowed),
    ]


STABLE = trend_analyze([10.0] * 14)


# --- trend analysis ---


def test_trend_constant_series_is_stable():
    insight = trend_analyze([10.0] * 14)
    assert insight.label == "stable"
    assert insight.relative_change == 0.0
    assert insight.text == "WiP has been relatively stable."
    assert not insight.low_data


def test_trend_linear_ramp_hand_values():
    insight = trend_analyze(list(range(1, 15)))
    assert insight.sma_first == pytest.approx(4.0)
    assert insight.sma_last == pytest.approx(11.0)
    assert insight.relative_change == pytest.approx(1.75)
    assert insight.label == "increasing_significantly"
    assert insight.text == "WiP has been increasing significantly."


def test_trend_tiny_drift_stays_stable():
    insight = trend_analyze([10.0] * 13 + [10.2])
    assert insight.relative_change == pytest.approx(0.0028571428, abs=1e-6)
    assert insight.label == "stable"


def test_trend_threshold_boundaries_exact():
    # (101-100)/100 == 0.01 and (105-100)/100 == 0.05 bit-exactly; both
    # boundaries belong to the higher band (half-open intervals).
    assert trend_analyze([100.0] * 7 + [101.0] * 7).label == "increasing"
    assert trend_analyze([100.0] * 7 + [105.0] * 7).label == "increasing_significantly"
    assert trend_analyze([100.0] * 7 + [100.5] * 7).label == "stable"


def test_trend_decreasing_labels():
    assert trend_analyze([100.0] * 7 + [98.0] * 7).label == "decreasing"
    assert trend_analyze([100.0] * 7 + [90.0] * 7).label == "decreasing_significantly"
    assert trend_analyze([100.0] * 7 + [90.0] * 7).text == "WiP has been decreasing significantly."


def test_trend_low_data_degrades_to_stable():
    insight = trend_analyze([5.0, 6.0, 7.0])
    assert insight.label == "stable"
    assert insight.low_data


def test_trend_overlapping_windows_when_short():
    insight = trend_analyze([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
    assert insight.sma_first == pytest.approx(4.0)
    assert insight.sma_last == pytest.approx(5.0)
    assert insight.label == "increasing_significantly"


def test_trend_uses_only_lookback_tail():
    with_prefix = trend_analyze([999.0] * 30 + [100.0] * 7 + [101.0] * 7)
    plain = trend_analyze([100.0] * 7 + [101.0] * 7)
    assert with_prefix.label == plain.label
    assert with_prefix.relative_change == plain.relative_change


def test_trend_empty_rejected():
    with pytest.raises(ValueError):
        trend_analyze([])


def test_trend_scale_invariance():
    rng = random.Random(21)
    for _ in range(20):
        closes = [rng.uniform(1, 50) for _ in range(14)]
        a = trend_analyze(closes)
        b = trend_analyze([3.0 * c for c in closes])
        assert a.label == b.label


def test_trend_insight_rejects_unknown_label():
    with pytest.raises(ValueError):
        TrendInsight(label="sideways", sma_first=1, sma_last=1, relative_change=0, text="x")


# --- rules fusion ---


def test_fuse_rules_stable_hand_value():
    report = fuse(three_preds(10, 12, 20), STABLE, date(2024, 3, 5))
    assert report.final_value == pytest.approx(16.4, abs=1e-9)
    assert report.mode == "rules"
    assert "stable" in report.rationale


def test_fuse_rules_consensus_is_exact():
    report = fuse(three_preds(71, 71, 71), STABLE, date(2024, 3, 5))
    assert report.final_value == 71.0


def test_fuse_rules_significant_shift_prioritizes_daily():
    shift = trend_analyze(list(range(1, 15)))
    assert shift.label == "increasing_significantly"
    report = fuse(three_preds(10, 12, 20), shift, date(2024, 3, 5))
    assert report.final_value == pytest.approx(12.4, abs=1e-9)


def test_fuse_rules_moderate_trend_is_even_mean():
    moderate = trend_analyze([100.0] * 7 + [102.0] * 7)
    assert moderate.label == "increasing"
    report = fuse(three_preds(10, 12, 20), moderate, date(2024, 3, 5))
    assert report.final_value == pytest.approx(14.0, abs=1e-9)


def test_fuse_rules_is_convex_for_all_labels():
    rng = random.Random(9)
    labels = {
        "stable": [10.0] * 14,
        "increasing": [100.0] * 7 + [102.0] * 7,
        "increasing_significantly": list(range(1, 15)),
        "decreasing": [100.0] * 7 + [98.0] * 7,
        "decreasing_significantly": [100.0] * 7 + [90.0] * 7,
    }
    for label, closes in labels.items():
        trend = trend_analyze(closes)
        assert trend.label == label
        for _ in range(20):
            vals = [rng.uniform(0, 100) for _ in range(3)]
            report = fuse(three_preds(*vals), trend, date(2024, 3, 5))
            assert min(vals) <= report.final_value <= max(vals)


def test_fuse_missing_agent_rejected():
    preds = three_preds(10, 12, 20)[:2]
    with pytest.raises(ValueError):
        fuse(preds, STABLE, date(2024, 3, 5))


def test_fuse_custom_weights_validated():
    bad_sum = {label: {"daily": 0.5, "weekday": 0.5, "windowed": 0.5}
               for label in DEFAULT_FUSION_WEIGHTS}
    with pytest.raises(ValueError):
        fuse(three_preds(1, 2, 3), STABLE, date(2024, 3, 5), weights=bad_sum)
    negative = {label: {"daily": -0.2, "weekday": 0.6, "windowed": 0.6}
                for label in DEFAULT_FUSION_WEIGHTS}
    with pytest.raises(ValueError):
        fuse(three_preds(1, 2, 3), STABLE, date(2024, 3, 5), weights=negative)


def test_fuse_custom_weights_applied():
    table = {label: {"daily": 1.0, "weekday": 0.0, "windowed": 0.0}
             for label in DEFAULT_FUSION_WEIGHTS}
    report = fuse(three_preds(10, 12, 20), STABLE, date(2024, 3, 5), weights=table)
    assert report.final_value == 10.0


def test_default_weight_rows_sum_to_one():
    for row in DEFAULT_FUSION_WEIGHTS.values():
        assert sum(row.values()) == pytest.approx(1.0, abs=1e-12)
        assert set(row) == {"daily", "weekday", "windowed"}


def test_report_dict_shape():
    report = fuse(three_preds(10, 12, 20), STABLE, date(2024, 3, 5))
    record = report.to_dict()
    assert set(record) == {"date", "final", "mode", "daily", "weekday", "windowed",
                           "trend_label", "rationale"}
    assert record["date"] == "2024-03-05"
    assert record["daily"] == 10.0


# --- predictor agents ---


def test_predictor_equal_similarities_mean(monday_example):
    provider = ConstantProvider()
    index = StoryIndex(provider=provider)
    base = render_contextual_story(monday_example, 0)
    targets = [70, 71, 72, 68, 69]
    for i, target in enumerate(targets):
        story = Story(text=base.text, kind="contextual", granularity="daily",
                      date=date(2024, 2, 1) + timedelta(days=i), target=float(target))
        add_docs(index, [MemoryDocument(story=story, embedding=provider.embed(story.text),
                                        doc_id=i)])
    history = make_history(monday_example.date, 10)
    pred = predictor_predict("daily", monday_example, history, index, StubBackend())
    assert pred.value == pytest.approx(70.0, abs=1e-9)
    assert len(pred.retrieved) == 5


def test_predictor_empty_index_is_persistence(monday_example):
    index = StoryIndex(provider=DeterministicEmbedder())
    history = make_history(monday_example.date, 10)
    pred = predictor_predict("daily", monday_example, history, index, StubBackend())
    assert pred.value == float(monday_example.close)
    assert pred.retrieved == ()


def test_predictor_paper_day_unanimous_archive(monday_example):
    emb = DeterministicEmbedder()
    index = StoryIndex(provider=emb)
    base = render_contextual_story(monday_example, 71)
    for i in range(5):
        index.add_story(dated_story(base, date(2024, 2, 1) + timedelta(days=i)))
    rng = random.Random(50)
    decoy_ev = wip_event(date(2024, 1, 1), open=900, high=950, low=890, close=940,
                         new=300, done=280, started=260)
    decoy = render_contextual_story(decoy_ev, 930)
    for i in range(3):
        index.add_story(dated_story(decoy, date(2024, 1, 10) + timedelta(days=i)))
    history = make_history(monday_example.date, 10, rng_seed=rng.randint(0, 99))
    pred = predictor_predict("daily", monday_example, history, index, StubBackend())
    assert pred.value == 71.0
    assert all(r.target == 71.0 for r in pred.retrieved)


def test_predictor_respects_causality(monday_example):
    emb = DeterministicEmbedder()
    index = StoryIndex(provider=emb)
    base = render_contextual_story(monday_example, 71)
    # One story per day, including the forecast day itself and later: only
    # strictly earlier days may be used.
    for i, day in enumerate(
        [monday_example.date + timedelta(days=d) for d in (-3, -2, -1, 0, 1, 2)]
    ):
        index.add_story(dated_story(base, day))
    history = make_history(monday_example.date, 10)
    pred = predictor_predict("daily", monday_example, history, index, StubBackend(), k=10)
    forecast_date = monday_example.date + timedelta(days=1)
    assert pred.retrieved
    assert len(pred.retrieved) == 4  # days -3..0 relative to the current day
    for res in pred.retrieved:
        assert res.date < forecast_date


def test_predictor_deterministic(monday_example):
    emb = DeterministicEmbedder()
    index = StoryIndex(provider=emb)
    rng = random.Random(14)
    for i in range(20):
        ev = random_wip_event(rng, date(2024, 1, 1) + timedelta(days=i))
        index.add_story(render_contextual_story(ev, rng.randint(0, 80)))
    history = make_history(monday_example.date, 10)
    a = predictor_predict("weekday", monday_example, history, index, StubBackend())
    b = predictor_predict("weekday", monday_example, history, index, StubBackend())
    assert a == b


def test_predictor_windowed_needs_current_day(monday_example):
    index = StoryIndex(provider=DeterministicEmbedder())
    history = make_history(monday_example.date - timedelta(days=1), 10)
    with pytest.raises(ValueError):
        predictor_predict("windowed", monday_example, history, index, StubBackend())


def test_predictor_windowed_uses_trailing_week(monday_example):
    emb = DeterministicEmbedder()
    index = StoryIndex(provider=emb)
    history = make_history(monday_example.date, 12)
    backend = ScriptedBackend(["PREDICTION: 33.00"])
    pred = predictor_predict("windowed", monday_example, history, index, backend)
    assert pred.value == 33.0
    user_text = backend.requests[0].user_text
    assert "Over the past 7 days" in user_text


def test_predictor_clamps_negative_answers(monday_example):
    index = StoryIndex(provider=DeterministicEmbedder())
    history = make_history(monday_example.date, 10)
    backend = ScriptedBackend(["PREDICTION: -5.00"])
    pred = predictor_predict("daily", monday_example, history, index, backend)
    assert pred.value == 0.0


def test_predictor_prompt_carries_context(monday_example):
    index = StoryIndex(provider=DeterministicEmbedder())
    history = make_history(monday_example.date, 10)
    backend = ScriptedBackend(["PREDICTION: 1.00"])
    predictor_predict("daily", monday_example, history, index, backend)
    req = backend.requests[0]
    assert "The WiP items opened at 55" in req.user_text
    assert "No historical examples available." in req.user_text
    assert req.structured_context.current_close == 66.0
    assert "PREDICTION" in req.system_text


def test_prediction_validates_fields():
    with pytest.raises(ValueError):
        make_prediction("monthly", 5.0)
    with pytest.raises(ValueError):
        make_prediction("daily", -1.0)


# --- react fusion ---


def test_react_stub_collects_predictions_then_answers_median():
    report = fuse(three_preds(10, 12, 20), STABLE, date(2024, 3, 5),
                  backend=StubBackend(), mode="react")
    assert report.mode == "react"
    assert report.final_value == 12.0
    assert "3 tool step(s)" in report.rationale


def test_react_consensus_matches_rules():
    report = fuse(three_preds(71, 71, 71), STABLE, date(2024, 3, 5),
                  backend=StubBackend(), mode="react")
    assert report.final_value == 71.0


def test_react_envelope_rejects_wild_answers():
    backend = ScriptedBackend(["PREDICTION: 500.00"])
    report = fuse(three_preds(10, 12, 20), STABLE, date(2024, 3, 5),
                  backend=backend, mode="react")
    assert report.mode == "rules"
    assert report.final_value == pytest.approx(16.4, abs=1e-9)
    assert "outside envelope" in report.rationale


def test_react_envelope_accepts_near_answers():
    # spread 10 -> margin 1.0; 20.5 is inside [9, 21].
    backend = ScriptedBackend(["PREDICTION: 20.50"])
    report = fuse(three_preds(10, 12, 20), STABLE, date(2024, 3, 5),
                  backend=backend, mode="react")
    assert report.mode == "react"
    assert report.final_value == 20.5


def test_react_backend_failure_falls_back():
    backend = ScriptedBackend([BackendUnavailable("down", retries=2)])
    report = fuse(three_preds(10, 12, 20), STABLE, date(2024, 3, 5),
                  backend=backend, mode="react")
    assert report.mode == "rules"
    assert "backend unavailable" in report.rationale


def test_react_budget_exhaustion_falls_back():
    backend = ScriptedBackend(["ACTION: get_trend()"] * 10)
    report = fuse(three_preds(10, 12, 20), STABLE, date(2024, 3, 5),
                  backend=backend, mode="react")
    assert report.mode == "rules"
    assert "budget exhausted" in report.rationale
    assert len(backend.requests) == 4


def test_react_observations_accumulate():
    backend = ScriptedBackend(
        ["ACTION: get_trend()", "ACTION: get_prediction(daily)", "PREDICTION: 12.00"]
    )
    report = fuse(three_preds(10, 12, 20), STABLE, date(2024, 3, 5),
                  backend=backend, mode="react")
    assert report.mode == "react"
    second = backend.requests[1]
    assert "OBSERVATION get_trend()" in second.user_text
    assert "relatively stable" in second.user_text
    third = backend.requests[2]
    assert third.structured_context.trend_label == "stable"
    assert third.structured_context.agent_predictions == {"daily": 10.0}


def test_react_retrieve_tool(monday_example):
    emb = DeterministicEmbedder()
    index = StoryIndex(provider=emb)
    base = render_contextual_story(monday_example, 71)
    index.add_story(dated_story(base, date(2024, 3, 1)))
    backend = ScriptedBackend(
        ["ACTION: retrieve(The WiP items opened at 55)", "PREDICTION: 12.00"]
    )
    report = fuse(three_preds(10, 12, 20), STABLE, date(2024, 3, 5),
                  index=index, backend=backend, mode="react")
    assert report.mode == "react"
    assert "2024-03-01" in backend.requests[1].user_text


def test_react_retrieve_without_index_reports_no_memory():
    backend = ScriptedBackend(["ACTION: retrieve(some story)", "PREDICTION: 12.00"])
    fuse(three_preds(10, 12, 20), STABLE, date(2024, 3, 5), backend=backend, mode="react")
    assert "no memory available" in backend.requests[1].user_text


def test_react_unknown_tool_is_observed_not_fatal():
    backend = ScriptedBackend(["ACTION: launch_rockets(now)", "PREDICTION: 12.00"])
    report = fuse(three_preds(10, 12, 20), STABLE, date(2024, 3, 5),
                  backend=backend, mode="react")
    assert report.mode == "react"
    assert "unknown tool" in backend.requests[1].user_text


def test_react_unparseable_final_falls_back():
    backend = ScriptedBackend(["I refuse to answer"])
    report = fuse(three_preds(10, 12, 20), STABLE, date(2024, 3, 5),
                  backend=backend, mode="react")
    assert report.mode == "rules"
    assert "unparseable" in report.rationale


def test_unknown_fusion_mode_rejected():
    with pytest.raises(ValueError):
        fuse(three_preds(1, 2, 3), STABLE, date(2024, 3, 5), mode="vote")
