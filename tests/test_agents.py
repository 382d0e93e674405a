"""Agent tests: trend labeling, predictor behavior with the stub, fusion modes."""

from __future__ import annotations

import json
import math
import random
import re
from datetime import date, timedelta
from types import SimpleNamespace

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
from wipcast.llm import AGENT_IDS, BackendUnavailable, ChatResponse, StubBackend
from wipcast.memory import DeterministicEmbedder, RemoteEmbedder, StoryIndex
from wipcast.narrative import (
    Story,
    query_story,
    render_contextual_story,
    render_query_story,
    render_windowed_story,
)
from wipcast.wipseries import WipSeries, wip_event

from conftest import Doc, add_docs, random_wip_event


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


class RecordingBackend(StubBackend):
    """The stub backend, recording each request."""

    def __init__(self):
        self.requests = []

    def chat(self, req):
        self.requests.append(req)
        return super().chat(req)


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


def predict(agent_id, current, history, index, backend, k=5):
    """``predictor_predict`` on ``current``, the last day of ``history``, with
    the stories ``index`` gives its query as of that day, as forecast_day
    retrieves them."""
    events = (*history.events[:-1], current)
    query = query_story(events, len(events) - 1, agent_id, 7).text
    retrieved = index.retrieve(query, as_of=current.date, k=k)
    return predictor_predict(agent_id, query, retrieved, float(current.close), backend)


def dated_story(base: Story, day) -> Story:
    return Story(text=base.text, kind=base.kind, granularity=base.granularity,
                 date=day, target=base.target)


def make_prediction(agent_id, value):
    return Prediction(agent_id=agent_id, value=value, retrieved=())


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
        TrendInsight(label="sideways", sma_first=1, sma_last=1, relative_change=0)


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


@pytest.mark.parametrize("row", [{"daily": math.nan, "weekday": math.nan, "windowed": math.nan},
                                 {"daily": math.nan, "weekday": 0.5, "windowed": 0.5}])
def test_fuse_rejects_nan_weights(row):
    # NaN fails every comparison; a NaN weight made rules fusion forecast nan
    with pytest.raises(ValueError, match=r"weights\.stable must be nonnegative"):
        fuse(three_preds(10, 12, 20), STABLE, date(2024, 3, 5), weights={"stable": row})


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
        add_docs(index, [Doc(story, provider.embed(story.text), i)])
    history = make_history(monday_example.date, 10)
    pred = predict("daily", monday_example, history, index, StubBackend())
    assert pred.value == pytest.approx(70.0, abs=1e-9)
    assert len(pred.retrieved) == 5


def test_predictor_empty_index_is_persistence(monday_example):
    index = StoryIndex(provider=DeterministicEmbedder())
    history = make_history(monday_example.date, 10)
    pred = predict("daily", monday_example, history, index, StubBackend())
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
    pred = predict("daily", monday_example, history, index, StubBackend())
    assert pred.value == 71.0
    assert all(r.target == 71.0 for r in pred.retrieved)


def test_predictor_respects_causality(monday_example):
    emb = DeterministicEmbedder()
    index = StoryIndex(provider=emb)
    base = render_contextual_story(monday_example, 71)
    # One story per day, including the current day and later: only strictly
    # earlier days may be used, since the current day's story targets the
    # close being forecast.
    for i, day in enumerate(
        [monday_example.date + timedelta(days=d) for d in (-3, -2, -1, 0, 1, 2)]
    ):
        index.add_story(dated_story(base, day))
    history = make_history(monday_example.date, 10)
    pred = predict("daily", monday_example, history, index, StubBackend(), k=10)
    assert pred.retrieved
    assert len(pred.retrieved) == 3  # days -3..-1 relative to the current day
    for res in pred.retrieved:
        assert res.date < monday_example.date


def test_predictor_deterministic(monday_example):
    emb = DeterministicEmbedder()
    index = StoryIndex(provider=emb)
    rng = random.Random(14)
    for i in range(20):
        ev = random_wip_event(rng, date(2024, 1, 1) + timedelta(days=i))
        index.add_story(render_contextual_story(ev, rng.randint(0, 80)))
    history = make_history(monday_example.date, 10)
    a = predict("weekday", monday_example, history, index, StubBackend())
    b = predict("weekday", monday_example, history, index, StubBackend())
    assert a == b


def test_predictor_windowed_needs_current_day(monday_example):
    history = make_history(monday_example.date - timedelta(days=1), 10)
    with pytest.raises(ValueError, match="day 10 is not in a series of 10 days"):
        query_story(history.events, len(history.events), "windowed", 7)


def test_predictor_windowed_uses_trailing_week(monday_example):
    emb = DeterministicEmbedder()
    index = StoryIndex(provider=emb)
    history = make_history(monday_example.date, 12)
    backend = ScriptedBackend(["PREDICTION: 33.00"])
    pred = predict("windowed", monday_example, history, index, backend)
    assert pred.value == 33.0
    user_text = backend.requests[0].user_text
    assert "Over the past 7 days" in user_text


def test_predictor_clamps_negative_answers(monday_example):
    index = StoryIndex(provider=DeterministicEmbedder())
    history = make_history(monday_example.date, 10)
    backend = ScriptedBackend(["PREDICTION: -5.00"])
    pred = predict("daily", monday_example, history, index, backend)
    assert pred.value == 0.0


def test_predictor_prompt_carries_context(monday_example):
    index = StoryIndex(provider=DeterministicEmbedder())
    history = make_history(monday_example.date, 10)
    backend = ScriptedBackend(["PREDICTION: 1.00"])
    predict("daily", monday_example, history, index, backend)
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


# --- the text a remote backend sees ---

PINNED_CURRENT = ("The WiP items opened at 43, reached a high of 58 and a low of 6, before "
                  "closing at 19, with 30 items completed, 1 new items added, and 21 items started.")

PINNED_PROMPTS = {
    "daily": (
        f"Current situation: {PINNED_CURRENT}\n"
        "Similar past situations and what followed:\n"
        "- The WiP items opened at 58, reached a high of 67 and a low of 39, before closing at 46, "
        "with 5 items completed, 25 new items added, and 22 items started, while the next WiP was "
        "expected to remain at 10. (similarity 0.9353)\n"
        "- The WiP items opened at 12, reached a high of 47 and a low of 6, before closing at 46, "
        "with 2 items completed, 1 new items added, and 13 items started, while the next WiP was "
        "expected to remain at 8. (similarity 0.9341)\n"
        "Predict the next day's closing WiP."
    ),
    "weekday": (
        "Current situation: On Sunday, the WiP items opened at 43, reached a high of 58 and a low "
        "of 6, before closing at 19, with 30 items completed, 1 new items added, and 21 items "
        "started.\n"
        "Similar past situations and what followed:\n"
        "- On Thursday, the WiP items opened at 58, reached a high of 67 and a low of 39, before "
        "closing at 46, with 5 items completed, 25 new items added, and 22 items started, while "
        "the next WiP was expected to remain at 10. (similarity 0.9353)\n"
        "- On Thursday, the WiP items opened at 12, reached a high of 47 and a low of 6, before "
        "closing at 46, with 2 items completed, 1 new items added, and 13 items started, while "
        "the next WiP was expected to remain at 8. (similarity 0.9336)\n"
        "Predict the next day's closing WiP."
    ),
    "windowed": (
        "Current situation: Over the past 7 days, WiP opened at 69, ranged between a low of 0 and "
        "a high of 78, and closed at 19, with 95 items completed, 105 new items added, and 137 "
        "items started.\n"
        "Similar past situations and what followed:\n"
        "- Over the past 7 days, WiP opened at 72, ranged between a low of 0 and a high of 79, and "
        "closed at 10, with 83 items completed, 115 new items added, and 127 items started, while "
        "the next WiP was expected to remain at 36. (similarity 0.9949)\n"
        "- Over the past 7 days, WiP opened at 53, ranged between a low of 2 and a high of 79, and "
        "closed at 46, with 86 items completed, 104 new items added, and 105 items started, while "
        "the next WiP was expected to remain at 10. (similarity 0.9892)\n"
        "Predict the next day's closing WiP."
    ),
}


def pinned_indexes():
    """Twelve seeded days ending 2024-03-10 and one small index per agent."""
    history = make_history(date(2024, 3, 10), 12, rng_seed=7)
    events, emb = history.events, DeterministicEmbedder()
    indexes = {}
    for g in AGENT_IDS:
        if g == "windowed":
            stories = [render_windowed_story(events[i - 6:i + 1], next_close=events[i + 1].close)
                       for i in range(6, 10)]
        else:
            stories = [render_contextual_story(events[i], events[i + 1].close, g) for i in range(10)]
        indexes[g] = StoryIndex(provider=emb)
        indexes[g].add_many(stories, emb.embed_many(s.text for s in stories))
    return history, indexes


@pytest.mark.parametrize("agent_id", AGENT_IDS)
def test_predictor_prompt_text_is_pinned(agent_id):
    history, indexes = pinned_indexes()
    backend = ScriptedBackend(["PREDICTION: 1.00"])
    predict(agent_id, history.events[-1], history, indexes[agent_id], backend, k=2)
    assert backend.requests[0].user_text == PINNED_PROMPTS[agent_id]


def test_react_retrieve_observation_text_is_pinned():
    history, indexes = pinned_indexes()
    query = render_query_story(history.events[-1]).text
    assert query == PINNED_CURRENT
    backend = ScriptedBackend([f"ACTION: retrieve({query})", "PREDICTION: 12.00"])
    fuse(three_preds(10, 12, 20), STABLE, date(2024, 3, 11), index=indexes["daily"],
         as_of=date(2024, 3, 10), backend=backend, mode="react", k=2)
    assert backend.requests[1].user_text.splitlines()[-1] == (
        f"OBSERVATION retrieve({PINNED_CURRENT}): "
        "2024-03-07: next value 10.0 (similarity 0.9353); "
        "2024-02-29: next value 8.0 (similarity 0.9341)")


# --- react fusion ---


def test_react_stub_answers_the_median_of_the_first_prompt_at_once():
    backend = RecordingBackend()
    report = fuse(three_preds(10, 12, 20), STABLE, date(2024, 3, 5),
                  backend=backend, mode="react")
    assert report.mode == "react"
    assert report.final_value == 12.0
    assert report.rationale == "react fusion accepted after 0 tool step(s)"
    [req] = backend.requests
    assert req.user_text.splitlines() == [
        "Produce the final WiP forecast for 2024-03-05.",
        "daily predicts 10.00", "weekday predicts 12.00", "windowed predicts 20.00",
        "WiP has been relatively stable. (label: stable)",
    ]
    assert req.structured_context.agent_predictions == {"daily": 10, "weekday": 12, "windowed": 20}
    assert req.structured_context.trend_label == "stable"


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
    backend = ScriptedBackend(["ACTION: retrieve(some story)"] * 10)
    report = fuse(three_preds(10, 12, 20), STABLE, date(2024, 3, 5),
                  backend=backend, mode="react")
    assert report.mode == "rules"
    assert "budget exhausted" in report.rationale
    assert len(backend.requests) == 4


def test_react_observations_accumulate(monday_example):
    index = StoryIndex(provider=DeterministicEmbedder())
    index.add_story(dated_story(render_contextual_story(monday_example, 71), date(2024, 3, 1)))
    backend = ScriptedBackend(
        ["ACTION: retrieve(The WiP items opened at 55)", "ACTION: retrieve()", "PREDICTION: 12.00"]
    )
    report = fuse(three_preds(10, 12, 20), STABLE, date(2024, 3, 5), index=index,
                  as_of=date(2024, 3, 4), backend=backend, mode="react")
    assert report.mode == "react"
    assert report.rationale == "react fusion accepted after 2 tool step(s)"
    first, second, third = (req.user_text.splitlines() for req in backend.requests)
    assert second[:-1] == first and third[:-1] == second
    assert second[-1].startswith("OBSERVATION retrieve(The WiP items opened at 55): 2024-03-01: ")
    assert third[-1] == "OBSERVATION retrieve(): no memory available"
    for req in backend.requests:  # the observations are prose only
        assert req.structured_context.agent_predictions == {"daily": 10, "weekday": 12, "windowed": 20}
        assert req.structured_context.retrieved is None


def test_react_retrieve_tool(monday_example):
    emb = DeterministicEmbedder()
    index = StoryIndex(provider=emb)
    base = render_contextual_story(monday_example, 71)
    index.add_story(dated_story(base, date(2024, 3, 1)))
    backend = ScriptedBackend(
        ["ACTION: retrieve(The WiP items opened at 55)", "PREDICTION: 12.00"]
    )
    report = fuse(three_preds(10, 12, 20), STABLE, date(2024, 3, 5),
                  index=index, as_of=date(2024, 3, 4), backend=backend, mode="react")
    assert report.mode == "react"
    assert "2024-03-01" in backend.requests[1].user_text


def test_react_retrieve_without_index_reports_no_memory():
    backend = ScriptedBackend(["ACTION: retrieve(some story)", "PREDICTION: 12.00"])
    fuse(three_preds(10, 12, 20), STABLE, date(2024, 3, 5), backend=backend, mode="react")
    assert "no memory available" in backend.requests[1].user_text


class EmbeddingEndpoint:
    """A session for RemoteEmbedder: the deterministic embedder's vectors for the
    first request, a payload without rows for every later one."""

    def __init__(self):
        self.posts = 0

    def post(self, url, json=None, timeout=None):
        self.posts += 1
        rows = DeterministicEmbedder().embed_many(json["input"]) if self.posts == 1 else []
        body = {"data": [{"embedding": row.tolist()} for row in rows]}
        return SimpleNamespace(status_code=200, json=lambda: body)


@pytest.mark.parametrize("failure", ["embedder error", "lone surrogate"])
def test_a_react_retrieve_that_fails_falls_back_to_rules(failure):
    # each used to escape fuse, failing the whole forecast or evaluate
    history, indexes = pinned_indexes()
    index, day = indexes["daily"], date(2024, 3, 6)  # stories are dated up to 2024-03-08
    as_of = day - timedelta(days=1)
    query = again = render_query_story(history.events[-1]).text
    if failure == "embedder error":
        index.provider = RemoteEmbedder("http://embed.test", session=EmbeddingEndpoint())
    else:  # JSON-decoded model text can carry one; it has no UTF-8 encoding
        again = json.loads('"\\ud800"')
    backend = ScriptedBackend([f"ACTION: retrieve({query})", f"ACTION: retrieve({again})"])
    report = fuse(three_preds(10, 12, 20), STABLE, day, index=index, as_of=as_of, backend=backend,
                  mode="react")
    assert report.mode == "rules"
    assert report.rationale.startswith("react fallback (retrieve failed): ")
    assert report.final_value == fuse(three_preds(10, 12, 20), STABLE, day).final_value
    reported = re.findall(r"(\S+): next value", backend.requests[1].user_text)
    assert len(reported) == 5 and all(date.fromisoformat(d) < as_of for d in reported)


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


def test_react_with_memory_but_no_cutoff_rejected():
    index = StoryIndex(provider=DeterministicEmbedder())
    with pytest.raises(ValueError, match="needs as_of"):
        fuse(three_preds(1, 2, 3), STABLE, date(2024, 3, 5), index=index,
             backend=StubBackend(), mode="react")


def test_unknown_fusion_mode_rejected():
    with pytest.raises(ValueError):
        fuse(three_preds(1, 2, 3), STABLE, date(2024, 3, 5), mode="vote")
