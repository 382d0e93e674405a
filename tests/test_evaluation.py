"""Walk-forward evaluation: metric oracles, the causal cutoff and its audit, determinism."""

import math
import sys
import threading
import time
from datetime import date, timedelta

import pytest

from wipcast import narrative
from wipcast.agents import trend_analyze
from wipcast.config import ForecastParams
from wipcast.evaluation import (
    MetricsSummary,
    PredictionTrace,
    TraceEntry,
    default_split_date,
    emit_report,
    forecast_day,
    mae,
    mape,
    merge_traces,
    metrics_csv,
    persistence_baseline,
    predictions_csv,
    render_report_svg,
    retrieve_queries,
    rolling_forecast,
    summarize,
)
from wipcast.llm import AGENT_IDS, RemoteChatBackend, StubBackend
from wipcast.memory import DeterministicEmbedder, StoryIndex, build_indexes
from wipcast.synthetic import synthetic_event_log, synthetic_series
from wipcast.wipseries import WipSeries, wip_event


def entries_for(actuals, predicted, source="multi_agent", start=date(2024, 1, 1)):
    return tuple(
        TraceEntry(start + timedelta(days=i), source, float(a), float(p))
        for i, (a, p) in enumerate(zip(actuals, predicted))
    )


def constant_series(n, value=25, start=date(2024, 3, 1)):
    events = tuple(
        wip_event(start + timedelta(days=i), value, value, value, value)
        for i in range(n)
    )
    return WipSeries(events=events)


# --- metric oracles ---


def test_mape_hand_value():
    entries = entries_for([100, 200], [110, 180])
    assert mape(entries) == pytest.approx(10.0, abs=1e-12)


def test_mae_hand_value():
    entries = entries_for([100, 200], [110, 180])
    assert mae(entries) == pytest.approx(15.0, abs=1e-12)


def test_mape_zero_actuals_are_skipped():
    entries = entries_for([0, 10], [5, 10])
    assert mape(entries) == pytest.approx(0.0, abs=1e-12)
    assert mae(entries) == pytest.approx(2.5, abs=1e-12)


def test_mape_all_zero_actuals_is_an_error():
    entries = entries_for([0, 0], [5, 7])
    with pytest.raises(ValueError):
        mape(entries)


def test_mape_empty_is_an_error():
    with pytest.raises(ValueError):
        mape(())
    with pytest.raises(ValueError):
        mae(())


def test_summarize_counts_skipped_days():
    trace = PredictionTrace(entries=entries_for([0, 10, 20], [5, 10, 18]))
    (summary,) = summarize(trace)
    assert summary.n == 3
    assert summary.skipped_zero_actuals == 1
    assert summary.mape == pytest.approx(5.0, abs=1e-12)  # mean of 0% and 10%


def test_metrics_summary_validation():
    with pytest.raises(ValueError):
        MetricsSummary(source="x", mape=1.0, mae=1.0, n=0, skipped_zero_actuals=0)
    with pytest.raises(ValueError):
        MetricsSummary(source="x", mape=1.0, mae=1.0, n=2, skipped_zero_actuals=3)
    with pytest.raises(ValueError):
        MetricsSummary(source="x", mape=-1.0, mae=1.0, n=1, skipped_zero_actuals=0)


# --- trace container ---


def test_trace_rejects_nonincreasing_dates_per_source():
    good = entries_for([1, 2], [1, 2])
    PredictionTrace(entries=good)
    bad = (good[1], good[0])
    with pytest.raises(ValueError):
        PredictionTrace(entries=bad)


def test_trace_rejects_duplicate_day_for_source():
    e = TraceEntry(date(2024, 1, 1), "multi_agent", 1.0, 1.0)
    with pytest.raises(ValueError):
        PredictionTrace(entries=(e, e))


def test_trace_allows_same_day_across_sources():
    d = date(2024, 1, 1)
    trace = PredictionTrace(entries=(
        TraceEntry(d, "multi_agent", 1.0, 1.0),
        TraceEntry(d, "persistence", 1.0, 2.0),
    ))
    assert trace.sources() == ["multi_agent", "persistence"]


def test_merge_traces_orders_known_sources_first():
    a = PredictionTrace(entries=entries_for([1, 2], [1, 2], source="persistence"))
    b = PredictionTrace(entries=entries_for([1, 2], [1, 2], source="daily_only"))
    merged = merge_traces(a, b)
    assert merged.sources() == ["daily_only", "persistence"]
    assert merged.entries[0].source == "daily_only"


# --- persistence baseline ---


def test_persistence_spec_example():
    # closes 10, 20, 30; split after day one -> predicts (10, 20)
    start = date(2024, 1, 1)
    events = tuple(
        wip_event(start + timedelta(days=i), c, c, c, c)
        for i, c in enumerate([10, 20, 30])
    )
    series = WipSeries(events=events)
    trace = persistence_baseline(series, split_date=start)
    assert [e.predicted for e in trace.entries] == [10.0, 20.0]
    assert [e.actual for e in trace.entries] == [20.0, 30.0]
    assert mape(trace.entries) == pytest.approx(100 * (0.5 + 1 / 3) / 2, abs=1e-12)


def test_persistence_mape_matches_direct_computation():
    series = synthetic_series(40, seed=11)
    split = series.events[19].date
    trace = persistence_baseline(series, split_date=split)
    closes = [ev.close for ev in series.events]
    direct = [abs(closes[j] - closes[j - 1]) / closes[j] for j in range(20, 40)]
    assert mape(trace.entries) == pytest.approx(100 * sum(direct) / len(direct), abs=1e-9)


def test_persistence_split_must_leave_test_days():
    series = synthetic_series(10, seed=0)
    with pytest.raises(ValueError):
        persistence_baseline(series, split_date=series.events[-1].date)


# --- split selection ---


def test_default_split_holds_out_last_fifth():
    series = synthetic_series(60, seed=5)
    split = default_split_date(series)
    assert split == series.events[47].date
    trace = persistence_baseline(series, split_date=split)
    assert len(trace.entries) == 12


def test_default_split_short_series_still_tests_one_day():
    series = synthetic_series(4, seed=5)
    split = default_split_date(series)
    assert split == series.events[2].date


def test_rolling_requires_fourteen_days_before_split():
    series = synthetic_series(20, seed=2)
    with pytest.raises(ValueError):
        rolling_forecast(series, split_date=series.events[10].date)


def test_rolling_rejects_gappy_series():
    # a series with a day missing cannot be built, so none reaches the harness
    events = (
        wip_event(date(2024, 1, 1), 5, 6, 4, 5),
        wip_event(date(2024, 1, 3), 5, 6, 4, 5),
    )
    with pytest.raises(ValueError, match="2024-01-02 is missing"):
        WipSeries(events=events)


# --- walk-forward harness ---


@pytest.fixture(scope="module")
def twenty_day_run():
    series = synthetic_series(20, seed=3)
    split = series.events[14].date
    return series, split, rolling_forecast(series, split_date=split)


def test_rolling_produces_all_ablation_sources(twenty_day_run):
    _, _, result = twenty_day_run
    assert result.trace.sources() == [
        "multi_agent", "daily_only", "weekday_only", "windowed_only",
    ]
    for src in result.trace.sources():
        assert len(result.trace.for_source(src)) == 5


def test_rolling_memory_is_causal(twenty_day_run):
    series, split, result = twenty_day_run
    assert [r.date for r in result.reports] == [ev.date for ev in series.events if ev.date > split]
    for report in result.reports:
        for aid, pred in report.agent_predictions.items():
            assert len(pred.retrieved) == 5
            assert max(r.date for r in pred.retrieved) < report.date


def test_rolling_newest_story_is_yesterdays(twenty_day_run):
    # one memory, one cutoff: the shared builder indexes the whole series, and
    # as of each forecast day d the story for day d-1 (targeting day d's close)
    # is the newest one retrievable, whatever the similarity ranking
    series, _, result = twenty_day_run
    for g, index in build_indexes(series.events, DeterministicEmbedder(), 7).items():
        for report in result.reports:
            hits = index.retrieve("WiP closed at 12.", as_of=report.date, k=len(index))
            assert max(r.date for r in hits) == report.date - timedelta(days=1), g


def test_rolling_builds_each_index_once(monkeypatch):
    calls = []
    real = StoryIndex.add_many

    def counting(self, stories, embeddings, doc_ids=None):
        calls.append({s.granularity for s in stories})
        return real(self, stories, embeddings, doc_ids)

    monkeypatch.setattr(StoryIndex, "add_many", counting)
    series = synthetic_series(20, seed=3)
    result = rolling_forecast(series, split_date=series.events[14].date)
    assert len(result.reports) == 5
    assert calls == [{g} for g in AGENT_IDS]


def test_rolling_actuals_match_series(twenty_day_run):
    series, _, result = twenty_day_run
    closes = {ev.date: float(ev.close) for ev in series.events}
    for entry in result.trace.entries:
        assert entry.actual == closes[entry.date]


def test_rolling_fused_value_stays_inside_agent_envelope(twenty_day_run):
    _, _, result = twenty_day_run
    by_date = {}
    for entry in result.trace.entries:
        by_date.setdefault(entry.date, {})[entry.source] = entry.predicted
    for day, values in by_date.items():
        ablations = [values["daily_only"], values["weekday_only"], values["windowed_only"]]
        assert min(ablations) - 1e-9 <= values["multi_agent"] <= max(ablations) + 1e-9


def test_rolling_reports_one_per_test_day(twenty_day_run):
    series, _, result = twenty_day_run
    assert len(result.reports) == 5
    assert [r.date for r in result.reports] == [ev.date for ev in series.events[15:]]
    assert all(r.mode == "rules" for r in result.reports)


def test_rolling_constant_series_predicts_the_constant():
    series = constant_series(24, value=25)
    result = rolling_forecast(series, split_date=series.events[17].date)
    for entry in result.trace.entries:
        assert entry.predicted == 25.0
        assert entry.actual == 25.0


def test_rolling_is_deterministic():
    series = synthetic_series(22, seed=9)
    split = series.events[15].date
    a = rolling_forecast(series, split_date=split)
    b = rolling_forecast(series, split_date=split)
    assert a.trace == b.trace
    assert predictions_csv(a.trace) == predictions_csv(b.trace)
    assert metrics_csv(a.trace) == metrics_csv(b.trace)


def test_rolling_react_mode_accepts_stub_loop():
    series = synthetic_series(20, seed=3)
    params = ForecastParams(fusion_mode="react")
    result = rolling_forecast(series, split_date=series.events[14].date, params=params)
    assert all(r.mode == "react" for r in result.reports)
    assert result.trace.sources()[0] == "multi_agent"


def test_rolling_respects_custom_k(twenty_day_run):
    series, split, baseline = twenty_day_run
    result = rolling_forecast(series, split_date=split, params=ForecastParams(k=1))
    assert len(result.trace.entries) == len(baseline.trace.entries)
    # k=1 uses only the nearest neighbour
    assert len(result.reports[0].agent_predictions["daily"].retrieved) == 1


class CountingEmbedder:
    """The offline embedder, recording each batch and each single-text call."""

    def __init__(self):
        self.inner = DeterministicEmbedder()
        self.batches = []
        self.singles = []

    def embed_many(self, texts):
        self.batches.append(list(texts))
        return self.inner.embed_many(self.batches[-1])

    def embed(self, text):
        self.singles.append(text)
        return self.inner.embed(text)


def test_rolling_embeds_each_agents_queries_in_one_batch(twenty_day_run):
    series, split, baseline = twenty_day_run
    embedder = CountingEmbedder()
    result = rolling_forecast(series, split_date=split, embedder=embedder)
    assert (result.trace, result.reports) == (baseline.trace, baseline.reports)
    assert embedder.singles == []  # no step embeds its own query
    stories = {s.text for index in build_indexes(series.events, DeterministicEmbedder(), 7).values()
               for s in index.documents().values()}
    queries = [batch for batch in embedder.batches if not set(batch) & stories]
    assert len(embedder.batches) == 6 and len(queries) == 3
    for batch in queries:  # one agent's distinct query texts, one per step at most
        assert len(set(batch)) == len(batch) <= len(result.reports)


def test_rolling_renders_each_query_story_once(monkeypatch):
    # top-level render calls, as the benchmark counts them: a contextual story
    # rendered from a query story counts once, as contextual
    rendered, depth = [], [0]

    def counting(render):
        def wrapper(*args, **kwargs):
            depth[0] += 1
            try:
                story = render(*args, **kwargs)
            finally:
                depth[0] -= 1
            if depth[0] == 0 and story.kind == "query":
                rendered.append((story.granularity, story.date))
            return story
        return wrapper

    for name in ("render_query_story", "render_contextual_story", "render_windowed_story"):
        real = getattr(narrative, name)
        for module in list(sys.modules.values()):
            if module.__name__.startswith("wipcast") and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting(real))
    series = synthetic_series(20, seed=3)
    result = rolling_forecast(series, split_date=series.events[14].date)
    days = [r.date - timedelta(days=1) for r in result.reports]
    assert sorted(rendered) == sorted((g, day) for g in AGENT_IDS for day in days)


def test_rolling_window_longer_than_history_starts_with_empty_index():
    # a 20-day window with 14 days before the split: no windowed story is
    # dated before the forecast day until day 20 has a next-day close, so the
    # windowed agent first retrieves nothing, then fewer than k stories
    series = synthetic_series(40, seed=1)
    result = rolling_forecast(series, split_date=series.events[14].date,
                              params=ForecastParams(window=20))
    retrieved = [r.agent_predictions["windowed"].retrieved for r in result.reports]
    assert [len(rows) for rows in retrieved[:7]] == [0, 0, 0, 0, 0, 1, 2]
    assert retrieved[5][0].date == series.events[19].date
    # with nothing retrieved the stub answers with the current close
    closes = {ev.date: float(ev.close) for ev in series.events}
    for entry in result.trace.for_source("windowed_only")[:5]:
        assert entry.predicted == closes[entry.date - timedelta(days=1)]


def test_rolling_audit_raises_on_a_story_from_the_forecast_day(monkeypatch):
    # the weekday agent's retrievals ignore the as-of cutoff; the audit of what
    # each agent retrieved names it
    real = StoryIndex.retrieve_many

    def leaky(self, vectors, as_of_days, k=5):
        if self.granularities() == {"weekday"}:
            as_of_days = [date.max] * len(as_of_days)
        return real(self, vectors, as_of_days, k)

    monkeypatch.setattr(StoryIndex, "retrieve_many", leaky)
    series = synthetic_series(20, seed=3)
    with pytest.raises(RuntimeError, match="weekday retrieved a story dated"):
        rolling_forecast(series, split_date=series.events[14].date)


class ThreadRecordingStub(StubBackend):
    def __init__(self):
        self.threads = []

    def chat(self, req):
        self.threads.append(threading.get_ident())
        return super().chat(req)


def test_rolling_local_backend_predicts_on_the_calling_thread():
    backend = ThreadRecordingStub()
    series = synthetic_series(20, seed=3)
    rolling_forecast(series, split_date=series.events[14].date, backend=backend,
                     params=ForecastParams(fusion_mode="react"))
    assert len(backend.threads) > 15
    assert set(backend.threads) == {threading.get_ident()}


class _Completion:
    status_code = 200
    text = ""

    def __init__(self, content):
        self._content = content

    def json(self):
        return {"choices": [{"message": {"content": self._content}}]}


class SlowSession:
    """Answers every chat request after a pause, counting requests in flight."""

    def __init__(self, pause=0.05):
        self.pause = pause
        self.in_flight = 0
        self.max_in_flight = 0
        self.calls = 0
        self._lock = threading.Lock()

    def post(self, url, json=None, headers=None, timeout=None):
        with self._lock:
            self.calls += 1
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        time.sleep(self.pause)
        with self._lock:
            self.in_flight -= 1
        return _Completion("PREDICTION: 40.00")


def test_rolling_remote_backend_fans_predictors_out():
    session = SlowSession()
    backend = RemoteChatBackend("http://llm.test", "m", session=session, backoff=0.0)
    series = synthetic_series(17, seed=3)
    result = rolling_forecast(series, split_date=series.events[14].date, backend=backend)
    assert len(result.reports) == 2
    assert session.calls == 6
    assert session.max_in_flight >= 2


def _empty_indexes():
    return {aid: StoryIndex(provider=DeterministicEmbedder()) for aid in AGENT_IDS}


def _queries(events, i, indexes, params):
    """Each agent's query text and retrieved stories for day i, as forecast takes them."""
    return {g: rows[0] for g, rows in
            retrieve_queries(events, [i], DeterministicEmbedder(), indexes, params).items()}


def test_forecast_day_fans_a_remote_backend_out():
    session = SlowSession()
    backend = RemoteChatBackend("http://llm.test", "m", session=session, backoff=0.0)
    series = synthetic_series(20, seed=3)
    events = series.events
    indexes, params = _empty_indexes(), ForecastParams()
    report = forecast_day(events, len(events) - 1, _queries(events, len(events) - 1, indexes, params),
                          indexes, backend, params)
    assert report.date == series.events[-1].date + timedelta(days=1)
    assert session.calls == 3
    assert session.max_in_flight >= 2


class PooledStub(StubBackend):
    """The stub, marked I/O-bound, recording the threads its predictor calls run on."""

    io_bound = True

    def __init__(self):
        self.predictor_threads = []

    def chat(self, req):
        if req.structured_context.retrieved is not None:
            self.predictor_threads.append(threading.get_ident())
        return super().chat(req)


@pytest.mark.parametrize("mode", ["rules", "react"])
def test_forecast_day_thread_pool_gives_the_inline_report(mode):
    series = synthetic_series(40, seed=3)
    events = series.events
    indexes = build_indexes(events, DeterministicEmbedder(), 7)
    params = ForecastParams(fusion_mode=mode)
    queries = _queries(events, 30, indexes, params)
    inline = forecast_day(events, 30, queries, indexes, StubBackend(), params)
    backend = PooledStub()
    assert forecast_day(events, 30, queries, indexes, backend, params) == inline
    assert all(len(pred.retrieved) == params.k for pred in inline.agent_predictions.values())
    assert len(backend.predictor_threads) == len(AGENT_IDS)
    assert threading.get_ident() not in backend.predictor_threads


def test_forecast_day_trend_reads_only_closes_up_to_the_current_day():
    series = synthetic_series(40, seed=2)
    params = ForecastParams(trend_lookback=10, trend_window=3)
    for i in (0, 5, 20, 39):
        indexes = _empty_indexes()
        report = forecast_day(series.events, i, _queries(series.events, i, indexes, params), indexes,
                              StubBackend(), params)
        closes = [ev.close for ev in series.events[:i + 1]]
        assert report.trend == trend_analyze(closes, window=3, lookback=10)


# --- report emission ---


def test_emit_report_writes_three_files(tmp_path, twenty_day_run):
    series, split, result = twenty_day_run
    merged = merge_traces(result.trace, persistence_baseline(series, split_date=split))
    paths = emit_report(merged, str(tmp_path), freeze_timestamps=True,
                        split_note=f"split={split}")
    pred_text = (tmp_path / "predictions.csv").read_text()
    lines = pred_text.splitlines()
    assert lines[0] == "date,source,actual,predicted"
    assert len(lines) == 1 + 5 * 5
    metrics_text = (tmp_path / "metrics.csv").read_text()
    mlines = metrics_text.splitlines()
    assert mlines[0] == "source,mape,mae,n,skipped"
    assert len(mlines) == 1 + 5
    assert [line.split(",")[0] for line in mlines[1:]] == [
        "multi_agent", "daily_only", "weekday_only", "windowed_only", "persistence",
    ]
    assert (tmp_path / "report.svg").read_text().startswith("<svg")
    assert set(paths) == {"predictions", "metrics", "report"}


def test_report_svg_one_polyline_per_panel_per_source(twenty_day_run):
    series, split, result = twenty_day_run
    merged = merge_traces(result.trace, persistence_baseline(series, split_date=split))
    svg = render_report_svg(merged, freeze_timestamps=True)
    assert svg.count("<polyline") == 2 * len(merged.sources())
    assert svg.count("stroke-dasharray") == 1  # the actual-series reference path


def test_report_svg_freezes_timestamp():
    trace = PredictionTrace(entries=entries_for([10, 11, 12], [10, 11, 12]))
    svg_a = render_report_svg(trace, freeze_timestamps=True)
    svg_b = render_report_svg(trace, freeze_timestamps=True)
    assert svg_a == svg_b
    assert "1970-01-01T00:00:00+00:00" in svg_a


def test_report_svg_flat_series_does_not_divide_by_zero():
    trace = PredictionTrace(entries=entries_for([10, 10, 10], [10, 10, 10]))
    svg = render_report_svg(trace, freeze_timestamps=True)
    assert "<polyline" in svg


# --- synthetic generators ---


def test_synthetic_series_is_seed_deterministic():
    assert synthetic_series(30, seed=7) == synthetic_series(30, seed=7)
    assert synthetic_series(30, seed=7) != synthetic_series(30, seed=8)


def test_synthetic_series_is_internally_consistent():
    series = synthetic_series(50, seed=4)
    events = series.events
    for ev in events:
        assert ev.low <= ev.open <= ev.high
        assert ev.low <= ev.close <= ev.high
        assert ev.close == ev.open + ev.new - ev.done
        assert 0 <= ev.started <= ev.new
    for prev, cur in zip(events, events[1:]):
        assert cur.open == prev.close
        assert cur.date == prev.date + timedelta(days=1)


def test_synthetic_event_log_is_sorted_and_paired():
    log = synthetic_event_log(30, seed=6, span_days=15)
    stamps = [ev.timestamp for ev in log.events]
    assert stamps == sorted(stamps)
    by_case = {}
    for ev in log.events:
        by_case.setdefault(ev.case_id, []).append(ev.activity)
    assert len(by_case) == 30
    for acts in by_case.values():
        assert acts[0] == "open"
        assert acts[-1] == "resolve"


def test_synthetic_event_log_builds_a_series():
    from wipcast.wipseries import build_wip_series

    log = synthetic_event_log(40, seed=2, span_days=10)
    series = build_wip_series(log)
    assert sum(ev.new for ev in series.events) == 40
    assert sum(ev.done for ev in series.events) == 40
