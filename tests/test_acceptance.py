"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single PASS/FAIL/SKIP
line (run with `pytest tests/test_acceptance.py -v -s` to see them live).
"""

import glob
import os
import random
import time
from contextlib import contextmanager
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest

from conftest import Doc, add_docs, random_wip_event
from wipcast.agents import (
    TREND_LABELS,
    Prediction,
    TrendInsight,
    fuse,
    trend_analyze,
)
from wipcast.cli import main
from wipcast.eventlog import Event, EventLog, SourceMeta, parse_csv, parse_xes
from wipcast.eventlog import ColumnMapping
from wipcast.evaluation import mae, mape, persistence_baseline, summarize
from wipcast.evaluation import PredictionTrace, TraceEntry
from wipcast.memory import DeterministicEmbedder, StoryIndex
from wipcast.narrative import render_contextual_story, render_query_story
from wipcast.synthetic import synthetic_series
from wipcast.wipseries import (
    active_count_at,
    build_wip_series,
    export_wip_csv,
    wip_event,
)

UTC = timezone.utc


@contextmanager
def criterion(number: int, summary: str):
    started = time.monotonic()
    try:
        yield
    except pytest.skip.Exception as exc:
        print(f"ACCEPTANCE {number}: SKIP - {summary} ({exc})")
        raise
    except BaseException as exc:
        print(f"ACCEPTANCE {number}: FAIL - {summary} ({exc})")
        raise
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {number}: PASS - {summary} ({elapsed:.1f}s)")


# --- 1. story fidelity ---

QUERY_SENTENCE = (
    "The WiP items opened at 55, reached a high of 70 and a low of 55, "
    "before closing at 66, with 10 items completed, 24 new items added, "
    "and 21 items started."
)
CONTEXTUAL_SENTENCE = (
    "The WiP items opened at 55, reached a high of 70 and a low of 55, "
    "before closing at 66, with 10 items completed, 24 new items added, "
    "and 21 items started, while the next WiP was expected to remain at 71."
)


def test_acceptance_1_story_fidelity():
    with criterion(1, "story templates byte-match the published examples"):
        day = wip_event(date(2024, 4, 1), open=55, high=70, low=55, close=66,
                        new=24, done=10, started=21)
        assert render_query_story(day).text == QUERY_SENTENCE
        assert render_contextual_story(day, 71).text == CONTEXTUAL_SENTENCE


# --- 2. retrieval oracle ---


def _oracle_ids(docs, qvec, as_of, k):
    qnorm = float(np.linalg.norm(qvec))
    scored = []
    for doc in docs:
        if doc.story.date >= as_of:
            continue
        sim = float(np.dot(doc.embedding, qvec) /
                    (np.linalg.norm(doc.embedding) * qnorm))
        scored.append((-sim, -doc.story.date.toordinal(), doc.doc_id))
    scored.sort()
    return [doc_id for _, _, doc_id in scored[:k]]


def test_acceptance_2_retrieval_oracle():
    with criterion(2, "retrieval equals the exhaustive-scan oracle, zero causality leaks"):
        rng = random.Random(2024)
        embedder = DeterministicEmbedder()
        total_queries = 0
        for _ in range(20):
            n_docs = rng.randint(50, 1000)
            start = date(2023, 1, 1)
            index = StoryIndex(provider=embedder)
            texts, stories = [], []
            for _ in range(n_docs):
                day = start + timedelta(days=rng.randrange(400))
                if texts and rng.random() < 0.05:
                    story = render_contextual_story(
                        texts[rng.randrange(len(texts))], rng.randint(0, 99))
                    story = type(story)(text=story.text, kind=story.kind,
                                        granularity=story.granularity,
                                        date=day, target=story.target)
                else:
                    ev = random_wip_event(rng, day)
                    texts.append(ev)
                    story = render_contextual_story(ev, rng.randint(0, 99))
                stories.append(story)
            # the oracle scores the test's own embeddings, not rows read back from the index
            docs = [Doc(story, embedding, doc_id) for doc_id, (story, embedding) in enumerate(
                zip(stories, embedder.embed_many(story.text for story in stories)))]
            add_docs(index, docs)

            for q in range(500):
                query = render_query_story(random_wip_event(rng, start))
                as_of = start + timedelta(days=rng.randrange(-5, 430))
                results = index.retrieve(query, as_of=as_of, k=5)
                total_queries += 1
                for r in results:
                    assert r.date < as_of  # causality predicate
                if q < 100:
                    got = [r.doc_id for r in results]
                    want = _oracle_ids(docs, embedder.embed(query.text), as_of, 5)
                    assert got == want
        assert total_queries == 10_000


# --- 3. WiP builder oracle ---


def _random_log(rng: random.Random, max_cases: int = 200) -> EventLog:
    """Whole-second timestamps, never exactly at midnight, so sampling the
    active count a microsecond before a boundary is unambiguous."""
    n_cases = rng.randint(15, max_cases)
    t0 = datetime(2024, 1, 1, tzinfo=UTC)
    span = 20 * 86400
    events = []
    for c in range(n_cases):
        open_s = rng.randrange(1, span)
        if open_s % 86400 == 0:
            open_s += 1
        dur = rng.randrange(60, 10 * 86400)
        if (open_s + dur) % 86400 == 0:
            dur += 1
        open_ts = t0 + timedelta(seconds=open_s)
        close_ts = t0 + timedelta(seconds=open_s + dur)
        lifecycle = "start" if rng.random() < 0.5 else None
        events.append(Event(f"c{c}", "open", open_ts, lifecycle=lifecycle))
        if dur > 2 and rng.random() < 0.4:
            mid = t0 + timedelta(seconds=open_s + rng.randrange(1, dur))
            events.append(Event(f"c{c}", "touch", mid, lifecycle="complete"))
        events.append(Event(f"c{c}", "close", close_ts, lifecycle="complete"))
    events.sort(key=lambda ev: (ev.timestamp, ev.case_id))
    meta = SourceMeta(name="random", format="synthetic", row_count=len(events))
    return EventLog(events=tuple(events), source_meta=meta)


def test_acceptance_3_wip_builder_oracle():
    with criterion(3, "daily OHLC equals the per-instant active-count replay"):
        rng = random.Random(31)
        for _ in range(50):
            log = _random_log(rng)
            series = build_wip_series(log)

            for prev, cur in zip(series.events, series.events[1:]):
                assert cur.open == prev.close  # adjacency under carry policy

            instants = sorted({ev.timestamp for ev in log.events})
            by_day = {}
            for t in instants:
                by_day.setdefault(t.date(), []).append(t)
            eps = timedelta(microseconds=1)
            for row in series.events:
                day_start = datetime(row.date.year, row.date.month,
                                     row.date.day, tzinfo=UTC)
                open_count = active_count_at(log, instant=day_start - eps)
                counts = [active_count_at(log, instant=t)
                          for t in by_day.get(row.date, [])]
                close_count = active_count_at(
                    log, instant=day_start + timedelta(days=1) - eps)
                assert row.open == open_count, row.date
                assert row.close == close_count, row.date
                assert row.high == max([open_count] + counts), row.date
                assert row.low == min([open_count] + counts), row.date


# --- 4. metric oracles ---


def test_acceptance_4_metric_oracles():
    with criterion(4, "mape/mae match hand arithmetic to 1e-9 incl zero exclusion"):
        rng = random.Random(404)
        for trial in range(10):
            n = rng.randint(3, 40)
            actuals = [round(rng.uniform(5, 80), 3) for _ in range(n)]
            preds = [round(rng.uniform(0, 80), 3) for _ in range(n)]
            if trial % 3 == 0:
                actuals[rng.randrange(n)] = 0.0
            start = date(2024, 1, 1)
            entries = tuple(
                TraceEntry(start + timedelta(days=i), "multi_agent", a, p)
                for i, (a, p) in enumerate(zip(actuals, preds))
            )
            ape_terms, abs_errors = [], []
            for a, p in zip(actuals, preds):
                abs_errors.append(abs(a - p))
                if a != 0:
                    ape_terms.append(100.0 * abs(a - p) / abs(a))
            assert abs(mape(entries) - sum(ape_terms) / len(ape_terms)) < 1e-9
            assert abs(mae(entries) - sum(abs_errors) / len(abs_errors)) < 1e-9
            (summary,) = summarize(PredictionTrace(entries=entries))
            assert summary.skipped_zero_actuals == n - len(ape_terms)
        with pytest.raises(ValueError):
            mape((TraceEntry(date(2024, 1, 1), "multi_agent", 0.0, 3.0),))


# --- 5. deterministic end-to-end ---


def test_acceptance_5_deterministic_pipeline(tmp_path):
    with criterion(5, "two stub evaluate runs are bit-identical"):
        started = time.monotonic()
        series = synthetic_series(60, seed=60)
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            out.mkdir()
            (out / "wip.csv").write_text(export_wip_csv(series))
            assert main(["evaluate", "--out", str(out), "--freeze-timestamps"]) == 0
            outputs.append(out)
        for fname in ("predictions.csv", "metrics.csv"):
            a = (outputs[0] / fname).read_bytes()
            b = (outputs[1] / fname).read_bytes()
            assert a == b, fname
        assert time.monotonic() - started < 60


# --- 6. fusion properties ---


def _pred(agent_id: str, value: float) -> Prediction:
    return Prediction(agent_id=agent_id, value=value, retrieved=())


def _trend(label: str) -> TrendInsight:
    return TrendInsight(label=label, sma_first=1.0, sma_last=1.0,
                        relative_change=0.0, text="synthetic")


def test_acceptance_6_fusion_properties():
    with criterion(6, "fusion is convex, consensus-exact, and matches worked examples"):
        rng = random.Random(66)
        day = date(2024, 5, 2)
        for _ in range(1000):
            values = [rng.uniform(0, 100) for _ in range(3)]
            preds = [_pred(a, v) for a, v in zip(("daily", "weekday", "windowed"), values)]
            label = rng.choice(TREND_LABELS)
            report = fuse(preds, _trend(label), day)
            assert min(values) - 1e-9 <= report.final_value <= max(values) + 1e-9
            v = rng.uniform(0, 100)
            consensus = [_pred(a, v) for a in ("daily", "weekday", "windowed")]
            assert fuse(consensus, _trend(label), day).final_value == v
        worked = [_pred("daily", 10.0), _pred("weekday", 12.0), _pred("windowed", 20.0)]
        assert fuse(worked, _trend("stable"), day).final_value == 16.4
        assert fuse(worked, _trend("increasing_significantly"), day).final_value == 12.4


# --- 7. trend classification ---


def test_acceptance_7_trend_classification():
    with criterion(7, "trend labels honor the half-open thresholds"):
        constant = trend_analyze([7.0] * 14)
        assert constant.label == "stable"

        ramp = trend_analyze(list(range(1, 15)))
        assert ramp.label == "increasing_significantly"
        assert ramp.sma_first == 4.0
        assert ramp.sma_last == 11.0

        assert trend_analyze([100.0] * 7 + [100.9] * 7).label == "stable"
        assert trend_analyze([100.0] * 7 + [101.0] * 7).label == "increasing"
        assert trend_analyze([100.0] * 7 + [104.9] * 7).label == "increasing"
        assert trend_analyze([100.0] * 7 + [105.0] * 7).label == "increasing_significantly"
        assert trend_analyze([100.0] * 7 + [99.0] * 7).label == "decreasing"
        assert trend_analyze([100.0] * 7 + [95.0] * 7).label == "decreasing_significantly"


# --- 8. published-number soft check ---

REFERENCE_MAPE = {"helpdesk": 2.65, "bpic13": 0.86}


def _find_dataset(kind: str) -> str | None:
    roots = [os.environ.get("WIPCAST_DATA", ""), "datasets", "data"]
    for root in roots:
        if not root or not os.path.isdir(root):
            continue
        for path in sorted(glob.glob(os.path.join(root, "*"))):
            name = os.path.basename(path).lower()
            if kind == "helpdesk" and "helpdesk" in name:
                return path
            if kind == "bpic13" and ("2013" in name or "bpic13" in name):
                if "incident" in name or "bpic13" in name:
                    return path
    return None


def _dataset_persistence_mape(path: str) -> float:
    with open(path, "rb") as fh:
        if path.lower().endswith((".xes", ".xes.gz", ".gz")):
            log = parse_xes(fh, source_name=os.path.basename(path))
        else:
            mapping = ColumnMapping(case="case", activity="activity",
                                    timestamp="timestamp")
            log = parse_csv(fh, mapping, source_name=os.path.basename(path))
    series = build_wip_series(log)
    trace = persistence_baseline(series)
    return mape(trace.entries)


def test_acceptance_8_published_persistence_numbers():
    with criterion(8, "persistence baseline vs published reference (soft)"):
        found = {k: _find_dataset(k) for k in REFERENCE_MAPE}
        if not any(found.values()):
            pytest.skip("public datasets not present; set WIPCAST_DATA or add datasets/")
        for kind, path in found.items():
            if path is None:
                print(f"  note: {kind} dataset not present, skipped")
                continue
            value = _dataset_persistence_mape(path)
            reference = REFERENCE_MAPE[kind]
            delta = value - reference
            if abs(delta) <= 1.0:
                print(f"  {kind}: persistence MAPE {value:.2f} vs {reference:.2f} (ok)")
            else:
                # A miss is a documented investigation trigger (lifecycle rule
                # review), deliberately not a test failure.
                print(f"  {kind}: persistence MAPE {value:.2f} vs {reference:.2f} "
                      f"(off by {delta:+.2f}pp, investigate lifecycle rules)")
