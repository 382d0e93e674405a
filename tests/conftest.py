"""Shared fixtures: hand-built event logs with known-by-hand WiP values, and the
run directory with an index snapshot that forecast tests load."""

from __future__ import annotations

import io
import random
import types
from datetime import date, datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from wipcast import memory
from wipcast.cli import main
from wipcast.eventlog import (
    ColumnMapping,
    Event,
    EventLog,
    SourceMeta,
    export_csv,
    parse_csv,
    parse_xes,
)
from wipcast.narrative import Story
from wipcast.synthetic import synthetic_event_log
from wipcast.wipseries import WipEvent, wip_event


@pytest.fixture(autouse=True)
def no_held_snapshots():
    """Each test starts with no snapshot or wip.csv series held by an earlier test's loads."""
    memory._held.clear()


def _utc(y: int, mo: int, d: int, h: int, mi: int = 0) -> datetime:
    return datetime(y, mo, d, h, mi, tzinfo=timezone.utc)


# Nine events across three cases, listed here in global timestamp order.
# Used to pin parser ordering and validation counts.
NINE_EVENTS = [
    ("case1", "A", _utc(2024, 3, 1, 8)),
    ("case2", "A", _utc(2024, 3, 1, 10)),
    ("case1", "B", _utc(2024, 3, 1, 12)),
    ("case3", "A", _utc(2024, 3, 2, 9, 30)),
    ("case2", "B", _utc(2024, 3, 2, 10)),
    ("case2", "C", _utc(2024, 3, 2, 15)),
    ("case1", "C", _utc(2024, 3, 3, 9)),
    ("case3", "B", _utc(2024, 3, 3, 11)),
    ("case3", "D", _utc(2024, 3, 4, 10)),
]


def xes_document(events_by_case: dict[str, list[tuple[str, datetime]]]) -> str:
    parts = ['<?xml version="1.0" encoding="UTF-8"?>', '<log xes.version="1.0">']
    for case_id, evs in events_by_case.items():
        parts.append("<trace>")
        parts.append(f'<string key="concept:name" value="{case_id}"/>')
        for activity, ts in evs:
            stamp = ts.strftime("%Y-%m-%dT%H:%M:%S.000%z")
            stamp = stamp[:-2] + ":" + stamp[-2:]
            parts.append("<event>")
            parts.append(f'<string key="concept:name" value="{activity}"/>')
            parts.append(f'<date key="time:timestamp" value="{stamp}"/>')
            parts.append("</event>")
        parts.append("</trace>")
    parts.append("</log>")
    return "\n".join(parts)


def _by_case(rows: list[tuple[str, str, datetime]]) -> dict[str, list[tuple[str, datetime]]]:
    grouped: dict[str, list[tuple[str, datetime]]] = {}
    for case_id, activity, ts in rows:
        grouped.setdefault(case_id, []).append((activity, ts))
    return grouped


@pytest.fixture
def nine_event_xes() -> str:
    return xes_document(_by_case(NINE_EVENTS))


@pytest.fixture
def nine_event_log(nine_event_xes: str) -> EventLog:
    return parse_xes(io.BytesIO(nine_event_xes.encode()), source_name="nine.xes")


def csv_document(rows: list[tuple[str, str, datetime]]) -> str:
    lines = ["case,activity,ts"]
    for case_id, activity, ts in rows:
        lines.append(f"{case_id},{activity},{ts.isoformat()}")
    return "\n".join(lines) + "\n"


CSV_MAPPING = ColumnMapping(case="case", activity="activity", timestamp="ts")


@pytest.fixture
def nine_event_csv_log() -> EventLog:
    text = csv_document(NINE_EVENTS)
    return parse_csv(io.StringIO(text), CSV_MAPPING, source_name="nine.csv")


# Five cases overlapping across three days.  The per-day WiP vectors below
# were worked out by hand before build_wip_series existed and are frozen.
FIVE_CASE_INTERVALS = {
    "c1": (_utc(2024, 5, 1, 8), _utc(2024, 5, 1, 17)),
    "c2": (_utc(2024, 5, 1, 9), _utc(2024, 5, 2, 12)),
    "c3": (_utc(2024, 5, 1, 14), _utc(2024, 5, 3, 10)),
    "c4": (_utc(2024, 5, 2, 9), _utc(2024, 5, 2, 18)),
    "c5": (_utc(2024, 5, 2, 11), _utc(2024, 5, 3, 16)),
}

FIVE_CASE_EXPECTED = [
    # date, open, high, low, close, new, done, started
    (date(2024, 5, 1), 0, 3, 0, 2, 3, 1, 3),
    (date(2024, 5, 2), 2, 4, 2, 2, 2, 2, 2),
    (date(2024, 5, 3), 2, 2, 0, 0, 0, 2, 0),
]


@pytest.fixture
def five_case_log() -> EventLog:
    rows = []
    for case_id, (start, end) in FIVE_CASE_INTERVALS.items():
        rows.append((case_id, "open", start))
        rows.append((case_id, "close", end))
    text = csv_document(rows)
    return parse_csv(io.StringIO(text), CSV_MAPPING, source_name="five.csv")


# The worked example used throughout: a Monday with OHLC 55/70/55/66.
@pytest.fixture
def monday_example() -> WipEvent:
    return wip_event(
        date(2024, 3, 4), open=55, high=70, low=55, close=66, new=24, done=10, started=21
    )


def random_wip_event(rng: random.Random, day: date) -> WipEvent:
    o = rng.randint(0, 80)
    c = rng.randint(0, 80)
    high = max(o, c) + rng.randint(0, 15)
    low = max(0, min(o, c) - rng.randint(0, 15))
    return wip_event(
        day,
        open=o,
        high=high,
        low=low,
        close=c,
        new=rng.randint(0, 30),
        done=rng.randint(0, 30),
        started=rng.randint(0, 30),
    )


def make_log(rows: list[tuple[str, str, datetime]], name: str = "mem.csv") -> EventLog:
    return parse_csv(io.StringIO(csv_document(rows)), CSV_MAPPING, source_name=name)


def make_event(case_id: str, activity: str, ts: datetime) -> Event:
    return Event(case_id=case_id, activity=activity, timestamp=ts)


class Doc(NamedTuple):
    """A contextual story with its embedding row and doc_id, as a test inserts it
    into a StoryIndex and as a brute-force retrieval oracle scores it."""

    story: Story
    embedding: np.ndarray
    doc_id: int


def add_docs(index, docs) -> None:
    """Insert Docs into a StoryIndex in one add_many, keeping their doc_ids."""
    docs = list(docs)
    index.add_many([d.story for d in docs], [d.embedding for d in docs], [d.doc_id for d in docs])


# The day `forecast` is asked for on the snapshot workspace.
SNAPSHOT_TARGET = "2024-02-20"


@pytest.fixture(scope="session")
def snapshot_workspace(tmp_path_factory):
    """A run directory with an index snapshot: ingest, stories and index of one seeded log.
    Tests copy it before they change it."""
    out = tmp_path_factory.mktemp("snapshots")
    log = out / "tickets.csv"
    log.write_text(export_csv(synthetic_event_log(600, seed=5, span_days=60)))
    for argv in (["ingest", str(log), "--out", str(out)],
                 ["stories", "--out", str(out)],
                 ["index", "--out", str(out)]):
        assert main(argv) == 0
    return out


def edit_snapshot(out, edit) -> None:
    """Rewrite the index.npz of ``out`` after ``edit`` changed the dict of its
    arrays in place; the arrays it leaves, provenance included, stay as they were."""
    path = out / "index.npz"
    with np.load(path, allow_pickle=False) as npz:
        arrays = dict(npz)
    edit(arrays)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def edit_targets(out) -> None:
    """Add 5 to every target of the daily index in the index.npz of ``out``."""
    edit_snapshot(out, lambda arrays: arrays.update(daily_targets=arrays["daily_targets"] + 5))


def bench_module(name: str) -> types.ModuleType:
    """``bench/<name>.py``, compiled from its source and run in a fresh
    namespace, so no bytecode cache is written under ``bench/``."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module
