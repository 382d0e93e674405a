"""Seeded generators for synthetic event logs and WiP series.

Used by the demos and the test suite whenever a realistic, fully
self-consistent input is needed without shipping a real dataset. Everything
is driven by `random.Random(seed)`, so a given seed always reproduces the
same log or series byte for byte.
"""

from __future__ import annotations

import math
import random
from datetime import date as Date
from datetime import datetime, timedelta, timezone

from .eventlog import Event, EventLog, SourceMeta
from .wipseries import WipEvent, WipSeries, wip_event


def synthetic_event_log(n_cases: int = 60, seed: int = 0,
                        start: datetime | None = None,
                        span_days: int = 30) -> EventLog:
    """Random service-desk style log: each case opens, optionally gets a
    midpoint touch, and resolves between one hour and several days later."""
    if n_cases < 1 or span_days < 1:
        raise ValueError("n_cases and span_days must be positive")
    if start is None:
        start = datetime(2024, 1, 1, 8, 0, tzinfo=timezone.utc)
    rng = random.Random(seed)
    events: list[Event] = []
    for i in range(n_cases):
        case_id = f"case-{i:04d}"
        opened = start + timedelta(minutes=rng.randrange(span_days * 24 * 60))
        # durations skew short with a long tail, like real ticket queues
        hours = rng.expovariate(1 / 18.0) + 1.0
        closed = opened + timedelta(hours=hours)
        events.append(Event(case_id, "open", opened, lifecycle="start"))
        if hours > 6 and rng.random() < 0.5:
            mid = opened + timedelta(hours=hours * rng.uniform(0.2, 0.8))
            events.append(Event(case_id, "work", mid, lifecycle="complete"))
        events.append(Event(case_id, "resolve", closed, lifecycle="complete"))
    events.sort(key=lambda ev: (ev.timestamp, ev.case_id, ev.activity))
    meta = SourceMeta(name=f"synthetic(seed={seed})", format="synthetic",
                      row_count=len(events))
    return EventLog(events=tuple(events), source_meta=meta)


def synthetic_series(n_days: int = 60, seed: int = 0,
                     start: Date | None = None, base: int = 40) -> WipSeries:
    """Random-walk WiP series with a slow cyclic drift so trend labels vary.

    Each day simulates an intraday path of unit arrivals/completions, so
    open/high/low/close bracket correctly, close == open + new - done, and
    consecutive days share the close->open boundary.
    """
    if n_days < 1 or base < 1:
        raise ValueError("n_days and base must be positive")
    if start is None:
        start = Date(2024, 1, 1)
    rng = random.Random(seed)
    events: list[WipEvent] = []
    level = base
    for i in range(n_days):
        day = start + timedelta(days=i)
        opened = level
        p_up = 0.5 + 0.22 * math.sin(2 * math.pi * i / 25.0)
        high = low = level
        new = done = 0
        for _ in range(rng.randint(2, 14)):
            if level <= 1 or rng.random() < p_up:
                level += 1
                new += 1
            else:
                level -= 1
                done += 1
            high = max(high, level)
            low = min(low, level)
        started = rng.randint(0, new)
        events.append(wip_event(day, opened, high, low, level,
                                new=new, done=done, started=started))
    return WipSeries(events=tuple(events))
