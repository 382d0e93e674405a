"""Daily work-in-progress series derived from an event log.

Each calendar day gets its date and seven counts describing how the number
of active cases moved through the day (open, high, low, close) plus how many
cases finished, appeared, or were start-marked that day. A ``wip.csv`` row
adds the day of week / month / year, computed from the date.

A case is active from its earliest event (inclusive) up to, but not including,
its latest event. It counts as new on the day of its earliest event, done on
the day of its latest, and started on the day of its earliest event whose
lifecycle is ``start`` in any letter case (``START`` too), else when it opens.
"""

from __future__ import annotations

import csv
import io
from array import array
from bisect import bisect_right
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from datetime import date as Date, datetime, timedelta, timezone
from operator import attrgetter
from typing import IO
from zoneinfo import ZoneInfo

import numpy as np

from .eventlog import EmptyLogError, Event, EventLog, _Fields

WIP_CSV_HEADER = ["date", "dow", "dom", "doy", "open", "high", "low", "close", "new", "done", "started"]

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)
_UNSTARTED = 2**63 - 1  # a case's start instant while none of its events is start-marked


@dataclass(frozen=True)
class WipEvent:
    """One day's WiP vector: its date and seven counts."""

    date: Date
    open: int
    high: int
    low: int
    close: int
    new: int = 0
    done: int = 0
    started: int = 0

    def __post_init__(self) -> None:
        if not (self.low <= self.open <= self.high and self.low <= self.close <= self.high):
            raise ValueError(f"{self.date}: OHLC out of order (o={self.open} h={self.high} l={self.low} c={self.close})")
        if min(self.open, self.high, self.low, self.close, self.new, self.done, self.started) < 0:
            raise ValueError(f"{self.date}: negative count")


wip_event = WipEvent  # the name the tests, synthetic.py and the bench notes use


def _calendar(day: Date) -> tuple[int, int, int]:
    """The ``dow``, ``dom`` and ``doy`` columns of ``day``'s ``wip.csv`` row."""
    return day.isoweekday(), day.day, day.timetuple().tm_yday


def _check_next(previous: Date, day: Date) -> None:
    """ValueError unless ``day`` is the day after ``previous``."""
    step = (day - previous).days
    if step < 1:
        raise ValueError(f"{day}: dates not strictly increasing")
    if step > 1:
        raise ValueError(f"{day}: {previous + timedelta(days=1)} is missing; each date must be the day after the one before")


@dataclass(frozen=True)
class WipSeries:
    """Daily WiP vectors, each dated the day after the one before, as built by
    :func:`build_wip_series` or read back by :func:`load_wip_csv`."""

    events: Sequence[WipEvent]

    def __post_init__(self) -> None:
        for a, b in zip(self.events, self.events[1:]):
            _check_next(a.date, b.date)

    def __len__(self) -> int:
        return len(self.events)

    def days_through(self, day: Date) -> int:
        """How many days of the series are dated on or before ``day``."""
        return bisect_right(self.events, day, key=attrgetter("date"))


def _per_day(days: np.ndarray, first: int, n_days: int) -> np.ndarray:
    """How many of ``days`` (ordinals) fall on each of the ``n_days`` days from ``first``."""
    i = days - first
    return np.bincount(i[(i >= 0) & (i < n_days)], minlength=n_days)


def _case_rows(events: Iterable[_Fields], local_day: Callable[[datetime], int]) -> tuple[np.ndarray, int]:
    """One row per case, and how many events were folded. A row holds the
    instants (microseconds since the epoch) of the case's earliest and latest
    events, and the local days (ordinals) of its earliest event, its latest
    event and its start.

    One pass over the events' fields, in any order and as they arrive,
    converts each timestamp once and keeps three instants per case in int64
    columns: its earliest, its latest and its earliest ``start``-marked one
    (a sentinel if none), found through a dict from case id to row. The dict
    is freed once the fold is done, before local days are taken per case.
    """
    slots: dict[str, int] = {}
    opened, closed, started = array("q"), array("q"), array("q")
    folded = 0
    for folded, (case_id, _, ts, lifecycle) in enumerate(events, start=1):
        at = (ts - _EPOCH) // _MICROSECOND
        slot = slots.setdefault(case_id, len(opened))
        if slot == len(opened):
            opened.append(at)
            closed.append(at)
            started.append(_UNSTARTED)
        elif at < opened[slot]:
            opened[slot] = at
        elif at > closed[slot]:
            closed[slot] = at
        if lifecycle is not None and at < started[slot] and lifecycle.lower() == "start":
            started[slot] = at
    del slots

    def day(at: int) -> int:
        return local_day(_EPOCH + at * _MICROSECOND)

    def row(opened: int, closed: int, started: int) -> tuple[int, ...]:
        open_day = day(opened)
        return (opened, closed, open_day, day(closed),
                open_day if started in (_UNSTARTED, opened) else day(started))

    return np.fromiter(map(row, opened, closed, started),
                       dtype=np.dtype((np.int64, 5)), count=len(opened)), folded


def build_wip_series(log: EventLog | Iterable[Event], tz: str = "UTC") -> WipSeries:
    """Replay a log's case openings and closings into a daily WiP series.

    ``log`` is an :class:`EventLog` or any iterable of events, read once:
    each event is folded into its case as it arrives, so only a few instants
    per case are held, never the events.

    A case opens at its earliest event, closes at its latest and starts at
    its earliest ``start``-marked event (any letter case), else when it opens,
    whatever the order of the log. Every calendar day from the local day of
    the log's earliest instant to that of its latest, between midnights in
    ``tz``, gets a row, a day without events too. The running active count is
    sampled after every instant at which cases open or close (simultaneous
    transitions are applied together), which yields each day's high and low;
    the day's open is the count carried in from the previous day and its
    close is the count carried out.
    """
    events = log.events if isinstance(log, EventLog) else log
    return _replay(map(attrgetter("case_id", "activity", "timestamp", "lifecycle"), events), tz)[0]


def _replay(events: Iterable[_Fields], tz: str) -> tuple[WipSeries, int, int]:
    """:func:`build_wip_series` of the events whose fields are ``events``, with
    how many events and cases it folded."""
    zone = ZoneInfo(tz)

    def local_day(ts: datetime) -> int:
        try:
            return ts.astimezone(zone).toordinal()
        except OverflowError:
            raise ValueError(f"the instant {ts.isoformat()} has no local date in {tz}: "
                             f"it falls outside years 1-9999") from None

    cases, folded = _case_rows(events, local_day)
    if not folded:
        raise EmptyLogError("cannot build a WiP series from an empty log")
    open_at, close_at, open_days, close_days, started_days = cases.T

    # Not the least and greatest local days: local dates step back in some zones.
    first = int(open_days[open_at.argmin()])
    n_days = int(close_days[close_at.argmax()]) - first + 1
    # Transitions in time order; openings (+1) are the first len(cases).
    at = np.concatenate((open_at, close_at))
    order = np.argsort(at, kind="stable")
    at = at[order]
    running = np.cumsum(np.where(order < len(cases), 1, -1))
    # Sample the count after the last transition of each instant. An instant
    # counts towards its local day, or towards the latest day already counted
    # if that is later (local dates can step back where a zone's offset does);
    # instants past the last day are never counted.
    last_of_instant = np.append(at[1:] != at[:-1], True)
    sampled = running[last_of_instant]
    day_of = np.concatenate((open_days, close_days))[order][last_of_instant]
    pos = np.maximum.accumulate(np.maximum(day_of, first)) - first
    counted = np.searchsorted(pos, n_days)
    sampled, pos = sampled[:counted], pos[:counted]

    taken = np.searchsorted(pos, np.arange(n_days), side="right")  # samples by each day's end
    close = np.concatenate(([0], sampled))[taken]
    open_ = np.concatenate(([0], close))[:-1]
    high, low = open_.copy(), open_.copy()
    np.maximum.at(high, pos, sampled)
    np.minimum.at(low, pos, sampled)
    columns = (open_, high, low, close, *(_per_day(d, first, n_days)
                                          for d in (open_days, close_days, started_days)))
    days = [wip_event(Date.fromordinal(first + j), *counts)
            for j, counts in enumerate(zip(*(c.tolist() for c in columns)))]
    return WipSeries(tuple(days)), folded, len(cases)


def active_count_at(log: EventLog, instant: datetime) -> int:
    """Number of cases open at ``instant``: first event at or before it, last event after it.

    Deliberately brute force (each case's earliest and latest timestamps, found
    without relying on the log's order) so it can serve as an independent
    oracle for the replay in :func:`build_wip_series`.
    """
    bounds: dict[str, tuple[datetime, datetime]] = {}
    for ev in log.events:
        lo, hi = bounds.get(ev.case_id, (ev.timestamp, ev.timestamp))
        bounds[ev.case_id] = (min(lo, ev.timestamp), max(hi, ev.timestamp))
    return sum(lo <= instant < hi for lo, hi in bounds.values())


def export_wip_csv(series: WipSeries) -> str:
    """Serialize to the inter-stage CSV contract (header per WIP_CSV_HEADER)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(WIP_CSV_HEADER)
    counts = attrgetter("open", "high", "low", "close", "new", "done", "started")
    writer.writerows([ev.date.isoformat(), *_calendar(ev.date), *counts(ev)] for ev in series.events)
    return buf.getvalue()


def load_wip_csv(source: str | IO[str]) -> WipSeries:
    """Parse the inter-stage CSV back into a series (inverse of :func:`export_wip_csv`).

    Each row is checked as its :class:`WipEvent` is built: eleven fields, an
    ISO date, integers inside 64 bits, calendar fields that match the date,
    OHLC order, nonnegative counts and each date the day after the previous.
    A row that fails raises ValueError naming the file and line.
    """
    name = getattr(source, "name", "<stream>")
    text = source if isinstance(source, str) else source.read()
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != WIP_CSV_HEADER:
        raise ValueError(f"{name}, line 1: unexpected WiP CSV header: {header}")
    events: list[WipEvent] = []
    for row in reader:
        if not row:
            continue
        try:
            if len(row) != len(WIP_CSV_HEADER):
                raise ValueError(f"expected {len(WIP_CSV_HEADER)} fields, got {len(row)}")
            day = Date.fromisoformat(row[0])
            fields = [int(value) for value in row[1:]]
            if not -2**63 <= min(fields) <= max(fields) < 2**63:
                raise ValueError("a field is out of the 64-bit range")
            calendar = _calendar(day)
            if tuple(fields[:3]) != calendar:
                raise ValueError(f"{day}: dow/dom/doy {'/'.join(map(str, fields[:3]))} do not "
                                 f"match the date (want {'/'.join(map(str, calendar))})")
            event = WipEvent(day, *fields[3:])  # checks OHLC order and nonnegative counts
            if events:
                _check_next(events[-1].date, day)
        except ValueError as exc:
            raise ValueError(f"{name}, line {reader.line_num}: {exc}") from exc
        events.append(event)
    series = object.__new__(WipSeries)  # not WipSeries(...): its dates were checked row by row
    object.__setattr__(series, "events", tuple(events))
    return series
