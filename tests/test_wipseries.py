"""WiP replay tests, checked against hand-computed values and a brute-force oracle."""

from __future__ import annotations

import gc
import io
import random
import re
import tracemalloc
from collections import Counter
from datetime import date, datetime, time, timedelta, timezone
from zoneinfo import ZoneInfo

import pytest

from wipcast import wipseries
from wipcast.eventlog import ColumnMapping, Event, EventLog, SourceMeta, parse_csv
from wipcast.synthetic import synthetic_event_log, synthetic_series
from wipcast.wipseries import (
    WIP_CSV_HEADER,
    WipEvent,
    WipSeries,
    _check_next,
    _replay,
    active_count_at,
    build_wip_series,
    export_wip_csv,
    load_wip_csv,
    wip_event,
)

from conftest import (
    CSV_MAPPING,
    FIVE_CASE_EXPECTED,
    FIVE_CASE_INTERVALS,
    csv_document,
    make_log,
)


def _utc(y, mo, d, h, mi=0):
    return datetime(y, mo, d, h, mi, tzinfo=timezone.utc)


def test_single_case_same_day():
    log = make_log([("c1", "open", _utc(2024, 1, 1, 9)), ("c1", "close", _utc(2024, 1, 1, 17))])
    series = build_wip_series(log)
    assert len(series.events) == 1
    ev = series.events[0]
    assert (ev.open, ev.high, ev.low, ev.close) == (0, 1, 0, 0)
    assert (ev.new, ev.done, ev.started) == (1, 1, 1)


def test_single_event_case_never_counts_as_active():
    log = make_log([("c1", "solo", _utc(2024, 1, 1, 9))])
    series = build_wip_series(log)
    ev = series.events[0]
    assert (ev.open, ev.high, ev.low, ev.close) == (0, 0, 0, 0)
    assert (ev.new, ev.done) == (1, 1)
    assert active_count_at(log, _utc(2024, 1, 1, 9)) == 0


def test_five_case_fixture_matches_hand_simulation(five_case_log):
    series = build_wip_series(five_case_log)
    got = [
        (ev.date, ev.open, ev.high, ev.low, ev.close, ev.new, ev.done, ev.started)
        for ev in series.events
    ]
    assert got == FIVE_CASE_EXPECTED


def test_five_case_calendar_fields(five_case_log):
    series = build_wip_series(five_case_log)
    first_row = export_wip_csv(series).splitlines()[1].split(",")
    # 2024-05-01 was a Wednesday, day 122 of a leap year.
    assert first_row[:4] == ["2024-05-01", "3", "1", "122"]


def test_adjacency_open_equals_previous_close(five_case_log):
    series = build_wip_series(five_case_log)
    for prev, cur in zip(series.events, series.events[1:]):
        assert cur.open == prev.close


def test_flow_conservation(five_case_log):
    series = build_wip_series(five_case_log)
    net = sum(ev.new - ev.done for ev in series.events)
    assert net == series.events[-1].close - series.events[0].open
    for ev in series.events:
        assert ev.close == ev.open + ev.new - ev.done


def test_oracle_agrees_with_bounds(five_case_log):
    series = build_wip_series(five_case_log)
    for ev in series.events:
        for hour in range(0, 24, 3):
            instant = datetime.combine(ev.date, time(hour), tzinfo=timezone.utc)
            count = active_count_at(five_case_log, instant)
            assert ev.low <= count <= ev.high


def test_oracle_hand_counts(five_case_log):
    assert active_count_at(five_case_log, _utc(2024, 4, 30, 12)) == 0
    assert active_count_at(five_case_log, _utc(2024, 5, 1, 10)) == 2
    assert active_count_at(five_case_log, _utc(2024, 5, 2, 11, 30)) == 4
    assert active_count_at(five_case_log, _utc(2024, 5, 4, 0)) == 0


def test_open_matches_oracle_at_day_start(five_case_log):
    series = build_wip_series(five_case_log)
    for ev in series.events:
        start = datetime.combine(ev.date, time(0), tzinfo=timezone.utc)
        assert ev.open == active_count_at(five_case_log, start)


def test_build_invariant_to_input_order(five_case_log):
    rows = []
    for case_id, (start, end) in FIVE_CASE_INTERVALS.items():
        rows.append((case_id, "open", start))
        rows.append((case_id, "close", end))
    rng = random.Random(11)
    rng.shuffle(rows)
    shuffled = make_log(rows, name="shuffled.csv")
    a = build_wip_series(five_case_log)
    b = build_wip_series(shuffled)
    assert a.events == b.events


# Zones with a daylight-saving change (Europe/Berlin on 2024-03-31), a
# half-hour one (Australia/Lord_Howe on 2024-04-07) and a local date that
# steps back (America/Sitka on 1867-10-18) inside the log's span.
SHUFFLE_ZONES = [("UTC", datetime(2024, 1, 1, 8, tzinfo=timezone.utc)),
                 ("Europe/Berlin", datetime(2024, 3, 1, tzinfo=timezone.utc)),
                 ("America/Sitka", datetime(1867, 10, 1, tzinfo=timezone.utc)),
                 ("Australia/Lord_Howe", datetime(2024, 3, 20, tzinfo=timezone.utc))]


@pytest.mark.parametrize("tz, start", SHUFFLE_ZONES, ids=[z for z, _ in SHUFFLE_ZONES])
def test_shuffled_events_give_an_equal_series(tz, start):
    # A case's touch and resolution are both start-marked, so its earliest
    # start-marked event is often not the first one a shuffled log shows.
    marks = {"open": "schedule", "work": "start", "resolve": "START"}
    log = synthetic_event_log(40, seed=5, start=start, span_days=60)
    events = [Event(ev.case_id, ev.activity, ev.timestamp, marks[ev.activity]) for ev in log.events]
    want = build_wip_series(EventLog(tuple(events), log.source_meta), tz)
    event_days = {ev.timestamp.astimezone(ZoneInfo(tz)).date() for ev in events}
    assert len(want) > len(event_days)  # the span has days without events
    rng = random.Random(tz)
    for _ in range(10):
        rng.shuffle(events)
        shuffled = EventLog(tuple(events), log.source_meta)
        assert build_wip_series(shuffled, tz) == want, events[:3]


@pytest.mark.parametrize("rows, n_days", [
    # A case's closing event listed before its opening one used to end in
    # numpy's "'minlength' must not be negative".
    ([("c1", "close", _utc(2024, 1, 5, 9)), ("c1", "open", _utc(2024, 1, 1, 9)),
      ("c2", "open", _utc(2024, 1, 2, 9)), ("c2", "close", _utc(2024, 1, 3, 9))], 5),
    # Used to close 2024-01-03 at 0 with c0 and c1 both open.
    ([("c0", "open", _utc(2024, 1, 1, 1)), ("c1", "close", _utc(2024, 1, 4, 9)),
      ("c1", "open", _utc(2024, 1, 2, 9)), ("c0", "close", _utc(2024, 1, 6, 1))], 6),
], ids=["close-first", "close-before-open"])
def test_a_log_out_of_time_order_agrees_with_the_oracle(rows, n_days):
    log = EventLog(tuple(Event(*row) for row in rows), SourceMeta("unsorted", "synthetic", len(rows)))
    series = build_wip_series(log)
    assert [ev.date for ev in series.events] == [date(2024, 1, 1) + timedelta(days=d)
                                                 for d in range(n_days)]
    for ev in series.events:
        midnight = datetime.combine(ev.date, time(0), tzinfo=timezone.utc)
        assert ev.open == active_count_at(log, midnight)
        assert ev.close == active_count_at(log, midnight + timedelta(days=1))


def test_gap_carry_inserts_flat_day():
    log = make_log(
        [
            ("c1", "open", _utc(2024, 1, 1, 9)),
            ("c1", "close", _utc(2024, 1, 3, 9)),
            ("c2", "open", _utc(2024, 1, 1, 10)),
            ("c2", "close", _utc(2024, 1, 3, 10)),
        ]
    )
    series = build_wip_series(log)
    assert [ev.date for ev in series.events] == [date(2024, 1, j) for j in (1, 2, 3)]
    middle = series.events[1]
    assert (middle.open, middle.high, middle.low, middle.close) == (2, 2, 2, 2)
    assert (middle.new, middle.done, middle.started) == (0, 0, 0)


def test_multi_day_gap_carry_adjacency():
    log = make_log(
        [
            ("c1", "open", _utc(2024, 1, 1, 9)),
            ("c2", "open", _utc(2024, 1, 2, 9)),
            ("c1", "close", _utc(2024, 1, 6, 9)),
            ("c2", "close", _utc(2024, 1, 7, 9)),
        ]
    )
    series = build_wip_series(log)
    assert len(series.events) == 7
    for prev, cur in zip(series.events, series.events[1:]):
        assert cur.open == prev.close
        assert cur.date == prev.date + timedelta(days=1)


@pytest.mark.parametrize("marker", ["start", "START"])
def test_start_marker_shifts_started_day(marker):
    # With lifecycle "start" markers present, in any letter case, "started"
    # follows the marker day.
    text = (
        "case,activity,ts,lc\n"
        "c1,queued,2024-01-01T09:00:00Z,schedule\n"
        f"c1,work,2024-01-02T09:00:00Z,{marker}\n"
        "c1,finish,2024-01-03T09:00:00Z,complete\n"
    )
    mapping = ColumnMapping(case="case", activity="activity", timestamp="ts", lifecycle="lc")
    log = parse_csv(io.StringIO(text), mapping, source_name="lc.csv")
    series = build_wip_series(log)
    by_date = {ev.date: ev for ev in series.events}
    assert by_date[date(2024, 1, 1)].started == 0
    assert by_date[date(2024, 1, 2)].started == 1
    assert by_date[date(2024, 1, 1)].new == 1
    assert by_date[date(2024, 1, 3)].done == 1


def test_timezone_changes_day_attribution():
    # 23:30 UTC on Jan 1 is already Jan 2 in UTC+1.
    log = make_log(
        [("c1", "open", _utc(2024, 1, 1, 23, 30)), ("c1", "close", _utc(2024, 1, 2, 4))]
    )
    utc_series = build_wip_series(log, tz="UTC")
    shifted = build_wip_series(log, tz="Etc/GMT-1")
    assert utc_series.events[0].date == date(2024, 1, 1)
    assert shifted.events[0].date == date(2024, 1, 2)
    assert len(shifted.events) == 1
    assert shifted.events[0].new == 1
    assert shifted.events[0].done == 1


@pytest.mark.parametrize("instants, zone", [
    ((datetime(9999, 12, 31, 10, tzinfo=timezone.utc), datetime(9999, 12, 31, 20, tzinfo=timezone.utc)),
     "Pacific/Kiritimati"),
    ((datetime(1, 1, 1, 1, tzinfo=timezone.utc), datetime(1, 1, 1, 20, tzinfo=timezone.utc)),
     "America/Los_Angeles"),
])
def test_an_instant_without_a_local_date_raises_naming_it(instants, zone):
    # each instant exists in UTC; its local date in the zone is past 9999-12-31 or before 0001-01-01
    log = make_log([("c1", "open", instants[0]), ("c1", "close", instants[1])])
    named = re.escape(f"instant {instants[0].isoformat()} has no local date in {zone}")
    with pytest.raises(ValueError, match=named):
        build_wip_series(log, tz=zone)


def test_wip_event_rejects_inconsistent_range():
    with pytest.raises(ValueError):
        wip_event(date(2024, 1, 1), open=5, high=4, low=0, close=3)
    with pytest.raises(ValueError):
        wip_event(date(2024, 1, 1), open=3, high=5, low=4, close=3)
    with pytest.raises(ValueError):
        wip_event(date(2024, 1, 1), open=3, high=5, low=0, close=3, new=-1)


def test_paper_style_day_is_representable():
    # close != open + new - done is allowed: real logs clip flows at series edges.
    ev = wip_event(date(2024, 3, 4), open=55, high=70, low=55, close=66, new=24, done=10,
                   started=21)
    assert ev.close == 66
    assert ev.open + ev.new - ev.done == 69


def test_wip_csv_round_trip(five_case_log):
    series = build_wip_series(five_case_log)
    text = export_wip_csv(series)
    header = text.splitlines()[0]
    assert header == ",".join(WIP_CSV_HEADER)
    back = load_wip_csv(io.StringIO(text))
    assert back.events == series.events


def test_hand_built_series_round_trips_through_wip_csv():
    series = WipSeries((WipEvent(date(2024, 1, 1), 5, 6, 4, 5),
                        WipEvent(date(2024, 1, 2), 5, 7, 3, 6, new=2, done=1, started=1)))
    text = export_wip_csv(series)
    assert text.splitlines()[1:] == ["2024-01-01,1,1,1,5,6,4,5,0,0,0",
                                     "2024-01-02,2,2,2,5,7,3,6,2,1,1"]
    assert load_wip_csv(io.StringIO(text)) == series


def test_loaded_series_reads_like_the_built_one():
    built = synthetic_series(40, seed=3)
    loaded = load_wip_csv(io.StringIO(export_wip_csv(built)))
    got, want = loaded.events, built.events
    assert len(got) == len(loaded) == 40
    for part in (slice(3, 9), slice(5, 2), slice(-7, None), slice(None, None, -3), slice(None)):
        assert type(got[part]) is tuple and got[part] == want[part]
    assert list(got) == list(want)
    for i in (0, 1, 17, 39, -1, -2, -40):
        assert got[i] == want[i]
    for i in (40, -41):
        with pytest.raises(IndexError):
            got[i]
    assert got == want and want == got and got == loaded.events
    assert got != want[:-1] and want[1:] != got
    assert loaded == built
    assert [loaded.days_through(want[0].date + timedelta(days=d)) for d in (-1, 0, 5, 39, 60)] == [
        0, 1, 6, 40, 40]


def test_loaded_series_with_a_dropped_day_is_not_contiguous():
    # Each date must be the day after the one before: a wip.csv with a day
    # missing fails naming the line and the day, and so does a series built
    # in memory without it.
    log = make_log([("c1", "open", _utc(2024, 1, 1, 9)), ("c1", "close", _utc(2024, 1, 5, 9))])
    events = build_wip_series(log).events
    lines = export_wip_csv(WipSeries(events)).splitlines(keepends=True)
    dropped = "".join(lines[:3] + lines[4:])  # no row for 2024-01-03
    with pytest.raises(ValueError, match=re.escape("<stream>, line 4: 2024-01-04: 2024-01-03 is missing")):
        load_wip_csv(io.StringIO(dropped))
    with pytest.raises(ValueError, match="2024-01-04: 2024-01-03 is missing"):
        WipSeries(events[:2] + events[3:])
    with pytest.raises(ValueError, match="2024-01-02: dates not strictly increasing"):
        WipSeries(events[:2] + events[1:])
    assert len(WipSeries(events[:1])) == 1 and len(WipSeries(())) == 0


def test_loading_a_wip_csv_checks_each_day_against_the_one_before_once(monkeypatch):
    n = 40
    text = export_wip_csv(synthetic_series(n, seed=3))
    calls = []

    def counted(previous, day):
        calls.append(day)
        _check_next(previous, day)

    monkeypatch.setattr(wipseries, "_check_next", counted)
    assert len(load_wip_csv(io.StringIO(text))) == n
    assert len(calls) == n - 1


def test_replay_peak_memory_per_case_is_a_few_int64_slots():
    # While the fold runs each case costs its dict entry, its id and three
    # int64 instants, about 130 bytes; the bound fails a fold that keeps a
    # list of aware datetimes per case, which peaks near 300.
    n = 20_000
    base = datetime(2024, 1, 1, tzinfo=timezone.utc)

    def stream():  # each case opens and closes; no event outlives its turn
        for i in range(n):
            opened = base + timedelta(minutes=2 * i)
            yield f"case-{i}", "open", opened, "start"
            yield f"case-{i}", "close", opened + timedelta(hours=5), "complete"

    _replay(iter([("c", "a", base, None)]), "UTC")  # the zone is loaded before tracing
    gc.collect()
    tracemalloc.start()
    try:
        events = stream()
        before = tracemalloc.get_traced_memory()[0]
        series, folded, cases = _replay(events, "UTC")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert (folded, cases) == (2 * n, n) and series.events[0].new > 0
    assert peak / n < 200


def test_randomized_logs_respect_invariants():
    rng = random.Random(4242)
    for trial in range(20):
        rows = []
        base = datetime(2024, 6, 1, tzinfo=timezone.utc)
        for i in range(rng.randint(1, 40)):
            start = base + timedelta(hours=rng.randint(0, 24 * 20))
            end = start + timedelta(hours=rng.randint(0, 24 * 10))
            rows.append((f"c{i}", "open", start))
            if end != start:
                rows.append((f"c{i}", "close", end))
        log = make_log(rows, name=f"rand{trial}.csv")
        series = build_wip_series(log)
        for prev, cur in zip(series.events, series.events[1:]):
            assert cur.open == prev.close
            assert cur.date == prev.date + timedelta(days=1)
        for ev in series.events:
            assert ev.close == ev.open + ev.new - ev.done
        net = sum(ev.new - ev.done for ev in series.events)
        assert net == series.events[-1].close - series.events[0].open
        day = rng.choice(series.events)
        instant = datetime.combine(day.date, time(rng.randint(0, 23)), tzinfo=timezone.utc)
        assert day.low <= active_count_at(log, instant) <= day.high


def _sweep_oracle(log, tz):
    """Each day's (date, open, high, low, close, new, done, started) by a plain
    sweep: each case opens at its first event, closes at its last and starts at
    its first event marked start in any letter case (else its first); the
    transitions are sorted by instant, the ones at one instant applied
    together, each taken on the first day not before its local day."""
    zone = ZoneInfo(tz)

    def day_of(ts):
        return ts.astimezone(zone).date()

    by_case = {}
    for ev in log.events:
        by_case.setdefault(ev.case_id, []).append(ev)
    transitions, new, done, started = [], Counter(), Counter(), Counter()
    for evts in by_case.values():
        opening, closing = evts[0], evts[-1]
        marked = [ev for ev in evts if (ev.lifecycle or "").lower() == "start"]
        transitions += [(opening.timestamp, day_of(opening.timestamp), 1),
                        (closing.timestamp, day_of(closing.timestamp), -1)]
        new[day_of(opening.timestamp)] += 1
        done[day_of(closing.timestamp)] += 1
        started[day_of((marked or evts)[0].timestamp)] += 1
    transitions.sort(key=lambda t: t[0])
    rows, running, ti = [], 0, 0
    day, last = day_of(log.events[0].timestamp), day_of(log.events[-1].timestamp)
    while day <= last:
        open_count = high = low = running
        while ti < len(transitions) and transitions[ti][1] <= day:
            instant = transitions[ti][0]
            while ti < len(transitions) and transitions[ti][0] == instant:
                running += transitions[ti][2]
                ti += 1
            high, low = max(high, running), min(low, running)
        rows.append((day, open_count, high, low, running, new[day], done[day], started[day]))
        day += timedelta(days=1)
    return rows


# Zones whose offset changes at midnight (America/Sao_Paulo in 2016), by half
# an hour (Australia/Lord_Howe), skip a whole day (Pacific/Apia in 2011) or
# step the local date back (America/Sitka in 1867). From the later Sitka
# bases, later events fall on the day before the first event's, and in the
# last one the latest event can fall before the days already counted.
ORACLE_ZONES = [("UTC", datetime(2024, 6, 1, tzinfo=timezone.utc), 240),
                ("America/Sao_Paulo", datetime(2016, 10, 10, tzinfo=timezone.utc), 240),
                ("Australia/Lord_Howe", datetime(2024, 3, 30, tzinfo=timezone.utc), 240),
                ("Pacific/Apia", datetime(2011, 12, 25, tzinfo=timezone.utc), 240),
                ("America/Sitka", datetime(1867, 10, 15, tzinfo=timezone.utc), 240),
                ("America/Sitka", datetime(1867, 10, 18, 9, 30, tzinfo=timezone.utc), 240),
                ("America/Sitka", datetime(1867, 10, 18, 8, tzinfo=timezone.utc), 20)]


@pytest.mark.parametrize("tz, base, hours", ORACLE_ZONES,
                         ids=[f"{z}-{b:%Y-%m-%dT%H}-{h}h" for z, b, h in ORACLE_ZONES])
def test_replay_matches_the_sweep_oracle(tz, base, hours):
    rng = random.Random(f"{tz} {base} {hours}")
    for trial in range(40):
        rows = []
        for c in range(rng.randint(1, 30)):
            at = base + timedelta(minutes=rng.randint(0, 60 * hours))
            for _ in range(rng.randint(1, 4)):
                rows.append((f"c{c}", rng.choice(["start", "START", "complete"]), at))
                at += timedelta(minutes=rng.choice([0, 30, 60 * rng.randint(0, hours // 5)]))
            if rng.random() < 0.1:  # a start-marked first event far before the others
                rows.append((f"c{c}", "start", base))
        log = parse_csv(io.StringIO(csv_document(rows)),
                        ColumnMapping("case", "activity", "ts", lifecycle="activity"),
                        source_name=f"oracle{trial}.csv")
        got = build_wip_series(log, tz=tz).events
        assert [(e.date, e.open, e.high, e.low, e.close, e.new, e.done, e.started)
                for e in got] == _sweep_oracle(log, tz), (tz, trial)
