"""Ingestion tests: XES and CSV parsing, skip-and-report, validation."""

from __future__ import annotations

import csv
import gc
import gzip
import io
import random
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from contextlib import closing
from datetime import date, datetime, timezone

import pytest

from wipcast.cli import main
from wipcast.eventlog import (
    ColumnMapping,
    CorruptGzipError,
    EmptyLogError,
    Event,
    EventLogError,
    MappingError,
    SourceMeta,
    XesParseError,
    _csv_events,
    _xes_events,
    export_csv,
    parse_csv,
    parse_timestamp,
    parse_xes,
    validate,
)

from conftest import CSV_MAPPING, NINE_EVENTS, csv_document, xes_document
from xes_oracle import oracle_parse_xes


def test_parse_timestamp_accepts_zulu_suffix():
    ts = parse_timestamp("2024-03-01T08:00:00Z")
    assert ts == datetime(2024, 3, 1, 8, tzinfo=timezone.utc)


def test_parse_timestamp_normalizes_offset_to_utc():
    ts = parse_timestamp("2024-03-01T10:00:00+02:00")
    assert ts == datetime(2024, 3, 1, 8, tzinfo=timezone.utc)
    assert ts.tzinfo == timezone.utc


def test_parse_timestamp_assumes_utc_for_naive():
    ts = parse_timestamp("2024-03-01T08:00:00")
    assert ts.tzinfo == timezone.utc


def test_parse_timestamp_custom_format():
    ts = parse_timestamp("01/03/2024 08:30", fmt="%d/%m/%Y %H:%M")
    assert ts == datetime(2024, 3, 1, 8, 30, tzinfo=timezone.utc)


def test_parse_xes_minimal_trace():
    doc = xes_document({"case1": [("A", datetime(2024, 1, 1, 9, tzinfo=timezone.utc)),
                                  ("B", datetime(2024, 1, 2, 9, tzinfo=timezone.utc))]})
    log = parse_xes(io.BytesIO(doc.encode()), source_name="mini.xes")
    assert len(log.events) == 2
    assert all(ev.case_id == "case1" for ev in log.events)
    assert log.events[0].activity == "A"
    assert log.source_meta.row_count == 2
    assert log.source_meta.skipped == 0


def test_parse_xes_empty_log_raises():
    with pytest.raises(EmptyLogError):
        parse_xes(io.BytesIO(b'<log xes.version="1.0"></log>'), source_name="empty.xes")


def test_parse_xes_orders_events_globally(nine_event_log):
    got = [(ev.case_id, ev.activity, ev.timestamp) for ev in nine_event_log.events]
    assert got == NINE_EVENTS


def test_parse_xes_malformed_xml_reports_position():
    broken = b'<log><trace><event></log>'
    with pytest.raises(XesParseError) as exc:
        parse_xes(io.BytesIO(broken), source_name="broken.xes")
    assert "line" in str(exc.value)


def test_parse_xes_skips_event_missing_activity():
    doc = (
        '<log><trace><string key="concept:name" value="c1"/>'
        '<event><date key="time:timestamp" value="2024-01-01T09:00:00Z"/></event>'
        '<event><string key="concept:name" value="A"/>'
        '<date key="time:timestamp" value="2024-01-01T10:00:00Z"/></event>'
        "</trace></log>"
    )
    log = parse_xes(io.BytesIO(doc.encode()), source_name="partial.xes")
    assert len(log.events) == 1
    assert log.source_meta.skipped == 1
    assert log.source_meta.diagnostics


def test_parse_xes_gzip_stream(nine_event_xes):
    packed = gzip.compress(nine_event_xes.encode())
    log = parse_xes(io.BytesIO(packed), source_name="nine.xes.gz")
    assert len(log.events) == 9


UNREAD_XES_ATTRIBUTES = (
    '<string key="org:resource" value="Ann"/><int key="priority" value="3"/>'
    '<float key="cost" value="1.5"/><boolean key="urgent" value="true"/>'
    '<date key="due" value="2024-02-01T00:00:00Z"/>'
)


def test_parse_xes_skips_attributes_it_does_not_read():
    doc = (
        '<log><trace><string key="concept:name" value="c1"/>{extra}'
        '<event><string key="concept:name" value="A"/>{extra}'
        '<date key="time:timestamp" value="2024-01-01T09:00:00Z"/>'
        '<string key="lifecycle:transition" value="complete"/>'
        "</event></trace></log>"
    )
    bare = parse_xes(doc.format(extra="").encode(), source_name="doc.xes")
    typed = parse_xes(doc.format(extra=UNREAD_XES_ATTRIBUTES).encode(), source_name="doc.xes")
    assert typed.events == bare.events
    assert typed.source_meta == bare.source_meta


def test_parse_csv_basic():
    text = csv_document(NINE_EVENTS[:3])
    log = parse_csv(io.StringIO(text), CSV_MAPPING, source_name="three.csv")
    assert len(log.events) == 3
    assert log.source_meta.format == "csv"


def test_parse_csv_skips_bad_timestamp_rows():
    rows = csv_document(NINE_EVENTS[:4]).splitlines()
    rows.insert(2, "caseX,Broken,not-a-date")
    log = parse_csv(io.StringIO("\n".join(rows)), CSV_MAPPING, source_name="bad.csv")
    assert len(log.events) == 4
    assert log.source_meta.skipped == 1
    assert any("not-a-date" in d or "row" in d.lower() for d in log.source_meta.diagnostics)


def test_parse_csv_missing_column_raises():
    text = "case,when\nc1,2024-01-01T00:00:00Z\n"
    with pytest.raises(MappingError):
        parse_csv(io.StringIO(text), CSV_MAPPING, source_name="cols.csv")


def test_parse_csv_all_rows_bad_raises_empty():
    text = "case,activity,ts\nc1,A,nope\nc2,B,also-nope\n"
    with pytest.raises(EmptyLogError):
        parse_csv(io.StringIO(text), CSV_MAPPING, source_name="allbad.csv")


def test_parse_csv_ignores_unmapped_columns():
    bare = parse_csv("case,activity,ts\nc1,A,2024-01-01T09:00:00Z\n", CSV_MAPPING, source_name="bare.csv")
    extra = parse_csv("case,activity,ts,team\nc1,A,2024-01-01T09:00:00Z,blue\n", CSV_MAPPING,
                      source_name="extra.csv")
    assert extra.events == bare.events


@pytest.mark.parametrize("lifecycle", [None, "lc"])
def test_parse_csv_cells_beyond_the_header_are_no_attribute(lifecycle):
    # A trailing comma on a data row gives it one more cell than the header.
    trailing = "case,activity,ts,lc,team\nc1,A,2024-01-01T09:00:00Z,complete,blue,\n"
    plain = "case,activity,ts,lc,team\nc1,A,2024-01-01T09:00:00Z,complete,blue\n"
    mapping = ColumnMapping("case", "activity", "ts", lifecycle)
    log = parse_csv(trailing, mapping, source_name="trailing.csv")
    assert log.events == parse_csv(plain, mapping, source_name="plain.csv").events
    assert log.events[0].activity == "A"


def test_csv_and_xes_fixtures_agree(nine_event_log, nine_event_csv_log):
    xes_rows = [(e.case_id, e.activity, e.timestamp) for e in nine_event_log.events]
    csv_rows = [(e.case_id, e.activity, e.timestamp) for e in nine_event_csv_log.events]
    assert xes_rows == csv_rows


def test_parse_is_deterministic(nine_event_xes):
    a = parse_xes(io.BytesIO(nine_event_xes.encode()), source_name="a.xes")
    b = parse_xes(io.BytesIO(nine_event_xes.encode()), source_name="b.xes")
    assert a.events == b.events


def test_events_sorted_by_timestamp_after_shuffle():
    rng = random.Random(7)
    rows = list(NINE_EVENTS)
    rng.shuffle(rows)
    log = parse_csv(io.StringIO(csv_document(rows)), CSV_MAPPING, source_name="shuf.csv")
    stamps = [ev.timestamp for ev in log.events]
    assert stamps == sorted(stamps)


def test_export_csv_round_trip(nine_event_log):
    mapping = ColumnMapping(case="case_id", activity="activity", timestamp="timestamp")
    text = export_csv(nine_event_log, mapping)
    back = parse_csv(io.StringIO(text), mapping, source_name="roundtrip.csv")
    orig = [(e.case_id, e.activity, e.timestamp) for e in nine_event_log.events]
    again = [(e.case_id, e.activity, e.timestamp) for e in back.events]
    assert orig == again
    # A log parsed from XES with typed attributes comes back as equal events, lifecycles included.
    doc = _xes_bytes(20).replace(b"<event>", b"<event>" + UNREAD_XES_ATTRIBUTES.encode())
    log = parse_xes(doc, source_name="typed.xes")
    back = parse_csv(export_csv(log), ColumnMapping("case", "activity", "timestamp", "lifecycle"),
                     source_name="typed.csv")
    assert back.events == log.events
    assert {e.lifecycle for e in back.events} == {"complete"}


def test_validate_counts_cases_and_span(nine_event_log):
    report = validate(nine_event_log)
    assert report.event_count == 9
    assert report.case_count == 3
    assert report.first_timestamp == datetime(2024, 3, 1, 8, tzinfo=timezone.utc)
    assert report.last_timestamp == datetime(2024, 3, 4, 10, tzinfo=timezone.utc)
    assert report.monotonic
    assert report.duplicate_count == 0


def test_validate_flags_duplicates():
    rows = list(NINE_EVENTS) + [NINE_EVENTS[0]]
    log = parse_csv(io.StringIO(csv_document(rows)), CSV_MAPPING, source_name="dup.csv")
    report = validate(log)
    assert report.duplicate_count == 1


# --- streaming XES parser against the tree-walking oracle ---

PARITY_DOCS = {
    "trace-name-after-events": """<log xes.version="1.0">
<trace>
  <event><string key="concept:name" value="A"/><date key="time:timestamp" value="2024-01-01T09:00:00Z"/></event>
  <event><string key="concept:name" value="B"/><date key="time:timestamp" value="2024-01-02T09:00:00+02:00"/></event>
  <string key="concept:name" value="late"/>
</trace>
<trace><string key="concept:name" value="early"/><string key="concept:name" value="renamed"/>
  <event><string key="concept:name" value="A"/><date key="time:timestamp" value="2024-01-01T08:00:00Z"/></event>
</trace>
</log>""",
    "trace-without-name": """<log>
<trace><event><string key="concept:name" value="A"/><date key="time:timestamp" value="2024-01-01T09:00:00Z"/></event>
  <event><string key="concept:name" value="B"/><date key="time:timestamp" value="2024-01-01T10:00:00Z"/></event></trace>
<trace><int key="concept:name" value="7"/><event><string key="concept:name" value="A"/>
  <date key="time:timestamp" value="2024-01-01T09:00:00Z"/></event></trace>
<trace><string key="concept:name" value=""/></trace>
<trace><string value="no key"/><string key="concept:name"/><event/></trace>
<trace><string key="concept:name" value="ok"/><event><string key="concept:name" value="A"/>
  <date key="time:timestamp" value="2024-01-03T09:00:00Z"/></event></trace>
</log>""",
    "nested-children": """<log>
<trace>
  <list key="tags"><string key="concept:name" value="from-list"/></list>
  <string key="concept:name" value="c1"/>
  <event>
    <string key="concept:name" value="A"/>
    <date key="time:timestamp" value="2024-01-01T09:00:00Z"/>
    <list key="items"><string key="concept:name" value="inner"/><values><int key="n" value="1"/></values></list>
    <container key="box"><date key="time:timestamp" value="1999-01-01T00:00:00Z"/></container>
    <string key="note" value="outer"><string key="concept:name" value="nested"/></string>
    <event><string key="concept:name" value="deeper"/><date key="time:timestamp" value="2024-02-01T00:00:00Z"/></event>
  </event>
  <trace><string key="concept:name" value="inner-trace"/>
    <event><string key="concept:name" value="X"/><date key="time:timestamp" value="2024-01-05T00:00:00Z"/></event>
  </trace>
  <event><string key="concept:name" value="B"/><date key="time:timestamp" value="2024-01-02T09:00:00Z"/>
    <int key="lifecycle:transition" value="3"/></event>
</trace>
</log>""",
    "log-level-elements": """<?xml version="1.0" encoding="UTF-8"?>
<log xes.version="1.0" xes.features="nested-attributes" openxes.version="1.0RC7">
<extension name="Concept" prefix="concept" uri="http://www.xes-standard.org/concept.xesext"/>
<global scope="trace"><string key="concept:name" value="__INVALID__"/></global>
<global scope="event"><string key="concept:name" value="__INVALID__"/>
  <date key="time:timestamp" value="1970-01-01T00:00:00.000+01:00"/></global>
<classifier name="Activity" keys="concept:name"/>
<string key="concept:name" value="the log"/>
<date key="time:timestamp" value="2024-01-01T00:00:00Z"/>
<event><string key="concept:name" value="orphan"/><date key="time:timestamp" value="2024-01-01T00:00:00Z"/></event>
<trace><string key="concept:name" value="c1"/>
  <event><string key="concept:name" value="A"/><date key="time:timestamp" value="2024-01-01T09:00:00.123+01:00"/>
    <string key="lifecycle:transition" value="complete"/><string key="org:resource" value="Ann"/></event>
</trace>
</log>""",
    "prefixed-namespace": """<x:log xmlns:x="http://www.xes-standard.org/" xmlns:y="urn:other">
<x:trace><x:string key="concept:name" value="c1"/><x:string x:key="ignored" value="v"/>
  <x:event><x:string key="concept:name" value="A"/><x:date key="time:timestamp" value="2024-01-01T09:00:00Z"/></x:event>
  <y:event><y:string key="concept:name" value="other-ns"/><y:date key="time:timestamp" value="2024-01-01T10:00:00Z"/></y:event>
</x:trace>
<trace xmlns="http://www.xes-standard.org/"><string key="concept:name" value="c2"/>
  <event><string key="concept:name" value="B"/><date key="time:timestamp" value="2024-01-01T11:00:00Z"/></event>
</trace>
</x:log>""",
    "comments-and-instructions": """<?xml version="1.0"?>
<!DOCTYPE log [<!ENTITY co "Company">]>
<!-- a comment before the root -->
<?xes-tool version="1"?>
<log><!-- inside the log -->
<trace><?pi inside the trace?><string key="concept:name" value="&co; case"/><!-- <event/> -->
  <event><![CDATA[ <event/> ]]><string key="concept:name" value="Prüfung &amp; 処理"/>
    <date key="time:timestamp" value="2024-01-01T09:00:00Z"/></event>
</trace>
</log>""",
    "unparseable-values": """<log>
<trace><string key="concept:name" value="c1"/>
  <event><string key="concept:name" value="A"/><date key="time:timestamp" value="yesterday"/></event>
  <event><int key="concept:name" value="12"/><date key="time:timestamp" value="2024-01-01T09:00:00Z"/></event>
  <event><string key="concept:name" value="B"/><date key="time:timestamp" value="2024-01-01T09:00:00Z"/>
    <int key="n" value="x1"/><float key="f" value="abc"/><boolean key="b" value="maybe"/>
    <date key="due" value="2024-13-01"/><int key="ok" value=" 5 "/><float key="g" value="1e3"/></event>
  <event><string key="concept:name" value="C"/><string key="time:timestamp" value="2024-01-01T09:00:00Z"/></event>
</trace>
</log>""",
}

INPUT_FORMS = {
    "bytes": lambda doc: doc,
    "file": io.BytesIO,
    "gzip-bytes": lambda doc: gzip.compress(doc),
    "gzip-file": lambda doc: io.BytesIO(gzip.compress(doc)),
}


def _parse_both(doc: bytes, form: str):
    got = parse_xes(INPUT_FORMS[form](doc), source_name="doc.xes")
    want = oracle_parse_xes(INPUT_FORMS[form](doc), source_name="doc.xes")
    return got, want


@pytest.mark.parametrize("form", sorted(INPUT_FORMS))
@pytest.mark.parametrize("name", sorted(PARITY_DOCS))
def test_parse_xes_matches_tree_oracle(name, form):
    got, want = _parse_both(PARITY_DOCS[name].encode("utf-8"), form)
    assert got.events == want.events
    assert got.source_meta == want.source_meta


def test_parity_documents_exercise_what_they_name():
    log = parse_xes(PARITY_DOCS["trace-name-after-events"].encode(), source_name="d")
    assert {ev.case_id for ev in log.events} == {"late", "renamed"}
    log = parse_xes(PARITY_DOCS["trace-without-name"].encode(), source_name="d")
    assert log.source_meta.diagnostics[:4] == (
        "trace without concept:name skipped (2 events)",
        "trace without concept:name skipped (1 events)",
        "trace without concept:name skipped (0 events)",
        "trace without concept:name skipped (1 events)",
    )
    log = parse_xes(PARITY_DOCS["nested-children"].encode(), source_name="d")
    assert [(ev.activity, ev.lifecycle) for ev in log.events] == [("A", None), ("B", "3")]
    log = parse_xes(PARITY_DOCS["prefixed-namespace"].encode(), source_name="d")
    assert [ev.activity for ev in log.events] == ["A", "other-ns", "B"]
    log = parse_xes(PARITY_DOCS["comments-and-instructions"].encode(), source_name="d")
    assert (log.events[0].case_id, log.events[0].activity) == ("Company case", "Prüfung & 処理")
    log = parse_xes(PARITY_DOCS["unparseable-values"].encode(), source_name="d")
    assert log.source_meta.skipped == 3


def test_parse_xes_matches_oracle_on_declared_encoding():
    doc = ('<?xml version="1.0" encoding="ISO-8859-1"?><log><trace>'
           '<string key="concept:name" value="café"/><event><string key="concept:name" value="Étape"/>'
           '<date key="time:timestamp" value="2024-01-01T09:00:00Z"/></event></trace></log>').encode("latin-1")
    got, want = _parse_both(doc, "file")
    assert got.events == want.events and got.events[0].case_id == "café"


def _note(case: int, event: int) -> str:
    """A string that no other event of :func:`_xes_bytes` carries."""
    return f"free text note {case}.{event} about this event"


def _xes_bytes(n_cases: int, events_per_case: int = 5, note: bool = False) -> bytes:
    parts = ['<?xml version="1.0" encoding="UTF-8"?>',
             '<log xes.version="1.0" xmlns="http://www.xes-standard.org/">']
    for c in range(n_cases):
        parts.append(f'<trace><string key="concept:name" value="case-{c}"/>')
        for e in range(events_per_case):
            parts.append(
                f'<event><string key="concept:name" value="Schritt-{e}-ü"/>'
                f'<string key="org:resource" value="r{c % 7}"/>'
                '<string key="lifecycle:transition" value="complete"/>'
                + (f'<string key="note" value="{_note(c, e)}"/>' if note else "") +
                f'<date key="time:timestamp" value="2024-01-{1 + (c + e) % 28:02d}T{c % 24:02d}:00:00Z"/></event>')
        parts.append("</trace>")
    parts.append("</log>")
    return "\n".join(parts).encode("utf-8")


def test_parse_xes_matches_oracle_across_read_chunks():
    doc = _xes_bytes(600)  # several read chunks, multi-byte characters on the boundaries
    for form in ("file", "gzip-file"):
        got, want = _parse_both(doc, form)
        assert len(got.events) == 3000
        assert got.events == want.events
        assert got.source_meta == want.source_meta


MALFORMED_DOCS = {
    "mismatched-tag": b"<log><trace><event></log>",
    "truncated": b"<log><trace>",
    "unbound-prefix": b"<x:log><x:trace/></x:log>",
    "junk-after-root": b"<log/><log/>",
    "empty": b"",
    "undefined-entity": b"<log>&undefined;</log>",
    "duplicate-attribute": b'<log><trace><string key="a" value="1" value="2"/></trace></log>',
    "multi-line": b'<log>\n<trace>\n  <string key="a" value="b"/>\n  <event>\n</trace>\n</log>',
    "late-error": _xes_bytes(400)[:-7] + b"</trace>",
}


@pytest.mark.parametrize("form", ["file", "gzip-bytes"])
@pytest.mark.parametrize("name", sorted(MALFORMED_DOCS))
def test_parse_xes_malformed_position_matches_oracle(name, form):
    doc = MALFORMED_DOCS[name]
    with pytest.raises(XesParseError) as got:
        parse_xes(INPUT_FORMS[form](doc), source_name="bad.xes")
    with pytest.raises(XesParseError) as want:
        oracle_parse_xes(INPUT_FORMS[form](doc), source_name="bad.xes")
    assert str(got.value) == str(want.value)
    assert "line" in str(got.value) and "column" in str(got.value)


def test_parse_xes_empty_log_matches_oracle():
    doc = PARITY_DOCS["trace-without-name"].split("<trace><string key=\"concept:name\" value=\"ok\"/>")[0] + "</log>"
    with pytest.raises(EmptyLogError) as got:
        parse_xes(doc.encode(), source_name="none.xes")
    with pytest.raises(EmptyLogError) as want:
        oracle_parse_xes(doc.encode(), source_name="none.xes")
    assert str(got.value) == str(want.value)


def _traced_peak(fn) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_parse_xes_peak_memory_is_below_half_of_an_element_tree():
    doc = _xes_bytes(1000)  # 5,000 events
    tree_peak = _traced_peak(lambda: ET.fromstring(doc))
    stream_peak = _traced_peak(lambda: parse_xes(doc, source_name="big.xes"))
    assert stream_peak < tree_peak / 2


def test_ingest_peak_memory_grows_with_cases_not_events(tmp_path, capsys):
    # The same 2,000 cases over the same 28 days, at 2 and at 20 events each.
    # While ingest held every parsed event, the second peaked at several times
    # the first.
    argv = {}
    for per_case in (2, 20):
        path = tmp_path / f"{per_case}.xes"
        path.write_bytes(_xes_bytes(2000, per_case))
        argv[per_case] = ["ingest", str(path), "--out", str(tmp_path / f"out{per_case}")]
    assert main(argv[2]) == 0  # imports, caches and the zone are loaded before tracing
    peaks = {per_case: _traced_peak(lambda: main(args)) for per_case, args in argv.items()}
    assert capsys.readouterr().out.count("ingested") == 3
    assert peaks[20] < 1.5 * peaks[2]


# --- event streams ---


def _stream(form: str, source):
    if form == "xes":
        return _xes_events(source, source_name="big.xes")
    return _csv_events(source, ColumnMapping("case", "activity", "timestamp", "lifecycle"),
                       source_name="big.csv")


@pytest.mark.parametrize("form", ["xes", "csv"])
def test_an_event_stream_yields_before_its_source_is_read(form):
    source = io.BytesIO(_log_source(form, 2000))
    with closing(_stream(form, source)) as events:
        case_id, activity, timestamp, lifecycle = next(events)
        assert case_id == "case-0"
        assert source.tell() < len(source.getvalue()) / 10


@pytest.mark.parametrize("form", ["xes", "csv"])
def test_an_event_stream_yields_the_log_in_file_order_and_returns_its_meta(form):
    if form == "xes":
        doc = (b'<log><trace><string key="concept:name" value="c2"/>'
               b'<event><string key="concept:name" value="B"/>'
               b'<date key="time:timestamp" value="2024-01-02T00:00:00Z"/></event>'
               b'<event><string key="concept:name" value="A"/></event></trace>'
               b'<trace><event><string key="concept:name" value="A"/>'
               b'<date key="time:timestamp" value="2024-01-01T00:00:00Z"/></event></trace>'
               b'<trace><string key="concept:name" value="c1"/>'
               b'<event><string key="concept:name" value="A"/><string key="lifecycle:transition" value="start"/>'
               b'<date key="time:timestamp" value="2024-01-01T00:00:00Z"/></event></trace></log>')
    else:
        doc = (b"case,activity,timestamp,lifecycle\nc2,B,2024-01-02T00:00:00Z,\nc2,A,soon,\n"
               b",A,2024-01-01T00:00:00Z,\nc1,A,2024-01-01T00:00:00Z,start\n")
    events = _stream(form, doc)
    streamed = []
    with pytest.raises(StopIteration) as done:
        while True:
            streamed.append(next(events))
    log = _parse(form, doc)
    assert all(type(fields) is tuple for fields in streamed)  # bare fields, not events
    streamed = [Event(*fields) for fields in streamed]
    assert log.events == tuple(sorted(streamed, key=lambda ev: ev.timestamp))
    assert streamed != list(log.events)  # the file is not in time order
    assert done.value.value == log.source_meta and log.source_meta.skipped > 0


# --- lean in-memory log ---


def _log_source(form: str, n_cases: int, note: bool = False) -> bytes:
    """The log of :func:`_xes_bytes` as XES, or exported to CSV."""
    doc = _xes_bytes(n_cases, note=note)
    return doc if form == "xes" else export_csv(parse_xes(doc)).encode("utf-8")


def _parse(form: str, source: bytes):
    if form == "xes":
        return parse_xes(source, source_name="big.xes")
    return parse_csv(source, ColumnMapping("case", "activity", "timestamp", "lifecycle"),
                     source_name="big.csv")


@pytest.mark.parametrize("form", ["xes", "csv"])
def test_parsed_log_holds_each_repeated_string_once(form):
    log = _parse(form, _log_source(form, 30))
    strings = [ev.activity for ev in log.events] + [ev.lifecycle for ev in log.events]
    first_copy: dict[str, str] = {}
    for s in strings:
        assert first_copy.setdefault(s, s) is s, f"{s!r} is held more than once"
    assert {"complete", "Schritt-2-ü"} <= set(first_copy)
    case_ids: dict[str, str] = {}
    for ev in log.events:
        assert case_ids.setdefault(ev.case_id, ev.case_id) is ev.case_id


def test_events_have_no_instance_dict(nine_event_log):
    assert not hasattr(nine_event_log.events[0], "__dict__")


def _retained_per_event(form: str, note: bool = False) -> float:
    """Bytes still allocated per event after parsing a 5,000-event log."""
    source = _log_source(form, 1000, note)
    gc.collect()
    tracemalloc.start()
    try:
        log = _parse(form, source)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return retained / len(log)


@pytest.mark.parametrize("form", ["xes", "csv"])
def test_parsed_log_retains_few_bytes_per_event(form):
    # On CPython 3.11 this log kept about 620 bytes per event from XES and 600
    # from CSV while every event held its own copy of each string and a
    # __dict__; with shared strings and slotted events, about 325; with no
    # attribute dict per event, about 135.
    assert _retained_per_event(form) < 200


@pytest.mark.parametrize("form", ["xes", "csv"])
def test_a_string_no_other_event_carries_costs_only_itself(form):
    # A note is an attribute no stage reads, so the parse keeps nothing of it
    # (and exporting to CSV drops it). With a fresh copy of the key "note" per
    # event, each note cost about 140 bytes on CPython 3.11; kept as a shared
    # key and its own value, 86; now nothing.
    extra = _retained_per_event(form, note=True) - _retained_per_event(form)
    assert extra < sys.getsizeof(_note(999, 4)) + 16


# --- gzip damage and stream handling ---


def _truncated_gzip(data: bytes) -> bytes:
    packed = gzip.compress(data)
    return packed[: len(packed) // 2]


def test_parse_xes_truncated_gzip_is_a_named_error():
    with pytest.raises(CorruptGzipError, match="cut.xes.gz"):
        parse_xes(io.BytesIO(_truncated_gzip(_xes_bytes(200))), source_name="cut.xes.gz")


def test_parse_csv_truncated_gzip_is_a_named_error():
    text = csv_document(NINE_EVENTS * 300)
    with pytest.raises(CorruptGzipError, match="cut.csv.gz"):
        parse_csv(io.BytesIO(_truncated_gzip(text.encode())), CSV_MAPPING, source_name="cut.csv.gz")


def test_parse_gzip_with_bad_checksum_is_a_named_error():
    packed = bytearray(gzip.compress(csv_document(NINE_EVENTS).encode()))
    packed[-8] ^= 0xFF  # CRC32 of the member
    with pytest.raises(CorruptGzipError, match="crc.csv.gz"):
        parse_csv(bytes(packed), CSV_MAPPING, source_name="crc.csv.gz")


@pytest.mark.parametrize("packed", [False, True])
def test_parse_csv_bytes_strip_bom_and_keep_crlf(packed):
    lines = csv_document(NINE_EVENTS).splitlines()
    lines[0] += ",note"
    lines[1] += ',"two\r\nlines"'
    data = ("\ufeff" + "\r\n".join(lines) + "\r\n").encode("utf-8")
    log = parse_csv(gzip.compress(data) if packed else data, CSV_MAPPING, source_name="bom.csv")
    # The quoted line break in the first row's note does not split the row.
    assert [(e.case_id, e.activity, e.timestamp) for e in log.events] == NINE_EVENTS


def _dict_reader_parse_csv(data: bytes, mapping: ColumnMapping, source_name: str):
    """The events and meta of ``data`` as read through ``csv.DictReader``, one
    dict per row: an oracle for :func:`parse_csv`, which reads cells by position."""
    reader = csv.DictReader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline=""))
    events, diagnostics = [], []
    for i, row in enumerate(reader, start=2):
        case_id, activity, raw_ts = ((row.get(col) or "").strip()
                                     for col in (mapping.case, mapping.activity, mapping.timestamp))
        if not case_id or not activity:
            diagnostics.append(f"row {i}: empty case or activity, skipped")
            continue
        try:
            ts = parse_timestamp(raw_ts, mapping.timestamp_format)
        except ValueError:
            diagnostics.append(f"row {i}: unparseable timestamp {raw_ts!r}, skipped")
            continue
        lifecycle = (row.get(mapping.lifecycle) or "").strip() if mapping.lifecycle else ""
        events.append(Event(case_id, activity, ts, lifecycle or None))
    seen = len(events) + len(diagnostics)
    meta = SourceMeta(source_name, "csv", seen, len(diagnostics), tuple(diagnostics))
    return tuple(sorted(events, key=lambda ev: ev.timestamp)), meta


# The header repeats "activity": its last column is the one read. Rows come
# short (cells missing, the last "activity" too), long (cells past the
# header), after blank lines, and with a quoted line break inside a cell.
DICT_READER_ROWS = [
    "case,activity,ts,activity,lc,note",
    "c1,first,2024-01-01T09:00:00Z,open,start,plain",
    "",
    "c2,first,2024-01-01T10:00:00+05:30,work,complete,\"two",
    'lines\"',
    "c1,first,2024-01-02T09:00:00,close",
    "c3,first,2024-01-02T11:00:00Z",
    "",
    "",
    "c4,first,2024-01-03T08:00:00Z,open,START,note,extra,more",
    "c4,first,soon,close,complete,note",
    ",first,2024-01-03T09:00:00Z,open,,",
    "c5,first,2024-01-04T09:00:00Z,,start",
    "c5",
    "c6,first,2024-01-05T09:00:00Z,\"a, quoted\ncell\",\" Start \"",
]


@pytest.mark.parametrize("bom", [False, True])
@pytest.mark.parametrize("end", ["\n", "\r\n"])
@pytest.mark.parametrize("lifecycle", [None, "lc"])
def test_parse_csv_reads_each_row_as_a_dict_reader_would(bom, end, lifecycle):
    text = end.join(DICT_READER_ROWS) + end
    data = (("\ufeff" if bom else "") + text).encode("utf-8")
    mapping = ColumnMapping("case", "activity", "ts", lifecycle)
    want_events, want_meta = _dict_reader_parse_csv(data, mapping, "rows.csv")
    log = parse_csv(data, mapping, source_name="rows.csv")
    assert log.events == want_events and log.source_meta == want_meta
    assert [ev.activity for ev in log.events] == ["work", "open", "close", "open", "a, quoted\ncell"]
    assert [ev.lifecycle for ev in log.events] == (
        ["complete", "start", None, "START", "Start"] if lifecycle else [None] * 5)
    assert want_meta.diagnostics == ("row 5: empty case or activity, skipped",
                                     "row 7: unparseable timestamp 'soon', skipped",
                                     "row 8: empty case or activity, skipped",
                                     "row 9: empty case or activity, skipped",
                                     "row 10: empty case or activity, skipped")


@pytest.mark.parametrize("packed", [False, True])
def test_parsers_leave_the_callers_stream_open(packed, nine_event_xes):
    def stream(text: str) -> io.BytesIO:
        data = text.encode()
        return io.BytesIO(gzip.compress(data) if packed else data)

    csv_buf = stream(csv_document(NINE_EVENTS))
    parse_csv(csv_buf, CSV_MAPPING, source_name="open.csv")
    xes_buf = stream(nine_event_xes)
    parse_xes(xes_buf, source_name="open.xes")
    gc.collect()  # a dropped text wrapper closes its buffer when collected
    assert not csv_buf.closed and not xes_buf.closed


# --- timestamps out of range and undecodable bytes ---


@pytest.mark.parametrize("text, fmt", [
    ("0001-01-01T00:00:00+01:00", None),
    ("9999-12-31T23:30:00-01:00", None),
    ("0001-01-01 00:00:00 +0100", "%Y-%m-%d %H:%M:%S %z"),
])
def test_parse_timestamp_out_of_range_in_utc_is_a_value_error(text, fmt):
    with pytest.raises(ValueError, match="out of range"):
        parse_timestamp(text, fmt)


def test_parse_csv_skips_a_timestamp_out_of_range_in_utc():
    rows = csv_document(NINE_EVENTS[:2]).splitlines()
    rows.insert(2, "caseX,Early,0001-01-01T00:00:00+01:00")
    log = parse_csv("\n".join(rows) + "\n", CSV_MAPPING, source_name="early.csv")
    assert [(e.case_id, e.activity, e.timestamp) for e in log.events] == NINE_EVENTS[:2]
    assert log.source_meta.skipped == 1
    assert log.source_meta.diagnostics == (
        "row 3: unparseable timestamp '0001-01-01T00:00:00+01:00', skipped",)


def test_parse_xes_keeps_a_timestamp_out_of_range_in_utc_as_a_string():
    doc = xes_document({"c1": [("A", datetime(2024, 1, 1, 9, tzinfo=timezone.utc))]})
    doc = doc.replace("</trace>", '<event><string key="concept:name" value="Early"/>'
                                  '<date key="time:timestamp" value="0001-01-01T00:00:00+01:00"/>'
                                  '<string key="org:resource" value="r1"/></event></trace>')
    log = parse_xes(doc.encode(), source_name="early.xes")
    assert [e.activity for e in log.events] == ["A"]
    assert log.source_meta.skipped == 1
    assert log.source_meta.diagnostics == (
        "case 'c1': event 'Early' without parseable time:timestamp skipped",)


def _latin1_csv(n_rows: int, bad_row: int, crlf: bool = False) -> bytes:
    """A CSV whose data row ``bad_row`` (counting the header as row 1) holds a Latin-1 byte."""
    end = b"\r\n" if crlf else b"\n"
    lines = [b"case,activity,ts,note"]
    for i in range(2, n_rows + 2):
        note = b"caf\xe9" if i == bad_row else b"cafe"
        lines.append(b"c%d,A,2024-01-01T00:00:00Z,%s" % (i, note))
    return end.join(lines) + end


@pytest.mark.parametrize("n_rows, bad_row, crlf", [(1, 2, False), (3000, 2500, True)])
@pytest.mark.parametrize("packed", [False, True])
def test_parse_csv_names_the_file_and_line_of_bytes_that_are_not_utf8(
        n_rows, bad_row, crlf, packed):
    data = _latin1_csv(n_rows, bad_row, crlf)
    with pytest.raises(EventLogError) as info:
        parse_csv(gzip.compress(data) if packed else data, CSV_MAPPING, source_name="latin.csv")
    assert str(info.value) == (f"latin.csv: line {bad_row} is not valid UTF-8 "
                               "(invalid continuation byte)")


@pytest.mark.parametrize("packed", [False, True])
def test_parse_csv_names_the_line_of_a_cell_over_the_field_size_limit(packed):
    limit = csv.field_size_limit()
    data = (b"case,activity,ts,note\n"
            b"c1,A,2024-01-01T00:00:00Z,short\n"
            b"c2,A,2024-01-01T00:00:00Z," + b"x" * (limit + 1) + b"\n")
    with pytest.raises(EventLogError) as info:  # from a column no mapping names
        parse_csv(gzip.compress(data) if packed else data, CSV_MAPPING, source_name="long.csv")
    assert str(info.value) == f"long.csv: line 3: field larger than field limit ({limit})"
    assert csv.field_size_limit() == limit  # the process-wide limit is left as it was
