"""Event log ingestion: XES (XML) and CSV parsers producing a normalized event sequence.

Both parsers emit the same structure: a timestamp-sorted sequence of events, each
carrying a case id, an activity name, a UTC timestamp, an optional lifecycle
marker, and any further attributes found in the source. Individually malformed
events are skipped with a diagnostic rather than aborting the whole file, since
real-world logs routinely contain sporadic defects.
"""

from __future__ import annotations

import csv
import gzip
import io
import logging
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import lru_cache
from typing import IO, Iterator, Union
from xml.parsers import expat

logger = logging.getLogger(__name__)

Scalar = Union[str, int, float, bool, datetime]

_GZIP_MAGIC = b"\x1f\x8b"
_CHUNK_BYTES = 1 << 16


class EventLogError(Exception):
    """Base class for ingestion failures."""


class XesParseError(EventLogError):
    """Structurally malformed XES (bad XML). Carries line/column in the message."""


class CorruptGzipError(EventLogError):
    """A gzip source is truncated or damaged. Names the source in the message."""


class EmptyLogError(EventLogError):
    """The source contained no usable events."""


class MappingError(EventLogError):
    """The CSV column mapping does not match the file header."""


@dataclass(frozen=True)
class Event:
    """One process event: who (case), what (activity), when (UTC timestamp)."""

    case_id: str
    activity: str
    timestamp: datetime
    lifecycle: str | None = None
    attributes: dict[str, Scalar] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.case_id:
            raise ValueError("case_id must be non-empty")
        if not self.activity:
            raise ValueError("activity must be non-empty")
        if self.timestamp.tzinfo is None:
            raise ValueError("timestamp must be timezone-aware")


@dataclass(frozen=True)
class SourceMeta:
    """Provenance of a parsed log, plus skip accounting."""

    name: str
    format: str
    row_count: int
    skipped: int = 0
    diagnostics: tuple[str, ...] = ()


@dataclass(frozen=True)
class EventLog:
    """Immutable, timestamp-sorted event sequence."""

    events: tuple[Event, ...]
    source_meta: SourceMeta

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True)
class ColumnMapping:
    """Names the CSV columns holding the core event fields.

    ``timestamp_format`` is a ``strptime`` pattern; ``None`` means ISO 8601.
    Columns not mentioned here are ingested as string attributes.
    """

    case: str
    activity: str
    timestamp: str
    lifecycle: str | None = None
    timestamp_format: str | None = None


@dataclass(frozen=True)
class ValidationReport:
    event_count: int
    case_count: int
    first_timestamp: datetime | None
    last_timestamp: datetime | None
    monotonic: bool
    duplicate_count: int


def parse_timestamp(text: str, fmt: str | None = None) -> datetime:
    """Parse a timestamp string to an aware UTC datetime.

    Accepts ISO 8601 (with ``Z`` or numeric offsets) when ``fmt`` is None,
    otherwise uses the given ``strptime`` format. Naive values are taken as UTC.
    Raises ValueError for text that does not parse, or whose UTC value falls
    outside the years 1-9999.
    """
    text = text.strip()
    if fmt is not None:
        parsed = datetime.strptime(text, fmt)
    else:
        iso = text.replace("Z", "+00:00") if text.endswith("Z") else text
        parsed = datetime.fromisoformat(iso)
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    try:
        return parsed.astimezone(timezone.utc)
    except OverflowError as exc:
        raise ValueError(f"timestamp {text!r} is out of range in UTC") from exc


def _has_gzip_magic(stream: IO[bytes]) -> bool:
    if hasattr(stream, "peek"):
        return stream.peek(2)[:2] == _GZIP_MAGIC
    start = stream.tell()
    magic = stream.read(2)
    stream.seek(start)
    return magic == _GZIP_MAGIC


@contextmanager
def _open_binary(stream: bytes | IO[bytes], source_name: str) -> Iterator[IO[bytes]]:
    """Yield a reader over ``stream`` that gunzips as it reads if the data is gzip.

    A file object must support ``peek`` or ``seek`` so the gzip magic can be
    checked without consuming it. It is left open.
    """
    if isinstance(stream, bytes):
        stream = io.BytesIO(stream)
    if not _has_gzip_magic(stream):
        yield stream
        return
    with gzip.GzipFile(fileobj=stream, mode="rb") as reader:
        try:
            yield reader
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise CorruptGzipError(f"{source_name}: truncated or corrupt gzip data: {exc}") from exc


@contextmanager
def _open_text(stream: str | bytes | IO[str] | IO[bytes], source_name: str) -> Iterator[IO[str]]:
    """Yield a text reader over ``stream``; bytes are decoded as UTF-8 as they are read."""
    if isinstance(stream, str):
        yield io.StringIO(stream)
    elif isinstance(stream, io.TextIOBase):
        yield stream
    else:
        with _open_binary(stream, source_name) as binary:
            # newline="" hands line endings to the csv module, which handles CRLF.
            text = io.TextIOWrapper(binary, encoding="utf-8-sig", newline="")
            try:
                yield text
            finally:
                text.detach()  # closing the wrapper would close the caller's stream


def _sorted_events(events: list[Event]) -> tuple[Event, ...]:
    # Stable sort: equal timestamps keep input order (then case_id can never
    # differ within one input position, so the documented tie rule reduces to this).
    return tuple(sorted(events, key=lambda ev: ev.timestamp))


_XES_VALUE_PARSERS = {
    "string": lambda v: v,
    "int": int,
    "float": float,
    "boolean": lambda v: v.strip().lower() == "true",
    "date": parse_timestamp,
}


@lru_cache(maxsize=256)
def _local_name(name: str) -> str:
    """The local part of an expat element name, ``uri}local`` or ``local``."""
    return name[name.rfind("}") + 1:]


def _emit_trace(trace_attrs: dict[str, Scalar], event_attrs: list[dict[str, Scalar]],
                events: list[Event], diagnostics: list[str]) -> None:
    """Turn one closed trace's collected attributes into events or diagnostics."""
    case_id = trace_attrs.get("concept:name")
    if not isinstance(case_id, str) or not case_id:
        diagnostics.append(f"trace without concept:name skipped ({len(event_attrs)} events)")
        return
    for attrs in event_attrs:
        activity = attrs.pop("concept:name", None)
        ts = attrs.pop("time:timestamp", None)
        if not isinstance(activity, str) or not activity:
            diagnostics.append(f"case {case_id!r}: event without concept:name skipped")
            continue
        if not isinstance(ts, datetime):
            diagnostics.append(f"case {case_id!r}: event {activity!r} without parseable time:timestamp skipped")
            continue
        lifecycle = attrs.pop("lifecycle:transition", None)
        if lifecycle is not None and not isinstance(lifecycle, str):
            lifecycle = str(lifecycle)
        events.append(Event(case_id, activity, ts, lifecycle, attrs))


def parse_xes(stream: bytes | IO[bytes], source_name: str = "<xes>") -> EventLog:
    """Parse an XES byte stream (plain or gzip) into an :class:`EventLog`.

    The document is parsed as it is read, so neither the decompressed text
    nor an element tree is ever held whole. Only the typed attributes
    (``string``, ``int``, ``float``, ``boolean``, ``date``) that are direct
    children of a ``trace`` under the root element, or of an ``event`` directly
    inside such a trace, are read; everything else (log-level attributes,
    extensions, globals, classifiers, nested lists and containers) is skipped.

    The case id comes from the trace-level ``concept:name``, wherever it sits
    in the trace; each event needs ``concept:name`` and ``time:timestamp``.
    Events missing either are skipped with a diagnostic. Raises
    :class:`XesParseError` on malformed XML, :class:`CorruptGzipError` on a
    damaged gzip stream and :class:`EmptyLogError` when no usable event
    remains.
    """
    events: list[Event] = []
    diagnostics: list[str] = []
    seen = 0
    depth = 0  # of the innermost open element; the root is 1
    trace_attrs: dict[str, Scalar] | None = None  # None outside a trace
    trace_events: list[dict[str, Scalar]] = []  # the open trace's events, as attributes
    event_attrs: dict[str, Scalar] | None = None  # None outside an event

    def start(name: str, attrs: dict[str, str]) -> None:
        nonlocal depth, trace_attrs, trace_events, event_attrs
        depth += 1
        if depth == 2:
            event_attrs = None
            trace_attrs = {} if _local_name(name) == "trace" else None
            trace_events = []
            return
        if depth == 3 and trace_attrs is not None:
            local = _local_name(name)
            if local == "event":
                event_attrs = {}
                trace_events.append(event_attrs)
                return
            event_attrs = None
            out = trace_attrs
        elif depth == 4 and event_attrs is not None:
            local = _local_name(name)
            out = event_attrs
        else:
            return
        convert = _XES_VALUE_PARSERS.get(local)
        key = attrs.get("key")
        value = attrs.get("value")
        if convert is None or key is None or value is None:
            return
        try:
            out[key] = convert(value)
        except (ValueError, TypeError):
            out[key] = value  # a value that does not parse stays a string

    def end(name: str) -> None:
        nonlocal depth, seen
        if depth == 2 and trace_attrs is not None:
            seen += len(trace_events)
            _emit_trace(trace_attrs, trace_events, events, diagnostics)
        depth -= 1

    parser = expat.ParserCreate(namespace_separator="}")
    parser.StartElementHandler = start
    parser.EndElementHandler = end
    with _open_binary(stream, source_name) as reader:
        try:
            while chunk := reader.read(_CHUNK_BYTES):
                parser.Parse(chunk, False)
            parser.Parse(b"", True)
        except expat.ExpatError as exc:
            raise XesParseError(
                f"{source_name}: malformed XML at line {exc.lineno}, column {exc.offset}: {exc}") from exc

    for msg in diagnostics:
        logger.warning("%s: %s", source_name, msg)
    if not events:
        raise EmptyLogError(f"{source_name}: no usable events")
    meta = SourceMeta(source_name, "xes", seen, seen - len(events), tuple(diagnostics))
    return EventLog(_sorted_events(events), meta)


def parse_csv(
    stream: str | bytes | IO[str] | IO[bytes],
    mapping: ColumnMapping,
    source_name: str = "<csv>",
) -> EventLog:
    """Parse CSV input (header row required, UTF-8 if bytes) into an :class:`EventLog`.

    Bytes may be gzip; they are decompressed and decoded as rows are read,
    and bytes that are not UTF-8 raise :class:`EventLogError` naming the
    line. Unmapped columns become string attributes; empty cells are dropped. Rows
    with an unparseable timestamp or a blank case/activity are skipped with a
    diagnostic.
    """
    with _open_text(stream, source_name) as text:
        reader = csv.DictReader(text)
        try:
            header = reader.fieldnames or []
            required = [mapping.case, mapping.activity, mapping.timestamp]
            if mapping.lifecycle:
                required.append(mapping.lifecycle)
            missing = [col for col in required if col not in header]
            if missing:
                raise MappingError(f"{source_name}: mapped column(s) not in header: {', '.join(missing)}")

            core = {mapping.case, mapping.activity, mapping.timestamp, mapping.lifecycle}
            events: list[Event] = []
            diagnostics: list[str] = []
            seen = 0
            for i, row in enumerate(reader, start=2):
                seen += 1
                case_id = (row.get(mapping.case) or "").strip()
                activity = (row.get(mapping.activity) or "").strip()
                raw_ts = (row.get(mapping.timestamp) or "").strip()
                if not case_id or not activity:
                    diagnostics.append(f"row {i}: empty case or activity, skipped")
                    continue
                try:
                    ts = parse_timestamp(raw_ts, mapping.timestamp_format)
                except ValueError:
                    diagnostics.append(f"row {i}: unparseable timestamp {raw_ts!r}, skipped")
                    continue
                lifecycle = None
                if mapping.lifecycle:
                    lifecycle = (row.get(mapping.lifecycle) or "").strip() or None
                attrs: dict[str, Scalar] = {
                    k: v for k, v in row.items() if k not in core and v is not None and v != ""
                }
                events.append(Event(case_id, activity, ts, lifecycle, attrs))
        except UnicodeDecodeError as exc:
            # The text layer decodes ahead of the rows: lines the reader has
            # taken, plus the line breaks before the bad byte in this chunk.
            line = reader.line_num + exc.object.count(b"\n", 0, exc.start) + 1
            raise EventLogError(f"{source_name}: line {line} is not valid UTF-8 "
                                f"({exc.reason})") from exc

    for msg in diagnostics:
        logger.warning("%s: %s", source_name, msg)
    if not events:
        raise EmptyLogError(f"{source_name}: no usable events")
    meta = SourceMeta(source_name, "csv", seen, seen - len(events), tuple(diagnostics))
    return EventLog(_sorted_events(events), meta)


def export_csv(log: EventLog, mapping: ColumnMapping | None = None) -> str:
    """Render a log back to CSV text that :func:`parse_csv` round-trips.

    Attribute keys become extra columns (union over all events, sorted).
    Typed attribute values are stringified, so only logs with string attributes
    round-trip to equality.
    """
    mapping = mapping or ColumnMapping("case", "activity", "timestamp", "lifecycle")
    extra = sorted({k for ev in log.events for k in ev.attributes})
    lifecycle_col = mapping.lifecycle or "lifecycle"
    header = [mapping.case, mapping.activity, mapping.timestamp, lifecycle_col, *extra]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for ev in log.events:
        row = [ev.case_id, ev.activity, ev.timestamp.isoformat(), ev.lifecycle or ""]
        for key in extra:
            value = ev.attributes.get(key, "")
            row.append(value.isoformat() if isinstance(value, datetime) else str(value) if value != "" else "")
        writer.writerow(row)
    return buf.getvalue()


def validate(log: EventLog) -> ValidationReport:
    """Summarize a log: counts, span, sortedness, and duplicate events."""
    events = log.events
    if not events:
        return ValidationReport(0, 0, None, None, True, 0)
    monotonic = all(a.timestamp <= b.timestamp for a, b in zip(events, events[1:]))
    keys = [(ev.case_id, ev.activity, ev.timestamp) for ev in events]
    duplicates = len(keys) - len(set(keys))
    return ValidationReport(
        event_count=len(events),
        case_count=len(set(ev.case_id for ev in events)),
        first_timestamp=events[0].timestamp,
        last_timestamp=events[-1].timestamp,
        monotonic=monotonic,
        duplicate_count=duplicates,
    )
