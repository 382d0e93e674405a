"""Event log ingestion: XES (XML) and CSV parsers producing normalized events.

Each format has a private generator that yields each event's fields in file
order as the source is read, and returns the log's :class:`SourceMeta` when it
ends; the ``ingest`` stage replays that stream, picked by ``_event_stream``,
without holding it. :func:`parse_xes` and :func:`parse_csv` collect a stream
into an :class:`EventLog`, a stably timestamp-sorted sequence. Every event
carries a case id, an activity name, a UTC timestamp and an optional
lifecycle marker; no other attribute or column of the source is kept. The
sorted order is a property of parsed logs, not a precondition of any reader.
Individually malformed events are skipped with a diagnostic rather than
aborting the whole file, since real-world logs routinely contain sporadic
defects.

The streams yield bare ``(case_id, activity, timestamp, lifecycle)`` tuples
and keep no table of the strings they read. A collected log is held lean:
events are slotted, and :func:`parse_xes` and :func:`parse_csv` keep a table
of the strings they have stored, so every event carrying an equal string
shares one object. The table lives only as long as the collection, so strings
that never repeat cost nothing once it returns. :func:`validate` is a separate
summary that ingestion does not run.
"""

from __future__ import annotations

import csv
import gzip
import io
import logging
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import lru_cache
from typing import IO, Generator, Iterator
from xml.parsers import expat

logger = logging.getLogger(__name__)

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


@dataclass(frozen=True, slots=True)
class Event:
    """One process event: who (case), what (activity), when (UTC timestamp), and its lifecycle."""

    case_id: str
    activity: str
    timestamp: datetime
    lifecycle: str | None = None

    def __post_init__(self) -> None:
        if not self.case_id:
            raise ValueError("case_id must be non-empty")
        if not self.activity:
            raise ValueError("activity must be non-empty")
        if self.timestamp.tzinfo is None:
            raise ValueError("timestamp must be timezone-aware")


_Fields = tuple[str, str, datetime, str | None]  # case id, activity, timestamp, lifecycle


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
    """Immutable event sequence: sorted by timestamp when parsed, read in any order."""

    events: tuple[Event, ...]
    source_meta: SourceMeta

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True)
class ColumnMapping:
    """Names the CSV columns holding the core event fields.

    ``timestamp_format`` is a ``strptime`` pattern; ``None`` means ISO 8601.
    Columns not mentioned here are ignored.
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
# The only attribute keys parse_xes converts and keeps; it skips every other one unconverted.
_XES_KEYS = frozenset({"concept:name", "time:timestamp", "lifecycle:transition"})


@lru_cache(maxsize=256)
def _local_name(name: str) -> str:
    """The local part of an expat element name, ``uri}local`` or ``local``."""
    return name[name.rfind("}") + 1:]


def _emit_trace(trace_attrs: dict[str, object], event_attrs: list[dict[str, object]],
                events: list[_Fields], diagnostics: list[str]) -> None:
    """Turn one closed trace's collected attributes into events' fields or diagnostics."""
    case_id = trace_attrs.get("concept:name")
    if not isinstance(case_id, str) or not case_id:
        diagnostics.append(f"trace without concept:name skipped ({len(event_attrs)} events)")
        return
    for attrs in event_attrs:
        activity = attrs.get("concept:name")
        ts = attrs.get("time:timestamp")
        if not isinstance(activity, str) or not activity:
            diagnostics.append(f"case {case_id!r}: event without concept:name skipped")
            continue
        if not isinstance(ts, datetime):
            diagnostics.append(f"case {case_id!r}: event {activity!r} without parseable time:timestamp skipped")
            continue
        lifecycle = attrs.get("lifecycle:transition")
        if lifecycle is not None and not isinstance(lifecycle, str):
            lifecycle = str(lifecycle)
        events.append((case_id, activity, ts, lifecycle))


def _source_meta(source_name: str, fmt: str, seen: int, kept: int,
                 diagnostics: list[str]) -> SourceMeta:
    """Log a finished parse's diagnostics and account for it; EmptyLogError if it kept nothing."""
    for msg in diagnostics:
        logger.warning("%s: %s", source_name, msg)
    if not kept:
        raise EmptyLogError(f"{source_name}: no usable events")
    return SourceMeta(source_name, fmt, seen, seen - kept, tuple(diagnostics))


def _collected(stream: Generator[_Fields, None, SourceMeta]) -> EventLog:
    """The log of the events whose fields a parser's generator yields,
    timestamp-sorted, with the :class:`SourceMeta` it returns. Events carrying
    equal strings share one object."""
    share = {}.setdefault  # share(s, s): the first equal string stored
    kept: list[Event] = []
    while True:
        try:
            case_id, activity, ts, lifecycle = next(stream)
        except StopIteration as done:
            return EventLog(_sorted_events(kept), done.value)
        kept.append(Event(share(case_id, case_id), share(activity, activity), ts,
                          lifecycle and share(lifecycle, lifecycle)))


def _xes_events(stream: bytes | IO[bytes], source_name: str = "<xes>") -> Generator[_Fields, None, SourceMeta]:
    """Yield the fields of each event of an XES byte stream in file order, as
    :func:`parse_xes` reads them, and return its :class:`SourceMeta`.

    Each trace's events are made when the trace closes; those of the traces
    closed in one 64 KiB read are yielded after it, so no more of the log is
    held than one read's worth.
    """
    events: list[_Fields] = []
    diagnostics: list[str] = []
    seen = kept = 0
    depth = 0  # of the innermost open element; the root is 1
    trace_attrs: dict[str, object] | None = None  # None outside a trace
    trace_events: list[dict[str, object]] = []  # the open trace's events, as attributes
    event_attrs: dict[str, object] | None = None  # None outside an event

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
        key = attrs.get("key")
        if key not in _XES_KEYS:
            return
        convert = _XES_VALUE_PARSERS.get(local)
        value = attrs.get("value")
        if convert is None or value is None:
            return
        try:
            parsed = convert(value)
        except (ValueError, TypeError):
            parsed = value  # a value that does not parse stays a string
        out[key] = parsed

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
        while True:
            chunk = reader.read(_CHUNK_BYTES)
            try:
                parser.Parse(chunk, not chunk)  # an empty read ends the document
            except expat.ExpatError as exc:
                raise XesParseError(
                    f"{source_name}: malformed XML at line {exc.lineno}, column {exc.offset}: {exc}") from exc
            kept += len(events)
            yield from events
            events.clear()
            if not chunk:
                break
    return _source_meta(source_name, "xes", seen, kept, diagnostics)


def parse_xes(stream: bytes | IO[bytes], source_name: str = "<xes>") -> EventLog:
    """Parse an XES byte stream (plain or gzip) into an :class:`EventLog`.

    The document is parsed as it is read, so neither the decompressed text
    nor an element tree is ever held whole. Only the typed attributes
    (``string``, ``int``, ``float``, ``boolean``, ``date``) that are direct
    children of a ``trace`` under the root element, or of an ``event`` directly
    inside such a trace, are read; everything else (log-level attributes,
    extensions, globals, classifiers, nested lists and containers) is skipped.
    Of those, only ``concept:name``, ``time:timestamp`` and ``lifecycle:transition``
    are converted and kept; other keys are skipped unconverted.

    The case id comes from the trace-level ``concept:name``, wherever it sits
    in the trace; each event needs ``concept:name`` and ``time:timestamp``.
    Events missing either are skipped with a diagnostic. Raises
    :class:`XesParseError` on malformed XML, :class:`CorruptGzipError` on a
    damaged gzip stream and :class:`EmptyLogError` when no usable event
    remains.
    """
    return _collected(_xes_events(stream, source_name))


def _csv_events(
    stream: str | bytes | IO[str] | IO[bytes],
    mapping: ColumnMapping,
    source_name: str = "<csv>",
) -> Generator[_Fields, None, SourceMeta]:
    """Yield the fields of each event of CSV input row by row, as :func:`parse_csv`
    reads them, and return its :class:`SourceMeta`. Cells are read by position,
    as a ``csv.DictReader`` reads them by name: a repeated header name's last
    column, a short row's missing cells as empty, and no blank line as a row."""
    diagnostics: list[str] = []
    seen = kept = 0
    with _open_text(stream, source_name) as text:
        reader = csv.reader(text)
        try:
            column = {name: i for i, name in enumerate(next(reader, []))}
            required = [mapping.case, mapping.activity, mapping.timestamp]
            if mapping.lifecycle:
                required.append(mapping.lifecycle)
            missing = [col for col in required if col not in column]
            if missing:
                raise MappingError(f"{source_name}: mapped column(s) not in header: {', '.join(missing)}")

            case_at, activity_at, ts_at, *lifecycle_at = (column[col] for col in required)
            width = 1 + max(case_at, activity_at, ts_at, *lifecycle_at)
            for row in reader:
                if not row:
                    continue
                seen += 1
                if len(row) < width:
                    row += [""] * (width - len(row))
                case_id, activity, raw_ts = row[case_at].strip(), row[activity_at].strip(), row[ts_at].strip()
                if not case_id or not activity:
                    diagnostics.append(f"row {seen + 1}: empty case or activity, skipped")
                    continue
                try:
                    ts = parse_timestamp(raw_ts, mapping.timestamp_format)
                except ValueError:
                    diagnostics.append(f"row {seen + 1}: unparseable timestamp {raw_ts!r}, skipped")
                    continue
                kept += 1
                yield case_id, activity, ts, (row[lifecycle_at[0]].strip() or None) if lifecycle_at else None
        except UnicodeDecodeError as exc:
            # The text layer decodes ahead of the rows: lines the reader has
            # taken, plus the line breaks before the bad byte in this chunk.
            line = reader.line_num + exc.object.count(b"\n", 0, exc.start) + 1
            raise EventLogError(f"{source_name}: line {line} is not valid UTF-8 "
                                f"({exc.reason})") from exc
        except csv.Error as exc:  # a cell over the process-wide csv.field_size_limit(), say
            raise EventLogError(f"{source_name}: line {reader.line_num}: {exc}") from exc
    return _source_meta(source_name, "csv", seen, kept, diagnostics)


def parse_csv(
    stream: str | bytes | IO[str] | IO[bytes],
    mapping: ColumnMapping,
    source_name: str = "<csv>",
) -> EventLog:
    """Parse CSV input (header row required, UTF-8 if bytes) into an :class:`EventLog`.

    Bytes may be gzip; they are decompressed and decoded as rows are read,
    and bytes that are not UTF-8 raise :class:`EventLogError` naming the
    line. Only the mapped columns are read; any other column, and any cell
    beyond the header, is ignored. Rows with an unparseable timestamp or a
    blank case/activity are skipped with a diagnostic.
    """
    return _collected(_csv_events(stream, mapping, source_name))


def _event_stream(stream: bytes | IO[bytes], fmt: str, mapping: ColumnMapping,
                  source_name: str) -> Generator[_Fields, None, SourceMeta]:
    """The stream of event fields of an ``"xes"`` or ``"csv"`` source, as the ``ingest``
    stage reads it; ``mapping`` is read for CSV alone."""
    if fmt == "xes":
        return _xes_events(stream, source_name)
    return _csv_events(stream, mapping, source_name)


def export_csv(log: EventLog, mapping: ColumnMapping | None = None) -> str:
    """Render a log back to CSV text: the four event columns, one row per event.

    :func:`parse_csv` with the same mapping, lifecycle included, reads it back
    to equal events unless a field has surrounding whitespace (cells are
    stripped) or a lifecycle is empty (an empty cell reads as none).
    """
    mapping = mapping or ColumnMapping("case", "activity", "timestamp", "lifecycle")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([mapping.case, mapping.activity, mapping.timestamp, mapping.lifecycle or "lifecycle"])
    for ev in log.events:
        writer.writerow([ev.case_id, ev.activity, ev.timestamp.isoformat(), ev.lifecycle or ""])
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
