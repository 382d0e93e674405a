"""Reference XES parser for the parity tests: build the whole element tree, then walk it.

This is the tree-walking parser that ``wipcast.eventlog.parse_xes`` replaced
with a streaming one. It is kept here, outside the package, as an independent
oracle: on any document the streaming parser must return the same events,
diagnostics and counts, and raise the same errors.
"""

from __future__ import annotations

import gzip
import xml.etree.ElementTree as ET
from datetime import datetime
from typing import IO

from wipcast.eventlog import (
    EmptyLogError,
    Event,
    EventLog,
    SourceMeta,
    XesParseError,
    parse_timestamp,
)

_VALUE_PARSERS = {
    "string": lambda v: v,
    "int": int,
    "float": float,
    "boolean": lambda v: v.strip().lower() == "true",
    "date": parse_timestamp,
}


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _attributes(element: ET.Element) -> dict[str, object]:
    out: dict[str, object] = {}
    for child in element:
        parser = _VALUE_PARSERS.get(_local(child.tag))
        if parser is None:
            continue
        key = child.get("key")
        value = child.get("value")
        if key is None or value is None:
            continue
        try:
            out[key] = parser(value)
        except (ValueError, TypeError):
            out[key] = value
    return out


def oracle_parse_xes(stream: bytes | IO[bytes], source_name: str = "<xes>") -> EventLog:
    data = stream if isinstance(stream, bytes) else stream.read()
    if data[:2] == b"\x1f\x8b":
        data = gzip.decompress(data)
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        line, col = exc.position
        raise XesParseError(f"{source_name}: malformed XML at line {line}, column {col}: {exc}") from exc

    events: list[Event] = []
    diagnostics: list[str] = []
    seen = 0
    for trace in root:
        if _local(trace.tag) != "trace":
            continue
        trace_attrs = _attributes(trace)
        case_id = trace_attrs.get("concept:name")
        if not isinstance(case_id, str) or not case_id:
            n = sum(1 for el in trace if _local(el.tag) == "event")
            seen += n
            diagnostics.append(f"trace without concept:name skipped ({n} events)")
            continue
        for el in trace:
            if _local(el.tag) != "event":
                continue
            seen += 1
            attrs = _attributes(el)
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
            events.append(Event(case_id, activity, ts, lifecycle))

    if not events:
        raise EmptyLogError(f"{source_name}: no usable events")
    meta = SourceMeta(source_name, "xes", seen, seen - len(events), tuple(diagnostics))
    return EventLog(tuple(sorted(events, key=lambda ev: ev.timestamp)), meta)
