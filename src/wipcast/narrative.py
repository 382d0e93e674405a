"""Deterministic natural-language stories describing daily WiP state.

A query story narrates one day (or one rolling window) of WiP movement; a
contextual story is the same sentence extended with the realized next-day
close, and is what gets indexed in process memory. Rendering is pure string
templating so that identical inputs always produce identical bytes; a regex
extractor recovers the numbers from any rendered story, which both tests the
templates and gives offline components a way to read stories without a
language model.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from datetime import date as Date
from typing import IO, Iterable, Sequence

from .wipseries import WipEvent

KINDS = ("query", "contextual")
GRANULARITIES = ("daily", "weekday", "windowed")

WEEKDAY_NAMES = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday")

_DAILY_TEMPLATE = (
    "The WiP items opened at {open}, reached a high of {high} and a low of {low}, "
    "before closing at {close}, with {done} items completed, {new} new items added, "
    "and {started} items started."
)
_WINDOWED_TEMPLATE = (
    "Over the past {days} days, WiP opened at {open}, ranged between a low of {low} "
    "and a high of {high}, and closed at {close}, with {done} items completed, "
    "{new} new items added, and {started} items started."
)
_TARGET_SUFFIX = ", while the next WiP was expected to remain at {target}."


@dataclass(frozen=True)
class Story:
    """A rendered narrative. ``target`` is present exactly for contextual stories."""

    text: str
    kind: str
    granularity: str
    date: Date
    target: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown story kind {self.kind!r}")
        if self.granularity not in GRANULARITIES:
            raise ValueError(f"unknown granularity {self.granularity!r}")
        if (self.kind == "contextual") != (self.target is not None):
            raise ValueError("target must be present iff the story is contextual")


def _fmt(value: float) -> str:
    """Integers render bare (matching the published examples); other values keep their decimals."""
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def render_query_story(ev: WipEvent, granularity: str = "daily") -> Story:
    """One-day query story; weekday granularity prefixes the weekday name."""
    if granularity not in ("daily", "weekday"):
        raise ValueError(f"per-day stories support daily or weekday granularity, not {granularity!r}")
    text = _DAILY_TEMPLATE.format(
        open=ev.open, high=ev.high, low=ev.low, close=ev.close,
        done=ev.done, new=ev.new, started=ev.started,
    )
    if granularity == "weekday":
        weekday = WEEKDAY_NAMES[ev.day_of_week - 1]
        text = f"On {weekday}, the" + text[len("The"):]
    return Story(text=text, kind="query", granularity=granularity, date=ev.date)


def render_contextual_story(ev: WipEvent, next_close: float, granularity: str = "daily") -> Story:
    """Query story extended with the realized next-day close."""
    query = render_query_story(ev, granularity)
    text = query.text[:-1] + _TARGET_SUFFIX.format(target=_fmt(next_close))
    return Story(text=text, kind="contextual", granularity=granularity, date=ev.date, target=float(next_close))


def render_windowed_story(window: Sequence[WipEvent], next_close: float | None = None) -> Story:
    """Aggregate a rolling window into one sentence (dated by the window's last day).

    The aggregation is OHLC-style: the first day's open, the window's extreme
    low and high, the last day's close, and summed completion counts.
    """
    if not window:
        raise ValueError("window must be non-empty")
    text = _WINDOWED_TEMPLATE.format(
        days=len(window),
        open=window[0].open,
        low=min(ev.low for ev in window),
        high=max(ev.high for ev in window),
        close=window[-1].close,
        done=sum(ev.done for ev in window),
        new=sum(ev.new for ev in window),
        started=sum(ev.started for ev in window),
    )
    if next_close is None:
        return Story(text=text, kind="query", granularity="windowed", date=window[-1].date)
    text = text[:-1] + _TARGET_SUFFIX.format(target=_fmt(next_close))
    return Story(text=text, kind="contextual", granularity="windowed", date=window[-1].date, target=float(next_close))


@dataclass(frozen=True)
class StoryNumbers:
    """Numbers recovered from a rendered story by :func:`parse_story`."""

    open: int
    high: int
    low: int
    close: int
    done: int
    new: int
    started: int
    target: float | None = None
    window_days: int | None = None


_DAILY_RE = re.compile(
    r"opened at (\d+), reached a high of (\d+) and a low of (\d+), "
    r"before closing at (\d+), with (\d+) items completed, (\d+) new items added, "
    r"and (\d+) items started"
)
_WINDOWED_RE = re.compile(
    r"Over the past (\d+) days, WiP opened at (\d+), ranged between a low of (\d+) "
    r"and a high of (\d+), and closed at (\d+), with (\d+) items completed, "
    r"(\d+) new items added, and (\d+) items started"
)
_TARGET_RE = re.compile(r", while the next WiP was expected to remain at (-?\d+(?:\.\d+)?)\.$")
_NUMBER_RE = re.compile(r"-?\d+(?:\.\d+)?")


def parse_story(text: str) -> StoryNumbers:
    """Recover the source numbers from a rendered story (round-trip inverse of rendering)."""
    target_match = _TARGET_RE.search(text)
    target = float(target_match.group(1)) if target_match else None

    windowed = _WINDOWED_RE.search(text)
    if windowed:
        days, o, low, high, c, done, new, started = (int(g) for g in windowed.groups())
        return StoryNumbers(o, high, low, c, done, new, started, target, window_days=days)
    daily = _DAILY_RE.search(text)
    if daily:
        o, high, low, c, done, new, started = (int(g) for g in daily.groups())
        return StoryNumbers(o, high, low, c, done, new, started, target)
    raise ValueError(f"text does not match any story template: {text[:80]!r}")


def story_numbers(text: str) -> list[float]:
    """All numbers appearing in ``text``, in order. Works on arbitrary text."""
    return list(map(float, _NUMBER_RE.findall(text)))


def story_to_dict(story: Story) -> dict:
    return {
        "date": story.date.isoformat(),
        "kind": story.kind,
        "granularity": story.granularity,
        "text": story.text,
        "target": story.target,
    }


def _check_number(name: str, value):
    """``value`` if it is an int or a float, not a bool; TypeError otherwise."""
    if type(value) not in (int, float):  # a bool is an int too; a string is not parsed
        raise TypeError(f"{name} must be a number, got {value!r}")
    return value


def story_from_dict(obj: dict) -> Story:
    story = Story(
        text=obj["text"],
        kind=obj["kind"],
        granularity=obj["granularity"],
        date=Date.fromisoformat(obj["date"]),
        target=obj.get("target"),
    )
    if story.target is not None:
        _check_number("target", story.target)
    return story


def write_stories_jsonl(stories: Iterable[Story], fp: IO[str]) -> int:
    """Write stories as JSON lines; returns the number written."""
    count = 0
    for story in stories:
        fp.write(json.dumps(story_to_dict(story), sort_keys=True) + "\n")
        count += 1
    return count


def parse_jsonl(fp: IO[str], parse, what: str) -> list:
    """``parse`` of each JSON line of ``fp``; a bad line raises ValueError naming file and line."""
    out = []
    for lineno, line in enumerate(fp, 1):
        if not line.strip():
            continue
        try:
            out.append(parse(json.loads(line)))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"{getattr(fp, 'name', '<stream>')}, line {lineno}: not {what} "
                             f"({type(exc).__name__}: {exc})") from exc
    return out


def read_stories_jsonl(fp: IO[str]) -> list[Story]:
    return parse_jsonl(fp, story_from_dict, "a story record")
