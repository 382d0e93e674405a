"""Story rendering tests.  The daily sentences are frozen byte-for-byte."""

from __future__ import annotations

import io
import json
import random
from datetime import date, timedelta

import pytest

from wipcast.narrative import (
    Story,
    parse_story,
    read_stories_jsonl,
    render_contextual_story,
    render_query_story,
    render_windowed_story,
    story_from_dict,
    story_numbers,
    story_to_dict,
    write_stories_jsonl,
)
from wipcast.wipseries import wip_event

from conftest import random_wip_event

MONDAY_QUERY = (
    "The WiP items opened at 55, reached a high of 70 and a low of 55, "
    "before closing at 66, with 10 items completed, 24 new items added, "
    "and 21 items started."
)

MONDAY_CONTEXTUAL = (
    "The WiP items opened at 55, reached a high of 70 and a low of 55, "
    "before closing at 66, with 10 items completed, 24 new items added, "
    "and 21 items started, while the next WiP was expected to remain at 71."
)


def test_query_story_exact_bytes(monday_example):
    story = render_query_story(monday_example)
    assert story.text == MONDAY_QUERY
    assert story.kind == "query"
    assert story.granularity == "daily"
    assert story.target is None


def test_contextual_story_exact_bytes(monday_example):
    story = render_contextual_story(monday_example, 71)
    assert story.text == MONDAY_CONTEXTUAL
    assert story.kind == "contextual"
    assert story.target == 71.0


def test_weekday_prefix(monday_example):
    story = render_query_story(monday_example, granularity="weekday")
    assert story.text == "On Monday, the" + MONDAY_QUERY[len("The"):]
    assert story.granularity == "weekday"


def test_weekday_contextual_composition(monday_example):
    story = render_contextual_story(monday_example, 71, granularity="weekday")
    assert story.text.startswith("On Monday, the WiP items opened at 55")
    assert story.text.endswith("while the next WiP was expected to remain at 71.")


def test_zero_day_renders():
    ev = wip_event(date(2024, 1, 1), open=0, high=0, low=0, close=0)
    story = render_query_story(ev)
    assert story.text == (
        "The WiP items opened at 0, reached a high of 0 and a low of 0, "
        "before closing at 0, with 0 items completed, 0 new items added, "
        "and 0 items started."
    )


def test_windowed_singleton_uses_day_fields(monday_example):
    story = render_windowed_story([monday_example])
    assert story.text == (
        "Over the past 1 days, WiP opened at 55, ranged between a low of 55 and "
        "a high of 70, and closed at 66, with 10 items completed, 24 new items "
        "added, and 21 items started."
    )
    assert story.granularity == "windowed"
    assert story.date == monday_example.date


def test_windowed_flat_week():
    days = [
        wip_event(date(2024, 1, 1) + timedelta(days=i), open=5, high=5, low=5, close=5)
        for i in range(7)
    ]
    story = render_windowed_story(days)
    assert story.text == (
        "Over the past 7 days, WiP opened at 5, ranged between a low of 5 and "
        "a high of 5, and closed at 5, with 0 items completed, 0 new items "
        "added, and 0 items started."
    )


def test_windowed_aggregates_by_hand():
    d1 = wip_event(date(2024, 2, 1), open=10, high=14, low=9, close=12, new=5, done=3, started=4)
    d2 = wip_event(date(2024, 2, 2), open=12, high=13, low=8, close=9, new=2, done=5, started=1)
    d3 = wip_event(date(2024, 2, 3), open=9, high=16, low=9, close=15, new=8, done=2, started=7)
    story = render_windowed_story([d1, d2, d3], next_close=17)
    assert story.text == (
        "Over the past 3 days, WiP opened at 10, ranged between a low of 8 and "
        "a high of 16, and closed at 15, with 10 items completed, 15 new items "
        "added, and 12 items started, while the next WiP was expected to remain at 17."
    )
    assert story.kind == "contextual"
    assert story.target == 17.0
    assert story.date == date(2024, 2, 3)


def test_windowed_empty_rejected():
    with pytest.raises(ValueError):
        render_windowed_story([])


def test_rendering_is_deterministic(monday_example):
    a = render_contextual_story(monday_example, 71)
    b = render_contextual_story(monday_example, 71)
    assert a == b


def test_contextual_extends_query_text():
    rng = random.Random(99)
    for i in range(25):
        ev = random_wip_event(rng, date(2024, 3, 1) + timedelta(days=i))
        for granularity in ("daily", "weekday"):
            q = render_query_story(ev, granularity=granularity)
            c = render_contextual_story(ev, 42.5, granularity=granularity)
            assert c.text.startswith(q.text[:-1])
            assert c.text.endswith("remain at 42.5.")


def test_parse_story_round_trips_daily(monday_example):
    parsed = parse_story(MONDAY_CONTEXTUAL)
    assert parsed.open == 55
    assert parsed.high == 70
    assert parsed.low == 55
    assert parsed.close == 66
    assert parsed.done == 10
    assert parsed.new == 24
    assert parsed.started == 21
    assert parsed.target == 71


def test_parse_story_round_trips_randomized():
    rng = random.Random(123)
    for i in range(30):
        ev = random_wip_event(rng, date(2024, 4, 1) + timedelta(days=i))
        story = render_query_story(ev, granularity=rng.choice(("daily", "weekday")))
        parsed = parse_story(story.text)
        assert (parsed.open, parsed.high, parsed.low, parsed.close) == (
            ev.open, ev.high, ev.low, ev.close
        )
        assert (parsed.new, parsed.done, parsed.started) == (ev.new, ev.done, ev.started)
        assert parsed.target is None


def test_parse_story_windowed():
    d1 = wip_event(date(2024, 2, 1), open=10, high=14, low=9, close=12, new=5, done=3, started=4)
    d2 = wip_event(date(2024, 2, 2), open=12, high=13, low=8, close=9, new=2, done=5, started=1)
    story = render_windowed_story([d1, d2], next_close=11)
    parsed = parse_story(story.text)
    assert parsed.open == 10
    assert parsed.low == 8
    assert parsed.high == 14
    assert parsed.close == 9
    assert parsed.target == 11


def test_story_numbers_extracts_in_order():
    nums = story_numbers(MONDAY_CONTEXTUAL)
    assert nums == [55.0, 70.0, 55.0, 66.0, 10.0, 24.0, 21.0, 71.0]


def test_target_formatting_drops_trailing_zero(monday_example):
    story = render_contextual_story(monday_example, 71.0)
    assert story.text.endswith("remain at 71.")
    fractional = render_contextual_story(monday_example, 70.5)
    assert fractional.text.endswith("remain at 70.5.")


def test_story_requires_target_consistency(monday_example):
    with pytest.raises(ValueError):
        Story(text="x.", kind="contextual", granularity="daily",
              date=monday_example.date, target=None)
    with pytest.raises(ValueError):
        Story(text="x.", kind="query", granularity="daily",
              date=monday_example.date, target=5.0)
    with pytest.raises(ValueError):
        Story(text="x.", kind="query", granularity="hourly",
              date=monday_example.date, target=None)


def test_stories_jsonl_round_trip(tmp_path, monday_example):
    stories = [
        render_query_story(monday_example),
        render_contextual_story(monday_example, 71),
        render_query_story(monday_example, granularity="weekday"),
    ]
    path = tmp_path / "stories.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        write_stories_jsonl(stories, fh)
    with open(path, encoding="utf-8") as fh:
        back = read_stories_jsonl(fh)
    assert back == stories


@pytest.mark.parametrize("bad, want", [
    ('"target": "72"', "(TypeError: target must be a number, got '72')"),
    ('"target": true', "(TypeError: target must be a number, got True)"),
    ('"target": {"a": 1}', "(TypeError: target must be a number, got {'a': 1})"),
    (None, "(TypeError:"),  # a line that is not an object
])
def test_read_stories_jsonl_names_the_line_of_a_bad_record(tmp_path, monday_example, bad, want):
    good = json.dumps(story_to_dict(render_contextual_story(monday_example, 71)), sort_keys=True)
    path = tmp_path / "stories_daily.jsonl"
    path.write_text(good + "\n" + ("42" if bad is None else good.replace('"target": 71.0', bad)) + "\n")
    with open(path, encoding="utf-8") as fh, pytest.raises(ValueError) as caught:
        read_stories_jsonl(fh)
    assert f"stories_daily.jsonl, line 2: not a story record {want}" in str(caught.value)


def test_story_dict_round_trip(monday_example):
    story = render_contextual_story(monday_example, 71, granularity="weekday")
    assert story_from_dict(story_to_dict(story)) == story
