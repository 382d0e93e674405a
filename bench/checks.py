"""Correctness checks on the files the CLI stages write.

Each check returns a list of error strings; an empty list means the check
passed. The checks read files and compare them with what the generator knows
or with arithmetic on other files; none of them imports wipcast.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from datetime import date, timedelta

GRANULARITIES = ("daily", "weekday", "windowed")
AGENTS = ("daily", "weekday", "windowed")
SOURCES = ("multi_agent", "daily_only", "weekday_only", "windowed_only", "persistence")
WINDOW = 7  # the CLI's default story window


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_wip(run_dir: str) -> list[dict]:
    with open(os.path.join(run_dir, "wip.csv"), encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_wip(run_dir: str, manifest: dict) -> list[str]:
    """Closes equal the generator's own count; open(d+1) = close(d); days are contiguous."""
    rows = read_wip(run_dir)
    expected = manifest["expected_close"]
    if len(rows) != len(expected):
        return [f"wip.csv has {len(rows)} days, generator made {len(expected)}"]
    errors = []
    first = date.fromisoformat(manifest["first_day"])
    prev_close = 0
    for i, row in enumerate(rows):
        day = first + timedelta(days=i)
        if row["date"] != day.isoformat():
            errors.append(f"day {i}: date {row['date']} != {day}")
        if int(row["close"]) != expected[i]:
            errors.append(f"{row['date']}: close {row['close']} != counted {expected[i]}")
        if int(row["open"]) != prev_close:
            errors.append(f"{row['date']}: open {row['open']} != previous close {prev_close}")
        prev_close = int(row["close"])
        if len(errors) >= 5:
            break
    return errors


def _count_lines(path: str, contextual_only: bool = False) -> int:
    with open(path, encoding="utf-8") as fh:
        if contextual_only:
            return sum(1 for line in fh if json.loads(line)["kind"] == "contextual")
        return sum(1 for line in fh if line.strip())


def check_stories(run_dir: str, n_days: int) -> list[str]:
    """Each stories file holds one query and one contextual story per usable day."""
    errors = []
    for g in GRANULARITIES:
        expected = n_days - (WINDOW if g == "windowed" else 1)
        got = _count_lines(os.path.join(run_dir, f"stories_{g}.jsonl"), contextual_only=True)
        if got != expected:
            errors.append(f"stories_{g}: {got} contextual stories, expected {expected}")
    return errors


def check_index(run_dir: str) -> list[str]:
    """Index document counts equal the contextual story counts."""
    errors = []
    for g in GRANULARITIES:
        stories = _count_lines(os.path.join(run_dir, f"stories_{g}.jsonl"), contextual_only=True)
        docs = _count_lines(os.path.join(run_dir, f"index_{g}.jsonl"))
        if docs != stories:
            errors.append(f"index_{g}: {docs} documents != {stories} contextual stories")
    return errors


def within_envelope(report: dict) -> bool:
    """The final value lies in the agent range widened by max(10% of the spread, 1)."""
    values = [float(report[a]) for a in AGENTS]
    lo, hi = min(values), max(values)
    margin = max(0.1 * (hi - lo), 1.0)
    return lo - margin <= float(report["final"]) <= hi + margin


def check_reports(path: str, expected_dates: list[str]) -> list[str]:
    """One report per expected date, in order, each inside its envelope."""
    with open(path, encoding="utf-8") as fh:
        reports = [json.loads(line) for line in fh if line.strip()]
    dates = [r["date"] for r in reports]
    if dates != expected_dates:
        return [f"{os.path.basename(path)}: {len(dates)} reports for dates "
                f"{dates[:1]}..{dates[-1:]}, expected {len(expected_dates)} from "
                f"{expected_dates[:1]}"]
    return [f"{r['date']}: final {r['final']} outside agent envelope"
            for r in reports if not within_envelope(r)][:5]


def check_evaluation(run_dir: str, split: str) -> list[str]:
    """predictions.csv holds 5 sources x steps rows; persistence repeats the previous close."""
    wip = read_wip(run_dir)
    closes = {row["date"]: float(row["close"]) for row in wip}
    test_days = [row["date"] for row in wip if row["date"] > split]
    previous = {row["date"]: float(prev["close"]) for prev, row in zip(wip, wip[1:])}
    with open(os.path.join(run_dir, "predictions.csv"), encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    errors = []
    if len(rows) != len(SOURCES) * len(test_days):
        errors.append(f"predictions.csv: {len(rows)} rows, expected "
                      f"{len(SOURCES)} x {len(test_days)}")
    for source in SOURCES:
        days = [r["date"] for r in rows if r["source"] == source]
        if days != test_days:
            errors.append(f"predictions.csv: {source} covers {len(days)} days, "
                          f"expected {len(test_days)}")
    for r in rows:
        if float(r["actual"]) != closes.get(r["date"]):
            errors.append(f"{r['date']} {r['source']}: actual {r['actual']} != close")
        if r["source"] == "persistence" and float(r["predicted"]) != previous.get(r["date"]):
            errors.append(f"{r['date']}: persistence {r['predicted']} != previous close")
        if len(errors) >= 5:
            return errors
    with open(os.path.join(run_dir, "metrics.csv"), encoding="utf-8") as fh:
        sources = [r["source"] for r in csv.DictReader(fh)]
    if sources != list(SOURCES):
        errors.append(f"metrics.csv sources {sources} != {list(SOURCES)}")
    errors += check_reports(os.path.join(run_dir, "forecast_reports.jsonl"), test_days)
    return errors


def metrics_mape(run_dir: str) -> dict[str, float]:
    with open(os.path.join(run_dir, "metrics.csv"), encoding="utf-8") as fh:
        return {r["source"]: float(r["mape"]) for r in csv.DictReader(fh)}
