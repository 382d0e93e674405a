"""Seeded event-log generators owned by the benchmark.

The benchmark does not call ``wipcast.synthetic``: a change to the package must
not be able to change a workload's inputs. Each log models a service desk:
arrivals follow a weekly cycle with a slow seasonal drift, durations are
long-tailed, and every case has two to four events (open, optional
assign/work, resolve). The multiset of events-per-case is fixed by the case
count, so the event count does not depend on the seed. One case opens on the
first day and one closes on the last, so the day count is fixed too.

Besides the log, ``generate`` returns the expected daily close of the WiP
series, counted here from the generator's own case open and close times, so
the benchmark can check ``wip.csv`` without trusting the package.

Run as a script it writes the log and a JSON manifest:
``python3 bench/gen.py --format csv --cases 12000 --days 1000 --seed 1 --out DIR``.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import math
import os
import random
from datetime import datetime, timedelta, timezone

START = datetime(2021, 1, 4, tzinfo=timezone.utc)  # a Monday
DAY = 86400
ACTIVITIES_MID = ("Assign", "Work", "Review")
RESOURCES = tuple(f"agent-{i:02d}" for i in range(24))
WEEKDAY_LOAD = (1.25, 1.2, 1.1, 1.05, 1.0, 0.3, 0.2)
MEAN_DAYS = 3.0


def _events_per_case(n_cases: int, rng: random.Random) -> list[int]:
    """2/3/4 events in fixed shares (2/3, 3/10, 1/30), shuffled per seed."""
    fours = n_cases // 30
    threes = (n_cases * 3) // 10
    counts = [4] * fours + [3] * threes + [2] * (n_cases - fours - threes)
    rng.shuffle(counts)
    return counts


def _arrival_days(n_cases: int, n_days: int, rng: random.Random) -> list[int]:
    weights = [WEEKDAY_LOAD[(START.weekday() + d) % 7]
               * (1.0 + 0.25 * math.sin(2 * math.pi * d / 91.0))
               for d in range(n_days)]
    return rng.choices(range(n_days), weights=weights, k=n_cases)


def _cases(n_cases: int, n_days: int, seed: int):
    """Per case: (case id, sorted event offsets in seconds, activities)."""
    rng = random.Random(seed)
    horizon = n_days * DAY
    counts = _events_per_case(n_cases, rng)
    days = _arrival_days(n_cases, n_days, rng)
    out = []
    for i in range(n_cases):
        opened = days[i] * DAY + rng.randrange(7 * 3600, 19 * 3600)
        duration = int(rng.expovariate(1.0 / (MEAN_DAYS * DAY))) + 1800
        if opened + duration >= horizon:
            duration = rng.randrange(1, horizon - opened)
        if i == 0:
            opened, duration = 8 * 3600, 2 * DAY
        elif i == 1:
            opened, duration = horizon - 3 * DAY, 2 * DAY + 12 * 3600
        closed = opened + duration
        mids = sorted(rng.randrange(opened, closed + 1) for _ in range(counts[i] - 2))
        acts = ["Open"] + [rng.choice(ACTIVITIES_MID) for _ in mids] + ["Resolve"]
        out.append((f"case-{i:06d}", [opened, *mids, closed], acts,
                    rng.choice(RESOURCES)))
    return out


def _stamp(offset: int) -> str:
    return (START + timedelta(seconds=offset)).strftime("%Y-%m-%dT%H:%M:%S+00:00")


def _expected_closes(cases, n_days: int) -> list[int]:
    """close(d) = cases opened on or before day d and closed after it."""
    delta = [0] * (n_days + 1)
    for _cid, offsets, _acts, _res in cases:
        delta[offsets[0] // DAY] += 1
        delta[offsets[-1] // DAY] -= 1
    closes, running = [], 0
    for d in range(n_days):
        running += delta[d]
        closes.append(running)
    return closes


def _csv_bytes(cases) -> bytes:
    rows = [(off, cid, act, res)
            for cid, offsets, acts, res in cases
            for off, act in zip(offsets, acts)]
    rows.sort()
    lines = ["case,activity,timestamp,resource"]
    lines += [f"{cid},{act},{_stamp(off)},{res}" for off, cid, act, res in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _xes_bytes(cases) -> bytes:
    parts = ['<?xml version="1.0" encoding="UTF-8" ?>',
             '<log xes.version="1.0" xmlns="http://www.xes-standard.org/">',
             '<string key="concept:name" value="bench-service-desk"/>']
    for cid, offsets, acts, res in cases:
        parts.append(f'<trace><string key="concept:name" value="{cid}"/>')
        for off, act in zip(offsets, acts):
            parts.append(
                f'<event><string key="concept:name" value="{act}"/>'
                f'<string key="org:resource" value="{res}"/>'
                f'<string key="lifecycle:transition" value="complete"/>'
                f'<date key="time:timestamp" value="{_stamp(off)}"/></event>')
        parts.append("</trace>")
    parts.append("</log>")
    xml = ("\n".join(parts) + "\n").encode("utf-8")
    return gzip.compress(xml, compresslevel=6, mtime=0)


def generate(fmt: str, n_cases: int, n_days: int, seed: int, out_dir: str) -> dict:
    """Write one log into out_dir and return its manifest."""
    if fmt not in ("csv", "xes"):
        raise ValueError(f"unknown format {fmt!r}")
    if n_cases < 2 or n_days < 4:
        raise ValueError("need at least 2 cases and 4 days")
    cases = _cases(n_cases, n_days, seed)
    data = _csv_bytes(cases) if fmt == "csv" else _xes_bytes(cases)
    name = "log.csv" if fmt == "csv" else "log.xes.gz"
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "wb") as fh:
        fh.write(data)
    return {
        "path": path,
        "format": fmt,
        "seed": seed,
        "sha256": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
        "cases": n_cases,
        "events": sum(len(offsets) for _cid, offsets, _a, _r in cases),
        "days": n_days,
        "first_day": START.date().isoformat(),
        "expected_close": _expected_closes(cases, n_days),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--format", choices=["csv", "xes"], required=True)
    parser.add_argument("--cases", type=int, required=True)
    parser.add_argument("--days", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    manifest = generate(args.format, args.cases, args.days, args.seed, args.out)
    with open(os.path.join(args.out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
