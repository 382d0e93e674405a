"""Self-test of the benchmark.

Run from the repository root (it is not part of the package's test suite):

    python3 -m pytest -q bench/test_bench.py

It runs every workload once at tiny sizes and checks that every metric
declared in BENCHMARK.json is emitted with its unit, that a corrupted output
trips the correctness checks, and that the benchmark refuses to run without
the package sources.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import run  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(argv, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _fresh(name: str) -> str:
    path = os.path.join(BENCH, "work", name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def test_declared_workloads_match_run_py():
    assert [w["name"] for w in _spec()["workloads"]] == list(run.WORKLOADS)


def test_declared_units_match_run_py():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_declared_metric_is_emitted(workload, trace):
    done = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny"])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = _spec()["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_close_trips_the_check():
    size = run.SIZES["tiny"]["forecast-queries"]
    work = _fresh("selftest-corrupt")
    manifest, _ = run.generate_input(size, 5, os.path.join(work, "input"))
    workload = run.ForecastQueries(size, manifest, os.path.join(work, "run"))
    os.makedirs(workload.run_dir)
    cli = run.Cli(run.import_cli())
    run.run_setup(cli, workload)
    clean = workload.op(cli)
    assert clean.failed == 0 and clean.errors == []

    # Move one close by one, staying inside the day's low..high so the
    # series still loads and only the benchmark's own count can notice.
    path = os.path.join(workload.run_dir, "wip.csv")
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    close, low, high = (header.index(c) for c in ("close", "low", "high"))
    row = next(r for r in rows[1:] if int(r[low]) < int(r[high]))
    row[close] = str(int(row[close]) + 1 if int(row[close]) < int(row[high])
                     else int(row[close]) - 1)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)

    corrupt = workload.op(cli)
    assert corrupt.failed == corrupt.calls
    assert any("close" in error for error in corrupt.errors)


def test_envelope_check_rejects_a_final_outside_the_widened_range():
    report = {"daily": 10.0, "weekday": 12.0, "windowed": 20.0, "final": 21.0}
    assert checks.within_envelope(report)  # margin max(0.1 * 10, 1) = 1
    report["final"] = 21.01
    assert not checks.within_envelope(report)


def test_goldens_name_the_outputs_that_changed():
    with open(run.GOLDENS, encoding="utf-8") as fh:
        golden = json.load(fh)["walkforward"]["1"]["outputs_sha256"]
    assert run.golden_diff("walkforward", 1, "full", dict(golden)) == []
    assert run.golden_diff("walkforward", 1, "full",
                           {**golden, "metrics.csv": "0" * 64}) == ["metrics.csv"]
    assert run.golden_diff("walkforward", 1, "tiny", dict(golden)) is None


def test_refuses_to_run_without_the_package():
    bare = _fresh("selftest-bare")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    os.makedirs(os.path.join(bare, "bench"))
    for name in os.listdir(BENCH):
        if os.path.isfile(os.path.join(BENCH, name)):
            shutil.copy(os.path.join(BENCH, name), os.path.join(bare, "bench"))
    done = _run(["--workload", "build", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
