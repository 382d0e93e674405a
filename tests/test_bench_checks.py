"""The benchmark checks the files the CLI stages write by counting them.

A stage that stops writing a file ``bench/checks.py`` counts would only fail
``bench/test_bench.py``; this check makes it fail the test suite as well.
"""

from __future__ import annotations

from conftest import bench_module

checks = bench_module("checks")


def test_the_benchmarks_file_checks_pass_on_an_indexed_run(snapshot_workspace):
    days = len((snapshot_workspace / "wip.csv").read_text(encoding="utf-8").splitlines()) - 1
    assert checks.check_stories(str(snapshot_workspace), days) == []
    assert checks.check_index(str(snapshot_workspace)) == []
