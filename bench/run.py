"""wipcast benchmark: one run of one workload.

Run from the repository root:

    python3 bench/run.py --workload build --seed 1 --seconds 20 --trace 0

It generates a seeded event log, runs CLI stages in-process through
``wipcast.cli.main`` (imported from ``src/`` of this checkout), checks every
output, and prints every metric with its unit. The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run also traces every layer from outside the package and reports per-layer
metrics. Full results, including output digests and run facts, are written
to ``bench/results/``. See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from datetime import date, timedelta
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

import checks  # noqa: E402  (bench/ is sys.path[0] when run as a script)
import tracing  # noqa: E402

WORKLOADS = ("build", "walkforward", "forecast-queries")

# Sizes per workload. "tiny" exists for the benchmark's self-test only.
SIZES = {
    "full": {
        "build": {"format": "xes", "cases": 30000, "days": 1095},
        "walkforward": {"format": "csv", "cases": 12000, "days": 1000, "split_day": 59},
        "forecast-queries": {"format": "csv", "cases": 20000, "days": 730, "queries": 100},
    },
    "tiny": {
        "build": {"format": "xes", "cases": 600, "days": 60},
        "walkforward": {"format": "csv", "cases": 400, "days": 60, "split_day": 20},
        "forecast-queries": {"format": "csv", "cases": 400, "days": 60, "queries": 10},
    },
}

GOLDENS = os.path.join(BENCH, "goldens.json")

# Set-up is timed several times per run and the medians are reported:
# importing in a fresh interpreter is cheap and noisy, the stages are not.
IMPORT_REPEATS = 7
STAGE_REPEATS = 3

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics of the traced run: name -> unit. Every traced run emits
# all of them; a layer that does not run on a workload reads 0. Unprefixed
# names cover the measured operation, per repeat; "setup." names cover one
# set-up (ingest on walkforward; ingest, stories and index on
# forecast-queries; nothing on build).
OP_LAYER_UNITS = {
    "eventlog.parse_xes.calls": "count",
    "eventlog.parse_xes.busy_s": "s",
    "eventlog.parse_xes.events": "count",
    "eventlog.validate.busy_s": "s",
    "wipseries.build_wip_series.busy_s": "s",
    "wipseries.build_wip_series.days": "count",
    "wipseries.export_wip_csv.busy_s": "s",
    "wipseries.load_wip_csv.calls": "count",
    "wipseries.load_wip_csv.busy_s": "s",
    "narrative.render.calls": "count",
    "narrative.render.busy_s": "s",
    "narrative.write_stories_jsonl.busy_s": "s",
    "narrative.read_stories_jsonl.busy_s": "s",
    "memory.embed.calls": "count",
    "memory.embed.busy_s": "s",
    "memory.add_story.calls": "count",
    "memory.add_story.busy_s": "s",
    "memory.add_story.self_s": "s",
    "memory.retrieve.calls": "count",
    "memory.retrieve.busy_s": "s",
    "memory.retrieve.self_s": "s",
    "memory.retrieve.docs_scanned_mean": "docs",
    "memory.documents.calls": "count",
    "memory.documents.busy_s": "s",
    "memory.load_index.calls": "count",
    "memory.load_index.busy_s": "s",
    "memory.load_index.docs": "count",
    "memory.save_index.busy_s": "s",
    "llm.chat.calls": "count",
    "llm.chat.busy_s": "s",
    "llm.chat.failed": "count",
    "agents.predictor_predict.calls": "count",
    "agents.predictor_predict.busy_s": "s",
    "agents.predictor_predict.self_s": "s",
    "agents.trend_analyze.busy_s": "s",
    "agents.fuse.calls": "count",
    "agents.fuse.busy_s": "s",
    "agents.fuse.react_attempts": "count",
    "agents.fuse.react_fallback_frac": "ratio",
    "evaluation.rolling_forecast.busy_s": "s",
    "evaluation.rolling_forecast.self_s": "s",
    "evaluation.emit_report.busy_s": "s",
    "evaluation.step_ms.first_decile": "ms",
    "evaluation.step_ms.last_decile": "ms",
    "evaluation.step_ms.growth": "ratio",
    "cli.ingest.busy_s": "s",
    "cli.ingest.self_s": "s",
    "cli.stories.busy_s": "s",
    "cli.index.busy_s": "s",
    "cli.forecast.busy_s": "s",
    "cli.forecast.self_s": "s",
    "cli.evaluate.busy_s": "s",
}
SETUP_LAYER_UNITS = {
    "setup.eventlog.parse_csv.calls": "count",
    "setup.eventlog.parse_csv.busy_s": "s",
    "setup.eventlog.parse_csv.events": "count",
    "setup.wipseries.build_wip_series.busy_s": "s",
    "setup.narrative.render.busy_s": "s",
    "setup.memory.embed.calls": "count",
    "setup.memory.embed.busy_s": "s",
    "setup.memory.save_index.busy_s": "s",
    "setup.cli.ingest.busy_s": "s",
    "setup.cli.stories.busy_s": "s",
    "setup.cli.index.busy_s": "s",
}
TRACE_UNITS = {
    "trace.run_s_untraced": "s",
    "trace.run_s_traced": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}
PER_LAYER_UNITS = {**OP_LAYER_UNITS, **SETUP_LAYER_UNITS, **TRACE_UNITS}

# Span name -> metric name of the size its spans record.
SIZE_METRICS = {
    "eventlog.parse_xes": "eventlog.parse_xes.events",
    "eventlog.parse_csv": "eventlog.parse_csv.events",
    "wipseries.build_wip_series": "wipseries.build_wip_series.days",
    "memory.load_index": "memory.load_index.docs",
}

BUSY_NOTE = ("busy_s sums span durations across threads: predictor spans run on "
             "the 3-thread pool, so agents.predictor_predict.busy_s and its "
             "children can exceed wall time")


class BenchError(Exception):
    """The benchmark cannot run here (no sources, a setup stage failed, ...)."""


@dataclass
class Op:
    """One measured operation: its wall time and what its checks found."""

    seconds: float = 0.0
    calls: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    latencies: list[float] = field(default_factory=list)


class Cli:
    """Calls ``wipcast.cli.main`` in-process with its output captured."""

    def __init__(self, cli_module):
        self.module = cli_module

    def call(self, argv: list[str]) -> tuple[float, str | None]:
        out = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                rc = self.module.main(argv)
        except Exception as exc:  # a raising stage is a failed call, not a crash
            return perf_counter() - start, f"{argv[0]} raised {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        if rc != 0:
            return elapsed, f"{argv[0]} exited {rc}: {out.getvalue().strip()[-300:]}"
        return elapsed, None


class Workload:
    """Input, set-up stages and measured operation of one workload."""

    def __init__(self, size: dict, manifest: dict, run_dir: str):
        self.size = size
        self.manifest = manifest
        self.run_dir = run_dir
        self.first_day = date.fromisoformat(manifest["first_day"])

    def day(self, i: int) -> str:
        return (self.first_day + timedelta(days=i)).isoformat()

    def ingest_argv(self) -> list[str]:
        return ["ingest", self.manifest["path"], "--out", self.run_dir]

    def setup_argvs(self) -> list[list[str]]:
        return []

    def op(self, cli: Cli) -> Op:
        raise NotImplementedError

    def digests(self, names) -> dict[str, str]:
        return {n: checks.sha256_file(os.path.join(self.run_dir, n)) for n in names}


class Build(Workload):
    """ingest -> stories -> index on a gzipped XES log."""

    def op(self, cli: Cli) -> Op:
        op = Op()
        days = self.manifest["days"]
        steps = [
            (self.ingest_argv(), lambda: checks.check_wip(self.run_dir, self.manifest)),
            (["stories", "--out", self.run_dir], lambda: checks.check_stories(self.run_dir, days)),
            (["index", "--out", self.run_dir], lambda: checks.check_index(self.run_dir)),
        ]
        for argv, check in steps:
            elapsed, error = cli.call(argv)
            op.seconds += elapsed
            op.calls += 1
            errors = [error] if error else check()
            if errors:
                op.failed += 1
                op.errors += errors
                break
        else:
            op.digests = self.digests(
                ["wip.csv"] + [f"stories_{g}.jsonl" for g in checks.GRANULARITIES]
                + [f"index_{g}.jsonl" for g in checks.GRANULARITIES])
        return op


class Walkforward(Workload):
    """evaluate --mode rules over ~940 walk-forward steps; ingest is set-up."""

    def setup_argvs(self):
        return [self.ingest_argv()]

    @property
    def split(self) -> str:
        return self.day(self.size["split_day"])

    def op(self, cli: Cli) -> Op:
        op = Op(calls=1)
        op.seconds, error = cli.call(["evaluate", "--out", self.run_dir, "--split", self.split,
                                      "--mode", "rules", "--freeze-timestamps"])
        errors = [error] if error else (checks.check_wip(self.run_dir, self.manifest)
                                        + checks.check_evaluation(self.run_dir, self.split))
        if errors:
            op.failed, op.errors = 1, errors
        else:
            op.digests = self.digests(["predictions.csv", "metrics.csv",
                                       "forecast_reports.jsonl", "report.svg"])
        return op


class ForecastQueries(Workload):
    """Sequential forecast --mode react calls over the last days, one client."""

    def setup_argvs(self):
        return [self.ingest_argv(), ["stories", "--out", self.run_dir],
                ["index", "--out", self.run_dir]]

    def targets(self) -> list[str]:
        days, queries = self.manifest["days"], self.size["queries"]
        return [self.day(i) for i in range(days - queries, days)]

    def op(self, cli: Cli) -> Op:
        targets = self.targets()
        op = Op(calls=len(targets))
        input_errors = (checks.check_wip(self.run_dir, self.manifest)
                        + checks.check_index(self.run_dir))
        forecasts = hashlib.sha256()
        forecast_path = os.path.join(self.run_dir, "forecast.jsonl")
        for target in targets:
            elapsed, error = cli.call(["forecast", "--out", self.run_dir, "--date", target,
                                       "--mode", "react"])
            op.seconds += elapsed
            op.latencies.append(elapsed)
            if error is None:
                with open(forecast_path, "rb") as fh:
                    data = fh.read()
                forecasts.update(data)
                error = checks.check_reports(forecast_path, [target])
            else:
                error = [error]
            if error or input_errors:
                op.failed += 1
                op.errors += error
        op.errors = input_errors + op.errors
        if not op.failed:
            op.digests = self.digests([f"index_{g}.jsonl" for g in checks.GRANULARITIES])
            op.digests["forecast.jsonl"] = forecasts.hexdigest()
        return op


WORKLOAD_CLASSES = {"build": Build, "walkforward": Walkforward, "forecast-queries": ForecastQueries}


def import_cli():
    """Import wipcast.cli from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "wipcast", "cli.py")):
        raise BenchError(f"no wipcast sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, SRC)
    import wipcast.cli

    if not os.path.abspath(wipcast.cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported wipcast from {wipcast.cli.__file__}, not {SRC}")
    return wipcast.cli


def time_import() -> float:
    """Seconds to import wipcast.cli in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import wipcast.cli; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        raise BenchError(f"importing wipcast.cli failed: {done.stderr.strip()[-300:]}")
    return float(done.stdout.split()[-1])


def generate_input(size: dict, seed: int, out_dir: str) -> tuple[dict, float]:
    """Run the generator in a child process so it does not count in peak RSS."""
    start = perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "gen.py"), "--format", size["format"],
         "--cases", str(size["cases"]), "--days", str(size["days"]), "--seed", str(seed),
         "--out", out_dir],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise BenchError(f"input generation failed: {done.stderr.strip()[-300:]}")
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh), perf_counter() - start


def run_setup(cli: Cli, workload: Workload) -> float:
    total = 0.0
    for argv in workload.setup_argvs():
        elapsed, error = cli.call(argv)
        if error:
            raise BenchError(f"set-up stage failed: {error}")
        total += elapsed
    return total


def run_ops(cli: Cli, workload: Workload, budget: float) -> list[Op]:
    """Repeat the measured operation while another one fits in the budget.

    Runs at least once. Stopping when the median repeat would overrun keeps
    a run close to its budget even when one operation takes seconds.
    """
    ops: list[Op] = []
    start = perf_counter()
    while not ops or (perf_counter() - start
                      + statistics.median(op.seconds for op in ops) <= budget):
        gc.collect()
        ops.append(workload.op(cli))
    return ops


def check_repeats(ops: list[Op]) -> None:
    """Every repeat must write byte-identical outputs; a change is a failure."""
    first = next((op.digests for op in ops if op.digests), {})
    for i, op in enumerate(ops):
        changed = sorted(n for n, d in op.digests.items() if first.get(n) != d)
        if changed:
            op.failed = max(op.failed, 1)
            op.errors.append(f"repeat {i}: outputs differ from the first repeat: {changed}")


def layer_values(spans, repeats: int) -> dict[str, float]:
    """Layer metrics of one traced phase, per repeat of that phase."""
    values: dict[str, float] = {}
    for name, row in tracing.layer_table(spans).items():
        for key in ("calls", "busy_s", "self_s"):
            values[f"{name}.{key}"] = row[key] / repeats
        values[f"{name}.failed"] = row["raised"] / repeats
        if name in SIZE_METRICS:
            values[SIZE_METRICS[name]] = row["size_sum"] / repeats
        if name == "memory.retrieve":
            values["memory.retrieve.docs_scanned_mean"] = row["size_sum"] / row["calls"]

    # narrative.render: every render_* call that is not inside another one.
    top = [s for s in spans if s[tracing.NAME].startswith("narrative.render_")
           and (s[tracing.PARENT] is None
                or not s[tracing.PARENT][tracing.NAME].startswith("narrative.render_"))]
    values["narrative.render.calls"] = len(top) / repeats
    values["narrative.render.busy_s"] = sum(s[tracing.END] - s[tracing.START]
                                            for s in top) / repeats

    react = [s for s in spans
             if s[tracing.NAME] == "agents.fuse" and s[tracing.MODE_ASKED] == "react"]
    if react:
        fallbacks = sum(1 for s in react if s[tracing.MODE_USED] != "react")
        values["agents.fuse.react_attempts"] = len(react) / repeats
        values["agents.fuse.react_fallback_frac"] = fallbacks / len(react)

    # Walk-forward step time: gaps between the trend_analyze calls of one
    # rolling_forecast, which happen once per step.
    steps: dict[int, list[float]] = {}
    for s in spans:
        parent = s[tracing.PARENT]
        if (s[tracing.NAME] == "agents.trend_analyze" and parent is not None
                and parent[tracing.NAME] == "evaluation.rolling_forecast"):
            steps.setdefault(id(parent), []).append(s[tracing.START])
    firsts, lasts = [], []
    for starts in steps.values():
        starts.sort()
        gaps = [1000.0 * (b - a) for a, b in zip(starts, starts[1:])]
        if gaps:
            k = max(1, len(gaps) // 10)
            firsts.append(statistics.fmean(gaps[:k]))
            lasts.append(statistics.fmean(gaps[-k:]))
    if firsts:
        values["evaluation.step_ms.first_decile"] = statistics.fmean(firsts)
        values["evaluation.step_ms.last_decile"] = statistics.fmean(lasts)
        values["evaluation.step_ms.growth"] = statistics.fmean(lasts) / statistics.fmean(firsts)
    return values


def traced_run(cli: Cli, workload: Workload, budget: float):
    """Untraced repeats, then one traced set-up and traced repeats.

    Each half gets half the budget. Returns the per-layer metric values, the
    untraced and the traced repeats, and the tracer holding the spans.
    """
    run_setup(cli, workload)
    untraced = run_ops(cli, workload, budget / 2)
    tracer = tracing.Tracer()
    tracer.install(sys.modules["wipcast"])
    try:
        run_setup(cli, workload)
        mark = len(tracer.spans)
        traced = run_ops(cli, workload, budget / 2)
    finally:
        tracer.uninstall()
    values = layer_values(tracer.spans[mark:], len(traced))
    values.update({f"setup.{k}": v for k, v in layer_values(tracer.spans[:mark], 1).items()})
    untraced_s = statistics.median(op.seconds for op in untraced)
    traced_s = statistics.median(op.seconds for op in traced)
    values["trace.run_s_untraced"] = untraced_s
    values["trace.run_s_traced"] = traced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    values["trace.spans"] = (len(tracer.spans) - mark) / len(traced)
    return values, untraced, traced, tracer


def golden_diff(workload: str, seed: int, size: str, digests: dict) -> list[str] | None:
    """Outputs whose digest differs from goldens.json; None when it has no entry."""
    if size != "full" or not digests:
        return None
    with open(GOLDENS, encoding="utf-8") as fh:
        golden = json.load(fh).get(workload, {}).get(str(seed))
    if golden is None:
        return None
    return sorted(n for n, d in golden["outputs_sha256"].items() if digests.get(n) != d)


def run_facts(workload: str, seed: int, size_name: str) -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = dirty = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        def git(*argv):
            return subprocess.run(["git", "-C", ROOT, *argv], capture_output=True,
                                  text=True, timeout=30)
        head = git("rev-parse", "HEAD")
        if head.returncode == 0:
            commit = head.stdout.strip()
            dirty = bool(git("status", "--porcelain", "--untracked-files=no").stdout.strip())
    return {
        "workload": workload,
        "seed": seed,
        "size": size_name,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "git_dirty": dirty,
    }


def measure(args) -> dict:
    """Run one workload; return the full result record."""
    cli = Cli(import_cli())
    size = SIZES[args.size][args.workload]
    work = os.path.join(BENCH, "work", f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    manifest, gen_s = generate_input(size, args.seed, os.path.join(work, "input"))
    workload = WORKLOAD_CLASSES[args.workload](size, manifest, os.path.join(work, "run"))
    os.makedirs(workload.run_dir)

    info: dict[str, tuple[float, str]] = {"gen_s": (gen_s, "s")}
    tracer = None
    if args.trace:
        values, ops, traced, tracer = traced_run(cli, workload, args.seconds)
        metrics = {name: (values.get(name, 0), unit) for name, unit in PER_LAYER_UNITS.items()}
    else:
        traced = []
        imports = statistics.median(time_import() for _ in range(IMPORT_REPEATS))
        stages = statistics.median(run_setup(cli, workload) for _ in range(STAGE_REPEATS))
        ops = run_ops(cli, workload, args.seconds)
        values = {
            "setup_s": imports + stages,
            "run_s": statistics.median(op.seconds for op in ops),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
        info["setup_import_s"] = (imports, "s")
        info["setup_stages_s"] = (stages, "s")

    latencies = [t for op in ops for t in op.latencies]  # untraced repeats only
    if latencies:
        info["forecast_ms_p50"] = (1000 * statistics.median(latencies), "ms")
        info["forecast_ms_p90"] = (1000 * statistics.quantiles(latencies, n=10)[-1], "ms")
        info["forecast_samples"] = (len(latencies), "count")
    if args.workload == "walkforward" and ops[0].digests:
        mape = checks.metrics_mape(workload.run_dir)
        info["mape_multi_agent"] = (mape["multi_agent"], "%")
        info["mape_persistence"] = (mape["persistence"], "%")
    repeats = ops + traced
    check_repeats(repeats)
    attempted = sum(op.calls for op in repeats)
    failed = sum(op.failed for op in repeats)
    info["failed_frac"] = (failed / attempted, "ratio")
    info["attempted"] = (attempted, "count")
    info["repeats"] = (len(repeats), "count")

    results_dir = os.path.join(BENCH, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer is not None:
        tracer.write_jsonl(stem + "-spans.jsonl")
    digests = next((op.digests for op in repeats if op.digests), {})
    manifest = {k: v for k, v in manifest.items() if k != "expected_close"}
    manifest["path"] = os.path.relpath(manifest["path"], ROOT)
    record = {
        "facts": run_facts(args.workload, args.seed, args.size),
        "input": manifest,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": {k: {"value": v, "unit": u} for k, (v, u) in info.items()},
        "run_s_each": [op.seconds for op in ops],
        "digests": digests,
        "golden_diff": golden_diff(args.workload, args.seed, args.size, digests),
        "errors": [e for op in repeats for e in op.errors][:20],
        "attempted": attempted,
        "failed": failed,
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    record["results_path"] = os.path.relpath(stem + ".json", ROOT)
    return record


def report(record: dict) -> None:
    facts, inp = record["facts"], record["input"]
    print(f"workload {facts['workload']}  seed {facts['seed']}  size {facts['size']}  "
          f"trace {record['trace']}  seconds {record['seconds']}")
    print(f"input {inp['path']}  sha256 {inp['sha256']}  cases {inp['cases']}  "
          f"events {inp['events']}  days {inp['days']}")
    print(f"machine nproc {facts['nproc']}  cpu {facts['cpu_model']}  python "
          f"{facts['python']}  numpy {facts['numpy']}  commit {facts['git_commit']}  "
          f"dirty {facts['git_dirty']}")
    labels = {"metrics": "layer" if record["trace"] else "e2e", "info": "info"}
    for section, label in labels.items():
        for name, m in record[section].items():
            value = m["value"]
            text = f"{value:.6g}" if isinstance(value, float) else str(value)
            print(f"  {label:<5} {name:<40} {text:>14} {m['unit']}")
    if record["trace"]:
        print(f"note: {BUSY_NOTE}")
    for name, digest in sorted(record["digests"].items()):
        print(f"  sha256 {name:<26} {digest}")
    diff = record["golden_diff"]
    if diff is not None:
        print(f"goldens: {'outputs differ: ' + ', '.join(diff) if diff else 'outputs match'}")
    for error in record["errors"]:
        print(f"  FAILED {error}")
    print(f"results {record['results_path']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="wipcast benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input sizes; 'tiny' is for the self-test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        record = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(record)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
