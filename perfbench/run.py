"""Benchmark of broydenlab: three workloads, end to end and per layer.

    python3 perfbench/run.py --workload {cumulative,basin,single} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (``solves_per_s``,
``solve_ms_p50``, ``setup_s``, ``peak_rss_mb``); with ``--trace 1`` the run
repeats the workload untraced and then traced, and reports the per-layer
metrics.  See README.md in this directory.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import mpmath
import mpmath.libmp

import oracles
from spans import Tracer, mpmath_calls, pool_balance

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RESULTS = ROOT / ".perfbench_out"
#: fresh interpreters timed for ``setup_s``; the median is reported
SETUP_SAMPLES = 15

#: per-layer metric -> unit, in the order they are printed.  Times spent in
#: a layer are shares of the traced pass (see README.md).
PER_LAYER = {
    "linalg.singular_values.calls": "count",
    "linalg.singular_values.share": "ratio",
    "linalg.lu_solve.calls": "count",
    "linalg.lu_solve.share": "ratio",
    "linalg.rank_one_update.share": "ratio",
    "mpmath.calls": "count",
    "problems.f.calls": "count",
    "problems.jac.calls": "count",
    "problems.f.share": "ratio",
    "problems.jac.share": "ratio",
    "solvers.iterations": "count",
    "solvers.iteration_us": "us",
    "solvers.self_share": "ratio",
    "diagnostics.rows": "count",
    "diagnostics.metrics_from_trace.share": "ratio",
    "harness.run_stats.share": "ratio",
    "harness.cumulative_run.self_share": "ratio",
    "basin.classify_point_detail.share": "ratio",
    "basin.pool.efficiency": "ratio",
    "basin.pool.imbalance": "ratio",
    "basin.capped_iterations": "count",
    "formatting.calls": "count",
    "formatting.share": "ratio",
    "cli.main.self_share": "ratio",
    "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cumulative", "basin", "single"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    return args


def setup_seconds(args, work: Path) -> float:
    """Median over fresh interpreters of import plus input construction."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), args.workload,
             str(args.seed), str(args.seconds), str(work)],
            capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def measured_pass(workload, spool: Path, traced: bool):
    tracer = Tracer(spool)
    try:
        if traced:
            tracer.wrap_layers()
        outcome = workload.timed_pass(tracer)
    finally:
        tracer.restore()
    return tracer, outcome


def layer_metrics(workload, tracer, outcome, untraced, mpmath_calls) -> dict:
    iterations = tracer.counts.get("solvers.iterations", 0)
    # the pass's capacity: every worker busy for the whole pass
    capacity = outcome.wall_s * workload.workers
    efficiency = imbalance = 0.0
    if "renders" in outcome.data:
        efficiency, imbalance_s = pool_balance(outcome.data["renders"], workload.workers)
        imbalance = imbalance_s / outcome.wall_s
    values = {
        "linalg.singular_values.calls": tracer.calls("linalg.singular_values"),
        "linalg.singular_values.share": tracer.seconds("linalg.singular_values") / capacity,
        "linalg.lu_solve.calls": tracer.calls("linalg.lu_solve"),
        "linalg.lu_solve.share": tracer.seconds("linalg.lu_solve") / capacity,
        "linalg.rank_one_update.share": tracer.seconds("linalg.rank_one_update") / capacity,
        "mpmath.calls": mpmath_calls,
        "problems.f.calls": tracer.calls("problems.f"),
        "problems.jac.calls": tracer.calls("problems.jac"),
        "problems.f.share": tracer.seconds("problems.f") / capacity,
        "problems.jac.share": tracer.seconds("problems.jac") / capacity,
        "solvers.iterations": iterations,
        "solvers.iteration_us": (tracer.seconds("solvers") / iterations * 1e6
                                 if iterations else 0.0),
        "solvers.self_share": tracer.self_seconds("solvers") / capacity,
        "diagnostics.rows": tracer.counts.get("diagnostics.rows", 0),
        "diagnostics.metrics_from_trace.share":
            tracer.seconds("diagnostics.metrics_from_trace") / capacity,
        "harness.run_stats.share": tracer.seconds("harness.run_stats") / capacity,
        "harness.cumulative_run.self_share":
            tracer.self_seconds("harness.cumulative_run") / capacity,
        "basin.classify_point_detail.share":
            tracer.seconds("basin.classify_point_detail") / capacity,
        "basin.pool.efficiency": efficiency,
        "basin.pool.imbalance": imbalance,
        "basin.capped_iterations": outcome.data.get("capped", 0),
        "formatting.calls": tracer.calls("formatting"),
        "formatting.share": tracer.seconds("formatting") / capacity,
        "cli.main.self_share": tracer.self_seconds("cli.main") / capacity,
        "cli.bytes_written": outcome.data.get("bytes", 0),
        # per-solve medians, so that warm-up and bursts of load on either
        # pass do not masquerade as tracing cost
        "trace.overhead_s": (statistics.median(tracer.solve_s)
                             - statistics.median(untraced.solve_s)) * len(tracer.solve_s),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER.items()}


def run(args, work: Path):
    """The result object, or None when no solve completed."""
    from workloads import WORKLOADS  # imports broydenlab from SRC

    kind = WORKLOADS[args.workload]
    print(f"env cores={os.cpu_count()} python={platform.python_version()} "
          f"mpmath={mpmath.__version__} backend={mpmath.libmp.BACKEND} "
          f"workers={kind.workers}", flush=True)
    spool = work / "spool"
    spool.mkdir(parents=True)
    setup = None if args.trace else setup_seconds(args, work)
    workload = kind(args.seed, args.seconds, work)

    passes = [measured_pass(workload, spool, traced=False)]
    if args.trace:
        passes.append(measured_pass(workload, spool, traced=True))
    attempted = failed = 0
    problems, notes = [], []
    for _, outcome in passes:
        n_failed, p, n = workload.check(outcome)
        attempted += outcome.attempted
        failed += n_failed
        problems += p
        notes += n
    if args.trace and passes[0][1].fingerprint != passes[1][1].fingerprint:
        problems.append("the traced pass produced different outputs")
    problems += workload.untimed_checks()

    for line in notes:
        print(f"failed: {line}", file=sys.stderr)
    for line in problems:
        print(f"check: {line}", file=sys.stderr)
    if not all(outcome.solve_s for _, outcome in passes):
        print("error: no solve completed, nothing to measure", file=sys.stderr)
        return None

    tracer, outcome = passes[-1]
    if args.trace:
        metrics = layer_metrics(workload, tracer, outcome, passes[0][1],
                                mpmath_calls(workload.profile_subset))
    else:
        metrics = {
            "solves_per_s": {"value": oracles.rate(outcome.attempted - failed,
                                                   outcome.wall_s), "unit": "1/s"},
            "solve_ms_p50": {"value": oracles.median_ms(tracer.solve_s), "unit": "ms"},
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {"value": outcome.peak_rss_kb / 1024, "unit": "MB"},
        }
    print(f"{args.workload}: {len(tracer.solve_s)} solves timed, "
          f"{len(problems)} check failures, {failed} failed operations",
          flush=True)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "broydenlab" / "__init__.py").is_file():
        print(f"error: no broydenlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    work = WORK / str(os.getpid())
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    if result is None:
        return 1
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
