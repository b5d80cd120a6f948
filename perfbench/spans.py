"""Timers and counters wrapped around broydenlab's public functions.

Nothing here edits ``src/``: a :class:`Tracer` rebinds a function in every
``broydenlab`` module that imported it, so calls made from inside the
package go through the wrapper, and :meth:`Tracer.restore` puts the original
back.  Each span accumulates calls, total time and self time (total minus
the time of wrapped callees).

The untraced run wraps only the per-solve function of its workload.  The
traced run wraps every layer listed in :data:`LAYERS`.

``basin.render_basin`` runs its pixels in forked pool workers.  Workers
inherit the wrappers; the chunk hook resets the inherited totals at the
start of each chunk and writes the chunk's solve times, busy time, peak
resident set and span totals to one JSON file in the spool directory.  The
parent merges those files with :meth:`Tracer.collect_workers`.
"""
from __future__ import annotations

import cProfile
import dataclasses
import functools
import json
import os
import pstats
import resource
import sys
import time
from pathlib import Path

import mpmath

#: (module, attribute, span name) of every function the traced run wraps.
LAYERS = (
    ("linalg", "singular_values", "linalg.singular_values"),
    ("linalg", "lu_solve", "linalg.lu_solve"),
    ("linalg", "rank_one_update", "linalg.rank_one_update"),
    ("solvers", "bmp_run", "solvers"),
    ("solvers", "broyden_run", "solvers"),
    ("solvers", "newton_run", "solvers"),
    ("solvers", "smp_run", "solvers"),
    ("diagnostics", "metrics_from_trace", "diagnostics.metrics_from_trace"),
    ("harness", "init_random", "harness.init_random"),
    ("harness", "run_single", "harness.run_single"),
    ("harness", "run_stats", "harness.run_stats"),
    ("harness", "cumulative_run", "harness.cumulative_run"),
    ("basin", "classify_point_detail", "basin.classify_point_detail"),
    ("formatting", "format_metric", "formatting"),
    ("formatting", "format_full", "formatting"),
    ("cli", "main", "cli.main"),
)


def _module(short: str):
    return sys.modules[f"broydenlab.{short}"]


class Tracer:
    """Spans and counters for one pass of a workload.

    ``totals`` maps a span name to ``[calls, total_s, self_s]``; ``counts``
    holds plain counters (solver iterations, metrics rows); ``solve_s`` the
    durations of the workload's per-solve function.
    """

    def __init__(self, spool: Path):
        self.spool = spool
        self.root_pid = os.getpid()
        self._patched = []
        self._reset()

    def _reset(self):
        self.totals = {}
        self.counts = {}
        self.solve_s = []
        self._stack = []

    # -- wrapping -------------------------------------------------------------

    def _rebind(self, original, replacement):
        for name, mod in list(sys.modules.items()):
            if not name.startswith("broydenlab"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._patched.append((mod, attr, original))

    def restore(self):
        """Undo every rebinding, newest first."""
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def span(self, name, fn, on_exit=None):
        """``fn`` wrapped in a timed span; ``on_exit(result, args, dt)``
        runs after the span closes."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = [0.0]
            self._stack.append(child)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += dt
                entry = self.totals.setdefault(name, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - child[0]
            if on_exit is not None:
                on_exit(result, args, dt)
            return result

        return wrapper

    def wrap(self, module: str, attr: str, name: str, on_exit=None):
        original = getattr(_module(module), attr)
        self._rebind(original, self.span(name, original, on_exit))

    def wrap_solve(self, module: str, attr: str, on_exit=None):
        """Time the workload's per-solve function (the untraced timer)."""
        def note(result, args, dt):
            self.solve_s.append(dt)
            if on_exit is not None:
                on_exit(result, args, dt)
        self.wrap(module, attr, f"solve:{module}.{attr}", note)

    def wrap_layers(self):
        """Wrap every layer of :data:`LAYERS`, with counters on top."""
        def count(key, amount):
            self.counts[key] = self.counts.get(key, 0) + amount

        def solver_done(rec, args, dt):
            count("solvers.iterations", rec.kbar)

        def rows_done(rows, args, dt):
            count("diagnostics.rows", len(rows))

        extra = {"solvers": solver_done,
                 "diagnostics.metrics_from_trace": rows_done}
        for module, attr, name in LAYERS:
            self.wrap(module, attr, name, extra.get(name))
        problems = _module("problems")
        get_problem = problems.get_problem

        @functools.wraps(get_problem)
        def traced_get_problem(name):
            p = get_problem(name)
            return dataclasses.replace(
                p, f=self.span("problems.f", p.f),
                jac=self.span("problems.jac", p.jac))

        self._rebind(get_problem, traced_get_problem)

    # -- pool workers ---------------------------------------------------------

    def hook_pool_chunks(self):
        """Ship per-chunk records out of forked ``render_basin`` workers.

        The wrapper keeps the name and module of ``basin._classify_chunk``,
        so the pool pickles it by reference and the forked worker resolves
        it to this wrapper.
        """
        basin = _module("basin")
        original = basin._classify_chunk

        @functools.wraps(original)
        def chunk(*args, **kwargs):
            if os.getpid() == self.root_pid:
                return original(*args, **kwargs)
            self._reset()
            t0 = time.perf_counter()
            out = original(*args, **kwargs)
            record = {"pid": os.getpid(),
                      "busy_s": time.perf_counter() - t0,
                      "solve_s": self.solve_s,
                      "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      "totals": self.totals, "counts": self.counts}
            path = self.spool / f"chunk-{os.getpid()}-{time.perf_counter_ns()}.json"
            path.write_text(json.dumps(record))
            return out

        self._rebind(original, chunk)

    def collect_workers(self) -> list:
        """Merge and remove the chunk files written since the last call.

        Returns the chunk records (pid, busy time, peak resident set).
        """
        records = []
        for path in sorted(self.spool.glob("chunk-*.json")):
            record = json.loads(path.read_text())
            path.unlink()
            records.append(record)
            self.solve_s.extend(record["solve_s"])
            for name, (calls, total, own) in record["totals"].items():
                entry = self.totals.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += own
            for key, amount in record["counts"].items():
                self.counts[key] = self.counts.get(key, 0) + amount
        return records

    # -- reading --------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.totals.get(name, [0, 0.0, 0.0])[0]

    def seconds(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[1]

    def self_seconds(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[2]


def pool_balance(renders: list, workers: int):
    """(efficiency, imbalance_s) over ``renders``, a list of
    (render wall time, chunk records of that render).

    Efficiency is worker busy time over workers x render wall time; the
    imbalance sums, per render, the busiest minus the least busy worker
    (a worker that got no chunk counts as idle).
    """
    busy_total = wall_total = imbalance = 0.0
    for wall, records in renders:
        busy = {}
        for record in records:
            busy[record["pid"]] = busy.get(record["pid"], 0.0) + record["busy_s"]
        per_worker = list(busy.values()) + [0.0] * (workers - len(busy))
        busy_total += sum(per_worker)
        wall_total += wall
        imbalance += max(per_worker) - min(per_worker)
    if wall_total == 0:
        return 0.0, 0.0
    return busy_total / (workers * wall_total), imbalance


def mpmath_calls(fn) -> int:
    """Calls into mpmath from code outside it while ``fn()`` runs.

    mpmath generates its ``mpf`` operator methods with ``exec``, so their
    code carries no mpmath file name; they are recognised by their profile
    keys instead, which methods that ``dataclasses`` generate with the same
    name share.
    """
    mp_dir = os.path.dirname(mpmath.__file__)
    generated = set()
    for klass in type(mpmath.mp.mpf(1)).__mro__:
        for value in vars(klass).values():
            code = getattr(value, "__code__", None)
            if code is not None:
                generated.add((code.co_filename, code.co_firstlineno, code.co_name))

    def inside(key):
        return key[0].startswith(mp_dir) or key in generated

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
    total = 0
    for key, (_, _, _, _, callers) in pstats.Stats(profiler).stats.items():
        if inside(key):
            total += sum(v[0] for caller, v in callers.items() if not inside(caller))
    return total
