"""The benchmark's three workloads: inputs, the timed pass, output checks.

Each workload builds its inputs from the seed and the run length in
``__init__`` (this is what ``setup_s`` times, together with the import),
runs them through broydenlab's public entry points in :meth:`timed_pass`,
and checks the outputs against :mod:`oracles` in :meth:`check`.  The amount
of work is fixed by the seed and the run length alone, so two runs with the
same arguments attempt the same solves and a traced pass repeats its counts.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import random
import re
import resource
import time
import traceback
from pathlib import Path

from broydenlab import basin, cli, harness
from broydenlab.linalg import PrecisionContext
from broydenlab.problems import get_problem
from broydenlab.solvers import SUCCESS, SolverOptions

import oracles


@dataclasses.dataclass
class Outcome:
    """Raw result of one timed pass."""

    attempted: int
    wall_s: float
    solve_s: list
    peak_rss_kb: int
    #: per-operation results that tracing must leave unchanged
    fingerprint: list
    data: dict


def _self_peak_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _report(exc: BaseException) -> str:
    traceback.print_exception(exc)
    return f"{type(exc).__name__}: {exc}"


class Workload:
    """Defaults shared by the workloads."""

    name = ""
    workers = 1

    def untimed_checks(self) -> list:
        """Checks run after the timed passes; returns failure messages."""
        return []


class Cumulative(Workload):
    """``harness.cumulative_run`` on example1, one worker."""

    name = "cumulative"
    #: nominal solves per second on the reference machine; sizes m
    RUNS_PER_S = 2.3

    def __init__(self, seed: int, seconds: int, workdir: Path):
        m = max(4, round(seconds * self.RUNS_PER_S))
        self.cfg = harness.SeriesConfig(
            problem="example1", alpha="1e-5", beta="0", b0_mode="jacobian",
            m=m, tol_exponent=100, precision=320, max_iter=500, rng_seed=seed)
        self.crit = harness.default_criteria("example1")
        self.oracle_run = random.Random(seed).randrange(m)

    def timed_pass(self, tracer) -> Outcome:
        runs = {}

        def note(result, args, dt):
            rec, _ = result
            runs[args[1]] = (rec.status, rec.kbar)

        tracer.wrap_solve("harness", "run_single", note)
        summary = error = None
        t0 = time.perf_counter()
        try:
            summary = harness.cumulative_run(self.cfg, self.crit, workers=1)
        except Exception as exc:  # a raising solve loses the whole call
            error = _report(exc)
        wall = time.perf_counter() - t0
        return Outcome(attempted=self.cfg.m, wall_s=wall, solve_s=tracer.solve_s,
                       peak_rss_kb=_self_peak_kb(),
                       fingerprint=[runs.get(j) for j in range(self.cfg.m)],
                       data={"summary": summary, "runs": runs, "error": error})

    def check(self, out: Outcome):
        runs, summary = out.data["runs"], out.data["summary"]
        failed = [j for j in range(self.cfg.m)
                  if summary is None or j not in runs
                  or runs[j][0] not in SUCCESS or not 150 <= runs[j][1] <= 280]
        notes = [f"run {j}: {runs.get(j)}" for j in failed]
        if out.data["error"]:
            notes.append(out.data["error"])
        if summary is None:
            return len(failed), ["cumulative_run raised"], notes
        g = oracles.golden_ratio()
        problems = []
        if summary.removed != 0:
            problems.append(f"{summary.removed} runs removed: {summary.removal_reasons}")
        for attr in ("q_min", "q_max", "q_eps_min", "q_eps_max"):
            value = getattr(summary, attr)
            if abs(value - g) > oracles.mpf("2e-3"):
                problems.append(f"{attr} = {float(value)} is not (sqrt(5)-1)/2")
        for attr in ("delta_min", "delta_max"):
            if not oracles.mpf("1.97") <= getattr(summary, attr) <= oracles.mpf("2.01"):
                problems.append(f"{attr} = {float(getattr(summary, attr))} not in [1.97, 2.01]")
        if not 0 <= summary.lambda1 <= oracles.mpf("1e-20"):
            problems.append(f"Lambda1 = {float(summary.lambda1)} > 1e-20")
        # one singular value of E collapses, the other stays at the scale
        # of the start box (down to 4e-8 at alpha = 1e-5), so the check is
        # the gap between them
        if not summary.lambda2_min >= oracles.mpf("1e10") * summary.lambda1:
            problems.append(f"Lambda2_min = {float(summary.lambda2_min)} is not "
                            f"1e10 x Lambda1 = {float(summary.lambda1)}")
        if not 150 <= summary.it_min <= summary.it_max <= 280:
            problems.append(f"iterations [{summary.it_min}, {summary.it_max}] "
                            "outside [150, 280]")
        problems += self._secant_check(runs)
        return len(failed), problems, notes

    def _secant_check(self, runs) -> list:
        """The independent recursion must reach the tolerance in kbar +- 1."""
        j = self.oracle_run
        ctx = PrecisionContext(self.cfg.precision)
        u_hat, _, _ = harness.init_random(
            get_problem("example1"), self.cfg.alpha, self.cfg.beta,
            harness.CounterRng(self.cfg.rng_seed, j), ctx)
        iterates = oracles.broyden_iterates(
            oracles.example1_f, oracles.example1_jac, u_hat.entries,
            self.cfg.tol_exponent, self.cfg.max_iter, self.cfg.precision)
        kbar = runs.get(j, (None, None))[1]
        if kbar is None or abs(len(iterates) - 1 - kbar) > 1:
            return [f"run {j}: kbar {kbar}, independent recursion {len(iterates) - 1}"]
        return []

    def profile_subset(self):
        """Two solves through the same entry point, for the mpmath count."""
        harness.cumulative_run(dataclasses.replace(self.cfg, m=2), self.crit)


class Basin(Workload):
    """``basin.render_basin`` on example1 over a near and a far grid."""

    name = "basin"
    workers = 2
    #: nominal pixels per second with two workers on the reference machine
    PIXELS_PER_S = 38.0
    HALF_WIDTHS = ("0.001", "0.1")

    def __init__(self, seed: int, seconds: int, workdir: Path):
        self.problem = get_problem("example1")
        self.crit = harness.default_criteria("example1")
        self.opts = SolverOptions(precision=PrecisionContext(160),
                                  tol_exponent=60, max_iter=300,
                                  record_spectra=False)
        side = math.sqrt(seconds * self.PIXELS_PER_S / len(self.HALF_WIDTHS))
        self.res = max(5, 2 * round((side - 1) / 2) + 1)
        rng = random.Random(seed)
        # the seed shifts both grids by less than half a pixel
        self.jitter = (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        self.grids = [self.grid(hw, self.res) for hw in self.HALF_WIDTHS]

    def grid(self, half_width: str, res: int) -> basin.GridSpec:
        pitch = 2 * float(half_width) / (res - 1)
        return basin.GridSpec(half_width=half_width, resolution=res,
                              center=tuple(repr(f * pitch) for f in self.jitter))

    def timed_pass(self, tracer) -> Outcome:
        tracer.wrap_solve("basin", "classify_point_detail")
        tracer.hook_pool_chunks()
        renders, images, capped, errors = [], [], 0, []
        for grid in self.grids:
            t0 = time.perf_counter()
            try:
                image, results = basin.render_basin(
                    self.problem, grid, self.crit, self.opts, workers=self.workers)
            except Exception as exc:  # the whole grid is lost
                image, results = None, []
                errors.append(_report(exc))
            renders.append((time.perf_counter() - t0, tracer.collect_workers()))
            images.append(image)
            capped += sum(r.kbar for r in results if r.classification
                          is basin.Classification.NO_CONVERGENCE)
        worker_peak = {}
        for _, records in renders:
            for record in records:
                worker_peak[record["pid"]] = max(worker_peak.get(record["pid"], 0),
                                                 record["maxrss_kb"])
        return Outcome(attempted=len(self.grids) * self.res ** 2,
                       wall_s=sum(wall for wall, _ in renders),
                       solve_s=tracer.solve_s,
                       peak_rss_kb=_self_peak_kb() + sum(worker_peak.values()),
                       fingerprint=images,
                       data={"renders": renders, "capped": capped, "errors": errors})

    def check(self, out: Outcome):
        near, far = out.fingerprint
        failed = sum(self.res ** 2 for image in out.fingerprint if image is None)
        if failed:
            return failed, ["render_basin raised"], out.data["errors"]
        problems = []
        try:
            near_px = oracles.ppm_pixels(near, self.res)
            far_px = oracles.ppm_pixels(far, self.res)
        except ValueError as exc:
            return 0, [str(exc)], []
        blue = (0, 0, 255)

        def fraction(px):
            return sum(row.count(blue) for row in px) / self.res ** 2

        if fraction(near_px) < fraction(far_px):
            problems.append(f"blue fraction near {fraction(near_px):.4f} < "
                            f"far {fraction(far_px):.4f}")
        mid = self.res // 2
        if near_px[mid][mid] != blue:
            problems.append("centre pixel is not in-band")
        for sx in (1, -1):
            for sy in (1, -1):
                # image row r holds grid index j = res - 1 - r
                if not any(near_px[r][c] == blue
                           for r in range(self.res) for c in range(self.res)
                           if (c - mid) * sx > 0 and (self.res - 1 - r - mid) * sy > 0):
                    problems.append(f"quadrant ({sx}, {sy}) has no in-band pixel")
        return 0, problems, []

    def untimed_checks(self) -> list:
        """A small grid renders to the same bytes with one and two workers."""
        grid = self.grid(self.HALF_WIDTHS[0], 7)
        one, _ = basin.render_basin(self.problem, grid, self.crit, self.opts, workers=1)
        two, _ = basin.render_basin(self.problem, grid, self.crit, self.opts, workers=2)
        return [] if one == two else ["7x7 render differs between 1 and 2 workers"]

    def profile_subset(self):
        """A 5x5 near grid in-process, for the mpmath count."""
        basin.render_basin(self.problem, self.grid(self.HALF_WIDTHS[0], 5),
                           self.crit, self.opts, workers=1)


@dataclasses.dataclass(frozen=True)
class Case:
    problem: str
    method: str
    alpha: str
    digits: int
    extra: tuple = ()

    def argv(self, seed: int, out: Path, full: bool) -> list:
        argv = ["single", "--problem", self.problem, "--method", self.method,
                "--alpha", self.alpha, "--precision", str(self.digits),
                "--seed", str(seed), "--out", str(out), *self.extra]
        return argv + ["--full-precision"] if full else argv


CASES = (
    Case("example1", "bmp", "0.01", 350),
    Case("example1", "bm", "0.01", 350),
    Case("example1", "newton", "0.01", 350),
    Case("example1", "smp", "0.01", 350),
    Case("example2", "bmp", "0.01", 350),
    Case("example3", "bmp", "0.1", 350, ("--b0-mode", "broyden-update")),
    Case("example4", "bmp", "0.1", 1100),
    Case("monomial:3", "bmp", "0.1", 350),
)

_KBAR = re.compile(r"status=(\S+) kbar=(\d+)")


def kbar_of(stdout: str):
    """kbar from the summary line ``single`` prints, None when absent."""
    match = _KBAR.search(stdout)
    return int(match.group(2)) if match else None


def check_case(case: Case, rc, stdout: str, csv_text: str) -> list:
    """Failures of one ``single`` invocation against the method's rates."""
    kbar = kbar_of(stdout)
    if rc != 0 or kbar is None or not csv_text:
        return [f"exit code {rc}"]
    rows = oracles.read_csv(csv_text)
    if len(rows) != kbar + 1:
        return [f"{len(rows)} rows for kbar {kbar}"]
    final = rows[-1]
    q, big_q, delta = (oracles.mpf(final[c]) for c in ("q", "Q", "delta"))
    g, t = oracles.golden_ratio(), oracles.t_star()
    first_order = case.problem in ("example1", "example2")
    second_order = case.problem in ("example3", "monomial:3")
    target = None
    if first_order and case.method in ("bm", "bmp"):
        target = (g, g)
    elif case.method == "newton":
        target = (oracles.mpf("0.5"), oracles.mpf("0.5"))
    elif second_order:
        target = (t, t * t)
    out = []
    if target is not None:
        tol = oracles.mpf("1e-3")
        if abs(q - target[0]) > tol:
            out.append(f"final q {final['q']}, expected {float(target[0]):.6f}")
        if big_q != -1 and abs(big_q - target[1]) > tol:
            out.append(f"final Q {final['Q']}, expected {float(target[1]):.6f}")
    if case.problem == "example4" and not (q != -1 and q <= oracles.mpf("1e-3")):
        out.append(f"final q {final['q']} > 1e-3 at a regular root")
    if first_order and case.method != "smp":
        lo, hi = "1.97", "2.01"
    elif second_order:
        lo, hi = "2.93", "3.01"
    else:
        lo = hi = None
    if lo is not None and not oracles.mpf(lo) <= delta <= oracles.mpf(hi):
        out.append(f"final delta {final['delta']} not in [{lo}, {hi}]")
    if case.method == "smp":
        order = oracles.fitted_order([oracles.mpf(r["u_norm"]) for r in rows])
        if order < 1.4:
            out.append(f"fitted order {order:.3f} < 1.4")
    return out


def cells_agree(six_text: str, full_text: str) -> bool:
    """Every full-precision cell rounds to its six-digit cell."""
    if not six_text or not full_text:
        return False
    six, full = oracles.read_csv(six_text), oracles.read_csv(full_text)
    return len(six) == len(full) and all(
        oracles.six_digit_agrees(a[c], b[c]) for a, b in zip(six, full) for c in a)


class Single(Workload):
    """``cli.main(["single", ...])`` in-process over :data:`CASES`."""

    name = "single"
    #: nominal seconds for one pass (every case, six-digit and full) on the
    #: reference machine
    PASS_S = 11.0

    def __init__(self, seed: int, seconds: int, workdir: Path):
        passes = max(1, round(seconds / self.PASS_S))
        self.ops = [(seed * 1000 + r, case, full)
                    for r in range(passes) for case in CASES
                    for full in (False, True)]
        self.workdir = workdir

    def timed_pass(self, tracer) -> Outcome:
        tracer.wrap_solve("cli", "main")
        base = self.workdir / f"single-{time.perf_counter_ns()}"
        results = []
        t0 = time.perf_counter()
        for i, (seed, case, full) in enumerate(self.ops):
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = cli.main(case.argv(seed, base / str(i), full))
            except Exception as exc:  # counted as a failed solve
                rc = _report(exc)
            results.append((rc, buf.getvalue()))
        wall = time.perf_counter() - t0
        peak = _self_peak_kb()
        csvs = []
        for i in range(len(self.ops)):
            path = base / str(i) / "metrics.csv"
            csvs.append(path.read_text() if path.is_file() else "")
        return Outcome(attempted=len(self.ops), wall_s=wall, solve_s=tracer.solve_s,
                       peak_rss_kb=peak,
                       fingerprint=[(rc, out, text) for (rc, out), text
                                    in zip(results, csvs)],
                       data={"bytes": sum(len(t.encode()) for t in csvs)})

    def check(self, out: Outcome):
        index = {op: i for i, op in enumerate(self.ops)}
        notes = {}
        for i, (seed, case, full) in enumerate(self.ops):
            rc, stdout, text = out.fingerprint[i]
            failures = check_case(case, rc, stdout, text)
            six = out.fingerprint[index[seed, case, False]][2]
            if full and not cells_agree(six, text):
                failures.append("full-precision cells disagree with six-digit cells")
            if case.method == "smp":
                k_smp = kbar_of(stdout)
                k_bmp = kbar_of(out.fingerprint[index[seed, CASES[0], full]][1])
                if k_smp is None or k_bmp is None or k_smp >= k_bmp:
                    failures.append(f"smp took {k_smp} iterations, bmp {k_bmp}")
            if failures:
                notes[i] = f"{case.problem} {case.method} seed {seed} " \
                           f"full={full}: {'; '.join(failures)}"
        return len(notes), [], list(notes.values())

    def profile_subset(self):
        """The first pass's cases with six-digit output, for the mpmath count."""
        out = self.workdir / "single-profile"
        seed = self.ops[0][0]
        for case in CASES:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(case.argv(seed, out, False))


WORKLOADS = {w.name: w for w in (Cumulative, Basin, Single)}
