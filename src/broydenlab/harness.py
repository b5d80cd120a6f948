"""Seeded single-run and cumulative-run experiment driver.

A cumulative run launches ``m`` seeded single runs, filters out those that
fail to converge or leave the q-factor bands, and aggregates window extrema
of the diagnostics over the accepted set (see README.md).  Randomness is a
counter-based SHA-256 stream keyed by (seed, run index), so results do not
depend on the worker count.
"""
from __future__ import annotations

import dataclasses
import os
import struct
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import mpmath

from .diagnostics import metrics_from_trace, window_extreme
from .linalg import Mat, PrecisionContext, Vec, singular_values
from .problems import Problem, get_problem
from .solvers import RunRecord, SolverOptions, Status, SUCCESS, bmp_run

B0_MODES = ("jacobian", "broyden-update")  # B_0 = F'(u_0) or a secant update


class EmptyAcceptedSet(Exception):
    """Every single run of a cumulative run was removed."""

    def __init__(self, removed: int, reasons: dict):
        super().__init__(f"all {removed} runs removed: {reasons}")
        self.removed = removed
        self.reasons = reasons


_TWO128 = 1 << 128


class CounterRng:
    """Counter-based random bit stream: each draw keeps 128 bits of the
    SHA-256 of (seed, stream, counter), each in [0, 2**64)."""

    def __init__(self, seed: int, stream: int = 0):
        self._key = struct.pack("<QQ", seed, stream)
        self._counter = 0

    def bits(self) -> int:
        """Next 128 random bits as an integer; imports here, as a basin never draws."""
        try:   # hashlib loads OpenSSL (3.5 MB), so take the interpreter's own
            from _sha256 import sha256       # SHA-256, as random.py does
        except ImportError:
            try:
                from _sha2 import sha256     # CPython 3.12+
            except ImportError:
                from hashlib import sha256
        digest = sha256(self._key + struct.pack("<Q", self._counter)).digest()
        self._counter += 1
        return int.from_bytes(digest[:16], "big")

    def uniform_symmetric(self, ctx: PrecisionContext, scale):
        """Uniform scalar in [-scale, scale) from 128 random bits."""
        return ctx.real(scale) * (2 * (ctx.real(self.bits()) / _TWO128) - 1)


def check_scale(name: str, value, allow_zero: bool = False) -> str:
    """``value`` as a decimal string after checking that it is a finite
    number that is positive (or nonnegative with ``allow_zero``)."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        x = mpmath.mpf(str(value))
    except (ValueError, TypeError, ZeroDivisionError):
        raise ValueError(f"{name} is not a number: {value!r}") from None
    if not mpmath.isfinite(x) or x < 0 or (x == 0 and not allow_zero):
        kind = "nonnegative" if allow_zero else "positive"
        raise ValueError(f"{name} must be finite and {kind}, got {value!r}")
    return str(value)


@dataclass(frozen=True)
class SeriesConfig:
    """Configuration of one cumulative run of m single runs (``single`` is
    run index 0 of a series with m = 1)."""

    problem: str
    alpha: str
    beta: str = "0"
    b0_mode: str = "jacobian"           # one of B0_MODES
    m: int = 200
    tol_exponent: int = 100
    precision: int = 320
    max_iter: int = 500
    rng_seed: int = 0
    window_rule: str = "min"            # "min" as printed, "max" alternative

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and (isinstance(value, bool)
                                    or not isinstance(value, int)):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
        if not isinstance(self.problem, str):
            raise ValueError(f"problem must be a name, got {self.problem!r}")
        object.__setattr__(self, "alpha", check_scale("alpha", self.alpha))
        object.__setattr__(self, "beta",
                           check_scale("beta", self.beta, allow_zero=True))
        if self.b0_mode not in B0_MODES:
            raise ValueError(f"unknown b0_mode {self.b0_mode!r}")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not 0 <= self.rng_seed < 1 << 64:
            raise ValueError(f"rng_seed must lie in [0, 2**64), got {self.rng_seed}")
        if self.window_rule not in ("min", "max"):
            raise ValueError(f"unknown window_rule {self.window_rule!r}")

    @classmethod
    def from_mapping(cls, data: dict) -> "SeriesConfig":
        fields = dataclasses.fields(cls)
        _check_keys("config", data, [f.name for f in fields],
                    [f.name for f in fields if f.default is dataclasses.MISSING])
        return cls(**data)


def _check_keys(what: str, data, known, required=()):
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {data!r}")
    unknown = set(data) - set(known)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    missing = [name for name in required if name not in data]
    if missing:
        raise ValueError(f"missing {what} keys: {missing}")


@dataclass(frozen=True)
class AcceptanceCriteria:
    """A run is accepted when it converged, its final iterate is within
    ``u_cap`` of the root, and its final q-factors lie in the closed bands."""

    u_cap: str = "1e-10"
    q_band: Optional[tuple] = None
    big_q_band: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "u_cap", check_scale("u_cap", self.u_cap))
        for name in ("q_band", "big_q_band"):
            band = getattr(self, name)
            if band is not None:
                if not isinstance(band, (list, tuple)) or len(band) != 2:
                    raise ValueError(f"{name} must be a (lo, hi) pair, got {band!r}")
                lo, hi = (check_scale(name, x, allow_zero=True) for x in band)
                # exactly: as doubles, 1e-400 and 1e-401 are both 0
                from fractions import Fraction
                if Fraction(lo) > Fraction(hi):
                    raise ValueError(f"{name} is empty: {band}")
                object.__setattr__(self, name, (lo, hi))

    @classmethod
    def from_mapping(cls, data: dict) -> "AcceptanceCriteria":
        """Criteria from a config's ``criteria`` object with the keys
        ``u_cap``, ``q_band`` and ``Q_band``; null keeps the default."""
        fields = {"u_cap": "u_cap", "q_band": "q_band", "Q_band": "big_q_band"}
        _check_keys("criteria", data, fields)
        return cls(**{fields[k]: v for k, v in data.items() if v is not None})


def default_criteria(problem_name: str) -> AcceptanceCriteria:
    """Per-problem acceptance bands for the final q-factors."""
    if problem_name in ("example1", "example2"):
        return AcceptanceCriteria(q_band=("0.616", "0.620"),
                                  big_q_band=("0.616", "0.620"))
    if problem_name == "example3":
        return AcceptanceCriteria(q_band=("0.753", "0.757"),
                                  big_q_band=("0.568", "0.572"))
    return AcceptanceCriteria()


def window(kbar: int, rule: str = "min") -> range:
    """Final-window indices K = {k0, ..., kbar} of one single run."""
    quarter = (3 * kbar) // 4
    k0 = min(kbar - 25, quarter) if rule == "min" else max(kbar - 25, quarter)
    return range(max(1, k0), kbar + 1)


def init_random(p: Problem, alpha, beta, rng: CounterRng,
                ctx: PrecisionContext):
    """Random (u_hat, B_hat, noise matrix for B_0), drawn in that order,
    row-major, so a (seed, run index) pair reproduces them."""
    n = p.n
    u_hat = Vec(tuple(rng.uniform_symmetric(ctx, alpha) for _ in range(n)), ctx)
    r_hat = ctx.mat([[rng.uniform_symmetric(ctx, 1) for _ in range(n)]
                     for _ in range(n)])
    noise = ctx.mat([[rng.uniform_symmetric(ctx, 1) for _ in range(n)]
                     for _ in range(n)])
    return u_hat, perturbed(p.jac(u_hat), beta, r_hat), noise


def perturbed(jac: Mat, beta, noise: Mat) -> Mat:
    """jac + beta ||jac||_2 noise, or jac itself when beta = 0."""
    ctx = jac.ctx
    beta = ctx.real(beta)
    if beta == 0:
        return jac
    scale = beta * singular_values(jac)[-1]
    return jac + Mat(tuple(tuple(scale * x for x in row)
                           for row in noise.rows), ctx)


def seeded_start(cfg: SeriesConfig, run_index: int):
    """(p, opts, u_hat, b_hat, b0) of one run of ``cfg``; ``b0`` is the B_0
    rule of :func:`solvers.bmp_run` for the ``jacobian`` mode (u0 -> F'(u0)
    perturbed by beta and the run's noise), otherwise None."""
    ctx = PrecisionContext(cfg.precision)
    p = get_problem(cfg.problem)
    opts = SolverOptions(precision=ctx, tol_exponent=cfg.tol_exponent,
                         max_iter=cfg.max_iter)
    rng = CounterRng(cfg.rng_seed, run_index)
    u_hat, b_hat, noise = init_random(p, cfg.alpha, cfg.beta, rng, ctx)
    b0 = (lambda u0: perturbed(p.jac(u0), cfg.beta, noise)) \
        if cfg.b0_mode == "jacobian" else None
    return p, opts, u_hat, b_hat, b0


def run_single(cfg: SeriesConfig, run_index: int):
    """One seeded run of the series: its record and its metrics rows over
    the final window K of ``cfg.window_rule``."""
    p, opts, u_hat, b_hat, b0 = seeded_start(cfg, run_index)
    rec = bmp_run(p, u_hat, b_hat, opts, b0)
    rows = metrics_from_trace(rec, p, window(rec.kbar, cfg.window_rule))
    return rec, rows


def removal_reason(rec: RunRecord, rows: list,
                   crit: AcceptanceCriteria) -> Optional[str]:
    """None when the run is accepted, otherwise the removal category; only
    the final row of ``rows`` is read, once the status and kbar >= 2 pass."""
    if rec.status is Status.MAX_ITER:
        return "timeout"
    if rec.status not in SUCCESS:
        return "no-convergence"
    if rec.kbar < 2:
        return "degenerate"
    final = rows[-1]
    ctx = final.ctx
    if final.err > ctx.real(crit.u_cap):
        return "u-cap"
    for band, value in ((crit.q_band, final.q), (crit.big_q_band, final.q_eps)):
        if band is None:
            continue
        lo, hi = ctx.real(band[0]), ctx.real(band[1])
        if value is None or not (lo <= value <= hi):
            return "band"
    return None


class SummaryColumn(NamedTuple):
    """One column of summary.csv: ``stat`` = (pick, MetricsRow attribute),
    the value at kbar ("final") or the window extremum ("min", "max"), which
    ``fold`` reduces over the accepted runs into the field ``attr``."""

    csv: str
    attr: str
    stat: tuple
    fold: Callable


SUMMARY_COLUMNS = tuple(SummaryColumn(*c) for c in (
    ("F_min", "f_min", ("final", "f_norm"), min),
    ("F_max", "f_max", ("final", "f_norm"), max),
    ("u_min", "u_min", ("final", "err"), min),
    ("u_max", "u_max", ("final", "err"), max),
    ("r_min", "r_min", ("min", "r"), min),
    ("r_max", "r_max", ("max", "r"), max),
    ("q_min", "q_min", ("min", "q"), min),
    ("q_max", "q_max", ("max", "q"), max),
    ("R_min", "r_eps_min", ("min", "r_eps"), min),
    ("R_max", "r_eps_max", ("max", "r_eps"), max),
    ("Q_min", "q_eps_min", ("min", "q_eps"), min),
    ("Q_max", "q_eps_max", ("max", "q_eps"), max),
    ("delta_min", "delta_min", ("min", "delta"), min),
    ("delta_max", "delta_max", ("max", "delta"), max),
    # zeta folds the window maximum both ways
    ("zeta_min", "zeta_min", ("max", "zeta"), min),
    ("zeta_max", "zeta_max", ("max", "zeta"), max),
    ("Lambda1", "lambda1", ("final", "lambda1"), max),
    ("Lambda2_min", "lambda2_min", ("final", "lambda2"), min),
    ("Lambda2_max", "lambda2_max", ("final", "lambda2"), max),
    ("E_norm", "e_norm_min", ("min", "e_norm"), min),
    ("it_min", "it_min", ("final", "k"), min),
    ("it_max", "it_max", ("final", "k"), max),
))

#: the distinct per-run statistics, in column order
_STATS = tuple(dict.fromkeys(c.stat for c in SUMMARY_COLUMNS))


def run_stats(rows: list) -> tuple:
    """The per-run statistics of one run's window rows (final row last), in
    ``_STATS`` order, an mpf as its ``_mpf_`` tuple.  The window extrema
    come first, so that the final row's spectrum enters by its key too."""
    values = {stat: window_extreme(*stat, rows) for stat in _STATS
              if stat[0] != "final"}
    values.update({stat: getattr(rows[-1], stat[1]) for stat in _STATS
                   if stat[0] == "final"})
    return tuple(getattr(values[s], "_mpf_", values[s]) for s in _STATS)


CumulativeSummary = dataclasses.make_dataclass(
    "CumulativeSummary",
    [("accepted", int), ("removed", int), ("removal_reasons", dict)]
    + [(c.attr, object) for c in SUMMARY_COLUMNS],
    namespace={"__module__": __name__, "__doc__": (
        "Aggregates over the accepted runs of one cumulative run: besides the "
        "run counts, one field per SUMMARY_COLUMNS entry holding the column's "
        "fold of its per-run statistic, None if no accepted run defines it.")})


def _reduce_stats(all_stats: list, ctx: PrecisionContext, removed: int,
                  reasons: dict) -> CumulativeSummary:
    """Fold the accepted runs' :func:`run_stats` tuples column by column."""
    if not all_stats:
        raise EmptyAcceptedSet(removed, reasons)

    def fold(col):
        i = _STATS.index(col.stat)
        values = [ctx.make(s[i]) if isinstance(s[i], tuple) else s[i]
                  for s in all_stats if s[i] is not None]
        return col.fold(values) if values else None

    return CumulativeSummary(
        accepted=len(all_stats), removed=removed, removal_reasons=dict(reasons),
        **{col.attr: fold(col) for col in SUMMARY_COLUMNS})


def pool_size(workers: int, tasks: int, cpus: Optional[int]) -> int:
    """Processes for ``tasks`` tasks: at most the requested ``workers``,
    the ``cpus`` available and one per task."""
    return min(workers, cpus or 1, tasks)


def parallel_map(fn, tasks, workers: int) -> list:
    """``[fn(*task) for task in tasks]``, in task order, on a process pool
    of :func:`pool_size` workers, or in-process when that is at most one."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    tasks = list(tasks)
    size = pool_size(workers, len(tasks), os.cpu_count())
    if size <= 1:
        return [fn(*task) for task in tasks]
    import concurrent.futures
    with concurrent.futures.ProcessPoolExecutor(max_workers=size) as pool:
        futures = [pool.submit(fn, *task) for task in tasks]
        return [f.result() for f in futures]


def _worker_stats(cfg: SeriesConfig, crit: AcceptanceCriteria, run_index: int):
    rec, rows = run_single(cfg, run_index)
    reason = removal_reason(rec, rows, crit)
    return reason, None if reason is not None else run_stats(rows)


def cumulative_run(cfg: SeriesConfig, crit: Optional[AcceptanceCriteria] = None,
                   workers: int = 1) -> CumulativeSummary:
    """Run the m single runs of ``cfg``, filter, and aggregate in run-index
    order (bit-identical for any ``workers``); :class:`EmptyAcceptedSet`
    when every run is removed."""
    if crit is None:
        crit = default_criteria(cfg.problem)
    ctx = PrecisionContext(cfg.precision)
    reasons: dict = {}
    stats: list = []
    results = parallel_map(_worker_stats,
                           [(cfg, crit, j) for j in range(cfg.m)], workers)
    for reason, wire in results:
        if reason is not None:
            reasons[reason] = reasons.get(reason, 0) + 1
        else:
            stats.append(wire)
    removed = sum(reasons.values())
    return _reduce_stats(stats, ctx, removed, reasons)
