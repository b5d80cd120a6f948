"""Quasi-Newton iterations with full per-iteration traces.

Four drivers (``broyden_run``, ``bmp_run``, ``smp_run``, ``newton_run``)
run on one engine, which carries u, F, s, B and the trace as raw ``_mpf_``
tuples through the kernels :func:`linalg.kernels` picks by n.  No failure
mode raises out of a run: breakdowns, divergence and iteration caps land in
``RunRecord.status``.
"""
from __future__ import annotations

import enum
import functools
from dataclasses import InitVar, dataclass
from typing import Callable, Optional

from mpmath.libmp import fzero, mpf_gt, mpf_le, mpf_mul, mpf_neg, mpf_shift

from .linalg import (Mat, PrecisionContext, SingularMatrix, Vec, kernels, lu_solve,
                     mpf_add, mpf_div, mpf_sqrt, raw_dot)
from .problems import Problem


class Status(enum.Enum):
    CONVERGED = "converged"
    EXACT_ROOT = "exact-root"
    MAX_ITER = "max-iter"
    SINGULAR_MATRIX = "singular-matrix"
    DIVERGED = "diverged"


#: statuses that mean the run reached the residual tolerance
SUCCESS = (Status.CONVERGED, Status.EXACT_ROOT)


@dataclass(frozen=True)
class SolverOptions:
    """Stopping rules of one run: stop at ||F(u)|| <= 10**-``tol_exponent``
    (at least 20 digits above the working precision) or at ||u|| >
    ``divergence_guard``."""

    precision: PrecisionContext
    tol_exponent: int
    max_iter: int = 3000
    divergence_guard: float = 1e10
    # accepted and ignored: every run with a matrix keeps B_k.  perfbench's
    # basin workload still passes it; ROADMAP item 1 deletes both together
    record_spectra: InitVar[bool] = True

    def __post_init__(self, _ignored):
        if self.tol_exponent < 1:
            raise ValueError("tol_exponent must be positive")
        if self.tol_exponent > self.precision.decimal_digits - 20:
            raise ValueError("tol_exponent must be <= decimal_digits - 20")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")


@dataclass
class TraceEntry:
    """State at iteration index k as raw ``_mpf_`` tuples: u^k, the step s^k
    (None at kbar), the rows of B_k (None without a B), and the dot products
    F.F, s.s and F(u^{k+1}).F(u^{k+1}); ``f_norm``, ``s_norm`` and the
    update norm ``eps`` = ||F(u^{k+1})|| / ||s^k|| are cached on first read."""

    ctx: PrecisionContext
    raw_u: tuple
    ff: Optional[tuple] = None
    raw_s: Optional[tuple] = None
    ss: Optional[tuple] = None
    ff_next: Optional[tuple] = None
    raw_b: Optional[tuple] = None

    @functools.cached_property
    def f_norm(self):
        ctx = self.ctx
        return ctx.make(mpf_sqrt(self.ff, ctx.prec, ctx.rounding))

    @functools.cached_property
    def s_norm(self):
        if self.raw_s is None:
            return None
        ctx, raw = self.ctx, self.raw_s
        ss = raw_dot(raw, raw, ctx.prec, ctx.rounding) if self.ss is None else self.ss
        return ctx.make(mpf_sqrt(ss, ctx.prec, ctx.rounding))

    @functools.cached_property
    def eps(self):
        if self.ss is None:
            return None
        ctx = self.ctx
        prec, rnd = ctx.prec, ctx.rounding
        return ctx.make(mpf_div(mpf_sqrt(self.ff_next, prec, rnd),
                                self.s_norm._mpf_, prec, rnd))


@dataclass
class RunRecord:
    """Outcome of one run plus its full trace (display-indexed); the final
    index kbar is ``len(trace) - 1``."""

    status: Status
    trace: list

    kbar = property(lambda self: len(self.trace) - 1)


# -- shared bookkeeping --------------------------------------------------------

def _limits(opts):
    """Raw (tol, tol**2, guard, guard**2) of the stopping rules, squared
    exactly, and the largest g with 2**g <= guard**2."""
    ctx = opts.precision
    tol = ctx.pow10(-opts.tol_exponent)._mpf_
    guard = ctx.real(opts.divergence_guard)._mpf_
    guard2 = mpf_mul(guard, guard)
    return tol, mpf_mul(tol, tol), guard, guard2, guard2[2] + guard2[3] - 1


def _check_terminal(entry, k, opts, limits) -> Optional[Status]:
    # ||F|| == 0 and ||F|| <= tol, decided from ff = F.F: the correctly
    # rounded square root is monotone and tol and 2 tol are representable,
    # so ff <= tol**2 gives ||F|| <= tol and ff > 4 tol**2 gives
    # ||F|| >= 2 tol.  Only in between is ||F|| taken.
    tol, tol2, guard, guard2, guard_bits = limits
    ff = entry.ff
    if ff == fzero:
        return Status.EXACT_ROOT
    if mpf_le(ff, tol2) or (mpf_le(ff, mpf_shift(tol2, 2))
                            and mpf_le(entry.f_norm._mpf_, tol)):
        return Status.CONVERGED
    # likewise, u.u <= guard**2 means ||u|| <= guard.  A finite raw tuple
    # has |x| < 2**(exp + bc), so entries below 2**e give a rounded u.u of at
    # most n 2**(2 e) < 2**(2 e + bitlen(n)): the exponents alone can prove
    # u.u <= guard**2 without the dot
    u, ctx = entry.raw_u, entry.ctx
    spare = guard_bits - len(u).bit_length()
    if any((not t[1] and t != fzero) or 2 * (t[2] + t[3]) > spare for t in u):
        uu = raw_dot(u, u, ctx.prec, ctx.rounding)
        if mpf_gt(uu, guard2) and mpf_gt(mpf_sqrt(uu, ctx.prec, ctx.rounding), guard):
            return Status.DIVERGED
    if k >= opts.max_iter:
        return Status.MAX_ITER
    return None


def _engine(p, u, B, opts, refresh=None, step=None) -> RunRecord:
    """Iterate from (u, B) to a terminal status and record the run.

    With a matrix, s = -B^{-1} F(u) and B_{k+1} = B + F(u^{k+1}) s^T / s.s
    (y - B_k s collapses to F(u^{k+1}) since B_k s = -F(u^k), which keeps
    ||B_{k+1} - B_k|| = eps_k free of the LU residual), unless
    ``refresh(k, u_next)``, given raw u^{k+1}, returns a ``Mat`` for it.
    Without a matrix, ``step(k, u, fu) -> (s, u_next)`` on raw tuples
    proposes the next iterate: no B_k, no eps and no zero-step guard.
    """
    ctx = u.ctx
    prec, rnd = ctx.prec, ctx.rounding
    solve, secant = kernels(ctx, p.n)
    limits = _limits(opts)
    trace = []
    u = u.raw()
    B = None if B is None else B.raw()
    fu = p.residual(u, ctx)
    ff = raw_dot(fu, fu, prec, rnd)
    while True:
        k = len(trace)
        entry = TraceEntry(ctx, u, ff, raw_b=B)
        trace.append(entry)
        status = _check_terminal(entry, k, opts, limits)
        if status is not None:
            break
        try:
            if step is None:
                s = solve(B, [mpf_neg(x, prec, rnd) for x in fu])
                u_next = tuple(mpf_add(a, b, prec, rnd) for a, b in zip(u, s))
                ss = raw_dot(s, s, prec, rnd)
                if ss == fzero:
                    # zero step with a nonzero residual: the update is undefined
                    raise SingularMatrix("zero step")
            else:
                s, u_next = step(k, u, fu)
        except SingularMatrix:
            status = Status.SINGULAR_MATRIX
            break
        f_next = p.residual(u_next, ctx)
        ff = raw_dot(f_next, f_next, prec, rnd)
        entry.raw_s = s
        if step is None:
            entry.ss, entry.ff_next = ss, ff
            jac = None if refresh is None else refresh(k, u_next)
            B = secant(B, s, ss, f_next) if jac is None else jac.raw()
        u, fu = u_next, f_next
    return RunRecord(status, trace)


def _shamanskii_step(p, b_hat, c, alpha, ctx):
    """Step rule of ``smp_run``: B_hat at k = 0, Newton at k = 1, then the
    corrected Shamanskii-like step."""
    def step(k, u, fu):
        u, fu = ctx.raw_vec(u), ctx.raw_vec(fu)
        if k <= 1:
            u_next = u + lu_solve(b_hat if k == 0 else p.jac(u), -fu)
        else:
            j = p.jac(u)
            y = u + lu_solve(j, -fu)
            z = lu_solve(j, p.f(y))
            nz = z.norm()
            u_next = y if nz == 0 else y - z.scaled(4 - c * ctx.mp.power(nz, alpha))
        # the difference of the stored iterates, which rounds differently
        # from the solves' own steps
        return (u_next - u).raw(), u_next.raw()
    return step


def _check_dims(p, u, b=None):
    if len(u) != p.n or (b is not None and b.n != p.n):
        raise ValueError("dimension mismatch")


def broyden_run(p: Problem, u0: Vec, b0: Mat, opts: SolverOptions) -> RunRecord:
    """Plain Broyden iteration from (u0, B0)."""
    _check_dims(p, u0, b0)
    return _engine(p, u0, b0, opts)


def bmp_run(p: Problem, u_hat: Vec, b_hat: Mat, opts: SolverOptions,
            b0: Optional[Callable[[Vec], Mat]] = None) -> RunRecord:
    """Broyden's method behind the Newton-like step u0 = u_hat - B_hat^{-1}
    F(u_hat), the engine's step 0, after which B_0 = ``b0(u0)`` (without
    ``b0``, the secant update of B_hat).  Entry 0 of the record holds
    (u_hat, B_hat), entry 1 (u0, B_0), as single-run tables label them."""
    _check_dims(p, u_hat, b_hat)
    return _engine(p, u_hat, b_hat, opts, None if b0 is None else
                   lambda k, u: b0(u_hat.ctx.raw_vec(u)) if k == 0 else None)


def newton_run(p: Problem, u0: Vec, opts: SolverOptions) -> RunRecord:
    """Newton's method with the Jacobian refreshed every step."""
    _check_dims(p, u0)
    return _engine(p, u0, p.jac(u0), opts, lambda k, u: p.jac(u0.ctx.raw_vec(u)))


def smp_constants(ctx: PrecisionContext, c, alpha):
    """``smp_run``'s C and alpha at ``ctx``: C finite and nonzero, alpha in
    (0, (sqrt(5)-1)/2), else ValueError."""
    try:
        c, alpha = ctx.real(c), ctx.real(alpha)
    except (ValueError, TypeError, ZeroDivisionError):
        raise ValueError(f"C and alpha must be numbers: {c!r}, {alpha!r}") from None
    if c == 0 or not ctx.mp.isfinite(c):
        raise ValueError("C must be finite and nonzero")
    if not (0 < alpha < (ctx.mp.sqrt(ctx.real(5)) - 1) / 2):
        raise ValueError("alpha must lie in (0, (sqrt(5)-1)/2)")
    return c, alpha


def smp_run(p: Problem, u_hat: Vec, b_hat: Mat, c, alpha,
            opts: SolverOptions) -> RunRecord:
    """Shamanskii-like acceleration: after u^{-1} = u_hat - B_hat^{-1}
    F(u_hat) and a Newton step to u^0, the Newton iterate y, the simplified
    Newton step z = F'(u)^{-1} F(y), and y - (4 - C ||z||^alpha) z.  The
    trace lists (u_hat, u^{-1}, u^0, ...), without B_k or eps."""
    _check_dims(p, u_hat, b_hat)
    ctx = opts.precision
    c, alpha = smp_constants(ctx, c, alpha)
    return _engine(p, u_hat, None, opts, step=_shamanskii_step(p, b_hat, c, alpha, ctx))
