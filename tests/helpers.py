"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they are used to check:
singular values come from polynomial root finding on the Gram matrix,
the secant recursion is coded directly, and synthetic run records are built
by hand.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import mpmath
from mpmath.libmp import fzero, mpf_gt, mpf_le, mpf_lt, mpf_shift, mpf_sqrt

from broydenlab.diagnostics import MetricsRow, _LogRatio, _Root, metrics_from_trace
from broydenlab.harness import _STATS, window
from broydenlab.linalg import (Mat, PrecisionContext, SingularMatrix, Vec,
                               lu_solve, rank_one_update, singular_values)
from broydenlab.problems import Problem, projectors
from broydenlab.solvers import RunRecord, Status, TraceEntry, _limits


# -- ad-hoc problems -----------------------------------------------------------

def _f_sq_minus_1(u: Vec) -> Vec:
    x = u.entries[0]
    return Vec((x * x - 1,), u.ctx)


def _j_sq_minus_1(u: Vec) -> Mat:
    return Mat(((2 * u.entries[0],),), u.ctx)


def problem_sq_minus_1() -> Problem:
    """1-D F(u) = u**2 - 1 with the regular root u = 1."""
    return Problem(name="sq-minus-1", n=1, f=_f_sq_minus_1, jac=_j_sq_minus_1,
                   root_entries=(1,), phi_entries=None,
                   psi_entries=None, singularity_order=0)


class _LinearMap:
    """F(u) = A u - b with constant Jacobian A (picklable callable pair)."""

    def __init__(self, a_rows, b_entries):
        self.a_rows = a_rows
        self.b_entries = b_entries

    def f(self, u: Vec) -> Vec:
        ctx = u.ctx
        out = []
        for row, bi in zip(self.a_rows, self.b_entries):
            acc = ctx.real(-bi)
            for a, x in zip(row, u.entries):
                acc += a * x
            out.append(acc)
        return Vec(tuple(out), ctx)

    def jac(self, u: Vec) -> Mat:
        return u.ctx.mat(self.a_rows)


def problem_linear(a_rows, b_entries, root_entries) -> Problem:
    """Linear system A u = b with integer data and known root."""
    lin = _LinearMap(a_rows, b_entries)
    return Problem(name="linear", n=len(b_entries), f=lin.f, jac=lin.jac,
                   root_entries=tuple(root_entries), phi_entries=None,
                   psi_entries=None, singularity_order=0)


# -- constructors ----------------------------------------------------------------

def zero_vec(ctx: PrecisionContext, n: int) -> Vec:
    return Vec((ctx.zero,) * n, ctx)


def normalized(v: Vec) -> Vec:
    """v / ||v||; a zero vector raises ZeroDivisionError."""
    n = v.norm()
    if n == 0:
        raise ZeroDivisionError("cannot normalize a zero vector")
    return v.scaled(1 / n)


def identity(ctx: PrecisionContext, n: int) -> Mat:
    one, z = ctx.one, ctx.zero
    return Mat(tuple(tuple(one if i == j else z for j in range(n))
                     for i in range(n)), ctx)


# -- independent oracles -------------------------------------------------------

def outer(v: Vec, w: Vec) -> Mat:
    """Rank-one matrix v w^T, entry by entry."""
    return Mat(tuple(tuple(a * b for b in w.entries) for a in v.entries), v.ctx)


def secant_iterates(f, u0, u1, ctx: PrecisionContext, count: int):
    """Classical secant recursion, kept independent of the solver module."""
    us = [ctx.real(u0), ctx.real(u1)]
    for _ in range(count):
        a, b = us[-2], us[-1]
        fa, fb = f(a), f(b)
        if fb == fa:
            break
        us.append(b - fb * (b - a) / (fb - fa))
    return us


def charpoly_singular_values(A: Mat, ctx: PrecisionContext):
    """Singular values via the characteristic polynomial of A^T A.

    Uses mpmath's generic polynomial root finder at raised precision, a path
    fully independent of the Jacobi sweep implementation.  Supports n = 2, 3.
    """
    n = A.n
    g = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = ctx.zero
            for k in range(n):
                acc += A.rows[k][i] * A.rows[k][j]
            g[i][j] = acc
    if n == 2:
        tr = g[0][0] + g[1][1]
        det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
        coeffs = [ctx.one, -tr, det]
    elif n == 3:
        tr = g[0][0] + g[1][1] + g[2][2]
        m01 = g[0][0] * g[1][1] - g[0][1] * g[1][0]
        m02 = g[0][0] * g[2][2] - g[0][2] * g[2][0]
        m12 = g[1][1] * g[2][2] - g[1][2] * g[2][1]
        det = (g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
               - g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
               + g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0]))
        coeffs = [ctx.one, -tr, m01 + m02 + m12, -det]
    else:
        raise ValueError("oracle supports n = 2 or 3 only")
    with mpmath.workdps(ctx.decimal_digits + 30):
        roots = mpmath.polyroots([mpmath.mpf(str(c)) for c in coeffs],
                                 maxsteps=200, extraprec=120)
        svals = sorted(mpmath.sqrt(max(mpmath.re(r), mpmath.mpf(0)))
                       for r in roots)
        return [ctx.real(str(s)) for s in svals]


# -- synthetic run records -----------------------------------------------------

def synthetic_record(ctx: PrecisionContext, us, f_norms, eps=None,
                     svals=None) -> RunRecord:
    """RunRecord built from explicit iterates and norms.

    ``eps`` entries apply to indices 0..kbar-1; steps are the consecutive
    differences of ``us``.  ``svals`` (pairs, for example1) are the singular
    values of E_k that the record's B_k give.
    """
    kbar = len(us) - 1
    trace = []
    for k, u in enumerate(us):
        entry = TraceEntry(ctx, u.raw())
        entry.f_norm = ctx.real(f_norms[k])
        if k < kbar:
            entry.raw_s = (us[k + 1] - u).raw()
            if eps is not None:
                entry.eps = ctx.real(eps[k])
        if svals is not None and svals[k] is not None:
            # B_k = J* + diag(svals) with example1's J* = diag(1, 0), so
            # E_k = B_k - J* is diag(svals) exactly for dyadic svals
            s1, s2 = (ctx.real(s) for s in svals[k])
            entry.raw_b = ctx.mat([[1 + s1, 0], [0, s2]]).raw()
        trace.append(entry)
    return RunRecord(Status.CONVERGED, trace)


def reference_metrics(rec: RunRecord, p: Problem, indices=None) -> list:
    """``metrics_from_trace`` in ``Vec`` arithmetic and mpf operators, as it
    was before the metrics pass ran on raw tuples; the spectra of E_k are
    taken eagerly from ``Mat`` B_k - F'(root)."""
    trace = rec.trace
    if indices is None:
        indices = range(len(trace))
    ctx = trace[0].ctx
    root = p.root(ctx)
    phi = p.phi(ctx) if p.has_null_data else None
    j_root = functools.cache(lambda: p.jac(root))

    lo = indices[0] - 1 if indices else 0
    errs = [(ctx.raw_vec(e.raw_u) - root).norm() if k >= lo else None
            for k, e in enumerate(trace)]
    step_norms = [e.s_norm if k >= lo else None for k, e in enumerate(trace)]

    rows = []
    for k in indices:
        entry = trace[k]
        err = errs[k]
        r = q = None
        if k >= 1:
            r = _Root(err, k) if err > 0 else ctx.zero
            if errs[k - 1] > 0:
                q = err / errs[k - 1]

        eps_prev = r_eps = q_eps = None
        if k >= 1 and trace[k - 1].eps is not None:
            eps_prev = trace[k - 1].eps
            if eps_prev > 0:
                r_eps = _Root(eps_prev, k)
            elif eps_prev == 0:
                r_eps = ctx.zero
            if k >= 2 and trace[k - 2].eps is not None and trace[k - 2].eps > 0:
                q_eps = eps_prev / trace[k - 2].eps

        delta = None
        if k >= 1 and step_norms[k - 1] is not None:
            ns_prev = step_norms[k - 1]
            if 0 < ns_prev < 1 and entry.f_norm > 0:
                delta = _LogRatio(entry.f_norm, ns_prev)

        zeta = None
        if phi is not None and entry.raw_s is not None and step_norms[k] > 0:
            shat = ctx.raw_vec(entry.raw_s).scaled(1 / step_norms[k])
            dots = [d.raw_dot(d) for d in (shat - phi, shat + phi)]
            zeta = ctx.make(mpf_sqrt(dots[1] if mpf_lt(dots[1], dots[0])
                                     else dots[0], ctx.prec, ctx.rounding))

        e_svals = None if entry.raw_b is None else singular_values(
            ctx.raw_mat(entry.raw_b) - j_root())
        rows.append(MetricsRow(
            ctx=ctx, k=k, f_norm=entry.f_norm, err=err, q=q, eps=eps_prev,
            q_eps=q_eps, zeta=zeta,
            pending={"r": r, "r_eps": r_eps, "delta": delta,
                     "e_svals": e_svals}))
    return rows


def lam_omega_rows(rec: RunRecord, p: Problem, tol_exponent: int) -> list:
    """``metrics_from_trace`` rows with two nullspace quantities added:

        lam_k   = a_{k+1} / a_k, the signed ratio of successive nullspace
                  components a_k = psi.(u^k - root) / psi.phi
        omega_k = ||P_X (u^k - root)|| / a_k**2

    Both are the sentinel -1 for problems without phi/psi and where |a_k|
    is below the stopping tolerance 10**-tol_exponent; lam also at kbar.
    """
    trace = rec.trace
    ctx = trace[0].ctx
    sentinel = ctx.real(-1)
    root = p.root(ctx)
    floor = ctx.pow10(-tol_exponent)
    coeffs = None
    if p.has_null_data:
        p_x = identity(ctx, p.n) - projectors(p, ctx)
        psi = p.psi(ctx)
        d = psi.dot(p.phi(ctx))
        coeffs = [psi.dot(ctx.raw_vec(e.raw_u) - root) / d for e in trace]
    out = []
    for k, row in enumerate(metrics_from_trace(rec, p)):
        lam = omega = sentinel
        if coeffs is not None and abs(coeffs[k]) > floor:
            a_k = coeffs[k]
            omega = p_x.matvec(ctx.raw_vec(trace[k].raw_u) - root).norm() / (a_k * a_k)
            if k + 1 < len(trace):
                lam = coeffs[k + 1] / a_k
        row.lam, row.omega = lam, omega
        out.append(row)
    return out


def eager_stats_wire(rec: RunRecord, rows: list, window_rule: str = "min"):
    """``run_stats`` of the window rows of ``rows``, computed after
    reading every column of every row: each window extremum is the min or
    max over all of the window's defined (not None) values."""
    ks = window(rec.kbar, window_rule)
    by_k = {row.k: row for row in rows}
    values = {}
    for pick, attr in _STATS:
        column = [getattr(by_k[k], attr) for k in ks]
        if pick == "final":
            values[pick, attr] = column[-1]
            continue
        defined = [v for v in column if v is not None]
        values[pick, attr] = ((min(defined) if pick == "min" else max(defined))
                              if defined else None)
    return tuple(getattr(values[s], "_mpf_", values[s]) for s in _STATS)


# -- the iteration in Vec and Mat arithmetic -------------------------------------

@dataclass
class ReferenceEntry:
    """One trace entry of :func:`reference_run`, as ``Vec`` and ``Mat``."""

    u: Vec
    ff: tuple
    s: Optional[Vec] = None
    ss: Optional[tuple] = None
    ff_next: Optional[tuple] = None
    b: Optional[Mat] = None


def _reference_terminal(u: Vec, ff, k, opts, limits):
    tol, tol2, guard, guard2, guard_bits = limits
    ctx = u.ctx
    if ff == fzero:
        return Status.EXACT_ROOT
    if mpf_le(ff, tol2) or (mpf_le(ff, mpf_shift(tol2, 2)) and mpf_le(
            mpf_sqrt(ff, ctx.prec, ctx.rounding), tol)):
        return Status.CONVERGED
    raw = [x._mpf_ for x in u.entries]
    finite = all(t[1] or t == fzero for t in raw)
    if not finite or (2 * max(t[2] + t[3] for t in raw) + len(raw).bit_length()
                      > guard_bits):
        uu = u.raw_dot(u)
        if mpf_gt(uu, guard2) and mpf_gt(mpf_sqrt(uu, ctx.prec, ctx.rounding), guard):
            return Status.DIVERGED
    if k >= opts.max_iter:
        return Status.MAX_ITER
    return None


def reference_run(method: str, p: Problem, u: Vec, b: Optional[Mat], opts,
                  b0=None, c=None, alpha=None):
    """(status, kbar, trace, b_final) of ``method`` ("bm", "bmp", "newton" or
    "smp") in ``Vec`` and ``Mat`` arithmetic: the engine as it was before it
    carried raw tuples, with ``lu_solve``, ``rank_one_update``, the ``Vec``
    operators and ``Problem.f``.  ``b`` is B_0 for bm, B_hat for bmp and smp
    and unused for newton; ``b0`` is bmp's B_0 rule, ``c`` and ``alpha``
    smp's constants."""
    ctx = u.ctx
    limits = _limits(opts)
    if method == "newton":
        b = p.jac(u)
    elif method == "smp":
        b_hat, b = b, None
        c, alpha = ctx.real(c), ctx.real(alpha)
    trace = []
    fu = p.f(u)
    ff = fu.raw_dot(fu)
    while True:
        k = len(trace)
        entry = ReferenceEntry(u=u, ff=ff, b=b)
        trace.append(entry)
        status = _reference_terminal(u, ff, k, opts, limits)
        if status is not None:
            break
        try:
            if method != "smp":
                s = lu_solve(b, -fu)
                u_next = u + s
            else:
                if k == 0:
                    u_next = u + lu_solve(b_hat, -fu)
                elif k == 1:
                    u_next = u + lu_solve(p.jac(u), -fu)
                else:
                    j = p.jac(u)
                    y = u + lu_solve(j, -fu)
                    z = lu_solve(j, p.f(y))
                    nz = z.norm()
                    u_next = y if nz == 0 else y - z.scaled(
                        4 - c * ctx.mp.power(nz, alpha))
                s = u_next - u
        except SingularMatrix:
            status = Status.SINGULAR_MATRIX
            break
        if method != "smp":
            ss = s.raw_dot(s)
            if ss == fzero:
                status = Status.SINGULAR_MATRIX
                break
        f_next = p.f(u_next)
        ff = f_next.raw_dot(f_next)
        entry.s = s
        if method != "smp":
            entry.ss, entry.ff_next = ss, ff
            if method == "newton":
                b = p.jac(u_next)
            elif method == "bmp" and k == 0 and b0 is not None:
                b = b0(u_next)
            else:
                b = rank_one_update(b, f_next.scaled(1 / ctx.make(ss)), s)
        u, fu = u_next, f_next
    return status, k, trace, b


# -- step, nullspace and update-norm diagnostics of the acceptance criteria -----

class BadSelection(Exception):
    """Step-selection indices are out of range or not increasing."""


def normalized_steps(rec: RunRecord) -> list[Vec]:
    """Unit steps shat^k for every index that has a step."""
    return [normalized(e.ctx.raw_vec(e.raw_s)) for e in rec.trace if e.raw_s is not None]


def uli_min_sv(steps, k: int, selection, ctx=None):
    """Smallest singular value of the matrix of selected normalized steps.

    ``selection`` must pick n strictly increasing indices >= k out of
    ``steps``; uniform linear independence would require this value to stay
    above a fixed bound along the iteration, which singular problems violate.
    """
    if not steps:
        raise BadSelection("no steps supplied")
    if ctx is None:
        ctx = steps[0].ctx
    n = len(steps[0])
    selection = list(selection)
    if len(selection) != n:
        raise BadSelection(f"need exactly {n} indices, got {len(selection)}")
    if any(i < k for i in selection):
        raise BadSelection("selection indices must be >= k")
    if any(b <= a for a, b in zip(selection, selection[1:])):
        raise BadSelection("selection indices must be strictly increasing")
    if any(i >= len(steps) for i in selection):
        raise BadSelection("selection index out of range")
    unit_tol = ctx.pow10(-ctx.decimal_digits + 15)
    for i in selection:
        if abs(steps[i].norm() - 1) > unit_tol:
            raise ValueError(f"step {i} is not unit-norm")
    cols = [steps[i] for i in selection]
    m = Mat(tuple(tuple(cols[j][i] for j in range(n)) for i in range(n)), ctx)
    return singular_values(m)[0]


def nullspace_residual(B: Mat, phi: Vec):
    """||B phi||, the residual of phi against ker(B); phi should be unit."""
    return B.matvec(phi).norm()


def update_norm_identity_errors(rec: RunRecord, first: int):
    """Relative gaps |eps_k - ||B_{k+1} - B_k||| / eps_k over the Broyden
    updates B_k -> B_{k+1} from k = ``first`` on: 0 for bm and for bmp
    without a B_0 rule, 1 for bmp with one, which installs B_0 at k = 0.

    Requires a run that keeps B_k, which every run but smp does.  The
    spectral norm of the update is recomputed by SVD, so this checks the
    update-norm identity through an independent path.
    """
    out = []
    for k in range(first, rec.kbar):
        entry, nxt = rec.trace[k], rec.trace[k + 1]
        if entry.raw_b is None or nxt.raw_b is None or entry.eps is None:
            raise ValueError("an smp run keeps no B_k")
        if entry.eps == 0:
            continue
        ctx = entry.ctx
        update = ctx.raw_mat(nxt.raw_b) - ctx.raw_mat(entry.raw_b)
        gap = abs(entry.eps - singular_values(update)[-1])
        out.append((k, gap / entry.eps))
    return out


def fitted_q_order(errs, points: int = 6) -> float:
    """Least-squares slope of log err_{k+1} against log err_k.

    Uses the last ``points`` consecutive pairs with positive errors; the
    slope estimates the q-order of convergence.  Plain float arithmetic is
    enough because only the logarithms enter.
    """
    # mpf logarithms stay finite for magnitudes below the double range
    logs = [(float(mpmath.log(e)) if hasattr(e, "_mpf_") else math.log(e))
            if e > 0 else None for e in errs]
    pairs = [(logs[i], logs[i + 1]) for i in range(len(logs) - 1)
             if logs[i] is not None and logs[i + 1] is not None]
    pairs = pairs[-points:]
    if len(pairs) < 2:
        raise ValueError("need at least 2 positive error pairs")
    xs = [a for a, _ in pairs]
    ys = [b for _, b in pairs]
    n = len(pairs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    var = sum((x - mean_x) ** 2 for x in xs)
    if var == 0:
        raise ValueError("degenerate regression: constant errors")
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return cov / var
