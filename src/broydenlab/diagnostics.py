"""Per-iteration convergence diagnostics derived from a solver trace.

For a trace (u^0, u^1, ..., u^kbar) with steps s^k = u^{k+1} - u^k and update
norms eps_k = ||F(u^{k+1})|| / ||s^k||, each row collects

    err_k   = ||u^k - root||
    r_k     = err_k ** (1/k)                    (k-th root of the error)
    q_k     = err_k / err_{k-1}
    r_eps_k = eps_{k-1} ** (1/k)                (update-norm analogue of r)
    q_eps_k = eps_{k-1} / eps_{k-2}             (update-norm analogue of q)
    delta_k = log ||F_k|| / log ||s^{k-1}||
    zeta_k  = min(||shat^k - phi||, ||shat^k + phi||)

plus the ascending singular values of E_k = B_k - F'(root), computed from
the B_k that the trace keeps (``SolverOptions.record_spectra``).  Undefined
entries carry the sentinel -1; delta additionally requires ||s^{k-1}|| < 1
so the logarithm ratio keeps its sign.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import mpmath

from .linalg import Mat, Vec, singular_values, spectral_norm
from .problems import Problem
from .solvers import RunRecord


class BadSelection(Exception):
    """Step-selection indices are out of range or not increasing."""


@dataclass
class MetricsRow:
    k: int
    f_norm: object
    err: object
    r: object
    q: object
    eps: object
    r_eps: object
    q_eps: object
    delta: object
    zeta: object
    e_svals: Optional[tuple]
    e_norm: object

    @property
    def lambda1(self):
        """Smallest singular value of E_k; None when spectra were not recorded."""
        return self.e_svals[0] if self.e_svals is not None else None

    @property
    def lambda2(self):
        """Second smallest singular value of E_k; None when undefined."""
        if self.e_svals is None or len(self.e_svals) < 2:
            return None
        return self.e_svals[1]


def metrics_from_trace(rec: RunRecord, p: Problem,
                       indices: Optional[range] = None) -> list[MetricsRow]:
    """One MetricsRow per displayed iteration index of ``rec`` in ``indices``
    (default: every index).

    Errors and step norms are computed from ``indices[0] - 1`` onward only,
    and the spectra of E_k only for the rows built, from the B_k kept in the
    trace.  zeta needs phi and is the sentinel for problems without it.
    """
    trace = rec.trace
    if indices is None:
        indices = range(len(trace))
    ctx = trace[0].u.ctx
    sentinel = ctx.real(-1)
    root = p.root(ctx)
    phi = p.phi(ctx) if p.has_null_data else None
    j_root = None

    lo = indices[0] - 1 if indices else 0
    errs = [(e.u - root).norm() if k >= lo else None
            for k, e in enumerate(trace)]
    step_norms = [e.s.norm() if k >= lo and e.s is not None else None
                  for k, e in enumerate(trace)]

    rows = []
    for k in indices:
        entry = trace[k]
        err = errs[k]
        r = sentinel
        q = sentinel
        if k >= 1:
            inv_k = ctx.one / k
            r = ctx.power(err, inv_k) if err > 0 else ctx.zero
            if errs[k - 1] > 0:
                q = err / errs[k - 1]

        eps_prev = sentinel
        r_eps = sentinel
        q_eps = sentinel
        if k >= 1 and trace[k - 1].eps is not None:
            eps_prev = trace[k - 1].eps
            if eps_prev > 0:
                r_eps = ctx.power(eps_prev, ctx.one / k)
            elif eps_prev == 0:
                r_eps = ctx.zero
            if k >= 2 and trace[k - 2].eps is not None and trace[k - 2].eps > 0:
                q_eps = eps_prev / trace[k - 2].eps

        delta = sentinel
        if k >= 1 and step_norms[k - 1] is not None:
            ns_prev = step_norms[k - 1]
            if 0 < ns_prev < 1 and entry.f_norm > 0:
                delta = ctx.log(entry.f_norm) / ctx.log(ns_prev)

        zeta = sentinel
        if phi is not None and entry.s is not None and step_norms[k] > 0:
            shat = entry.s.scaled(1 / step_norms[k])
            zeta = min((shat - phi).norm(), (shat + phi).norm())

        e_svals = None
        if entry.b is not None:
            if j_root is None:
                j_root = p.jac(root)
            e_svals = singular_values(entry.b - j_root, ctx)

        rows.append(MetricsRow(
            k=k, f_norm=entry.f_norm, err=err, r=r, q=q, eps=eps_prev,
            r_eps=r_eps, q_eps=q_eps, delta=delta, zeta=zeta,
            e_svals=e_svals,
            e_norm=e_svals[-1] if e_svals is not None else sentinel))
    return rows


def normalized_steps(rec: RunRecord) -> list[Vec]:
    """Unit steps shat^k for every index that has a step."""
    return [e.s.normalized() for e in rec.trace if e.s is not None]


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
    return singular_values(m, ctx)[0]


def nullspace_residual(B: Mat, phi: Vec):
    """||B phi||, the residual of phi against ker(B); phi should be unit."""
    return B.matvec(phi).norm()


def update_norm_identity_errors(rec: RunRecord):
    """Relative gaps |eps_k - ||B_{k+1} - B_k||| / eps_k over the recorded
    Broyden updates.

    Requires the trace to keep every B_k (``SolverOptions.record_spectra``,
    the default).  The spectral norm of the update is recomputed by SVD, so
    this checks the update-norm identity through an independent path.
    """
    if rec.broyden_updates_from is None:
        return []
    out = []
    for k in range(rec.broyden_updates_from, rec.kbar):
        entry, nxt = rec.trace[k], rec.trace[k + 1]
        if entry.b is None or nxt.b is None or entry.eps is None:
            raise ValueError("run was not recorded with record_spectra")
        if entry.eps == 0:
            continue
        gap = abs(entry.eps - spectral_norm(nxt.b - entry.b))
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
