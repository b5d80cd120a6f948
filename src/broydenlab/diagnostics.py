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

r, r_eps and delta (a power or two logarithms each) and the spectra are
lazy: a row keeps their operands and evaluates them on first read.  A
window's minimum or maximum of r, r_eps or delta needs only the rows that
can hold it, which :func:`window_extreme` finds from float keys read off the
operands' raw ``_mpf_`` tuples: ln(err_k) / k for r, ln(eps_{k-1}) / k for
r_eps (the logarithms of the values) and ln ||F_k|| / ln ||s^{k-1}|| for
delta.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import mpmath

from .linalg import Mat, PrecisionContext, Vec, singular_values, spectral_norm
from .problems import Problem
from .solvers import RunRecord

#: A float key k stands for every exact value within KEY_MARGIN (1 + |k|)
#: of it.  Proof: ``_ln`` reads ln|x| = ln(m) + (exp + bc) ln 2 with m the
#: top 53 bits of the mantissa over 2**bc, in [1/2, 1); truncating m,
#: math.log, the product and the sum each err by at most 2**-52 (1 +
#: |ln|x||), so |_ln(x) - ln|x|| < 1e-15 (1 + |ln|x||).  The key ln(x)/k of
#: r and r_eps then errs by less than 1e-15 (1 + |key|).  The key A/B of
#: delta, taken only where |B| >= 1e-3, errs by less than 1e-15 ((1 + |A|)
#: + |A/B| (1 + |B|)) / |B| < 3e-12 (1 + |delta|).  The exact values round
#: to 2**-(prec-10) relative, below 1e-40 even at 50 digits.  So the margin
#: covers every error 300 times over: a row whose key lies beyond the
#: margins of the extreme key cannot hold the extremum, ties and near-ties
#: are always evaluated, and the extremum is exact by construction.
KEY_MARGIN = 1e-9
_LN2 = math.log(2)


class BadSelection(Exception):
    """Step-selection indices are out of range or not increasing."""


def _ln(x) -> float:
    """ln|x| of a finite nonzero mpf, from its raw tuple (sign, man, exp, bc)."""
    _, man, exp, bc = x._mpf_
    top = man >> (bc - 53) if bc > 53 else man << (53 - bc)
    return math.log(math.ldexp(top, -53)) + (exp + bc) * _LN2


def _slack(key: float) -> float:
    return KEY_MARGIN * (1 + abs(key))


class _Root(NamedTuple):
    """x ** (1/k) for x > 0, keyed by its logarithm ln(x)/k."""

    x: object
    k: int

    def value(self, ctx):
        return ctx.power(self.x, ctx.one / self.k)

    def key(self):
        return _ln(self.x) / self.k


class _LogRatio(NamedTuple):
    """log a / log b for a > 0 and 0 < b < 1, keyed by the value itself;
    no key where log b is near 0 or the value near the sentinel -1."""

    a: object
    b: object

    def value(self, ctx):
        return ctx.log(self.a) / ctx.log(self.b)

    def key(self):
        log_b = _ln(self.b)
        key = _ln(self.a) / log_b if log_b <= -1e-3 else None
        return None if key is None or abs(key + 1) <= _slack(key) else key


class _Spectrum(NamedTuple):
    """Ascending singular values of E_k = b - j_root.  No key: ||E_k||
    varies by only 1e-78 to 1e-90 (relative) across a window, far below
    what a float separates."""

    b: Mat
    j_root: Mat

    def value(self, ctx):
        return singular_values(self.b - self.j_root, ctx)

    def key(self):
        return None


_LAZY = (_Root, _LogRatio, _Spectrum)


@dataclass
class MetricsRow:
    """Diagnostics at one iteration index k (see the module docstring).

    ``pending`` maps each lazy column (r, r_eps, delta, e_svals) to its
    value, or to the operands it is evaluated from on first read; the value
    then replaces the operands.
    """

    ctx: PrecisionContext
    k: int
    f_norm: object
    err: object
    q: object
    eps: object
    q_eps: object
    zeta: object
    pending: dict

    def _read(self, attr):
        op = self.pending[attr]
        if isinstance(op, _LAZY):
            op = self.pending[attr] = op.value(self.ctx)
        return op

    r = property(lambda self: self._read("r"))
    r_eps = property(lambda self: self._read("r_eps"))
    delta = property(lambda self: self._read("delta"))
    #: ascending singular values of E_k; None when spectra were not recorded
    e_svals = property(lambda self: self._read("e_svals"))

    @property
    def e_norm(self):
        """||E_k||_2, or the sentinel -1."""
        return self.e_svals[-1] if self.e_svals is not None else self.ctx.real(-1)

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


def window_extreme(pick: str, attr: str, rows):
    """``min`` or ``max`` (``pick``) of column ``attr`` over ``rows``,
    sentinels skipped; None when every value is the sentinel.

    A lazy value that is still unread enters by its key, and only the rows
    whose keys lie within the margins of the extreme key are evaluated.
    """
    sign = 1 if pick == "max" else -1
    exact, keyed = [], []
    for row in rows:
        op = row.pending.get(attr)
        key = op.key() if isinstance(op, _LAZY) else None
        if key is None:
            exact.append(row)
        else:
            keyed.append((sign * key, row))
    if keyed:
        # the largest (signed) value that some unread row certainly reaches
        floor = max(key - _slack(key) for key, _ in keyed)
        exact += [row for key, row in keyed if key + _slack(key) >= floor]
    values = [v for v in (getattr(row, attr) for row in exact) if v != -1]
    if not values:
        return None
    return max(values) if pick == "max" else min(values)


def metrics_from_trace(rec: RunRecord, p: Problem,
                       indices: Optional[range] = None) -> list[MetricsRow]:
    """One MetricsRow per displayed iteration index of ``rec`` in ``indices``
    (default: every index).

    Errors and step norms are computed from ``indices[0] - 1`` onward only.
    r, r_eps, delta and the spectra of E_k, from the B_k kept in the trace,
    are left to the first read (see :class:`MetricsRow`).  zeta needs phi
    and is the sentinel for problems without it.
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
            r = _Root(err, k) if err > 0 else ctx.zero
            if errs[k - 1] > 0:
                q = err / errs[k - 1]

        eps_prev = sentinel
        r_eps = sentinel
        q_eps = sentinel
        if k >= 1 and trace[k - 1].eps is not None:
            eps_prev = trace[k - 1].eps
            if eps_prev > 0:
                r_eps = _Root(eps_prev, k)
            elif eps_prev == 0:
                r_eps = ctx.zero
            if k >= 2 and trace[k - 2].eps is not None and trace[k - 2].eps > 0:
                q_eps = eps_prev / trace[k - 2].eps

        delta = sentinel
        if k >= 1 and step_norms[k - 1] is not None:
            ns_prev = step_norms[k - 1]
            if 0 < ns_prev < 1 and entry.f_norm > 0:
                delta = _LogRatio(entry.f_norm, ns_prev)

        zeta = sentinel
        if phi is not None and entry.s is not None and step_norms[k] > 0:
            shat = entry.s.scaled(1 / step_norms[k])
            zeta = min((shat - phi).norm(), (shat + phi).norm())

        e_svals = None
        if entry.b is not None:
            if j_root is None:
                j_root = p.jac(root)
            e_svals = _Spectrum(entry.b, j_root)

        rows.append(MetricsRow(
            ctx=ctx, k=k, f_norm=entry.f_norm, err=err, q=q, eps=eps_prev,
            q_eps=q_eps, zeta=zeta,
            pending={"r": r, "r_eps": r_eps, "delta": delta,
                     "e_svals": e_svals}))
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
