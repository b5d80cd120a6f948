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
entries are None (a CSV cell writes -1); delta additionally requires
||s^{k-1}|| < 1 so the logarithm ratio keeps its sign.

r, r_eps and delta (a power or two logarithms each) and the spectra are
lazy: a row keeps their operands and evaluates them on first read.  A
window's minimum or maximum of r, r_eps, delta or ||E_k|| needs only the
rows that can hold it, which :func:`window_extreme` finds from keys of the
operands: float keys read off the raw ``_mpf_`` tuples, ln(err_k) / k for r,
ln(eps_{k-1}) / k for r_eps (the logarithms of the values) and
ln ||F_k|| / ln ||s^{k-1}|| for delta, and for n = 2 the exact key
4 ||E_k||**2 at working precision, one square root instead of a Jacobi SVD,
which stands for every value within 4 svd_tol of it (relative).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from mpmath.libmp import fone, fzero, mpf_gt, mpf_lt, mpf_mul, mpf_rdiv_int, mpf_shift

from .linalg import (PrecisionContext, mpf_add, mpf_div, mpf_sqrt, mpf_sub, raw_dot,
                     singular_values)
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
#:
#: An exact key K (an mpf, the 4 ||E_k||**2 of ``_Spectrum``, n = 2) stands
#: for every value within 4 svd_tol K.  Proof: its eleven roundings of
#: 2**-prec each, on nonnegative terms, leave it within about 16 2**-prec of
#: the true 4 sigma_max**2 of the rounded E_k.  Jacobi's sigma_max**2 is the
#: largest diagonal g of its final Gram matrix, whose off-diagonals are at
#: most svd_tol sqrt(g_pp g_qq) (or, next to a deflated column, svd_tol g):
#: by Gershgorin and the Rayleigh quotient the true value lies in
#: [g, g (1 + (n - 1) svd_tol)], and the rotations' rounding adds
#: O(rotations 2**-prec).  svd_tol = 10**(10 - digits) is about 10**11
#: 2**-prec, so for n = 2 the key lies within about 1.0 svd_tol of
#: Jacobi's 4 sigma_max**2, and the slack covers that four times over.
#: So, as above, ties and near-ties are always evaluated.
KEY_MARGIN = 1e-9
_LN2 = math.log(2)


def _ln(x) -> float:
    """ln|x| of a finite nonzero mpf, from its raw tuple (sign, man, exp, bc)."""
    _, man, exp, bc = x._mpf_
    top = man >> (bc - 53) if bc > 53 else man << (53 - bc)
    return math.log(math.ldexp(top, -53)) + (exp + bc) * _LN2


def _span(key, sign: int, ctx: PrecisionContext):
    """The interval of signed values that a float or an exact ``key`` stands
    for (see KEY_MARGIN)."""
    slack = (KEY_MARGIN * (1 + abs(key)) if isinstance(key, float)
             else 4 * ctx.svd_tol * key)
    return sign * key - slack, sign * key + slack


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
    no key where log b is near 0."""

    a: object
    b: object

    def value(self, ctx):
        return ctx.log(self.a) / ctx.log(self.b)

    def key(self):
        log_b = _ln(self.b)
        return _ln(self.a) / log_b if log_b <= -1e-3 else None


class _Spectrum(NamedTuple):
    """Ascending singular values of E_k = b - j_root(), for the raw rows b of
    B_k, where j_root forms the raw rows of F'(root) on first call.  For
    n = 2, keyed by 4 ||E_k||**2 = p + m + 2 sqrt(p m), with p = (a-d)**2 +
    (b+c)**2 and m = (a+d)**2 + (b-c)**2 for E_k = [[a, b], [c, d]]: the two
    norms are sigma_max -+ sigma_min.  Every term is nonnegative, so nothing
    cancels (see KEY_MARGIN)."""

    ctx: PrecisionContext
    b: tuple
    j_root: Callable[[], tuple]

    def _e(self):
        prec, rnd = self.ctx.prec, self.ctx.rounding
        return [[mpf_sub(x, y, prec, rnd) for x, y in zip(rb, rj)]
                for rb, rj in zip(self.b, self.j_root())]

    def value(self, ctx):
        return singular_values(ctx.raw_mat(self._e()))

    def key(self):
        if len(self.b) != 2:
            return None
        ctx = self.ctx
        prec, rnd = ctx.prec, ctx.rounding
        (a, b), (c, d) = self._e()
        p, m = (raw_dot(v, v, prec, rnd) for v in (
            (mpf_sub(a, d, prec, rnd), mpf_add(b, c, prec, rnd)),
            (mpf_add(a, d, prec, rnd), mpf_sub(b, c, prec, rnd))))
        root = mpf_sqrt(mpf_mul(p, m, prec, rnd), prec, rnd)
        return ctx.make(mpf_add(mpf_add(p, m, prec, rnd), mpf_shift(root, 1),
                                prec, rnd))


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
    #: ||E_k||_2 and the smallest and second smallest singular values of E_k;
    #: None when spectra were not recorded (lambda2 also for n = 1)
    e_norm = property(lambda self: self._sval(-1))
    lambda1 = property(lambda self: self._sval(0))
    lambda2 = property(lambda self: self._sval(1))

    def _sval(self, i):
        svals = self.e_svals
        return svals[i] if svals is not None and i < len(svals) else None


def window_extreme(pick: str, attr: str, rows):
    """``min`` or ``max`` (``pick``) of column ``attr`` over ``rows``,
    undefined (None) values skipped; None when no value is defined.

    A lazy value that is still unread enters by its key, and only the rows
    whose key intervals (:func:`_span`) reach the extreme one are
    evaluated; a value without a key, or read already, is taken as it is.
    """
    sign = 1 if pick == "max" else -1
    exact, keyed = [], []
    for row in rows:
        op = row.pending.get("e_svals" if attr == "e_norm" else attr)
        key = op.key() if isinstance(op, _LAZY) else None
        if key is None:
            exact.append(row)
        else:
            keyed.append((_span(key, sign, row.ctx), row))
    if keyed:
        # the largest (signed) value that some row certainly reaches
        floor = max(lo for (lo, _), _ in keyed)
        exact += [row for (_, hi), row in keyed if hi >= floor]
    values = [v for v in (getattr(row, attr) for row in exact) if v is not None]
    if not values:
        return None
    return max(values) if pick == "max" else min(values)


def metrics_from_trace(rec: RunRecord, p: Problem,
                       indices: Optional[range] = None) -> list[MetricsRow]:
    """One MetricsRow per displayed iteration index of ``rec`` in ``indices``
    (default: every index).

    Errors are taken on raw tuples from ``indices[0] - 2`` on; ||s^k|| and
    eps_k are the trace entry's own ``s_norm`` and ``eps``, which zeta_k
    shares.  r, r_eps, delta and the spectra of E_k are left to the first
    read (see :class:`MetricsRow`).  zeta needs phi and is None without it.
    """
    trace = rec.trace
    if indices is None:
        indices = range(len(trace))
    ctx = trace[0].ctx
    prec, rnd, make = ctx.prec, ctx.rounding, ctx.make
    root = p.root(ctx)
    phi = p.phi(ctx).raw() if p.has_null_data else None
    j_root = functools.cache(lambda: p.jac(root).raw())

    def norms(e):
        """Raw ||u^k - root|| and ||s^k|| (None at kbar), and eps_k."""
        d = [mpf_sub(a, b, prec, rnd) for a, b in zip(e.raw_u, root.raw())]
        sn = e.raw_s and e.s_norm._mpf_
        return mpf_sqrt(raw_dot(d, d, prec, rnd), prec, rnd), sn, e.eps

    raw = {k: norms(trace[k]) for k in range(max(indices.start - 2, 0), indices.stop)}
    rows = []
    for k in indices:
        entry = trace[k]
        raw_err, sn, _ = raw[k]
        err = make(raw_err)
        r = q = eps = r_eps = q_eps = delta = zeta = None
        if k >= 1:
            err_prev, sn_prev, eps = raw[k - 1]
            r = _Root(err, k) if mpf_gt(raw_err, fzero) else ctx.zero
            if mpf_gt(err_prev, fzero):
                q = make(mpf_div(raw_err, err_prev, prec, rnd))
            if eps is not None:
                r_eps = _Root(eps, k) if eps > 0 else ctx.zero if eps == 0 else None
                eps_pp = raw[k - 2][2] if k >= 2 else None
                if eps_pp is not None and eps_pp > 0:
                    q_eps = make(mpf_div(eps._mpf_, eps_pp._mpf_, prec, rnd))
            if (sn_prev and mpf_gt(sn_prev, fzero) and mpf_lt(sn_prev, fone)
                    and entry.f_norm > 0):
                delta = _LogRatio(entry.f_norm, trace[k - 1].s_norm)

        if phi is not None and sn and mpf_gt(sn, fzero):
            inv = mpf_rdiv_int(1, sn, prec, rnd)
            shat = [mpf_mul(inv, x, prec, rnd) for x in entry.raw_s]
            dm, dp = (raw_dot(d, d, prec, rnd) for d in (
                [op(a, b, prec, rnd) for a, b in zip(shat, phi)] for op in (mpf_sub, mpf_add)))
            # the smaller norm is the root of the smaller dot: sqrt is monotone
            zeta = make(mpf_sqrt(dp if mpf_lt(dp, dm) else dm, prec, rnd))

        e_svals = None if entry.raw_b is None else _Spectrum(ctx, entry.raw_b, j_root)
        rows.append(MetricsRow(
            ctx=ctx, k=k, f_norm=entry.f_norm, err=err, q=q, eps=eps,
            q_eps=q_eps, zeta=zeta,
            pending={"r": r, "r_eps": r_eps, "delta": delta,
                     "e_svals": e_svals}))
    return rows
