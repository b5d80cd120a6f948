"""Per-iteration convergence diagnostics derived from a solver trace.

Each row collects, for iteration k (undefined entries are None),

    err_k = ||u^k - root||,  r_k = err_k ** (1/k),  q_k = err_k / err_{k-1},
    r_eps_k = eps_{k-1} ** (1/k),  q_eps_k = eps_{k-1} / eps_{k-2},
    delta_k = log ||F_k|| / log ||s^{k-1}||  (for ||s^{k-1}|| < 1),
    zeta_k = min(||shat^k - phi||, ||shat^k + phi||)

and the ascending singular values of E_k = B_k - F'(root).  r, r_eps, delta
and the spectra are lazy: a row keeps their operands, which give keys for
window extrema and enclosures for six-digit cells (see README.md), and
evaluates them on first read.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from mpmath.libmp import (fone, from_float, from_int, from_man_exp, fzero, mpf_gt,
                          mpf_lt, mpf_mul, mpf_neg, mpf_rdiv_int, mpf_shift,
                          round_ceiling, round_floor)

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
#: An exact raw key K, the 4 ||E_k||**2 of ``_Spectrum`` (n = 2), stands for
#: every value within 4 svd_tol K.  Proof: its eleven roundings of 2**-prec
#: each, on nonnegative terms, leave it within 16 2**-prec of 4 sigma_max**2
#: of the rounded E_k, and Jacobi's sigma_max**2 is the largest diagonal g
#: of its final Gram matrix, whose off-diagonals are at most svd_tol
#: sqrt(g_pp g_qq), or svd_tol g next to a deflated column: by Gershgorin and
#: the Rayleigh quotient sigma_max**2 lies in [g, g (1 + (n - 1) svd_tol)],
#: plus the rotations' rounding (below).  svd_tol = 10**(10 - digits) is
#: about 10**11 2**-prec, so the key lies within about 1.0 svd_tol K of
#: Jacobi's 4 sigma_max**2, and the slack covers that four times over.
#:
#: Jacobi's i-th output (ascending) lies within 2 n svd_tol ||E||_F of the
#: i-th singular value of the E it is given, for n = 2 and 3.  Proof: its
#: rotations round their cosines, sines and entries relative 2**-prec, so
#: the final columns are (E + D) Q, Q orthogonal, ||D||_F < 60 n**2 15
#: 2**-prec ||E||_F < 1e-7 svd_tol ||E||_F (Weyl: each sigma_i moves less).
#: At most n - 1 columns lie below the deflation floor, each of norm at most
#: svd_tol ||E||_F (1 + 2**-prec): zeroing them moves each sigma_i by at
#: most sqrt(n - 1) svd_tol ||E||_F (Weyl), and their outputs lie within
#: svd_tol ||E||_F of 0.  The other columns d_j u_j, |u_j| = 1, pass the
#: pair rule |G_pq| <= svd_tol sqrt(G_pp G_qq) on rounded dots, so
#: |u_p . u_q| <= 1.01 svd_tol and, by Gershgorin, U's singular values lie
#: within (n - 1) 0.51 svd_tol of 1; by Ostrowski's theorem sigma_i(U D)
#: lies within as much, relative, of sigma_i(D), the sorted outputs d_j up
#: to 2**-prec.  The sum (2 + sqrt(n - 1) + 0.51 (n - 1)) svd_tol ||E||_F
#: is below 2 n svd_tol ||E||_F.
KEY_MARGIN = 1e-9
_LN2 = math.log(2)
#: binary precision of the bounds of the enclosures
_BITS = 64


def _ln(x) -> float:
    """ln|x| of a finite nonzero mpf, from its raw tuple (sign, man, exp, bc)."""
    _, man, exp, bc = x._mpf_
    top = man >> (bc - 53) if bc > 53 else man << (53 - bc)
    return math.log(math.ldexp(top, -53)) + (exp + bc) * _LN2


def _span(key, sign: int, ctx: PrecisionContext):
    """The interval of signed values that a float or an exact raw ``key``
    stands for (see KEY_MARGIN), as floats or raw tuples."""
    if isinstance(key, float):
        slack = KEY_MARGIN * (1 + abs(key))
        return sign * key - slack, sign * key + slack
    prec, rnd = ctx.prec, ctx.rounding
    slack = mpf_mul(mpf_shift(ctx.svd_tol._mpf_, 2), key, prec, rnd)
    key = key if sign > 0 else mpf_neg(key)
    return mpf_sub(key, slack, prec, rnd), mpf_add(key, slack, prec, rnd)


def _exp_span(span):
    """Raw bounds on exp(t) for t in the float ``span``, None outside
    (-700, 700): math.exp errs by less than an ulp, 2**-52 relative."""
    lo, hi = span
    if not -700 < lo <= hi < 700:
        return None
    return (from_float(math.exp(lo) * (1 - 2 ** -50)),
            from_float(math.exp(hi) * (1 + 2 ** -50)))


def _pad(span, w):
    """The raw interval ``span`` widened by ``w`` on both sides."""
    return (mpf_sub(span[0], w, _BITS, round_floor),
            mpf_add(span[1], w, _BITS, round_ceiling))


def _iv(op, a, b, cross=False):
    """``op`` on raw intervals a and b of numbers >= 0, rounded outward;
    ``cross`` pairs each end of a with the other end of b, as - and / need."""
    b = b[::-1] if cross else b
    return op(a[0], b[0], _BITS, round_floor), op(a[1], b[1], _BITS, round_ceiling)


def _bounds(x, exp=0):
    """Raw bounds on the integer x times 2**exp."""
    return (from_man_exp(x, exp, _BITS, round_floor),
            from_man_exp(x, exp, _BITS, round_ceiling))


def _gram_invariants(e):
    """(low, n1, n2, det) for raw 2 x 2 or 3 x 3 rows e = M 2**low, M an
    integer matrix: ||M||_F**2, the sum of M's squared 2 x 2 minors and
    det M, exact on Python integers."""
    low = min(x[2] for row in e for x in row if x[1])
    m = [[(-x[1] if x[0] else x[1]) << (x[2] - low) if x[1] else 0 for x in row]
         for row in e]
    pairs = ((0, 1),) if len(e) == 2 else ((0, 1), (0, 2), (1, 2))
    minors = [[m[i][k] * m[j][l] - m[i][l] * m[j][k] for k, l in pairs] for i, j in pairs]
    det = minors[0][0] if len(e) == 2 else (
        m[0][0] * minors[2][2] - m[0][1] * minors[2][1] + m[0][2] * minors[2][0])
    return (low, sum(x * x for row in m for x in row),
            sum(x * x for row in minors for x in row), det)


class _Root(NamedTuple):
    """x ** (1/k) for x > 0, keyed by its logarithm ln(x)/k."""

    x: object
    k: int

    def value(self, ctx):
        return ctx.mp.power(self.x, ctx.one / self.k)

    def key(self):
        return _ln(self.x) / self.k

    def enclosure(self):
        """Raw bounds on ``value``: exp of the key's interval."""
        return _exp_span(_span(self.key(), 1, None))


class _LogRatio(NamedTuple):
    """log a / log b for a > 0 and 0 < b < 1, keyed by the value itself;
    no key where log b is near 0."""

    a: object
    b: object

    def value(self, ctx):
        return ctx.mp.log(self.a) / ctx.mp.log(self.b)

    def key(self):
        log_b = _ln(self.b)
        return _ln(self.a) / log_b if log_b <= -1e-3 else None

    def enclosure(self):
        """Raw bounds on ``value``: the key's interval; None without a key."""
        key = self.key()
        return None if key is None else tuple(map(from_float, _span(key, 1, None)))


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
        prec, rnd = self.ctx.prec, self.ctx.rounding
        (a, b), (c, d) = self._e()
        p, m = (raw_dot(v, v, prec, rnd) for v in (
            (mpf_sub(a, d, prec, rnd), mpf_add(b, c, prec, rnd)),
            (mpf_add(a, d, prec, rnd), mpf_sub(b, c, prec, rnd))))
        root = mpf_sqrt(mpf_mul(p, m, prec, rnd), prec, rnd)
        return mpf_add(mpf_add(p, m, prec, rnd), mpf_shift(root, 1), prec, rnd)

    def enclosure(self):
        """Raw bounds on each singular value ``value`` returns, ascending, for
        n = 2 and 3; None otherwise.  For E = M 2**low, the squares m1 <= m2
        (<= m3) of M's singular values have the sums n1, n2 and, for n = 3,
        det**2 of their products one, two and three at a time (Cauchy-Binet;
        :func:`_gram_invariants`).  For s and q the sum and the product of
        all but m1, the largest is (s + sqrt(s**2 - 4 q)) / 2, rising with s
        and falling with q, and the next is q over it.  For n = 2, s = n1 and
        q = det**2.  For n = 3, q = det**2 / m1 lies in [n2 / 3, n2], so m1
        lies in [det**2 / n2, u] for u = 3 det**2 / n2, then det**2 / (n2 -
        u n1), which bound s = n1 - m1, q = n2 - m1 s and m1 = det**2 / q.
        Jacobi's outputs lie within 2 n svd_tol F of the square roots (see
        KEY_MARGIN), for F = n 2**max(exp + bc) >= ||E||_F."""
        n = len(self.b)
        e = self._e() if n in (2, 3) else ()
        nonzero = [x for row in e for x in row if x != fzero]
        if not nonzero or not all(x[1] for x in nonzero):
            return None
        low, n1, n2, det = _gram_invariants(e)
        if not n2:
            return None
        s, q, c3 = _bounds(n1), _bounds(n2), _bounds(det * det)
        if n == 3:
            u = _iv(mpf_div, _bounds(3 * det * det), q, True)[1]
            rest = _iv(mpf_sub, q, _iv(mpf_mul, (u, u), s), True)[0]
            v = mpf_div(c3[1], rest, _BITS, round_ceiling) if mpf_gt(rest, fzero) else u
            m1 = (_iv(mpf_div, c3, q, True)[0], v if mpf_lt(v, u) else u)
            s = _iv(mpf_sub, s, m1, True)
            if not mpf_gt(s[0], fzero):
                return None
            q = _iv(mpf_sub, q, _iv(mpf_mul, m1, s), True)
            if not mpf_gt(q[0], fzero):
                return None
        d = _iv(mpf_sub, _iv(mpf_mul, s, s), tuple(mpf_shift(x, 2) for x in q), True)
        root = (mpf_sqrt(d[0] if mpf_gt(d[0], fzero) else fzero, _BITS, round_floor),
                mpf_sqrt(d[1], _BITS, round_ceiling))
        top = tuple(mpf_shift(x, -1) for x in _iv(mpf_add, s, root))
        mus = [_iv(mpf_div, c3, q, True)] if n == 3 else []
        f = mpf_shift(from_int(n), max(x[2] + x[3] for x in nonzero))
        w = mpf_mul(mpf_mul(self.ctx.svd_tol._mpf_, from_int(2 * n), _BITS,
                            round_ceiling), f, _BITS, round_ceiling)
        return tuple(_pad(tuple(mpf_shift(mpf_sqrt(x, _BITS, rnd), low) for x, rnd in
                                zip(mu, (round_floor, round_ceiling))), w)
                     for mu in mus + [_iv(mpf_div, q, top, True), top])


_LAZY = (_Root, _LogRatio, _Spectrum)


@dataclass
class MetricsRow:
    """Diagnostics at one iteration index k.  ``pending`` maps each lazy
    column (r, r_eps, delta, e_svals) to its value, or to the operands that
    the first read replaces with it."""

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
    #: ascending singular values of E_k; None for an smp run, which has no B_k
    e_svals = property(lambda self: self._read("e_svals"))
    #: ||E_k||_2 and the smallest and second smallest singular values of E_k;
    #: None for an smp run (lambda2 also for n = 1)
    e_norm = property(lambda self: self._sval(-1))
    lambda1 = property(lambda self: self._sval(0))
    lambda2 = property(lambda self: self._sval(1))

    def _sval(self, i):
        svals = self.e_svals
        return svals[i] if svals is not None and i < len(svals) else None

    def enclosures(self) -> dict:
        """Raw (lo, hi) bounds on the value of each unread lazy column that
        has them, by attribute (``enclosure`` of its operands)."""
        out = {}
        for attr, op in self.pending.items():
            span = op.enclosure() if isinstance(op, _LAZY) else None
            if span is None:
                continue
            if attr == "e_svals":
                out.update(lambda1=span[0], lambda2=span[1], e_norm=span[-1])
            else:
                out[attr] = span
        return out


def window_extreme(pick: str, attr: str, rows):
    """``min`` or ``max`` (``pick``) of column ``attr`` over ``rows``, None
    values skipped.  An unread lazy value enters by its key, and only the
    rows whose key intervals (:func:`_span`) reach the extreme one are
    evaluated."""
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
        gt = float.__gt__ if isinstance(keyed[0][0][0], float) else mpf_gt
        # the largest (signed) value that some row certainly reaches
        floor = keyed[0][0][0]
        for (lo, _), _ in keyed:
            if gt(lo, floor):
                floor = lo
        exact += [row for (_, hi), row in keyed if not gt(floor, hi)]
    values = [v for v in (getattr(row, attr) for row in exact) if v is not None]
    if not values:
        return None
    return max(values) if pick == "max" else min(values)


def metrics_from_trace(rec: RunRecord, p: Problem,
                       indices: Optional[range] = None) -> list[MetricsRow]:
    """One MetricsRow per iteration index of ``rec`` in ``indices`` (default:
    all), with errors on raw tuples from ``indices[0] - 2`` on, and the
    entry's own ``s_norm`` and ``eps``; zeta is None without phi."""
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
