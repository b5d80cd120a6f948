"""Per-iteration convergence diagnostics derived from a solver trace.

Each row collects, for iteration k (undefined entries are None),

    err_k = ||u^k - root||,  r_k = err_k ** (1/k),  q_k = err_k / err_{k-1},
    r_eps_k = eps_{k-1} ** (1/k),  q_eps_k = eps_{k-1} / eps_{k-2},
    delta_k = log ||F_k|| / log ||s^{k-1}||  (for ||s^{k-1}|| < 1),
    zeta_k = min(||shat^k - phi||, ||shat^k + phi||)

and the ascending singular values of E_k = B_k - F'(root).  r, r_eps, delta
and the spectra are lazy: a row keeps their operands, which give raw bounds
that surely hold the value (see README.md), and evaluates them on first
read.  Window extrema evaluate only the rows whose bounds reach the extreme
one, and a six-digit cell comes from the bounds where both ends print alike.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from mpmath.libmp import (fone, from_float, from_man_exp, fzero, mpf_cmp, mpf_gt,
                          mpf_lt, mpf_mul, mpf_mul_int, mpf_rdiv_int,
                          mpf_shift, round_ceiling, to_int)

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
#: covers every error 300 times over.
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
#: bits that E_k keeps below its working precision when cut to integers
_GUARD = 16


def _ln(x) -> float:
    """ln|x| of a finite nonzero mpf, from its raw tuple (sign, man, exp, bc)."""
    _, man, exp, bc = x._mpf_
    top = man >> (bc - 53) if bc > 53 else man << (53 - bc)
    return math.log(math.ldexp(top, -53)) + (exp + bc) * _LN2


def _span(key: float):
    """The float interval of values that ``key`` stands for (see KEY_MARGIN)."""
    slack = KEY_MARGIN * (1 + abs(key))
    return key - slack, key + slack


def _gram_invariants(m):
    """(n1, n2, d) of the 2 x 2 or 3 x 3 integer matrix m (rows):
    ||m||_F**2, the sum of m's squared 2 x 2 minors and |det m|."""
    pairs = ((0, 1),) if len(m) == 2 else ((0, 1), (0, 2), (1, 2))
    minors = [[m[i][k] * m[j][l] - m[i][l] * m[j][k] for k, l in pairs] for i, j in pairs]
    det = minors[0][0] if len(m) == 2 else (
        m[0][0] * minors[2][2] - m[0][1] * minors[2][1] + m[0][2] * minors[2][0])
    return (sum(x * x for row in m for x in row),
            sum(x * x for row in minors for x in row), abs(det))


def _sqrt_bounds(lo: int, hi: int):
    """Integer bounds on sqrt(t) for t in the integer interval [lo, hi]."""
    low = math.isqrt(lo)
    high = low if hi == lo else math.isqrt(hi)
    return low, high + (high * high < hi)


def _pair(s, g):
    """Integer bounds on x and y, 0 <= x <= y, from integer bounds s on x**2
    + y**2 and g on x y: x + y = sqrt(s + 2 g), y - x = sqrt(s - 2 g)."""
    a = _sqrt_bounds(s[0] + 2 * g[0], s[1] + 2 * g[1])
    b = _sqrt_bounds(max(s[0] - 2 * g[1], 0), s[1] - 2 * g[0])
    return (((a[0] - b[1]) >> 1, (a[1] - b[0] + 1) >> 1),
            ((a[0] + b[0]) >> 1, (a[1] + b[1] + 1) >> 1))


def _top_root(n1: int, n2: int, c: int, prec: int):
    """Integer bounds (lo, hi), about 2**-prec apart relative, on the largest
    root of p(t) = t**3 - n1 t**2 + n2 t - c, whose roots are real, >= 0
    and sum to n1 > 0; None where they cannot be certified.  Newton's method
    runs from t = n1, above every root, where p rises and is convex, so that
    it falls to the largest root.  It works in floating point: t and the
    coefficients keep their leading 48 bits, a number that doubles each
    time a step falls below the square root of their precision, up to
    prec + 2 _GUARD bits.  p(lo) <= 0 <= p(hi) on exact integers puts a
    root in [lo, hi], and p'(lo) > 0 with 3 lo > n1 makes it the largest:
    p' = 3 t**2 - 2 n1 t + n2 rises past n1 / 3, and its larger root lies
    between p's middle and largest roots (Rolle), so lo lies above the
    middle root."""
    size = n1.bit_length()
    shift, last = max(size - 48, 0), max(size - prec - 2 * _GUARD, 0)
    t = n1 >> shift
    for _ in range(200):
        a1, a2, a3 = n1 >> shift, n2 >> 2 * shift, c >> 3 * shift
        d = (3 * t - 2 * a1) * t + a2
        if d <= 0:
            return None
        step = (((t - a1) * t + a2) * t - a3) // d
        t -= step
        if abs(step) <= t >> (size - shift) // 2:
            if shift == last:
                break
            # 2 (size - shift) - 8 bits: 8 for the truncated coefficients
            # and the floor division
            new = max(2 * shift - size + 8, last)
            t, shift = t << shift - new, new
    width = (t >> prec) + 1
    lo, hi = (t - width) << shift, (t + width) << shift

    def p(v):
        return ((v - n1) * v + n2) * v - c

    if 3 * lo > n1 and (3 * lo - 2 * n1) * lo + n2 > 0 and p(lo) <= 0 <= p(hi):
        return lo, hi
    return None


class _Root(NamedTuple):
    """x ** (1/k) for x > 0, bounded through its logarithm ln(x)/k."""

    x: object
    k: int

    def value(self, ctx):
        return ctx.mp.power(self.x, ctx.one / self.k)

    def enclosure(self):
        """Raw bounds on ``value``: exp of the key's interval, None outside
        (-700, 700); math.exp errs by less than an ulp, 2**-52 relative."""
        lo, hi = _span(_ln(self.x) / self.k)
        if not -700 < lo <= hi < 700:
            return None
        return (from_float(math.exp(lo) * (1 - 2 ** -50)),
                from_float(math.exp(hi) * (1 + 2 ** -50)))


class _LogRatio(NamedTuple):
    """log a / log b for a > 0 and 0 < b < 1, bounded through a float key,
    the value itself; no bounds where log b is near 0."""

    a: object
    b: object

    def value(self, ctx):
        return ctx.mp.log(self.a) / ctx.mp.log(self.b)

    def enclosure(self):
        """Raw bounds on ``value``: the key's interval; None without a key."""
        log_b = _ln(self.b)
        if log_b > -1e-3:
            return None
        return tuple(map(from_float, _span(_ln(self.a) / log_b)))


class _Spectrum(NamedTuple):
    """Ascending singular values of E_k = b - j_root(), for the raw rows b of
    B_k, where j_root forms the raw rows of F'(root) on first call."""

    ctx: PrecisionContext
    b: tuple
    j_root: Callable[[], tuple]

    def _e(self):
        prec, rnd = self.ctx.prec, self.ctx.rounding
        return [[mpf_sub(x, y, prec, rnd) for x, y in zip(rb, rj)]
                for rb, rj in zip(self.b, self.j_root())]

    def value(self, ctx):
        return singular_values(ctx.raw_mat(self._e()))

    def enclosure(self):
        """Raw bounds on each singular value ``value`` returns, ascending, for
        n = 2 and 3; None otherwise, or where they cannot be certified.

        E's entries are cut toward zero at 2**cut, cut = top - prec - _GUARD
        for top the largest exp + bc, to E' = M 2**cut, M an integer matrix
        with entries below 2**(prec + _GUARD): E - E' moves each singular
        value by less than n 2**cut (Weyl).  Let n1 = ||M||_F**2, n2 the sum
        of M's squared 2 x 2 minors and d = |det M| (:func:`_gram_invariants`).
        For n = 2, M's singular values x <= y have x**2 + y**2 = n1 and x y =
        d (:func:`_pair`).  For n = 3, x <= y <= z, and z**2 is the largest
        root of t**3 - n1 t**2 + n2 t - d**2 (Cauchy-Binet; :func:`_top_root`);
        then x y = d / z and x**2 + y**2 = (n2 - (x y)**2) / z**2, where
        n2 - (x y)**2 = z**2 (x**2 + y**2) >= 2 n2 / 3 does not cancel.  Every
        step rounds outward on integers.  Jacobi's outputs lie within 2 n
        svd_tol F of the singular values of E (see KEY_MARGIN), F = n 2**top
        >= ||E||_F, so each bound is widened by pad 2**cut >= n 2**cut + 2 n
        svd_tol F."""
        n = len(self.b)
        e = self._e() if n in (2, 3) else ()
        nonzero = [x for row in e for x in row if x != fzero]
        if not nonzero or not all(x[1] for x in nonzero):
            return None
        prec = self.ctx.prec
        cut = max(x[2] + x[3] for x in nonzero) - prec - _GUARD
        n1, n2, d = _gram_invariants([[to_int(mpf_shift(x, -cut)) for x in row]
                                      for row in e])
        if not n2:   # rank <= 1: no bound certifies the zeros
            return None
        if n == 2:
            svals = _pair((n1, n1), (d, d))
        else:
            zz = _top_root(n1, n2, d * d, prec)
            if zz is None:
                return None
            z = _sqrt_bounds(*zz)
            xy = d // z[1], -(-d // z[0])
            svals = _pair(((n2 - xy[1] ** 2) // zz[1], -((xy[0] ** 2 - n2) // zz[0])),
                          xy) + (z,)
        pad = to_int(mpf_shift(mpf_mul_int(self.ctx.svd_tol._mpf_, 2 * n * n, 64,
                                           round_ceiling), prec + _GUARD),
                     round_ceiling) + n
        return tuple((from_man_exp(lo - pad, cut), from_man_exp(hi + pad, cut))
                     for lo, hi in svals)


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
    values skipped.  An unread lazy value enters by its ``enclosure``, and
    only the rows whose bounds reach the extreme one are evaluated."""
    sign = 1 if pick == "max" else -1
    name = "e_svals" if attr == "e_norm" else attr
    exact, spans = [], []
    for row in rows:
        op = row.pending.get(name)
        span = op.enclosure() if isinstance(op, _LAZY) else None
        if span is None:
            exact.append(row)
        else:
            # (near, far): the bound away from and the bound toward the extreme
            spans.append(((span[-1] if name == "e_svals" else span)[::sign], row))
    if spans:
        # the value nearest the extreme that some row certainly reaches
        bar = spans[0][0][0]
        for (near, _), _ in spans:
            if mpf_cmp(near, bar) == sign:
                bar = near
        exact += [row for (_, far), row in spans if mpf_cmp(far, bar) != -sign]
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
