"""Arbitrary-precision dense linear algebra on small square matrices.

Everything runs on raw ``_mpf_`` tuples at an explicit
:class:`PrecisionContext`, bit-identical to the ``mpf`` operators: LU with
partial pivoting for solves, one-sided Jacobi rotations for singular values,
and per-run kernels (:func:`kernels`) written out for n = 2.  See README.md
for the own scalar ops.
"""
from __future__ import annotations

import functools
import math

from mpmath import libmp, mp
from mpmath.libmp import (fone, fzero, mpf_abs, mpf_cmp, mpf_gt, mpf_le, mpf_lt,
                          mpf_mul, mpf_mul_int, mpf_neg, mpf_rdiv_int, normalize,
                          normalize1, round_nearest)


# -- scalar ops: mpmath 1.3.0's python-backend bodies with int.bit_length and
# math.isqrt, so the same tuples; special operands go to libmp (README.md)

def mpf_add(s, t, prec, rnd, _sub=0):
    """s + t (s - t with ``_sub``) of raw tuples, as ``libmp.mpf_add``."""
    ssign, sman, sexp, sbc = s
    tsign, tman, texp, tbc = t
    tsign ^= _sub
    if sexp < texp:
        # libmp's branch for a negative offset: the positive one, swapped
        ssign, sman, sexp, sbc, tsign, tman, texp, tbc = (
            tsign, tman, texp, tbc, ssign, sman, sexp, sbc)
    offset = sexp - texp
    if not (sman and tman) or (offset > 100 and prec
                               and sbc + sexp - tbc - texp > prec + 4):
        return libmp.mpf_add(s, t, prec, rnd, _sub)
    if ssign == tsign:
        man = tman + (sman << offset)
    else:
        man = tman - (sman << offset) if ssign else (sman << offset) - tman
        ssign, man = (1, -man) if man < 0 else (0, man)
    bc = man.bit_length()
    # a nonzero offset leaves man odd, as normalize1 requires
    return (normalize1 if offset else normalize)(ssign, man, texp, bc, prec or bc, rnd)


def mpf_sub(s, t, prec, rnd):
    """s - t of raw tuples, as ``libmp.mpf_sub``."""
    return mpf_add(s, t, prec, rnd, 1)


def mpf_div(s, t, prec, rnd):
    """s / t of raw tuples, as ``libmp.mpf_div``."""
    ssign, sman, sexp, sbc = s
    tsign, tman, texp, tbc = t
    if not sman or not tman:
        return libmp.mpf_div(s, t, prec, rnd)
    sign = ssign ^ tsign
    if tman == 1:
        return normalize1(sign, sman, sexp - texp, sbc, prec, rnd)
    extra = max(prec - sbc + tbc + 5, 5)
    quot, rem = divmod(sman << extra, tman)
    if rem:
        # perturb the quotient a few bits below the precision
        quot, extra = (quot << 1) + 1, extra + 1
    return (normalize1 if rem else normalize)(sign, quot, sexp - texp - extra,
                                              quot.bit_length(), prec, rnd)


def mpf_sqrt(s, prec, rnd):
    """The correctly rounded square root of a raw tuple, as ``libmp.mpf_sqrt``."""
    sign, man, exp, bc = s
    if sign or not man or not prec or rnd != round_nearest:
        return libmp.mpf_sqrt(s, prec, rnd)
    if exp & 1:
        exp, man, bc = exp - 1, man << 1, bc + 1
    elif man == 1:
        return normalize1(sign, man, exp // 2, bc, prec, rnd)
    shift = max(4, 2 * prec - bc + 4)
    shift += shift & 1
    man <<= shift
    root = math.isqrt(man)
    if root * root != man:
        root, shift = (root << 1) + 1, shift + 2   # perturb up
    return normalize(0, root, (exp - shift) // 2, root.bit_length(), prec, rnd)


if libmp.BACKEND != "python":   # libmp's bodies then run on gmpy or sage in C
    mpf_add, mpf_sub, mpf_div, mpf_sqrt = (libmp.mpf_add, libmp.mpf_sub,
                                           libmp.mpf_div, libmp.mpf_sqrt)


class LinalgError(Exception):
    """Base class for numerical failures in this module."""


class SingularMatrix(LinalgError):
    """A pivot fell below the relative breakdown threshold."""


class NoConvergence(LinalgError):
    """Jacobi sweeps exceeded the rotation budget."""


class PrecisionContext:
    """Working precision of ``decimal_digits`` decimal digits; an LU pivot
    below ``10**-(decimal_digits - 20)`` times the largest matrix entry
    raises :class:`SingularMatrix`."""

    __slots__ = ("decimal_digits", "mp", "prec", "rounding", "pivot_scale",
                 "svd_tol")

    def __init__(self, decimal_digits: int):
        decimal_digits = int(decimal_digits)
        if decimal_digits < 50:
            raise ValueError("decimal_digits must be at least 50")
        self.decimal_digits = decimal_digits
        self.mp = mp.clone()
        self.mp.dps = decimal_digits
        #: binary precision and rounding mode the mpf operators pass to libmp
        self.prec, self.rounding = self.mp._prec_rounding
        #: relative pivot threshold of :func:`lu_solve`
        self.pivot_scale = self.pow10(-(decimal_digits - 20))
        #: relative off-diagonal tolerance of :func:`singular_values`
        self.svd_tol = self.pow10(-decimal_digits + 10)

    def __repr__(self):
        return f"PrecisionContext(decimal_digits={self.decimal_digits})"

    def __eq__(self, other):
        return (isinstance(other, PrecisionContext)
                and self.decimal_digits == other.decimal_digits)

    def __hash__(self):
        return hash(self.decimal_digits)

    def __reduce__(self):
        return (PrecisionContext, (self.decimal_digits,))

    # -- scalar constructors ------------------------------------------------

    def real(self, x):
        """Convert int/float/str/mpf to a scalar at this precision."""
        return self.mp.mpf(x)

    zero = property(lambda self: self.mp.mpf(0))
    one = property(lambda self: self.mp.mpf(1))

    def pow10(self, exponent):
        """10**exponent at working precision (exponent may be fractional)."""
        return self.mp.mpf(10) ** exponent

    def make(self, mpf_tuple):
        """Rebuild a scalar from its exact ``_mpf_`` tuple (worker transport)."""
        return self.mp.make_mpf(mpf_tuple)

    def raw_vec(self, mpf_tuples) -> "Vec":
        """Vector from raw ``_mpf_`` tuples."""
        return Vec(map(self.mp.make_mpf, mpf_tuples), self)

    def raw_mat(self, rows) -> "Mat":
        """Matrix from rows of raw ``_mpf_`` tuples."""
        return Mat((self.raw_vec(r).entries for r in rows), self)

    # -- container constructors ----------------------------------------------

    def vec(self, entries) -> "Vec":
        return Vec(tuple(self.real(x) for x in entries), self)

    def mat(self, rows) -> "Mat":
        return Mat(tuple(tuple(self.real(x) for x in row) for row in rows), self)


class Vec:
    """Immutable fixed-length vector of context-bound scalars."""

    __slots__ = ("entries", "ctx")

    def __init__(self, entries, ctx: PrecisionContext):
        self.entries = tuple(entries)
        self.ctx = ctx

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other):
        return isinstance(other, Vec) and self.entries == other.entries

    def __repr__(self):
        return "Vec(" + ", ".join(str(x) for x in self.entries) + ")"

    def _entrywise(self, op, other):
        ctx = self.ctx
        return ctx.raw_vec(op(a, b, ctx.prec, ctx.rounding)
                           for a, b in zip(self.raw(), other.raw()))

    __add__ = functools.partialmethod(_entrywise, mpf_add)
    __sub__ = functools.partialmethod(_entrywise, mpf_sub)

    def _map(self, op, *args):
        ctx = self.ctx
        return ctx.raw_vec(op(*args, x, ctx.prec, ctx.rounding) for x in self.raw())

    __neg__ = functools.partialmethod(_map, mpf_neg)

    def scaled(self, a) -> "Vec":
        return self._map(mpf_mul, a._mpf_)

    def raw(self):
        """The entries as raw ``_mpf_`` tuples."""
        return tuple(x._mpf_ for x in self.entries)

    def raw_dot(self, other):
        """The dot product as a raw ``_mpf_`` tuple, rounded as ``dot``."""
        return raw_dot(self.raw(), other.raw(), self.ctx.prec, self.ctx.rounding)

    def dot(self, other):
        return self.ctx.make(self.raw_dot(other))

    def norm(self):
        """Euclidean norm."""
        ctx = self.ctx
        return ctx.make(mpf_sqrt(self.raw_dot(self), ctx.prec, ctx.rounding))


class Mat:
    """Immutable square matrix of context-bound scalars, row-major."""

    __slots__ = ("rows", "ctx")

    def __init__(self, rows, ctx: PrecisionContext):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        self.rows = rows
        self.ctx = ctx

    n = property(lambda self: len(self.rows))

    def __eq__(self, other):
        return isinstance(other, Mat) and self.rows == other.rows

    def __repr__(self):
        return "Mat(" + "; ".join(", ".join(str(x) for x in r) for r in self.rows) + ")"

    def _entrywise(self, op, other):
        ctx = self.ctx
        prec, rnd = ctx.prec, ctx.rounding
        return ctx.raw_mat((op(a, b, prec, rnd) for a, b in zip(ra, rb))
                           for ra, rb in zip(self.raw(), other.raw()))

    __add__ = functools.partialmethod(_entrywise, mpf_add)
    __sub__ = functools.partialmethod(_entrywise, mpf_sub)

    def raw(self):
        """The rows as tuples of raw ``_mpf_`` tuples."""
        return tuple(tuple(x._mpf_ for x in r) for r in self.rows)

    def matvec(self, v: Vec) -> Vec:
        return self.ctx.raw_vec(Vec(row, self.ctx).raw_dot(v) for row in self.rows)

    def max_abs(self):
        """Largest entry magnitude."""
        ctx = self.ctx
        return ctx.make(_max_abs(self.raw(), ctx.prec, ctx.rounding))


def rank_one_update(B: Mat, v: Vec, w: Vec) -> Mat:
    """Return B + v w^T; B is left unmodified."""
    if B.n != len(v) or B.n != len(w):
        raise ValueError("dimension mismatch in rank-one update")
    ctx = B.ctx
    return ctx.raw_mat(_outer_add(B.raw(), v.raw(), w.raw(), ctx.prec, ctx.rounding))


def lu_solve(A: Mat, b: Vec) -> Vec:
    """Solve A x = b by LU with partial pivoting; a pivot below the context's
    threshold raises :class:`SingularMatrix`, the solvers' breakdown."""
    if len(b) != A.n:
        raise ValueError("dimension mismatch in lu_solve")
    return A.ctx.raw_vec(_solve(A.ctx, A.raw(), b.raw()))


# -- raw kernels: vectors are tuples of raw tuples, matrices tuples of rows -------

def _max_abs(rows, prec, rnd):
    m = fzero
    for row in rows:
        for x in row:
            ax = mpf_abs(x, prec, rnd)
            if mpf_gt(ax, m):
                m = ax
    return m


def _pivot_bound(ctx, entries):
    # the rounded threshold pivot_scale * max|A| is at most 2**bound, since
    # |y| < 2**(exp + bc) for a raw tuple y: a pivot of at least 2**bound
    # clears it unformed.  A non-finite entry (mantissa 0, not zero) forms it
    binades = [a[2] + a[3] for a in entries if a[1]]
    if binades and all(a[1] or a == fzero for a in entries):
        ps = ctx.pivot_scale._mpf_
        return ps[2] + ps[3] + max(binades)
    return math.inf


def _check_pivot(ctx, A, piv_mag, bound, threshold):
    """Raise :class:`SingularMatrix` if |pivot| = ``piv_mag`` is below the
    ``threshold`` pivot_scale * max|A|, formed only where ``bound`` cannot
    decide; return the threshold (None while unformed)."""
    if not piv_mag[1] or piv_mag[2] + piv_mag[3] - 1 < bound:
        prec, rnd = ctx.prec, ctx.rounding
        if threshold is None:
            threshold = mpf_mul(ctx.pivot_scale._mpf_, _max_abs(A, prec, rnd), prec, rnd)
        if piv_mag == fzero or mpf_lt(piv_mag, threshold):
            raise SingularMatrix(f"pivot {ctx.make(piv_mag)} below threshold "
                                 f"{ctx.make(threshold)}")
    return threshold


def _solve(ctx, A, b):
    """x with A x = b for raw A and b, by LU with partial pivoting."""
    n = len(A)
    prec, rnd = ctx.prec, ctx.rounding
    rows = [list(r) for r in A]
    x = list(b)
    bound = _pivot_bound(ctx, [a for r in A for a in r])
    threshold = None
    for k in range(n):
        piv, piv_mag = k, mpf_abs(rows[k][k], prec, rnd)
        for i in range(k + 1, n):
            mag = mpf_abs(rows[i][k], prec, rnd)
            if mpf_gt(mag, piv_mag):
                piv, piv_mag = i, mag
        threshold = _check_pivot(ctx, A, piv_mag, bound, threshold)
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            x[k], x[piv] = x[piv], x[k]
        pivot_row = rows[k]
        for i in range(k + 1, n):
            row = rows[i]
            m = mpf_div(row[k], pivot_row[k], prec, rnd)
            if m != fzero:
                for j in range(k + 1, n):
                    row[j] = mpf_sub(row[j], mpf_mul(m, pivot_row[j], prec, rnd),
                                     prec, rnd)
                x[i] = mpf_sub(x[i], mpf_mul(m, x[k], prec, rnd), prec, rnd)
    for i in range(n - 1, -1, -1):
        acc = x[i]
        for j in range(i + 1, n):
            acc = mpf_sub(acc, mpf_mul(rows[i][j], x[j], prec, rnd), prec, rnd)
        x[i] = mpf_div(acc, rows[i][i], prec, rnd)
    return tuple(x)


def raw_dot(a, b, prec, rnd):
    """The dot product of raw vectors a and b, as ``Vec.raw_dot``, summed from
    the first product: libmp returns 0 + x as x for an x rounded to prec."""
    pairs = zip(a, b)
    acc = mpf_mul(*next(pairs, (fzero, fzero)), prec, rnd)
    for x, y in pairs:
        acc = mpf_add(acc, mpf_mul(x, y, prec, rnd), prec, rnd)
    return acc


def _outer_add(B, v, w, prec, rnd):
    return tuple(tuple(mpf_add(b, mpf_mul(a, c, prec, rnd), prec, rnd)
                       for b, c in zip(row, w))
                 for row, a in zip(B, v))


def kernels(ctx: PrecisionContext, n: int):
    """``(solve, secant)`` on raw vectors and n x n matrices: ``solve(A, b)``
    is :func:`lu_solve` and ``secant(B, s, ss, f)`` is B + (f / ss) s^T as
    ``rank_one_update(B, f.scaled(1 / ss), s)`` forms it.  For n = 2 both are
    written out with the same scalar ops in the same order."""
    prec, rnd = ctx.prec, ctx.rounding
    if n != 2:
        def secant(B, s, ss, f):
            inv = mpf_rdiv_int(1, ss, prec, rnd)
            return _outer_add(B, [mpf_mul(inv, x, prec, rnd) for x in f], s, prec, rnd)
        return functools.partial(_solve, ctx), secant

    def solve(A, b):
        (a, b01), (c, d) = A
        x0, x1 = b
        bound = _pivot_bound(ctx, (a, b01, c, d))
        piv_mag, mag = mpf_abs(a, prec, rnd), mpf_abs(c, prec, rnd)
        if mpf_gt(mag, piv_mag):
            piv_mag, a, b01, c, d, x0, x1 = mag, c, d, a, b01, x1, x0
        threshold = _check_pivot(ctx, A, piv_mag, bound, None)
        m = mpf_div(c, a, prec, rnd)
        if m != fzero:
            d = mpf_sub(d, mpf_mul(m, b01, prec, rnd), prec, rnd)
            x1 = mpf_sub(x1, mpf_mul(m, x0, prec, rnd), prec, rnd)
        _check_pivot(ctx, A, mpf_abs(d, prec, rnd), bound, threshold)
        x1 = mpf_div(x1, d, prec, rnd)
        return (mpf_div(mpf_sub(x0, mpf_mul(b01, x1, prec, rnd), prec, rnd), a,
                        prec, rnd), x1)

    def secant(B, s, ss, f):
        (b00, b01), (b10, b11) = B
        s0, s1 = s
        inv = mpf_rdiv_int(1, ss, prec, rnd)
        v0, v1 = mpf_mul(inv, f[0], prec, rnd), mpf_mul(inv, f[1], prec, rnd)
        return ((mpf_add(b00, mpf_mul(v0, s0, prec, rnd), prec, rnd),
                 mpf_add(b01, mpf_mul(v0, s1, prec, rnd), prec, rnd)),
                (mpf_add(b10, mpf_mul(v1, s0, prec, rnd), prec, rnd),
                 mpf_add(b11, mpf_mul(v1, s1, prec, rnd), prec, rnd)))

    return solve, secant


def singular_values(A: Mat):
    """All singular values of A in ascending order, by one-sided Jacobi:
    columns rotate until every off-diagonal Gram entry is at most svd_tol
    times the root of its diagonal pair; :class:`NoConvergence` after ``60
    n**2`` rotations.  Each output lies within 2 n svd_tol ||A||_F of the
    exact one (proof next to ``diagnostics.KEY_MARGIN``)."""
    ctx = A.ctx
    n = A.n
    prec, rnd = ctx.prec, ctx.rounding
    cols = [[A.rows[i][j]._mpf_ for i in range(n)] for j in range(n)]
    tol = ctx.svd_tol._mpf_
    max_rotations = 60 * n * n
    rotations = 0

    def mul(x, y):
        return mpf_mul(x, y, prec, rnd)

    def gram(p, q):
        return raw_dot(cols[p], cols[q], prec, rnd)

    # diagonal Gram entries, formed again only after their column rotates
    diag = [gram(j, j) for j in range(n)]
    # columns below roundoff relative to the largest are deflated to zero;
    # without this, exactly rank-deficient matrices keep parallel columns
    # whose pair criterion never clears (|c| = sqrt(a b) up to rounding)
    floor2 = mul(mul(_max_abs([diag], prec, rnd), tol), tol)
    tol_binades = 2 * (tol[2] + tol[3])

    while True:
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                a, b = diag[p], diag[q]
                if mpf_le(a, floor2) or mpf_le(b, floor2):
                    continue
                c = gram(p, q)
                if c == fzero:
                    continue
                # with |y| in [2**(e-1), 2**e) for e = exp + bc, the rounded
                # tol sqrt(a b) lies in (2**((g-5)/2), 2**((g+1)/2)), g the
                # binades of tol**2 a b: the exponents decide |c| against it
                # unless 2 e(c) is within [g - 4, g + 2]
                gap = 0
                if a[1] and b[1]:
                    gap = 2 * (c[2] + c[3]) - tol_binades - a[2] - a[3] - b[2] - b[3]
                if gap <= -5 or (gap <= 2 and mpf_le(
                        mpf_abs(c, prec, rnd),
                        mul(tol, mpf_sqrt(mul(a, b), prec, rnd)))):
                    continue
                rotations += 1
                if rotations > max_rotations:
                    raise NoConvergence(
                        f"jacobi sweep budget exceeded ({max_rotations} rotations)")
                tau = mpf_div(mpf_sub(b, a, prec, rnd), mpf_mul_int(c, 2, prec, rnd),
                              prec, rnd)
                root = mpf_sqrt(mpf_add(fone, mul(tau, tau), prec, rnd), prec, rnd)
                t = mpf_div(fone, mpf_add(mpf_abs(tau, prec, rnd), root, prec, rnd),
                            prec, rnd)
                if mpf_lt(tau, fzero):
                    t = mpf_neg(t, prec, rnd)
                cs = mpf_div(fone, mpf_sqrt(mpf_add(fone, mul(t, t), prec, rnd),
                                            prec, rnd), prec, rnd)
                sn = mul(t, cs)
                cp, cq = cols[p], cols[q]
                for i in range(n):
                    up, uq = cp[i], cq[i]
                    cp[i] = mpf_sub(mul(cs, up), mul(sn, uq), prec, rnd)
                    cq[i] = mpf_add(mul(sn, up), mul(cs, uq), prec, rnd)
                diag[p], diag[q] = gram(p, p), gram(q, q)
                rotated = True
        if not rotated:
            break

    norms = sorted((mpf_sqrt(g, prec, rnd) for g in diag),
                   key=functools.cmp_to_key(mpf_cmp))
    return tuple(ctx.make(x) for x in norms)
