"""Registry of nonlinear test systems with known roots and singularity data.

Each problem, named or a ``family:p`` member, carries its analytic Jacobian
and, for the singular ones, a unit null vector ``phi`` of F'(0) and a vector
``psi`` spanning the complement of range(F'(0)).  Residuals and Jacobians are
module-level functions, so Problem objects can cross process boundaries.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

from mpmath.libmp import from_int, mpf_mul, mpf_mul_int

from .linalg import Mat, PrecisionContext, Vec, mpf_add, mpf_div


class MissingNullData(Exception):
    """The problem does not carry phi/psi (regular root)."""


# -- residuals and Jacobians -------------------------------------------------
#
# example1 (n=2):     F(u) = (u1 + u2^2,  3/2 u1 u2 + u2^2 + u2^3)
# example23:p (n=3):  F(u) = (u1^p + u2 + u3,  u2 - 2 u3^3,  5 u3 + u3^2), order
#                     p - 1, one F'(0); example2 is p = 2, example3 p = 3
# example4 (n=3):     regular root, see _f_example4
# monomial:p (n=1):   F(u) = (u1^p,), order p - 1

_TWO = from_int(2)


def _raw_f_example1(u: tuple, ctx: PrecisionContext) -> tuple:
    # raw libmp in the operators' order: (u1 + sq, u1 * u2 * 3 / 2 + sq + sq * u2)
    prec, rnd = ctx.prec, ctx.rounding
    u1, u2 = u
    sq = mpf_mul(u2, u2, prec, rnd)
    f2 = mpf_div(mpf_mul_int(mpf_mul(u1, u2, prec, rnd), 3, prec, rnd), _TWO, prec, rnd)
    return (mpf_add(u1, sq, prec, rnd),
            mpf_add(mpf_add(f2, sq, prec, rnd), mpf_mul(sq, u2, prec, rnd), prec, rnd))


def _f_example1(u: Vec) -> Vec:
    return u.ctx.raw_vec(_raw_f_example1(u.raw(), u.ctx))


#: the raw form of a residual, keyed by the function itself: a replaced or
#: wrapped ``Problem.f`` is not a key, so it is the one called
_RAW_F = {_f_example1: _raw_f_example1}


def _j_example1(u: Vec) -> Mat:
    ctx = u.ctx
    u1, u2 = u.entries
    one = ctx.one
    return Mat(((one, 2 * u2),
                (u2 * 3 / 2, u1 * 3 / 2 + 2 * u2 + 3 * u2 * u2)), ctx)


def _f_example23(p: int, u: Vec) -> Vec:
    # u1**p formed as u1 * u1 (* u1), one rounding per product
    u1, u2, u3 = u.entries
    return Vec((math.prod((u1,) * (p - 1), start=u1) + u2 + u3,
                u2 - 2 * u3 * u3 * u3, 5 * u3 + u3 * u3), u.ctx)


def _j_example23(p: int, u: Vec) -> Mat:
    ctx = u.ctx
    u1, _, u3 = u.entries
    one, zero = ctx.one, ctx.zero
    return Mat(((math.prod((u1,) * (p - 1), start=p), one, one),
                (zero, one, -6 * u3 * u3),
                (zero, zero, 5 + 2 * u3)), ctx)


def _f_example4(u: Vec) -> Vec:
    ctx = u.ctx
    u1, u2, u3 = u.entries
    one = ctx.one
    a = one + u1
    b = one + u2
    return Vec((a * a * b + b * b + u3 - 2,
                ctx.mp.exp(u1) + b * b * b + u3 * u3 - 2,
                ctx.mp.exp(u3 * u3) + b * b - 2), ctx)


def _j_example4(u: Vec) -> Mat:
    ctx = u.ctx
    u1, u2, u3 = u.entries
    one, zero = ctx.one, ctx.zero
    a = one + u1
    b = one + u2
    return Mat(((2 * a * b, a * a + 2 * b, one),
                (ctx.mp.exp(u1), 3 * b * b, 2 * u3),
                (zero, 2 * b, 2 * u3 * ctx.mp.exp(u3 * u3))), ctx)


def _f_monomial(p: int, u: Vec) -> Vec:
    return Vec((u.entries[0] ** p,), u.ctx)


def _j_monomial(p: int, u: Vec) -> Mat:
    return Mat(((p * u.entries[0] ** (p - 1),),), u.ctx)


@dataclass(frozen=True)
class Problem:
    """A residual map with a known root of ``singularity_order`` 0 (regular) or
    m >= 1; ``phi`` spans ker(F'(root)) and ``psi`` range(F'(root))^perp, or None."""

    name: str
    n: int
    f: Callable[[Vec], Vec]
    jac: Callable[[Vec], Mat]
    root_entries: tuple
    phi_entries: Optional[tuple]
    psi_entries: Optional[tuple]
    singularity_order: int

    def residual(self, u: tuple, ctx: PrecisionContext) -> tuple:
        """F(u) on raw tuples, bit-identical to ``f``."""
        raw_f = _RAW_F.get(self.f)
        if raw_f is None:
            return self.f(ctx.raw_vec(u)).raw()
        return raw_f(u, ctx)

    def root(self, ctx: PrecisionContext) -> Vec:
        return ctx.vec(self.root_entries)

    def phi(self, ctx: PrecisionContext) -> Vec:
        if self.phi_entries is None:
            raise MissingNullData(f"{self.name} has no null vector data")
        return ctx.vec(self.phi_entries)

    def psi(self, ctx: PrecisionContext) -> Vec:
        if self.psi_entries is None:
            raise MissingNullData(f"{self.name} has no range-complement data")
        return ctx.vec(self.psi_entries)

    @property
    def has_null_data(self) -> bool:
        return self.phi_entries is not None and self.psi_entries is not None


def _member(n: int, f, jac, null: tuple, p: int, name: str) -> Problem:
    """Member p of a family: F = f(p, .), F' = jac(p, .), ``null`` = (phi, psi)."""
    phi, psi = null if p >= 2 else (None, None)
    return Problem(name=name, n=n, f=functools.partial(f, p),
                   jac=functools.partial(jac, p), root_entries=(0,) * n,
                   phi_entries=phi, psi_entries=psi, singularity_order=p - 1)


_example23 = functools.partial(  # psi = (1,1,0) x (1,0,5) spans range(F'(0))^perp
    _member, 3, _f_example23, _j_example23, ((1, 0, 0), (5, -5, -1)))
_monomial = functools.partial(_member, 1, _f_monomial, _j_monomial, ((1,), (1,)))

_REGISTRY = {
    "example1": Problem(
        name="example1", n=2, f=_f_example1, jac=_j_example1,
        root_entries=(0, 0),
        phi_entries=(0, 1), psi_entries=(0, 1), singularity_order=1),
    "example2": _example23(2, "example2"),
    "example3": _example23(3, "example3"),
    "example4": Problem(
        name="example4", n=3, f=_f_example4, jac=_j_example4,
        root_entries=(0, 0, 0),
        phi_entries=None, psi_entries=None, singularity_order=0),
}

#: ``family:p`` problems, p <= MAX_EXPONENT: family -> (builder, smallest p, text)
MAX_EXPONENT = 64
FAMILIES = {
    "example23": (_example23, 2, "example2 with u1**p, singularity order p-1"),
    "monomial": (_monomial, 1, "1-D family u -> u**p with root 0"),
}


def list_problems() -> list[str]:
    """Names of the built-in registry entries (``FAMILIES`` are extra)."""
    return sorted(_REGISTRY)


def get_problem(name: str) -> Problem:
    """A registry problem by name, or member p of a family by ``family:p``."""
    if name in _REGISTRY:
        return _REGISTRY[name]
    family, colon, digits = name.partition(":")
    if not colon or family not in FAMILIES:
        raise ValueError(f"unknown problem {name!r}")
    build, low, _ = FAMILIES[family]
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"bad {family} exponent in {name!r}")
    p = int(digits.lstrip("0")[:3] or 0)   # 3+ digits: >= 100, refused below
    if p < low:
        raise ValueError(f"{family} exponent must be >= {low}")
    if p > MAX_EXPONENT:
        raise ValueError(f"{family} exponent must be <= {MAX_EXPONENT}")
    return build(p, f"{family}:{p}")


def projectors(p: Problem, ctx: PrecisionContext) -> Mat:
    """P_N = phi psi^T / (psi^T phi), the oblique projector onto span{phi}
    parallel to range(F'(root)); its complement is I - P_N."""
    phi, psi = p.phi(ctx), p.psi(ctx)
    d = psi.dot(phi)
    return Mat(tuple(tuple(a * b / d for b in psi.entries) for a in phi.entries), ctx)


def verify_a2(p: Problem, h, ctx: PrecisionContext) -> Vec:
    """P_N of the central second difference (F(root + h phi) - 2 F(root) +
    F(root - h phi)) / h**2 ~ P_N(F''(root)(phi, phi)), nonzero at a
    first-order singularity."""
    h = ctx.real(h)
    lo = ctx.pow10(-ctx.real(ctx.decimal_digits) / 2)
    if not (lo < h < ctx.pow10(-2)):
        raise ValueError("step h must lie in (10**(-digits/2), 10**-2)")
    p_n = projectors(p, ctx)
    root, step = p.root(ctx), p.phi(ctx).scaled(h)
    second = Vec(tuple((a - 2 * b + c) / (h * h) for a, b, c in
                       zip(p.f(root + step), p.f(root), p.f(root - step))), ctx)
    return p_n.matvec(second)


def fd_jacobian_deviation(p: Problem, u: Vec, ctx: PrecisionContext):
    """Max entrywise deviation of ``Problem.jac`` from central differences with
    step 10**(-digits/3), relative to the analytic Jacobian's scale."""
    h = ctx.pow10(-ctx.real(ctx.decimal_digits) / 3)
    bumps = (ctx.vec([h if i == j else 0 for i in range(p.n)]) for j in range(p.n))
    cols = [[d / (2 * h) for d in p.f(u + b) - p.f(u - b)] for b in bumps]
    analytic = p.jac(u)
    scale = max(analytic.max_abs(), ctx.one)
    return (analytic - Mat(zip(*cols), ctx)).max_abs() / scale
