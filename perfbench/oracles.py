"""Reference values and output checks computed apart from broydenlab.

Everything here uses plain mpmath or floats: the rates the paper predicts,
an independent Newton-like step plus rank-one secant recursion, a float
least-squares order fit, and readers for the program's CSV and PPM output.
The checks test properties the method must have, not copies of earlier
output.
"""
from __future__ import annotations

import statistics

import mpmath

_CTX = mpmath.MPContext()
_CTX.dps = 40


def golden_ratio():
    """(sqrt(5) - 1) / 2, the q-factor at a first-order singularity."""
    return (_CTX.sqrt(5) - 1) / 2


def t_star():
    """Real root of t**3 + t**2 - 1, the q-factor at a second-order one."""
    roots = _CTX.polyroots([1, 1, 0, -1], extraprec=100)
    return next(_CTX.re(r) for r in roots if abs(_CTX.im(r)) < _CTX.mpf(10) ** -30)


# -- independent solver --------------------------------------------------------

def example1_f(ctx, u):
    """F(u) = (u1 + u2^2, 3/2 u1 u2 + u2^2 + u2^3), the paper's Example 1."""
    u1, u2 = u
    return [u1 + u2 ** 2, ctx.mpf(3) / 2 * u1 * u2 + u2 ** 2 + u2 ** 3]


def example1_jac(ctx, u):
    u1, u2 = u
    return [[ctx.one, 2 * u2],
            [ctx.mpf(3) / 2 * u2, ctx.mpf(3) / 2 * u1 + 2 * u2 + 3 * u2 ** 2]]


def broyden_iterates(f, jac, u_hat, tol_exponent: int, max_iter: int,
                     dps: int) -> list:
    """Iterates u_hat, u0, u1, ... of a Newton-like step followed by
    Broyden's method with B_0 = F'(u0), until ||F|| <= 10**-tol_exponent.

    ``f(ctx, u)`` and ``jac(ctx, u)`` take and return plain lists; ``u_hat``
    holds numbers or strings.  The index of the last iterate is the run's
    kbar.
    """
    ctx = mpmath.MPContext()
    ctx.dps = dps
    tol = ctx.mpf(10) ** -tol_exponent

    def norm(v):
        return ctx.sqrt(ctx.fsum(x * x for x in v))

    def solve(b, rhs):
        x = ctx.lu_solve(ctx.matrix(b), ctx.matrix(rhs))
        return [x[i] for i in range(len(rhs))]

    u = [ctx.mpf(x) for x in u_hat]
    iterates = [u]
    fu = f(ctx, u)
    if norm(fu) <= tol:
        return iterates
    u = [a + b for a, b in zip(u, solve(jac(ctx, u), [-x for x in fu]))]
    iterates.append(u)
    b = jac(ctx, u)
    fu = f(ctx, u)
    while norm(fu) > tol and len(iterates) <= max_iter:
        s = solve(b, [-x for x in fu])
        u = [a + c for a, c in zip(u, s)]
        f_next = f(ctx, u)
        # Broyden's update B + (y - B s) s^T / (s^T s) with y = F(u+) - F(u)
        ss = ctx.fsum(x * x for x in s)
        bs = [ctx.fsum(bij * sj for bij, sj in zip(row, s)) for row in b]
        r = [fn - fo - v for fn, fo, v in zip(f_next, fu, bs)]
        b = [[bij + ri * sj / ss for bij, sj in zip(row, s)]
             for row, ri in zip(b, r)]
        fu = f_next
        iterates.append(u)
    return iterates


def fitted_order(errs, points: int = 6) -> float:
    """Least-squares slope of log e_{k+1} against log e_k over the last
    ``points`` pairs of positive errors (float arithmetic)."""
    logs = [float(_CTX.log(e)) if e > 0 else None for e in errs]
    pairs = [(a, b) for a, b in zip(logs, logs[1:])
             if a is not None and b is not None][-points:]
    if len(pairs) < 2:
        raise ValueError("need at least 2 positive error pairs")
    xs, ys = zip(*pairs)
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


# -- reductions ----------------------------------------------------------------

def median_ms(durations_s) -> float:
    """Median of per-solve wall times, in milliseconds."""
    return statistics.median(durations_s) * 1e3


def rate(count: int, seconds: float) -> float:
    """Operations completed per wall-clock second."""
    if seconds <= 0:
        raise ValueError("elapsed time must be positive")
    return count / seconds


# -- output readers ------------------------------------------------------------

def mpf(text: str):
    return _CTX.mpf(text)


def read_csv(text: str) -> list[dict]:
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def six_digit_agrees(six: str, full: str) -> bool:
    """True when ``six`` is ``full`` rounded to six significant digits."""
    if six == "-1" or full == "-1" or "e" not in six:
        return six == full  # the sentinel and the integer index column
    a, b = _CTX.mpf(six), _CTX.mpf(full)
    if a == 0:
        return b == 0
    exponent = int(six.split("e")[1])
    return abs(a - b) <= _CTX.mpf(10) ** (exponent - 5) / 2 * (1 + _CTX.mpf(10) ** -9)


def ppm_pixels(image: bytes, res: int) -> list:
    """Rows of (r, g, b) pixels, top row first; raises on a malformed P6."""
    header = f"P6\n{res} {res}\n255\n".encode("ascii")
    if not image.startswith(header) or len(image) != len(header) + 3 * res * res:
        raise ValueError(f"not a {res}x{res} P6 image")
    body = image[len(header):]
    return [[tuple(body[3 * (r * res + c):3 * (r * res + c) + 3])
             for c in range(res)] for r in range(res)]
