"""Raster rendering of the empirical domain of q-linear convergence.

Each grid point is the start u_hat of a Newton-step-then-Broyden run with
B_hat = F'(u_hat) and B_0 = F'(u_0), classified blue (in band), purple
(converged, out of band) or yellow (no convergence) as README.md describes,
and written as a binary PPM (P6) from the top row down.  Each pool task is
one grid row, so renders are byte-identical for any worker count.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

from .diagnostics import metrics_from_trace
from .formatting import format_metric
from .harness import (AcceptanceCriteria, check_scale, parallel_map,
                      removal_reason)
from .linalg import PrecisionContext, Vec
from .problems import Problem
from .solvers import SolverOptions, bmp_run


class DimensionMismatch(Exception):
    """Basin rendering needs a two-dimensional problem."""


class Classification(enum.Enum):
    IN_BAND = "in-band"
    OUT_OF_BAND = "out-of-band"
    NO_CONVERGENCE = "no-convergence"


#: class of each outcome of :func:`harness.removal_reason`
_CLASS_OF_REASON = {
    None: Classification.IN_BAND,
    "band": Classification.OUT_OF_BAND,
    "degenerate": Classification.OUT_OF_BAND,
    "timeout": Classification.NO_CONVERGENCE,
    "no-convergence": Classification.NO_CONVERGENCE,
    "u-cap": Classification.NO_CONVERGENCE,
}

COLORS = {
    Classification.IN_BAND: (0, 0, 255),
    Classification.OUT_OF_BAND: (128, 0, 128),
    Classification.NO_CONVERGENCE: (255, 255, 0),
}


@dataclass(frozen=True)
class GridSpec:
    """Square pixel grid: point (i, j) sits at
    center + half_width * (2i/(res-1) - 1, 2j/(res-1) - 1)."""

    half_width: str
    resolution: int
    center: tuple = ("0", "0")

    def __post_init__(self):
        object.__setattr__(self, "half_width",
                           check_scale("half_width", self.half_width))
        object.__setattr__(self, "center",
                           tuple(str(c) for c in self.center))
        if len(self.center) != 2:
            raise ValueError("center must be two-dimensional")
        if self.resolution < 3 or self.resolution % 2 == 0:
            raise ValueError("resolution must be an odd integer >= 3")

    def point(self, i: int, j: int, ctx: PrecisionContext) -> Vec:
        hw = ctx.real(self.half_width)
        denom = self.resolution - 1
        x = ctx.real(self.center[0]) + hw * (ctx.real(2 * i) / denom - 1)
        y = ctx.real(self.center[1]) + hw * (ctx.real(2 * j) / denom - 1)
        return Vec((x, y), ctx)


@dataclass
class PixelResult:
    x: str
    y: str
    classification: Classification
    kbar: int
    q_final: object                     # six digits, None where undefined


def classify_point_detail(p: Problem, u_hat: Vec, crit: AcceptanceCriteria,
                          opts: SolverOptions):
    """Classification plus (kbar, final q-factor or None) for the CSV table."""
    if p.n != 2:
        raise DimensionMismatch(f"{p.name} has dimension {p.n}, need 2")
    root = p.root(opts.precision)
    if u_hat == root:
        # the root itself trivially converges
        return Classification.IN_BAND, 0, None
    rec = bmp_run(p, u_hat, p.jac(u_hat), opts, p.jac)
    final = metrics_from_trace(rec, p, range(rec.kbar, rec.kbar + 1))
    cls = _CLASS_OF_REASON[removal_reason(rec, final, crit)]
    if cls is Classification.NO_CONVERGENCE:
        return cls, rec.kbar, None
    return cls, rec.kbar, final[0].q


def _classify_chunk(p: Problem, grid: GridSpec, crit: AcceptanceCriteria,
                    opts: SolverOptions, j: int) -> list[PixelResult]:
    """The pixels of grid row ``j``, left to right."""
    out = []
    for i in range(grid.resolution):
        u_hat = grid.point(i, j, opts.precision)
        cls, kbar, q_final = classify_point_detail(p, u_hat, crit, opts)
        q_cell = None if q_final is None else format_metric(q_final)
        out.append(PixelResult(format_metric(u_hat[0]), format_metric(u_hat[1]),
                               cls, kbar, q_cell))
    return out


def render_basin(p: Problem, grid: GridSpec, crit: AcceptanceCriteria,
                 opts: SolverOptions, workers: int = 1):
    """Render the grid of ``p``: (PPM bytes, list of PixelResult), one pool
    task per grid row, in raster order (top row first)."""
    res = grid.resolution
    rows = parallel_map(_classify_chunk, [(p, grid, crit, opts, j)
                                          for j in range(res - 1, -1, -1)], workers)
    results = [r for row in rows for r in row]
    body = bytes(x for r in results for x in COLORS[r.classification])
    return f"P6\n{res} {res}\n255\n".encode("ascii") + body, results


def blue_fraction(results) -> float:
    """Fraction of in-band pixels, the empirical density proxy."""
    blue = sum(1 for r in results if r.classification is Classification.IN_BAND)
    return blue / len(results)
