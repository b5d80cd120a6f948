"""Arbitrary-precision laboratory for Broyden-type methods on singular systems."""

from .linalg import (Mat, NoConvergence, PrecisionContext, SingularMatrix, Vec,
                     lu_solve, rank_one_update, singular_values)
from .problems import (MissingNullData, Problem, get_problem, list_problems,
                       projectors, verify_a2)
from .solvers import (RunRecord, SolverOptions, Status, bmp_run, broyden_run,
                      newton_run, smp_run)
from .diagnostics import MetricsRow, metrics_from_trace
from .harness import (AcceptanceCriteria, CounterRng, CumulativeSummary,
                      EmptyAcceptedSet, SeriesConfig, cumulative_run,
                      default_criteria, init_random)
from .basin import Classification, DimensionMismatch, GridSpec, render_basin

__all__ = [
    "Mat", "NoConvergence", "PrecisionContext", "SingularMatrix", "Vec",
    "lu_solve", "rank_one_update", "singular_values",
    "MissingNullData", "Problem", "get_problem", "list_problems",
    "projectors", "verify_a2",
    "RunRecord", "SolverOptions", "Status", "bmp_run", "broyden_run",
    "newton_run", "smp_run",
    "MetricsRow", "metrics_from_trace",
    "AcceptanceCriteria", "CounterRng", "CumulativeSummary",
    "EmptyAcceptedSet", "SeriesConfig", "cumulative_run",
    "default_criteria", "init_random",
    "Classification", "DimensionMismatch", "GridSpec", "render_basin",
]
