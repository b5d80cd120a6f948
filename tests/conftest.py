import pytest

from broydenlab.diagnostics import metrics_from_trace
from broydenlab.harness import CounterRng, init_random
from broydenlab.linalg import PrecisionContext
from broydenlab.problems import get_problem
from broydenlab.solvers import SolverOptions, bmp_run


@pytest.fixture(scope="session")
def ctx100():
    return PrecisionContext(100)


@pytest.fixture(scope="session")
def ctx120():
    return PrecisionContext(120)


@pytest.fixture(scope="session")
def ex1_reference_run():
    """The Example-1 reference run shared by the acceptance criteria.

    Newton-step-then-Broyden, start box half-width 0.01, no matrix
    perturbation, B_0 = F'(u_0), 350 digits, tolerance 10**-100, fixed seed.
    Its trace keeps every B_k, which the update-identity checks read.
    """
    ctx = PrecisionContext(350)
    p = get_problem("example1")
    rng = CounterRng(42, 0)
    u_hat, b_hat, _ = init_random(p, "0.01", "0", rng, ctx)
    opts = SolverOptions(precision=ctx, tol_exponent=100, max_iter=3000)
    rec = bmp_run(p, u_hat, b_hat, opts, p.jac)
    rows = metrics_from_trace(rec, p)
    return p, rec, rows
