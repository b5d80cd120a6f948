"""Acceptance suite: one test per criterion, each printing a PASS line.

The criteria check the asymptotic convergence claims at desk scale:

 1. reference-run window rates (q, Q near 0.618, delta near 2)
 2. update-norm identity eps_k = ||B_{k+1} - B_k||
 3. summable updates and the single collapsing singular value of E_k
 4. loss of uniform linear independence of the normalized steps
 5. nullspace of the limit matrix contains phi
 6. example3 rates (second-order singularity)
 7. example4 regular case (superlinear)
 8. cumulative mini-reproduction (m = 200)
 9. accelerated method order and iteration advantage
10. basin rendering and the density trend
11. independent oracle suites (secant, SVD, second differences)
"""
import time

import pytest

from helpers import (charpoly_singular_values, fitted_q_order, normalized_steps,
                     nullspace_residual, problem_sq_minus_1, secant_iterates,
                     uli_min_sv, update_norm_identity_errors)
from broydenlab.basin import (Classification, GridSpec, blue_fraction,
                              render_basin)
from broydenlab.diagnostics import metrics_from_trace
from broydenlab.harness import (CounterRng, SeriesConfig, Window,
                                cumulative_run, default_criteria, init_random)
from broydenlab.linalg import PrecisionContext, Vec, singular_values
from broydenlab.problems import get_problem, verify_a2
from broydenlab.solvers import (SolverOptions, Status, bmp_run, broyden_run,
                                smp_run)


def report(criterion, message):
    print(f"criterion {criterion:02d} PASS: {message}")


def window_values(rows, kbar, attr):
    window = Window.from_kbar(kbar)
    return [getattr(rows[k], attr) for k in window.indices
            if getattr(rows[k], attr) is not None]


def test_criterion_01_single_run_window_rates(ex1_reference_run):
    start = time.perf_counter()
    p, rec, rows = ex1_reference_run
    assert rec.status is Status.CONVERGED
    ctx = rec.trace[0].u.ctx
    lo, hi = ctx.real("0.616"), ctx.real("0.620")
    qs = window_values(rows, rec.kbar, "q")
    big_qs = window_values(rows, rec.kbar, "q_eps")
    assert qs and big_qs
    assert all(lo <= q <= hi for q in qs)
    assert all(lo <= q <= hi for q in big_qs)
    deltas = window_values(rows, rec.kbar, "delta")
    d_lo, d_hi = ctx.real("1.97"), ctx.real("2.01")
    assert all(d_lo <= d <= d_hi for d in deltas)
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    report(1, f"kbar={rec.kbar}, q in [{float(min(qs)):.8f}, {float(max(qs)):.8f}], "
              f"delta in [{float(min(deltas)):.4f}, {float(max(deltas)):.4f}]")


def test_criterion_02_update_norm_identity(ex1_reference_run):
    p, rec, rows = ex1_reference_run
    ctx = rec.trace[0].u.ctx
    errors = update_norm_identity_errors(rec, 1)
    assert len(errors) >= rec.kbar - 2
    bound = ctx.pow10(-300)
    worst = max(rel for _, rel in errors)
    assert worst <= bound
    report(2, f"{len(errors)} updates, worst relative gap {float(worst):.3e}")


def test_criterion_03_matrix_convergence(ex1_reference_run):
    p, rec, rows = ex1_reference_run
    ctx = rec.trace[0].u.ctx
    k0 = Window.from_kbar(rec.kbar).k0
    eps = [rec.trace[k].eps for k in range(rec.kbar)]
    tail = sum(eps[k0:], ctx.zero)
    bound = 3 * eps[k0] / (1 - ctx.real("0.62"))
    assert tail <= bound
    final_svals = rows[rec.kbar].e_svals
    assert final_svals[0] <= ctx.pow10(-20)
    assert final_svals[1] >= ctx.pow10(-6)
    report(3, f"tail sum {float(tail):.3e} <= {float(bound):.3e}, "
              f"Lambda1 {float(final_svals[0]):.1e}, Lambda2 {float(final_svals[1]):.1e}")


def test_criterion_04_uniform_linear_independence_violated(ex1_reference_run):
    p, rec, rows = ex1_reference_run
    steps = normalized_steps(rec)
    window = Window.from_kbar(rec.kbar)
    checked = 0
    worst = 0.0
    for k in range(window.k0, len(steps) - 1):
        sv = uli_min_sv(steps, k, (k, k + 1))
        worst = max(worst, float(sv))
        assert sv <= 1e-10
        checked += 1
    assert checked > 20
    # step alignment with the null direction relative to the error, at the
    # last index where the step exists
    last = rec.kbar - 1
    ratio = rows[last].zeta / rows[last].err
    assert ratio <= 1e-3
    report(4, f"{checked} consecutive pairs, worst min-sv {worst:.1e}, "
              f"zeta/err at end {float(ratio):.1e}")


def test_criterion_05_limit_matrix_nullspace(ex1_reference_run):
    p, rec, rows = ex1_reference_run
    ctx = rec.trace[0].u.ctx
    residual = nullspace_residual(rec.trace[-1].b, p.phi(ctx))
    assert residual <= ctx.pow10(-20)
    report(5, f"||B_final phi|| = {float(residual):.3e}")


@pytest.fixture(scope="module")
def example3_run():
    ctx = PrecisionContext(350)
    p = get_problem("example3")
    rng = CounterRng(7, 0)
    u_hat, b_hat, _ = init_random(p, "0.1", "0", rng, ctx)
    opts = SolverOptions(precision=ctx, tol_exponent=100, max_iter=3000)
    rec = bmp_run(p, u_hat, b_hat, opts)
    return p, rec, metrics_from_trace(rec, p)


def test_criterion_06_second_order_singularity_rates(example3_run):
    p, rec, rows = example3_run
    assert rec.status is Status.CONVERGED
    ctx = rec.trace[0].u.ctx
    qs = window_values(rows, rec.kbar, "q")
    assert all(ctx.real("0.753") <= q <= ctx.real("0.757") for q in qs)
    big_qs = window_values(rows, rec.kbar, "q_eps")
    assert all(ctx.real("0.568") <= q <= ctx.real("0.572") for q in big_qs)
    deltas = window_values(rows, rec.kbar, "delta")
    assert all(ctx.real("2.93") <= d <= ctx.real("3.01") for d in deltas)
    report(6, f"kbar={rec.kbar}, q ~ {float(qs[-1]):.5f}, "
              f"Q ~ {float(big_qs[-1]):.5f}, delta in "
              f"[{float(min(deltas)):.3f}, {float(max(deltas)):.3f}]")


def test_criterion_07_regular_root_superlinear():
    ctx = PrecisionContext(1100)
    p = get_problem("example4")
    rng = CounterRng(3, 0)
    u_hat, b_hat, _ = init_random(p, "0.1", "0", rng, ctx)
    opts = SolverOptions(precision=ctx, tol_exponent=100, max_iter=3000)
    rec = bmp_run(p, u_hat, b_hat, opts, p.jac)
    rows = metrics_from_trace(rec, p)
    assert rec.status in (Status.CONVERGED, Status.EXACT_ROOT)
    assert rec.kbar <= 30
    q_final = rows[rec.kbar].q
    assert q_final is not None and q_final <= ctx.pow10(-3)
    deltas = window_values(rows, rec.kbar, "delta")
    assert min(deltas) >= ctx.real("1.10")
    report(7, f"kbar={rec.kbar}, final q {float(q_final):.1e}, "
              f"delta_min {float(min(deltas)):.3f}")


def test_criterion_08_cumulative_mini_reproduction():
    start = time.perf_counter()
    cfg = SeriesConfig(problem="example1", alpha="1e-5", beta="0",
                       b0_mode="jacobian", m=200, tol_exponent=100,
                       precision=320, max_iter=500, rng_seed=0)
    summary = cumulative_run(cfg)
    elapsed = time.perf_counter() - start
    assert summary.removed == 0
    assert round(float(summary.q_min), 4) == 0.618
    assert round(float(summary.q_max), 4) == 0.618
    assert 150 <= summary.it_min <= summary.it_max <= 280
    assert elapsed < 600
    report(8, f"m=200 in {elapsed:.0f}s, rem=0, q=[{float(summary.q_min):.6f}, "
              f"{float(summary.q_max):.6f}], it=[{summary.it_min}, {summary.it_max}]")


def test_criterion_09_accelerated_method():
    ctx = PrecisionContext(350)
    p = get_problem("example1")
    u_hat = ctx.vec([0, "0.001"])
    b_hat = p.jac(u_hat)
    opts = SolverOptions(precision=ctx, tol_exponent=100, max_iter=3000)
    rec_smp = smp_run(p, u_hat, b_hat, 1, "0.5", opts)
    assert rec_smp.status is Status.CONVERGED
    root = p.root(ctx)
    errs = [(e.u - root).norm() for e in rec_smp.trace]
    order = fitted_q_order(errs, points=6)
    assert order >= 1.4
    rec_bmp = bmp_run(p, u_hat, b_hat, opts, p.jac)
    assert rec_smp.kbar < rec_bmp.kbar
    report(9, f"fitted order {order:.3f}, iterations {rec_smp.kbar} "
              f"vs {rec_bmp.kbar} for the quasi-Newton run")


def test_criterion_10_basin_rendering():
    p = get_problem("example1")
    crit = default_criteria("example1")
    opts = SolverOptions(precision=PrecisionContext(160), tol_exponent=60,
                         max_iter=300, record_spectra=False)
    res = 101
    mid = (res - 1) // 2

    def quadrant_has_blue(results, sx, sy):
        for idx, r in enumerate(results):
            row, col = divmod(idx, res)
            i, j = col, res - 1 - row
            if (i - mid) * sx > 0 and (j - mid) * sy > 0 and \
                    r.classification is Classification.IN_BAND:
                return True
        return False

    image_near, near = render_basin(p, GridSpec(half_width="0.001",
                                                resolution=res), crit, opts,
                                    workers=2)
    image_far, far = render_basin(p, GridSpec(half_width="0.1",
                                              resolution=res), crit, opts,
                                  workers=2)
    for sx in (1, -1):
        for sy in (1, -1):
            assert quadrant_has_blue(near, sx, sy)
    assert blue_fraction(near) >= blue_fraction(far)
    image_again, _ = render_basin(p, GridSpec(half_width="0.001",
                                              resolution=res), crit, opts,
                                  workers=2)
    assert image_again == image_near
    report(10, f"blue fraction {blue_fraction(near):.3f} (near) >= "
               f"{blue_fraction(far):.3f} (far), PPM byte-identical")


def test_criterion_11_oracle_suites(ctx100):
    # 1-D quasi-Newton vs the classical secant recursion
    p = problem_sq_minus_1()
    u0 = ctx100.real(2)
    rec = broyden_run(p, Vec((u0,), ctx100), ctx100.mat([[4]]),
                      SolverOptions(precision=ctx100, tol_exponent=70,
                                    max_iter=200))
    broyden_us = [e.u[0] for e in rec.trace]
    oracle = secant_iterates(lambda x: x * x - 1, u0, broyden_us[1], ctx100,
                             len(broyden_us))
    tol = ctx100.pow10(-80)
    for a, b in zip(broyden_us[1:], oracle[1:]):
        assert abs(a - b) <= tol * max(ctx100.one, abs(b))

    # Jacobi singular values vs the characteristic-polynomial root oracle
    rng = CounterRng(2024, 0)
    checked = 0
    for trial in range(50):
        n = 2 if trial % 2 == 0 else 3
        A = ctx100.mat([[rng.uniform_symmetric(ctx100, 1) for _ in range(n)]
                        for _ in range(n)])
        got = singular_values(A)
        want = charpoly_singular_values(A, ctx100)
        scale = max(ctx100.one, want[-1])
        for g, w in zip(got, want):
            assert abs(g - w) <= ctx100.pow10(-30) * scale
        checked += 1
    assert checked == 50

    # second-difference probe of the singularity condition
    h = ctx100.pow10(-20)
    bound = 100 * h * h
    for name in ("example1", "example2"):
        prob = get_problem(name)
        got = verify_a2(prob, h, ctx100)
        expect = prob.phi(ctx100).scaled(ctx100.real(2))
        assert (got - expect).norm() <= bound
    assert verify_a2(get_problem("example3"), h, ctx100).norm() <= bound
    report(11, "secant match to 1e-80, 50 SVD oracle matches to 1e-30, "
               "second differences give 2*phi / 2*phi / 0")
