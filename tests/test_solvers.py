import dataclasses
import functools

import pytest
from mpmath.libmp import (fzero, mpf_add, mpf_le, mpf_lt, mpf_mul, mpf_pos,
                          mpf_shift, mpf_sqrt)

from helpers import (identity, problem_linear, problem_sq_minus_1,
                     reference_run, secant_iterates, update_norm_identity_errors,
                     zero_vec)
from broydenlab.basin import GridSpec
from broydenlab.diagnostics import metrics_from_trace
from broydenlab.linalg import Mat, PrecisionContext, Vec, singular_values
from broydenlab.problems import Problem, get_problem
from broydenlab.solvers import (SolverOptions, Status, TraceEntry,
                                _check_terminal, _limits, bmp_run,
                                broyden_run, newton_run, smp_run)


def opts_for(ctx, tol=60, max_iter=200, **kw):
    return SolverOptions(precision=ctx, tol_exponent=tol, max_iter=max_iter, **kw)


def test_options_validation(ctx100):
    with pytest.raises(ValueError):
        SolverOptions(precision=ctx100, tol_exponent=90)   # < 20 digits headroom
    with pytest.raises(ValueError):
        SolverOptions(precision=ctx100, tol_exponent=0)
    with pytest.raises(ValueError):
        SolverOptions(precision=ctx100, tol_exponent=50, max_iter=0)


def test_options_hold_only_the_stopping_rules():
    assert [f.name for f in dataclasses.fields(SolverOptions)] == [
        "precision", "tol_exponent", "max_iter", "divergence_guard"]


@pytest.mark.parametrize("method", ["bm", "bmp", "newton"])
def test_record_spectra_is_ignored(ctx100, method):
    # every run with a matrix keeps B_k on every trace entry, so each row
    # reads the spectrum of E_k, whatever record_spectra says
    p = get_problem("example1")
    u = ctx100.vec(["0.00731", "-0.00412"])
    opts = SolverOptions(precision=ctx100, tol_exponent=60, max_iter=200,
                         record_spectra=False)
    assert opts == opts_for(ctx100)
    if method == "bm":
        rec = broyden_run(p, u, p.jac(u), opts)
    elif method == "bmp":
        rec = bmp_run(p, u, p.jac(u), opts, p.jac)
    else:
        rec = newton_run(p, u, opts)
    assert rec.status is Status.CONVERGED
    assert all(e.raw_b is not None for e in rec.trace)
    assert all(row.e_svals is not None for row in metrics_from_trace(rec, p))


def test_linear_system_converges_in_one_step(ctx100):
    p = problem_linear([[2, 1], [0, 1]], [3, 1], [1, 1])
    b0 = ctx100.mat([[2, 1], [0, 1]])
    rec = broyden_run(p, ctx100.vec([5, -2]), b0, opts_for(ctx100))
    assert rec.status is Status.EXACT_ROOT
    assert rec.kbar == 1
    assert ctx100.raw_vec(rec.trace[-1].raw_u) == ctx100.vec([1, 1])
    # the first step solves the model exactly, so the update norm vanishes
    assert rec.trace[0].eps == 0


def test_1d_hand_iteration(ctx100):
    # F(u) = u^2 - 1 from u0 = 2 with B0 = 3: s0 = -F(2)/3 = -1, u1 = 1
    p = problem_sq_minus_1()
    rec = broyden_run(p, ctx100.vec([2]), ctx100.mat([[3]]), opts_for(ctx100))
    assert rec.status is Status.EXACT_ROOT
    assert rec.kbar == 1
    assert ctx100.raw_vec(rec.trace[0].raw_s) == ctx100.vec([-1])
    assert ctx100.raw_vec(rec.trace[1].raw_u) == ctx100.vec([1])


def test_1d_broyden_coincides_with_secant_oracle(ctx100):
    # from iteration 1 on, the 1-D update is the secant difference quotient
    p = problem_sq_minus_1()
    u0 = ctx100.real(2)
    b0 = ctx100.mat([[4]])                       # F'(2)
    rec = broyden_run(p, Vec((u0,), ctx100), b0, opts_for(ctx100, tol=70))
    broyden_us = [ctx100.make(e.raw_u[0]) for e in rec.trace]
    u1 = broyden_us[1]
    assert u1 == ctx100.real(2) - ctx100.real(3) / 4

    def f(x):
        return x * x - 1

    oracle = secant_iterates(f, u0, u1, ctx100, len(broyden_us))
    tol = ctx100.pow10(-80)
    for a, b in zip(broyden_us[1:], oracle[1:]):
        assert abs(a - b) <= tol * max(ctx100.one, abs(b))


def test_bmp_newton_halving_on_singular_root(ctx100):
    # 1-D F(u) = u^2, u_hat = 1, B_hat = F'(1) = 2: u0 = 1 - 1/2
    p = get_problem("monomial:2")
    rec = bmp_run(p, ctx100.vec([1]), ctx100.mat([[2]]), opts_for(ctx100))
    assert ctx100.raw_vec(rec.trace[1].raw_u) == ctx100.vec(["0.5"])


def test_bmp_first_two_steps_are_newton_steps(ctx120):
    # beta = 0 with zero noise: the Newton-like step and B_0 = F'(u0) both
    # reproduce exact Newton steps
    p = get_problem("example1")
    u_hat = ctx120.vec(["0.003", "-0.002"])
    rec_bmp = bmp_run(p, u_hat, p.jac(u_hat),
                      opts_for(ctx120, tol=80, max_iter=400), p.jac)
    rec_newton = newton_run(p, u_hat, opts_for(ctx120, tol=80, max_iter=3))
    for k in (1, 2):
        assert rec_bmp.trace[k].raw_u == rec_newton.trace[k].raw_u


def test_bmp_exact_root_start_short_circuits(ctx100):
    p = get_problem("example1")
    rec = bmp_run(p, zero_vec(ctx100, 2), identity(ctx100, 2), opts_for(ctx100),
                  p.jac)
    assert rec.status is Status.EXACT_ROOT
    assert rec.kbar == 0
    assert rec.trace[0].raw_s is None


def test_bmp_singular_bhat_reports_status(ctx100):
    p = get_problem("example1")
    rec = bmp_run(p, ctx100.vec(["0.01", "0.01"]), ctx100.mat([[1, 1], [1, 1]]),
                  opts_for(ctx100), p.jac)
    assert rec.status is Status.SINGULAR_MATRIX
    assert rec.kbar == 0


def test_bmp_tail_equals_plain_broyden(ctx120):
    p = get_problem("example1")
    u_hat = ctx120.vec(["0.004", "0.006"])
    opts = opts_for(ctx120, tol=80, max_iter=500)
    rec_bmp = bmp_run(p, u_hat, p.jac(u_hat), opts, p.jac)
    u0 = ctx120.raw_vec(rec_bmp.trace[1].raw_u)
    rec_bm = broyden_run(p, u0, p.jac(u0), opts)
    assert rec_bm.status == rec_bmp.status
    assert rec_bm.kbar == rec_bmp.kbar - 1
    for k in range(rec_bm.kbar + 1):
        assert rec_bm.trace[k].raw_u == rec_bmp.trace[k + 1].raw_u
        assert rec_bm.trace[k].eps == rec_bmp.trace[k + 1].eps


def test_bmp_broyden_update_mode_satisfies_identity_from_start(ctx120):
    p = get_problem("example3")
    u_hat = ctx120.vec(["0.05", "-0.03", "0.02"])
    opts = opts_for(ctx120, tol=60, max_iter=400)
    rec = bmp_run(p, u_hat, p.jac(u_hat), opts)
    assert rec.status is Status.CONVERGED
    errors = update_norm_identity_errors(rec, 0)
    assert errors[0][0] == 0
    bound = ctx120.pow10(-ctx120.decimal_digits + 25)
    assert all(rel <= bound for _, rel in errors)


def test_update_norm_identity_invariant(ctx120):
    # |eps_k - ||B_{k+1} - B_k||| <= 10**(-digits+25) * eps_k on a real run
    p = get_problem("example1")
    u_hat = ctx120.vec(["0.008", "0.005"])
    opts = opts_for(ctx120, tol=80, max_iter=500)
    rec = bmp_run(p, u_hat, p.jac(u_hat), opts, p.jac)
    assert rec.status is Status.CONVERGED
    errors = update_norm_identity_errors(rec, 1)
    assert errors, "no updates recorded"
    bound = ctx120.pow10(-ctx120.decimal_digits + 25)
    assert all(rel <= bound for _, rel in errors)


def test_secant_condition_after_every_update(ctx120):
    p = get_problem("example1")
    u_hat = ctx120.vec(["0.007", "-0.004"])
    opts = opts_for(ctx120, tol=60, max_iter=400)
    rec = bmp_run(p, u_hat, p.jac(u_hat), opts, p.jac)
    tol_fac = ctx120.pow10(-ctx120.decimal_digits + 20)
    for k in range(1, rec.kbar):
        entry, nxt = rec.trace[k], rec.trace[k + 1]
        s, b_next = ctx120.raw_vec(entry.raw_s), ctx120.raw_mat(nxt.raw_b)
        y = p.f(ctx120.raw_vec(nxt.raw_u)) - p.f(ctx120.raw_vec(entry.raw_u))
        lhs = (b_next.matvec(s) - y).norm()
        bound = tol_fac * (y.norm() + singular_values(b_next)[-1] * s.norm())
        assert lhs <= bound


def test_trace_satisfies_record_contract(ctx120):
    # eps_k = ||F(u^{k+1})|| / ||s^k|| for 0 <= k < kbar; s and eps absent
    # at kbar; trace length kbar + 1; converged means tolerance met
    p = get_problem("example1")
    u_hat = ctx120.vec(["0.006", "0.003"])
    opts = opts_for(ctx120, tol=70, max_iter=500)
    rec = bmp_run(p, u_hat, p.jac(u_hat), opts, p.jac)
    assert rec.status is Status.CONVERGED
    assert len(rec.trace) == rec.kbar + 1
    slack = ctx120.pow10(-ctx120.decimal_digits + 10)
    for k in range(rec.kbar):
        entry, nxt = rec.trace[k], rec.trace[k + 1]
        # u^{k+1} = u^k + s^k up to one rounding of the sum
        u, s = ctx120.raw_vec(entry.raw_u), ctx120.raw_vec(entry.raw_s)
        drift = (ctx120.raw_vec(nxt.raw_u) - u - s).norm()
        assert drift <= slack * max(ctx120.one, u.norm())
        assert entry.eps == nxt.f_norm / s.norm()
    assert rec.trace[rec.kbar].raw_s is None and rec.trace[rec.kbar].eps is None
    assert rec.trace[-1].f_norm <= ctx120.pow10(-opts.tol_exponent)


def test_determinism_bit_identical_traces(ctx120):
    p = get_problem("example2")
    u_hat = ctx120.vec(["0.01", "-0.02", "0.03"])
    opts = opts_for(ctx120, tol=60, max_iter=400)
    rec1 = bmp_run(p, u_hat, p.jac(u_hat), opts, p.jac)
    rec2 = bmp_run(p, u_hat, p.jac(u_hat), opts, p.jac)
    assert rec1.status == rec2.status and rec1.kbar == rec2.kbar
    for e1, e2 in zip(rec1.trace, rec2.trace):
        assert e1.raw_u == e2.raw_u and e1.f_norm == e2.f_norm and e1.eps == e2.eps
    assert rec1.trace[-1].raw_b == rec2.trace[-1].raw_b


def test_divergence_guard(ctx100):
    # iterate norm beyond the guard aborts before any solve is attempted
    p = get_problem("example1")
    rec = broyden_run(p, ctx100.vec(["1e11", 0]), identity(ctx100, 2),
                      opts_for(ctx100, max_iter=1000))
    assert rec.status is Status.DIVERGED
    assert rec.kbar == 0

    # custom guard value trips once the halving iteration wanders above it
    p2 = get_problem("monomial:2")
    rec2 = broyden_run(p2, ctx100.vec([3]), ctx100.mat([["0.125"]]),
                       opts_for(ctx100, max_iter=50,
                                divergence_guard=20))
    assert rec2.status is Status.DIVERGED


def test_max_iter_status(ctx100):
    p = get_problem("example1")
    u_hat = ctx100.vec(["0.01", "0.02"])
    rec = bmp_run(p, u_hat, p.jac(u_hat), opts_for(ctx100, tol=60, max_iter=5),
                  p.jac)
    assert rec.status is Status.MAX_ITER
    assert rec.kbar == 5
    assert len(rec.trace) == 6


def test_b0_mode_given(ctx100):
    p = problem_sq_minus_1()
    given = ctx100.mat([[3]])
    rec = bmp_run(p, ctx100.vec([3]), ctx100.mat([[6]]), opts_for(ctx100),
                  lambda u0: given)
    # Newton-like step: 3 - 8/6 = 5/3; then B_0 = 3 applies
    u1 = ctx100.raw_vec(rec.trace[1].raw_u)
    assert u1[0] == ctx100.real(3) - ctx100.real(8) / 6
    s1 = ctx100.raw_vec(rec.trace[1].raw_s)
    expected = -p.f(u1)[0] / 3
    assert s1[0] == expected


def test_newton_linear_single_step(ctx100):
    p = problem_linear([[3, 0], [1, 2]], [6, 5], [2, "1.5"])
    rec = newton_run(p, ctx100.vec([9, 9]), opts_for(ctx100))
    assert rec.status is Status.EXACT_ROOT
    assert rec.kbar == 1


def test_newton_halving_on_double_root(ctx100):
    # F(u) = u^2 from u0 = 1: iterates 2^-k exactly
    p = get_problem("monomial:2")
    rec = newton_run(p, ctx100.vec([1]), opts_for(ctx100, tol=60, max_iter=150))
    for k in (1, 5, 10):
        assert ctx100.make(rec.trace[k].raw_u[0]) == ctx100.real(1) / (2 ** k)


def test_newton_quadratic_residual_decay_on_regular_problem():
    # quadratic convergence overshoots the tolerance by roughly squaring the
    # residual, so the precision needs ample headroom below 10**-tol
    ctx = PrecisionContext(250)
    p = get_problem("example4")
    rec = newton_run(p, ctx.vec(["0.05", "-0.04", "0.03"]),
                     opts_for(ctx, tol=60, max_iter=60))
    assert rec.status is Status.CONVERGED
    norms = [e.f_norm for e in rec.trace]
    for k in range(rec.kbar - 4, rec.kbar):
        assert norms[k] <= 100 * norms[k - 1] * norms[k - 1]


def test_smp_exact_root_start(ctx100):
    p = get_problem("example1")
    rec = smp_run(p, zero_vec(ctx100, 2), identity(ctx100, 2), 1, "0.5",
                  opts_for(ctx100))
    assert rec.status is Status.EXACT_ROOT
    assert rec.kbar == 0


def test_smp_parameter_validation(ctx100):
    p = get_problem("example1")
    u = ctx100.vec(["0.001", "0.001"])
    with pytest.raises(ValueError):
        smp_run(p, u, p.jac(u), 0, "0.5", opts_for(ctx100))
    with pytest.raises(ValueError):
        smp_run(p, u, p.jac(u), 1, "0.7", opts_for(ctx100))   # >= (sqrt5-1)/2
    with pytest.raises(ValueError):
        smp_run(p, u, p.jac(u), 1, 0, opts_for(ctx100))


def test_smp_zero_simplified_step_keeps_newton_iterate(ctx100):
    # when F(y) = 0 exactly the correction vanishes regardless of C and alpha:
    # use a map that is cubic except for an exact zero planted at the Newton
    # iterate the third SMP cycle produces
    base = get_problem("monomial:3")
    ctx = ctx100
    u_hat = ctx.vec([1])
    # replay: k=0 solves B_hat, k=1 newton, k=2 computes y from u
    b_hat = base.jac(u_hat)
    rec_plain = smp_run(base, u_hat, b_hat, 1, "0.5",
                        opts_for(ctx, tol=60, max_iter=4))
    u2 = ctx.raw_vec(rec_plain.trace[2].raw_u)
    y_target = u2[0] - base.f(u2)[0] / base.jac(u2).rows[0][0]

    def f(u):
        if u.entries[0] == y_target:
            return Vec((u.ctx.zero,), u.ctx)
        return base.f(u)

    doctored = Problem(name="doctored", n=1, f=f, jac=base.jac,
                       root_entries=(0,), phi_entries=None,
                       psi_entries=None, singularity_order=2)
    rec = smp_run(doctored, u_hat, b_hat, 5, "0.25", opts_for(ctx, tol=60))
    assert ctx.make(rec.trace[3].raw_u[0]) == y_target
    assert rec.status is Status.EXACT_ROOT


@pytest.mark.parametrize("digits,tol", [(160, 60), (350, 100), (120, 1)])
def test_tolerance_decision_matches_rounded_norm(digits, tol):
    # the engine decides ||F|| <= tol from F.F; at and around tol**2 and
    # 4 tol**2 it must give the status of the rule on the rounded norm
    ctx = PrecisionContext(digits)
    prec, rnd = ctx.prec, ctx.rounding
    opts = opts_for(ctx, tol=tol)
    limits = _limits(opts)
    t = ctx.pow10(-tol)._mpf_
    t2 = mpf_mul(t, t)                      # tol**2, exact

    def up(x, steps=1):
        # ``steps`` representable values above x at working precision
        for _ in range(steps):
            x = mpf_add(x, (0, 1, x[2] + x[3] - 2 * prec, 1), prec, "u")
        return x

    t_up = up(t)
    middle = ([up(mpf_pos(t2, prec, "u"), i) for i in range(6)]
              + [mpf_mul(t_up, t_up, prec, rnd), mpf_shift(t2, 2),
                 mpf_pos(mpf_shift(t2, 2), prec, "d")])
    edges = [fzero, t2, mpf_pos(t2, prec, "d"),
             up(mpf_pos(mpf_shift(t2, 2), prec, "u"))]
    seen = set()
    u = ctx.vec([0, 0])
    for ff in edges + middle:
        f_norm = ctx.make(mpf_sqrt(ff, prec, rnd))
        want = (Status.EXACT_ROOT if f_norm == 0 else
                Status.CONVERGED if f_norm <= ctx.make(t) else None)
        assert _check_terminal(TraceEntry(ctx, u.raw(), ff=ff), 1, opts, limits) is want
        if ff in middle:
            assert mpf_lt(t2, ff) and mpf_le(ff, mpf_shift(t2, 2))
            seen.add(want)
    # the middle band holds both sides of "rounded norm = tol"
    assert seen == {Status.CONVERGED, None}


@pytest.mark.parametrize("guard", [1e10, 1.5])
def test_divergence_decision_at_the_guard(ctx100, guard):
    # the guard rule is ||u|| > guard on the rounded norm.  Vectors of norm
    # exactly guard, or just above it with entries below 2**(2 e) for the
    # e where 2**(2 e) <= guard**2, are where a decision from the entries'
    # exponents alone goes wrong
    opts = opts_for(ctx100, divergence_guard=guard)
    limits = _limits(opts)
    g = ctx100.real(guard)
    ulp = g * ctx100.real(2) ** -(ctx100.prec - 2)
    big = ctx100.real(2) ** 32
    six, eight = g * ctx100.real("0.6"), g * ctx100.real("0.8")
    vectors = [[g, 0], [0, -g], [six, eight], [g + ulp, 0], [g - ulp, 0],
               [g / 2, g / 2], [eight, eight], [six] * 4, [g / 2] * 4,
               [big - 1, big - 1], [big / 2 - 1] * 4, [-(big - 1), 0],
               [0, 0], ["1e300", 0], [g / 10**9, g / 10**9]]
    seen = set()
    for entries in vectors:
        u = ctx100.vec(entries)
        want = Status.DIVERGED if u.norm() > g else None
        seen.add(want)
        entry = TraceEntry(ctx100, u.raw(), ff=ctx100.one._mpf_)
        assert _check_terminal(entry, 1, opts, limits) is want
    assert seen == {Status.DIVERGED, None}


def test_smp_singular_jacobian_reports_status(ctx100):
    # 1.5 u1 + 2 u2 = 0 makes F' of example1 exactly singular
    p = get_problem("example1")
    u_hat = ctx100.vec(["0.25", "-0.1875"])
    rec = smp_run(p, u_hat, p.jac(u_hat), 1, "0.5", opts_for(ctx100))
    assert rec.status is Status.SINGULAR_MATRIX


def test_smp_trace_has_no_matrix_data(ctx100):
    p = get_problem("example1")
    u_hat = ctx100.vec(["0", "0.001"])
    rec = smp_run(p, u_hat, p.jac(u_hat), 1, "0.5",
                  opts_for(ctx100, tol=60, max_iter=100))
    assert rec.status is Status.CONVERGED
    assert all(e.eps is None and e.raw_b is None for e in rec.trace)


def _reference_cases():
    # (id, digits, problem, method, start, B rule, options, final status)
    ex1, ex3 = ["0.00731", "-0.00412"], ["0.004", "-0.003", "0.002"]
    ok, singular = Status.CONVERGED, Status.SINGULAR_MATRIX
    return [
        ("bm-example1", 160, "example1", "bm", ex1, None, {}, ok),
        ("bmp-example1", 160, "example1", "bmp", ex1, None, {}, ok),
        ("bmp-example1-b0", 160, "example1", "bmp", ex1, "jac", {}, ok),
        ("bmp-example2-b0", 130, "example2", "bmp", ex3, "jac", {}, ok),
        ("bmp-example3", 130, "example3", "bmp", ex3, None, {}, ok),
        ("bmp-monomial2-b0", 100, "monomial:2", "bmp", ["0.3"], "jac", {}, ok),
        ("bm-monomial2-singular", 100, "monomial:2", "bm", ["2"], "identity", {},
         singular),
        ("newton-example1", 160, "example1", "newton", ex1, None, {}, ok),
        ("newton-example2", 130, "example2", "newton", ["0.5", "0.5", "0.5"],
         None, {}, ok),
        ("smp-example1", 160, "example1", "smp", ex1, None, {}, ok),
        ("smp-example3", 130, "example3", "smp", ex3, None, {}, ok),
        ("bmp-example1-320-max-iter", 320, "example1", "bmp", ex1, "jac",
         {"tol": 200, "max_iter": 40}, Status.MAX_ITER),
        ("bmp-example1-singular", 160, "example1", "bmp", ["0.25", "-0.1875"],
         "jac", {}, singular),
        ("smp-example1-singular", 160, "example1", "smp", ["0.25", "-0.1875"],
         None, {}, singular),
        ("bmp-example1-exact-root", 160, "example1", "bmp", ["0.125", "0"],
         "jac", {}, Status.EXACT_ROOT),
        ("bmp-example1-diverged", 100, "example1", "bmp", ["3", "-2"], None,
         {"divergence_guard": 100}, Status.DIVERGED),
        ("bm-example1-diverged", 100, "example1", "bm", ["1", "1"], "identity",
         {"divergence_guard": 10}, Status.DIVERGED),
    ]


def _run_both(p, method, u, rule, opts, reference=True):
    ctx = u.ctx
    b = identity(ctx, p.n) if rule == "identity" else p.jac(u)
    b0 = p.jac if rule == "jac" else None
    if method == "bm":
        rec = broyden_run(p, u, b, opts)
    elif method == "bmp":
        rec = bmp_run(p, u, b, opts, b0)
    elif method == "newton":
        rec = newton_run(p, u, opts)
    else:
        rec = smp_run(p, u, b, 1, "0.5", opts)
    return rec, reference_run(method, p, u, b, opts, b0, 1, "0.5") if reference else None


def _assert_matches_reference(rec, ref):
    status, kbar, trace, b_final = ref
    assert (rec.status, rec.kbar, len(rec.trace)) == (status, kbar, len(trace))
    for got, want in zip(rec.trace, trace):
        assert got.raw_u == want.u.raw() and got.ctx.raw_vec(got.raw_u) == want.u
        assert (got.ff, got.ss, got.ff_next) == (want.ff, want.ss, want.ff_next)
        assert got.raw_s == (None if want.s is None else want.s.raw())
        assert got.raw_b == (None if want.b is None else want.b.raw())
    if trace[-1].b is not None:
        # with B_k kept, the final B is the last entry's
        assert rec.trace[-1].raw_b == b_final.raw()


@pytest.mark.parametrize("case", _reference_cases(), ids=lambda c: c[0])
def test_engine_matches_reference_run(case):
    # every trace field, the status, kbar and final B of the raw engine are
    # the tuples of the same iteration in Vec and Mat arithmetic
    _, digits, name, method, start, rule, kw, want = case
    ctx = PrecisionContext(digits)
    p = get_problem(name)
    rec, ref = _run_both(p, method, ctx.vec(start), rule, opts_for(ctx, **kw))
    _assert_matches_reference(rec, ref)
    assert rec.status is want


@pytest.mark.parametrize("case", _reference_cases(), ids=lambda c: c[0])
def test_metrics_read_the_trace_entry_norms(case):
    # the metrics pass takes eps_k and ||s^k|| from the trace entry, which
    # takes each once
    _, digits, name, method, start, rule, kw, _ = case
    ctx = PrecisionContext(digits)
    p = get_problem(name)
    rec, _ = _run_both(p, method, ctx.vec(start), rule, opts_for(ctx, **kw),
                       reference=False)
    rows = metrics_from_trace(rec, p)
    for k in range(1, len(rows)):
        assert rows[k].eps is rec.trace[k - 1].eps
        assert rec.trace[k - 1].s_norm is rec.trace[k - 1].s_norm


def test_engine_matches_reference_run_on_a_basin_grid():
    # a 5x5 example1 grid in the basin's configuration, both halves of the
    # start box
    ctx = PrecisionContext(160)
    p = get_problem("example1")
    statuses = set()
    opts = SolverOptions(precision=ctx, tol_exponent=60, max_iter=300)
    for hw in ("0.001", "0.1"):
        grid = GridSpec(half_width=hw, resolution=5, center=("1e-5", "-3e-5"))
        for i in range(5):
            for j in range(5):
                rec, ref = _run_both(p, "bmp", grid.point(i, j, ctx), "jac", opts)
                _assert_matches_reference(rec, ref)
                statuses.add(rec.status)
    assert Status.CONVERGED in statuses


def test_engine_calls_a_replaced_or_wrapped_residual(ctx100):
    # example1 runs the raw form of its own f; a Problem whose f is replaced,
    # or wrapped with functools.wraps (which copies the function's
    # attributes), runs that f on every residual evaluation
    p = get_problem("example1")
    u_hat = ctx100.vec(["0.00731", "-0.00412"])
    opts = opts_for(ctx100)
    want = bmp_run(p, u_hat, p.jac(u_hat), opts, p.jac)
    calls = []

    @functools.wraps(p.f)
    def counted(u):
        calls.append(u)
        return p.f(u)

    rec = bmp_run(dataclasses.replace(p, f=counted), u_hat, p.jac(u_hat), opts, p.jac)
    assert rec.status is want.status is Status.CONVERGED
    assert [e.raw_u for e in rec.trace] == [e.raw_u for e in want.trace]
    assert [c.raw() for c in calls] == [e.raw_u for e in want.trace]
    # a different residual gives a different run
    doubled = dataclasses.replace(p, f=lambda u: p.f(u).scaled(ctx100.real(2)))
    rec = bmp_run(doubled, u_hat, p.jac(u_hat), opts, p.jac)
    assert rec.trace[1].ff != want.trace[1].ff
