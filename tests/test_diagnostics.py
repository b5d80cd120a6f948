import pytest

from helpers import (BadSelection, eager_stats_wire, fitted_q_order, identity,
                     lam_omega_rows, normalized_steps, nullspace_residual,
                     reference_metrics, synthetic_record, uli_min_sv)
from broydenlab.cli import METRICS_COLUMNS, _csv
from broydenlab.diagnostics import _Spectrum, metrics_from_trace, window_extreme
from broydenlab.harness import _STATS, Window, run_stats
from broydenlab.linalg import Mat, PrecisionContext, Vec
from broydenlab.problems import get_problem
from broydenlab.solvers import (SolverOptions, Status, bmp_run, broyden_run,
                                newton_run, smp_run)


@pytest.fixture(scope="module")
def geometric_record(ctx100):
    # iterates (0, 2^-k) on example1: err_k = 2^-k along the null direction
    us = [ctx100.vec([0, ctx100.real(1) / (2 ** k)]) for k in range(12)]
    f_norms = [ctx100.pow10(-6)] * 12
    eps = [ctx100.real(1) / (2 ** k) for k in range(11)]
    return synthetic_record(ctx100, us, f_norms, eps=eps)


def test_geometric_trace_q_and_r(ctx100, geometric_record):
    rows = metrics_from_trace(geometric_record, get_problem("example1"))
    half = ctx100.real(1) / 2
    tol = ctx100.pow10(-90)
    assert rows[0].q is None and rows[0].r is None
    for k in range(1, 12):
        assert rows[k].q == half
        assert abs(rows[k].r - half) <= tol


def test_geometric_trace_lambda_and_omega(ctx100, geometric_record):
    # nullspace component halves each step and the range component is zero
    rows = lam_omega_rows(geometric_record, get_problem("example1"), 100)
    half = ctx100.real(1) / 2
    for k in range(11):
        assert rows[k].lam == half
        assert rows[k].omega == 0
    assert rows[11].lam == -1          # no successor iterate


def test_update_ratio_columns(ctx100, geometric_record):
    rows = metrics_from_trace(geometric_record, get_problem("example1"))
    half = ctx100.real(1) / 2
    assert rows[1].q_eps is None        # needs two preceding updates
    for k in range(2, 12):
        assert rows[k].eps == ctx100.real(1) / (2 ** (k - 1))
        assert rows[k].q_eps == half


@pytest.mark.parametrize("rule", ["min", "max"])
def test_window_stats_with_tied_keys(ctx100, geometric_record, rule):
    # r is 1/2 at every index, so every r key ties and every row is read
    p = get_problem("example1")
    rows = metrics_from_trace(geometric_record, p)
    k0 = Window.from_kbar(geometric_record.kbar, rule).k0
    wire = run_stats(rows[k0:])
    assert not any(isinstance(row.pending["r"], tuple) for row in rows[k0:])
    assert wire == eager_stats_wire(geometric_record,
                                    metrics_from_trace(geometric_record, p), rule)


def test_window_stats_of_r_differing_in_last_bits(ctx100):
    # err_k = 2^-k (1 + j_k 2^-(prec-8)): the r_k differ only in their last
    # bits, below what any float key resolves
    p = get_problem("example1")
    tiny = ctx100.real(2) ** -(ctx100.prec - 8)
    us = [ctx100.vec([0, (1 + (k * 7 % 5) * tiny) / 2 ** k]) for k in range(12)]
    rec = synthetic_record(ctx100, us, [ctx100.pow10(-6)] * 12,
                           eps=[ctx100.real(1) / 2 ** k for k in range(11)])
    rows = metrics_from_trace(rec, p)
    rs = [row.r for row in metrics_from_trace(rec, p)[1:]]
    assert len(set(rs)) > 1 and max(rs) - min(rs) <= ctx100.pow10(-95)
    k0 = Window.from_kbar(rec.kbar).k0
    assert run_stats(rows[k0:]) == eager_stats_wire(rec, rows)


def _spectrum_record(ctx, svals):
    us = [ctx.vec([0, ctx.real(1) / 2 ** k]) for k in range(len(svals))]
    return synthetic_record(ctx, us, [ctx.pow10(-6)] * len(svals),
                            eps=[ctx.real(1) / 2 ** k for k in range(len(svals) - 1)],
                            svals=svals)


@pytest.mark.parametrize("rule", ["min", "max"])
def test_window_stats_with_tied_spectra(ctx100, rule):
    # the same E_k on every row: every key ties, so every window row's
    # spectrum is evaluated and the wire is exact
    rec = _spectrum_record(ctx100, [("0.75", "0.125")] * 12)
    p = get_problem("example1")
    rows = metrics_from_trace(rec, p)
    k0 = Window.from_kbar(rec.kbar, rule).k0
    wire = run_stats(rows[k0:])
    assert not any(isinstance(row.pending["e_svals"], _Spectrum)
                   for row in rows[k0:])
    assert wire == eager_stats_wire(rec, metrics_from_trace(rec, p), rule)


def test_window_minimum_of_spectra_differing_by_ulps(ctx100):
    # E_k = diag(1/2 + j_k ulp, 1/8): ||E_k|| differs in the last bits only,
    # far below the keys' slack, and the minimum is still the exact one,
    # although the final row (read first) does not hold it
    ulp = ctx100.real(2) ** -(ctx100.prec - 1)   # one ulp of B_k's 3/2
    js = [(k * 7 + 1) % 5 for k in range(12)]
    rec = _spectrum_record(ctx100, [(ctx100.real(1) / 2 + j * ulp, "0.125")
                                    for j in js])
    rows = metrics_from_trace(rec, get_problem("example1"))
    window = Window.from_kbar(rec.kbar)
    assert js[-1] > min(js[window.k0:]) == 0
    wire = run_stats(rows[window.k0:])
    e_norm = ctx100.make(wire[_STATS.index(("min", "e_norm"))])
    assert e_norm == ctx100.real(1) / 2 and e_norm < rows[-1].e_norm
    assert wire == eager_stats_wire(rec, rows)


def test_delta_definition(ctx100):
    # ||F_k|| = ||s^{k-1}||^2 exactly forces delta_k = 2
    p = get_problem("monomial:2")
    us = [ctx100.vec([ctx100.real(1) / (4 ** k)]) for k in range(5)]
    step_norms = [(us[k + 1] - us[k]).norm() for k in range(4)]
    f_norms = [ctx100.one] + [sn * sn for sn in step_norms]
    rec = synthetic_record(ctx100, us, f_norms)
    rows = metrics_from_trace(rec, p)
    tol = ctx100.pow10(-90)
    assert rows[0].delta is None
    for k in range(1, 5):
        assert abs(rows[k].delta - 2) <= tol


def test_delta_sentinel_for_large_steps(ctx100):
    # steps with norm >= 1 leave delta undefined
    p = get_problem("monomial:2")
    us = [ctx100.vec([9]), ctx100.vec([3]), ctx100.vec([1])]
    rec = synthetic_record(ctx100, us, [ctx100.one] * 3)
    rows = metrics_from_trace(rec, p)
    assert rows[1].delta is None and rows[2].delta is None


def test_delta_of_minus_one_is_a_value(ctx100):
    # ||F_1|| = 4 and ||s^0|| = 1/4 give delta_1 = log 4 / log(1/4) = -1, a
    # defined value that is neither skipped nor written as undefined
    p = get_problem("monomial:2")
    us = [ctx100.vec([x]) for x in ("1", "0.75", "0.5")]
    rec = synthetic_record(ctx100, us, ["1", "4", "0.5"])
    # on unread rows the minimum is found through the delta keys
    assert window_extreme("min", "delta", metrics_from_trace(rec, p)) == -1
    rows = metrics_from_trace(rec, p)
    assert rows[1].delta == -1 and rows[0].delta is None
    lines = _csv(METRICS_COLUMNS, rows).splitlines()
    delta = [name for name, _ in METRICS_COLUMNS].index("delta")
    assert [line.split(",")[delta] for line in lines] == \
        ["delta", "-1", "-1.00000e+00", "5.00000e-01"]


def test_zeta_alignment(ctx100):
    # step exactly along -phi gives zeta = 0; zeta is undefined at the end
    p = get_problem("example1")
    us = [ctx100.vec([0, "0.25"]), ctx100.vec([0, "0.125"]),
          ctx100.vec([0, "0.0625"])]
    rec = synthetic_record(ctx100, us, [ctx100.one] * 3)
    rows = metrics_from_trace(rec, p)
    assert rows[0].zeta == 0 and rows[1].zeta == 0
    assert rows[2].zeta is None


def test_metrics_without_null_data(ctx100):
    p = get_problem("example4")
    us = [ctx100.vec([1, 1, 1]), ctx100.vec(["0.5", "0.5", "0.5"]),
          ctx100.vec(["0.25", "0.25", "0.25"])]
    rec = synthetic_record(ctx100, us, [ctx100.one] * 3)
    rows = lam_omega_rows(rec, p, 100)
    assert all(r.zeta is None and r.lam == -1 and r.omega == -1 for r in rows)


def test_uli_rank_one_selection(ctx100):
    phi = ctx100.vec([0, 1])
    steps = [phi] * 4
    assert uli_min_sv(steps, 0, [0, 1]) <= ctx100.pow10(-80)


def test_uli_orthonormal_selection(ctx100):
    steps = [ctx100.vec([1, 0]), ctx100.vec([0, 1])]
    sv = uli_min_sv(steps, 0, [0, 1])
    assert abs(sv - 1) <= ctx100.pow10(-90)


def test_uli_matches_closed_form_2x2(ctx100):
    # columns (1,0) and (cos t, sin t): Gram eigenvalues are 1 +- cos t,
    # so the smallest singular value is sqrt(1 - cos t)
    t = ctx100.pow10(-3)
    c, s = ctx100.mp.cos(t), ctx100.mp.sin(t)
    steps = [ctx100.vec([1, 0]), Vec((c, s), ctx100)]
    got = uli_min_sv(steps, 0, [0, 1])
    want = ctx100.sqrt(1 - c)
    assert abs(got - want) <= ctx100.pow10(-30)


def test_uli_selection_validation(ctx100):
    steps = [ctx100.vec([1, 0]), ctx100.vec([0, 1]), ctx100.vec([1, 0])]
    with pytest.raises(BadSelection):
        uli_min_sv(steps, 0, [0, 1, 2])        # wrong count for n = 2
    with pytest.raises(BadSelection):
        uli_min_sv(steps, 0, [1, 0])           # not increasing
    with pytest.raises(BadSelection):
        uli_min_sv(steps, 0, [0, 5])           # out of range
    with pytest.raises(BadSelection):
        uli_min_sv(steps, 2, [0, 1])           # below k
    with pytest.raises(ValueError):
        uli_min_sv([ctx100.vec([2, 0]), ctx100.vec([0, 1])], 0, [0, 1])


def test_nullspace_residual_examples(ctx100):
    e1e1 = ctx100.mat([[1, 0], [0, 0]])
    assert nullspace_residual(e1e1, ctx100.vec([0, 1])) == 0
    assert nullspace_residual(identity(ctx100, 2), ctx100.vec([0, 1])) == 1


def test_fitted_q_order_exact_sequences(ctx100):
    # geometric sequence has q-order 1; squaring sequence has order 2
    geo = [ctx100.real(1) / (2 ** k) for k in range(10)]
    assert abs(fitted_q_order(geo) - 1.0) < 1e-12
    powers = [ctx100.pow10(-(2 ** k)) for k in range(1, 8)]
    assert abs(fitted_q_order(powers) - 2.0) < 1e-9
    with pytest.raises(ValueError):
        fitted_q_order([ctx100.one])
    with pytest.raises(ValueError):
        fitted_q_order([ctx100.one] * 8)


# -- invariants on a real converged run -----------------------------------------

def test_zeta_over_error_decays_on_reference_run(ex1_reference_run):
    p, rec, rows = ex1_reference_run
    window = Window.from_kbar(rec.kbar)
    ratios = [rows[k].zeta / rows[k].err for k in window.indices
              if rows[k].zeta is not None]
    assert len(ratios) > 20
    assert ratios[-1] < ratios[0] * 1e-6
    # trend check on a coarse subsample
    sub = ratios[::10]
    assert all(b < a for a, b in zip(sub, sub[1:]))


def test_residual_over_error_squared_stabilizes(ex1_reference_run):
    # ||F_k|| / err_k^2 approaches a limit; oscillation over the final window
    # stays within 1e-2 relative
    p, rec, rows = ex1_reference_run
    window = Window.from_kbar(rec.kbar)
    vals = [rows[k].f_norm / (rows[k].err * rows[k].err)
            for k in window.indices]
    lo, hi = min(vals), max(vals)
    assert (hi - lo) / hi <= 1e-2


def test_consecutive_min_sv_collapses_on_reference_run(ex1_reference_run):
    p, rec, rows = ex1_reference_run
    steps = normalized_steps(rec)
    window = Window.from_kbar(rec.kbar)
    for k in range(window.k0, len(steps) - 1):
        assert uli_min_sv(steps, k, range(k, k + p.n)) <= 1e-10


def test_min_sv_bounded_by_e_phi_norm(ex1_reference_run, ctx100):
    # variational bound: Lambda_1 <= ||E_k phi|| <= ||E_k||
    p, rec, rows = ex1_reference_run
    ctx = rec.trace[0].u.ctx
    phi = p.phi(ctx)
    j_root = p.jac(p.root(ctx))
    for k in range(0, rec.kbar + 1, 23):
        entry, row = rec.trace[k], rows[k]
        e_phi = (entry.b - j_root).matvec(phi).norm()
        slack = ctx.pow10(-ctx.decimal_digits + 30)
        assert row.e_svals[0] <= e_phi + slack
        assert e_phi <= row.e_norm + slack


# -- the raw metrics pass against the Vec form ------------------------------------

_EX1, _EX3 = ["0.00731", "-0.00412"], ["0.004", "-0.003", "0.002"]
_DRIVER_CASES = [
    # (id, problem, method, start, B rule, options, final status)
    ("bm-example1", "example1", "bm", _EX1, None, {}, Status.CONVERGED),
    ("bmp-example1-b0", "example1", "bmp", _EX1, "jac", {}, Status.CONVERGED),
    ("bmp-example1-no-spectra", "example1", "bmp", _EX1, "jac",
     {"record_spectra": False}, Status.CONVERGED),
    ("bmp-example2-b0", "example2", "bmp", _EX3, "jac", {}, Status.CONVERGED),
    ("bmp-example3", "example3", "bmp", _EX3, None, {}, Status.CONVERGED),
    ("bmp-example4", "example4", "bmp", ["0.01", "-0.02", "0.015"], "jac", {},
     Status.CONVERGED),
    ("bmp-monomial2-b0", "monomial:2", "bmp", ["0.3"], "jac", {}, Status.CONVERGED),
    ("newton-example2", "example2", "newton", ["0.5", "0.5", "0.5"], None, {},
     Status.CONVERGED),
    ("newton-monomial3", "monomial:3", "newton", ["0.5"], None, {}, Status.CONVERGED),
    ("smp-example1", "example1", "smp", _EX1, None, {}, Status.CONVERGED),
    ("smp-example3", "example3", "smp", _EX3, None, {}, Status.CONVERGED),
    ("bm-monomial2-singular", "monomial:2", "bm", ["2"], "identity", {},
     Status.SINGULAR_MATRIX),
    ("bmp-example1-singular", "example1", "bmp", ["0.25", "-0.1875"], "jac", {},
     Status.SINGULAR_MATRIX),
    ("bmp-example1-exact-root", "example1", "bmp", ["0.125", "0"], "jac", {},
     Status.EXACT_ROOT),
    ("bm-example1-diverged", "example1", "bm", ["1", "1"], "identity",
     {"divergence_guard": 10}, Status.DIVERGED),
]


def _driver_record(name, method, start, rule, kw):
    ctx = PrecisionContext(100)
    p = get_problem(name)
    u = ctx.vec(start)
    b = identity(ctx, p.n) if rule == "identity" else p.jac(u)
    opts = SolverOptions(precision=ctx, tol_exponent=60, max_iter=300, **kw)
    if method == "bm":
        return p, broyden_run(p, u, b, opts)
    if method == "bmp":
        return p, bmp_run(p, u, b, opts, p.jac if rule == "jac" else None)
    if method == "newton":
        return p, newton_run(p, u, opts)
    return p, smp_run(p, u, b, 1, "0.5", opts)


def _row_tuples(row):
    # every field of a row, each lazy column read, as raw tuples
    def raw(v):
        if isinstance(v, tuple):
            return tuple(raw(x) for x in v)
        return getattr(v, "_mpf_", v)
    return [raw(getattr(row, a)) for a in ("k", "f_norm", "err", "q", "eps", "q_eps",
                                           "zeta", "r", "r_eps", "delta", "e_svals")]


def _assert_matches_reference_metrics(rec, p):
    windows = [None, range(rec.kbar, rec.kbar + 1)]
    if rec.kbar >= 3:
        windows.append(range(2, rec.kbar + 1))
    for indices in windows:
        got = metrics_from_trace(rec, p, indices)
        want = reference_metrics(rec, p, indices)
        assert [_row_tuples(r) for r in got] == [_row_tuples(r) for r in want]


@pytest.mark.parametrize("case", _DRIVER_CASES, ids=lambda c: c[0])
def test_metrics_match_the_vec_form_on_driver_records(case):
    _, name, method, start, rule, kw, status = case
    p, rec = _driver_record(name, method, start, rule, kw)
    assert rec.status is status
    _assert_matches_reference_metrics(rec, p)


def test_metrics_match_the_vec_form_on_synthetic_records(ctx100, geometric_record):
    # synthetic records set f_norm and eps without raw dots
    p = get_problem("example1")
    half = ctx100.real(1) / 2
    records = [
        geometric_record,
        _spectrum_record(ctx100, [("0.75", "0.125")] * 6 + [None, ("0.5", "0.25")]),
        synthetic_record(ctx100, [ctx100.vec([0, half ** k]) for k in range(4)],
                         ["1", "4", "0.5", "0"]),
        synthetic_record(ctx100, [ctx100.vec(u) for u in ([0, 1], [0, 3], [0, 3])],
                         ["1", "1", "1"], eps=["0", "2"]),
    ]
    for rec in records:
        _assert_matches_reference_metrics(rec, p)
