import dataclasses
import hashlib
import struct

import pytest

from helpers import eager_stats_wire, synthetic_record, zero_vec
from broydenlab.diagnostics import metrics_from_trace
from broydenlab import harness
from broydenlab.diagnostics import MetricsRow, _Spectrum
from broydenlab.harness import (AcceptanceCriteria, CounterRng,
                                EmptyAcceptedSet, SeriesConfig,
                                _reduce_stats, cumulative_run,
                                default_criteria, init_random,
                                parallel_map, pool_size, removal_reason,
                                run_single, run_stats, window)
from broydenlab.linalg import PrecisionContext, singular_values
from broydenlab.problems import get_problem
from broydenlab.solvers import Status


def test_counter_rng_reproducible_and_split():
    a, b = CounterRng(1, 0), CounterRng(1, 0)
    assert [a.bits() for _ in range(5)] == [b.bits() for _ in range(5)]
    c = CounterRng(1, 1)
    assert a.bits() != c.bits()
    d = CounterRng(2, 0)
    assert CounterRng(1, 0).bits() != d.bits()


@pytest.mark.parametrize("seed", [0, 1, 2, 2 ** 64 - 2, 2 ** 64 - 1])
def test_counter_rng_draws_are_hashlib_sha256(seed):
    # the interpreter's own SHA-256 gives hashlib's digests, so every seeded
    # draw is the same whichever module computes it
    for stream in (0, 1, 2 ** 64 - 1):
        rng = CounterRng(seed, stream)
        for counter in range(3):
            data = struct.pack("<QQQ", seed, stream, counter)
            assert rng.bits() == int.from_bytes(
                hashlib.sha256(data).digest()[:16], "big")


def test_counter_rng_uniform_range(ctx100):
    rng = CounterRng(9, 0)
    for _ in range(200):
        assert 0 <= rng.bits() < 2 ** 128
    for _ in range(200):
        x = rng.uniform_symmetric(ctx100, "0.25")
        assert abs(x) <= ctx100.real("0.25")


def test_init_random_beta_zero_gives_exact_jacobian(ctx100):
    p = get_problem("example1")
    u_hat, b_hat, noise = init_random(p, "0.01", "0", CounterRng(3, 0), ctx100)
    assert b_hat == p.jac(u_hat)
    assert noise.n == 2


def test_init_random_alpha_zero_is_degenerate(ctx100):
    p = get_problem("example1")
    u_hat, b_hat, _ = init_random(p, "0", "0", CounterRng(3, 0), ctx100)
    assert u_hat == zero_vec(ctx100, 2)
    assert b_hat == p.jac(zero_vec(ctx100, 2))


def test_init_random_entrywise_bounds():
    # statistical bound check over many draws
    ctx = PrecisionContext(50)
    p = get_problem("example1")
    alpha = ctx.real("0.01")
    for j in range(10_000):
        rng = CounterRng(17, j)
        u_hat, _, noise = init_random(p, "0.01", "0.5", rng, ctx)
        assert all(abs(x) <= alpha for x in u_hat.entries)
        assert all(abs(x) <= 1 for row in noise.rows for x in row)


def test_seeded_start_b0_rule(tiny_cfg):
    p, opts, u_hat, _, b0 = harness.seeded_start(tiny_cfg, 0)
    assert b0(u_hat) == p.jac(u_hat)
    update = dataclasses.replace(tiny_cfg, b0_mode="broyden-update")
    assert harness.seeded_start(update, 0)[4] is None
    # B_0 = F'(u0) + beta ||F'(u0)||_2 R with the run's own B_0 noise R
    cfg = dataclasses.replace(tiny_cfg, beta="1e-3")
    p, opts, u_hat, _, b0 = harness.seeded_start(cfg, 0)
    ctx = opts.precision
    _, _, noise = init_random(p, cfg.alpha, cfg.beta, CounterRng(cfg.rng_seed, 0),
                              ctx)
    jac = p.jac(u_hat)
    want = ctx.real("1e-3") * singular_values(jac)[-1] * singular_values(noise)[-1]
    got = singular_values(b0(u_hat) - jac)[-1]
    assert abs(got - want) <= ctx.pow10(-100) * want


def test_window_hand_values():
    # k0 = max(1, min(kbar - 25, floor(0.75 kbar)))
    assert window(40).start == 15
    assert window(80).start == 55
    assert window(120).start == 90
    assert window(10).start == 1
    assert window(40) == range(15, 41)
    # the alternative "last quarter, at most 25" reading
    assert window(200, rule="max").start == 175
    assert window(40, rule="max").start == 30


def test_series_config_validation():
    with pytest.raises(ValueError):
        SeriesConfig(problem="example1", alpha="0.1", beta="0", b0_mode="bogus")
    with pytest.raises(ValueError):
        SeriesConfig(problem="example1", alpha="0", beta="0")
    with pytest.raises(ValueError):
        SeriesConfig(problem="example1", alpha="0.1", beta="-0.5")
    with pytest.raises(ValueError):
        SeriesConfig(problem="example1", alpha="0.1", beta="0", m=0)
    with pytest.raises(ValueError):
        SeriesConfig.from_mapping({"problem": "example1", "alpha": "0.1",
                                   "beta": "0", "nope": 1})
    cfg = SeriesConfig.from_mapping({"problem": "example1", "alpha": 0.1,
                                     "beta": 0, "m": 3})
    assert cfg.alpha == "0.1" and cfg.beta == "0"


@pytest.mark.parametrize("bad", [
    {"alpha": "nan"}, {"alpha": "inf"}, {"alpha": "-1e-5"}, {"alpha": True},
    {"beta": "nan"}, {"beta": "-inf"}, {"beta": None},
    {"m": "3"}, {"m": True}, {"precision": 320.0}, {"rng_seed": "0"},
    {"problem": 1},
])
def test_series_config_rejects_bad_types_and_scales(bad):
    data = {"problem": "example1", "alpha": "1e-5", **bad}
    with pytest.raises(ValueError):
        SeriesConfig.from_mapping(data)


def test_series_config_strict_mapping():
    with pytest.raises(ValueError):
        SeriesConfig.from_mapping([1, 2])
    assert SeriesConfig.from_mapping({"problem": "example1",
                                      "alpha": "1e-5"}).beta == "0"


def test_criteria_from_mapping():
    crit = AcceptanceCriteria.from_mapping(
        {"u_cap": "1e-8", "q_band": ["0.6", "0.7"], "Q_band": ["0.5", "0.6"]})
    assert crit == AcceptanceCriteria(u_cap="1e-8", q_band=("0.6", "0.7"),
                                      big_q_band=("0.5", "0.6"))
    assert AcceptanceCriteria.from_mapping({"Q_band": None}) == AcceptanceCriteria()
    for bad in ({"q_bnd": ["0.9", "1.0"]}, {"big_q_band": ["0.5", "0.6"]},
                ["0.9", "1.0"], {"q_band": 0.9}, {"q_band": ["0.9"]},
                {"u_cap": "nan"}):
        with pytest.raises(ValueError):
            AcceptanceCriteria.from_mapping(bad)


def test_pool_size_clamp():
    assert pool_size(8, 100, 2) == 2
    assert pool_size(4, 3, 16) == 3
    assert pool_size(2, 10, 64) == 2
    assert pool_size(1000, 1000, 4) == 4
    assert pool_size(8, 10, None) == 1
    assert pool_size(0, 10, 4) == 0


def test_parallel_map_runs_in_process_on_one_cpu(monkeypatch):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 1)
    assert parallel_map(divmod, [(7, 2), (9, 4), (5, 5)], 1000) == \
        [(3, 1), (2, 1), (1, 0)]


def test_criteria_band_validation():
    with pytest.raises(ValueError):
        AcceptanceCriteria(q_band=("0.9", "0.6"))
    with pytest.raises(ValueError):
        AcceptanceCriteria(big_q_band=(1, 0))
    # both ends underflow a double to 0.0; as mpf the band is still empty
    with pytest.raises(ValueError):
        AcceptanceCriteria(q_band=("1e-400", "1e-401"))
    # and both ends round to the same double
    with pytest.raises(ValueError):
        AcceptanceCriteria(q_band=("0.61800000000000000001", "0.618"))
    assert AcceptanceCriteria(q_band=("1e-401", "1e-400")).q_band == \
        ("1e-401", "1e-400")


def test_default_criteria_build_no_precision_context(monkeypatch):
    # band ends compare exactly without an mpmath context
    def refuse(*args):
        raise AssertionError("PrecisionContext built")

    monkeypatch.setattr(harness, "PrecisionContext", refuse)
    for name in ("example1", "example2", "example3", "example4", "monomial:1",
                 "monomial:3", "example23:2", "example23:6"):
        default_criteria(name)


def test_default_criteria_bands():
    c1 = default_criteria("example1")
    assert c1.q_band == ("0.616", "0.620") and c1.big_q_band == ("0.616", "0.620")
    c3 = default_criteria("example3")
    assert c3.q_band == ("0.753", "0.757") and c3.big_q_band == ("0.568", "0.572")
    c4 = default_criteria("example4")
    assert c4.q_band is None and c4.big_q_band is None
    assert c4.u_cap == "1e-10"
    # the bands follow from the singularity order m alone
    assert default_criteria("monomial:1") == c4
    assert default_criteria("monomial:2") == c1
    assert default_criteria("monomial:3") == c3 == default_criteria("example23:3")
    for p, q_band, big_q_band in [(4, ("0.817", "0.821"), ("0.548", "0.552")),
                                  (5, ("0.855", "0.859"), ("0.537", "0.541")),
                                  (6, ("0.879", "0.883"), ("0.530", "0.534"))]:
        c = default_criteria(f"example23:{p}")
        assert (c.q_band, c.big_q_band) == (q_band, big_q_band)


@pytest.mark.parametrize("p", [4, 5])
def test_higher_order_runs_lie_in_their_order_bands(p):
    # example23:p has a singularity of order p - 1: every run is accepted,
    # its window q and Q lie in the bands of that order, and delta nears p
    cfg = SeriesConfig(problem=f"example23:{p}", alpha="0.01", m=2,
                       tol_exponent=120, precision=400, rng_seed=1)
    crit = default_criteria(cfg.problem)
    s = cumulative_run(cfg)
    assert (s.accepted, s.removed) == (2, 0)
    ctx = PrecisionContext(cfg.precision)
    for band, lo, hi in ((crit.q_band, s.q_min, s.q_max),
                         (crit.big_q_band, s.q_eps_min, s.q_eps_max)):
        assert ctx.real(band[0]) <= lo <= hi <= ctx.real(band[1])
    assert p - ctx.real("0.25") <= s.delta_min <= s.delta_max <= p + ctx.real("0.01")


@pytest.fixture(scope="module")
def tiny_cfg():
    return SeriesConfig(problem="example1", alpha="1e-5", beta="0",
                        m=3, tol_exponent=60, precision=130, max_iter=500,
                        rng_seed=11)


def test_single_run_reproducible(tiny_cfg):
    rec1, rows1 = run_single(tiny_cfg, 0)
    rec2, rows2 = run_single(tiny_cfg, 0)
    assert rec1.kbar == rec2.kbar
    assert rec1.trace[-1].raw_u == rec2.trace[-1].raw_u
    assert all(a.q == b.q for a, b in zip(rows1, rows2))
    rec3, _ = run_single(tiny_cfg, 1)
    assert rec3.trace[0].raw_u != rec1.trace[0].raw_u


def test_removal_reason_categories(tiny_cfg):
    rec, rows = run_single(tiny_cfg, 0)
    assert rec.status is Status.CONVERGED
    crit = default_criteria("example1")
    assert removal_reason(rec, rows, crit) is None
    tight_band = AcceptanceCriteria(q_band=("0.9", "0.95"))
    assert removal_reason(rec, rows, tight_band) == "band"
    tiny_cap = AcceptanceCriteria(u_cap="1e-200")
    assert removal_reason(rec, rows, tiny_cap) == "u-cap"
    short = dataclasses.replace(rec, status=Status.MAX_ITER)
    assert removal_reason(short, rows, crit) == "timeout"
    broken = dataclasses.replace(rec, status=Status.SINGULAR_MATRIX)
    assert removal_reason(broken, rows, crit) == "no-convergence"


def test_aggregate_singleton_collapses(tiny_cfg):
    rec, rows = run_single(tiny_cfg, 0)
    summary = _reduce_stats([run_stats(rows)], rec.trace[0].ctx, 0, {})
    assert rows[-1].k == rec.kbar
    assert summary.accepted == 1 and summary.removed == 0
    assert summary.q_min <= summary.q_max
    assert summary.f_min == summary.f_max == rows[-1].f_norm
    assert summary.u_min == summary.u_max == rows[-1].err
    assert summary.it_min == summary.it_max == rec.kbar
    assert summary.lambda1 == rows[-1].e_svals[0]


def test_aggregate_two_synthetic_records_hand_check(ctx100):
    # two fabricated traces with kbar = 30, window starts at max(1, min(5, 22)) = 5
    p = get_problem("example1")

    def make(scale):
        us = [ctx100.vec([0, scale / (2 ** k)]) for k in range(31)]
        f_norms = [ctx100.real(scale) * ctx100.pow10(-k) for k in range(31)]
        eps = [ctx100.real(scale) / (3 ** k) for k in range(30)]
        svals = [(ctx100.real(scale) / (2 ** k), ctx100.real(2) * scale)
                 for k in range(31)]
        return synthetic_record(ctx100, us, f_norms, eps=eps, svals=svals)

    rec_a = make(ctx100.one)
    rec_b = make(ctx100.real(4))
    rows_a = metrics_from_trace(rec_a, p)
    rows_b = metrics_from_trace(rec_b, p)
    w = window(30)
    summary = _reduce_stats([run_stats(rows_a[w.start:]), run_stats(rows_b[w.start:])],
                            ctx100, 0, {})
    assert w.start == 5
    # q is exactly 1/2 everywhere, so the collapse is exact
    assert summary.q_min == summary.q_max == ctx100.real(1) / 2
    # final residuals: min from record a, max from record b
    assert summary.f_min == rows_a[30].f_norm
    assert summary.f_max == rows_b[30].f_norm
    # Lambda1 = max over final smallest singular values
    assert summary.lambda1 == rows_b[30].e_svals[0]
    # ||E|| = min over windows of the largest singular value
    assert summary.e_norm_min == ctx100.real(2)
    assert summary.it_min == summary.it_max == 30
    # zeta: steps align with phi exactly, so window maxima are 0
    assert summary.zeta_min == 0 and summary.zeta_max == 0


def test_aggregate_order_independence(tiny_cfg):
    stats = [run_stats(run_single(tiny_cfg, j)[1]) for j in range(3)]
    ctx = PrecisionContext(tiny_cfg.precision)
    s1 = _reduce_stats(stats, ctx, 0, {})
    s2 = _reduce_stats(list(reversed(stats)), ctx, 0, {})
    for f in dataclasses.fields(s1):
        assert getattr(s1, f.name) == getattr(s2, f.name)


def test_aggregate_empty_raises(ctx100):
    with pytest.raises(EmptyAcceptedSet):
        _reduce_stats([], ctx100, 4, {"timeout": 4})


def test_cumulative_run_reproducible(tiny_cfg):
    s1 = cumulative_run(tiny_cfg)
    s2 = cumulative_run(tiny_cfg)
    for f in dataclasses.fields(s1):
        assert getattr(s1, f.name) == getattr(s2, f.name)
    assert s1.removed == 0 and s1.accepted == 3


def test_cumulative_run_worker_count_invariance(tiny_cfg):
    s1 = cumulative_run(tiny_cfg)
    s2 = cumulative_run(tiny_cfg, workers=2)
    for f in dataclasses.fields(s1):
        assert getattr(s1, f.name) == getattr(s2, f.name)


def test_cumulative_run_empty_accepted_set(tiny_cfg):
    cfg = dataclasses.replace(tiny_cfg, max_iter=3)
    with pytest.raises(EmptyAcceptedSet) as excinfo:
        cumulative_run(cfg)
    assert excinfo.value.reasons == {"timeout": 3}


def test_removed_runs_decrease_with_smaller_start_box():
    # the j = 5 series loses at most as many runs as the j = 1 series
    def rem_for(alpha):
        cfg = SeriesConfig(problem="example1", alpha=alpha, beta="0", m=50,
                           tol_exponent=60, precision=160, max_iter=500,
                           rng_seed=5)
        try:
            return cumulative_run(cfg).removed
        except EmptyAcceptedSet as exc:
            return exc.removed

    assert rem_for("1e-5") <= rem_for("0.1")


@pytest.mark.parametrize("rule", ["min", "max"])
def test_windowed_rows_equal_full_rows(tiny_cfg, rule):
    # rows built over K only are the K-slice of the full rows, field for
    # field, and give the same per-run statistics
    cfg = dataclasses.replace(tiny_cfg, window_rule=rule)
    p = get_problem(cfg.problem)
    for j in range(cfg.m):
        rec, rows = run_single(cfg, j)
        ks = window(rec.kbar, rule)
        full = metrics_from_trace(rec, p)
        windowed = metrics_from_trace(rec, p, ks)
        assert [row.k for row in windowed] == list(ks)
        assert len(windowed) < len(full)
        # pending holds each call's own F'(root) former; the values it
        # yields are compared by name
        names = [f.name for f in dataclasses.fields(MetricsRow)
                 if f.name != "pending"] + [
            "r", "r_eps", "delta", "e_svals", "e_norm"]
        for got, want in zip(windowed, full[ks.start:], strict=True):
            for name in names:
                assert getattr(got, name) == getattr(want, name)
        assert [row.k for row in rows] == list(ks)
        assert run_stats(rows) == run_stats(full[ks.start:])
    assert metrics_from_trace(rec, p, range(0)) == []


@pytest.mark.parametrize("problem,alpha,rule", [
    ("example1", "1e-5", "min"), ("example1", "0.01", "max"),
    ("example2", "0.01", "min"), ("example3", "0.01", "min")])
def test_lazy_window_stats_equal_eager_stats(problem, alpha, rule):
    # window extrema from the candidate rows alone equal those over every
    # value of every row, and evaluate r, r_eps and delta on a few rows only;
    # an accepted run (n = 2 or 3, bounded spectra) evaluates the final
    # row's spectrum and at most one candidate's
    cfg = SeriesConfig(problem=problem, alpha=alpha, m=3, tol_exponent=60,
                       precision=130, max_iter=500, rng_seed=23,
                       window_rule=rule)
    crit = default_criteria(problem)
    accepted = 0
    for j in range(cfg.m):
        rec, rows = run_single(cfg, j)
        wire = run_stats(rows)
        read = sum(not isinstance(row.pending[name], tuple) for row in rows
                   for name in ("r", "r_eps", "delta"))
        assert read < len(rows)
        spectra = sum(not isinstance(row.pending["e_svals"], _Spectrum)
                      for row in rows)
        if removal_reason(rec, rows, crit) is None:
            accepted += 1
            assert 1 <= spectra <= 2
        assert wire == eager_stats_wire(rec, rows, rule)
    assert accepted == cfg.m


def test_removed_run_leaves_lazy_columns_unread(tiny_cfg, monkeypatch):
    built = []

    def recording_run_single(cfg, run_index):
        rec, rows = run_single(cfg, run_index)
        built.extend(rows)
        return rec, rows

    monkeypatch.setattr(harness, "run_single", recording_run_single)
    crit = AcceptanceCriteria(u_cap="1e-200")
    assert harness._worker_stats(tiny_cfg, crit, 0) == ("u-cap", None)
    assert built
    for row in built:
        # unread columns still hold their operands
        assert all(isinstance(row.pending[name], tuple)
                   for name in ("r", "r_eps", "delta", "e_svals"))


def test_converged_run_that_is_not_q_linear():
    # single --problem example1 --method bmp --alpha 0.01 --precision 350
    # --seed 202000: a converged run that is not q-linear.  Over the final
    # window K = 198..264 the r-factors stay in a narrow band while the
    # q-factors leave the band around (sqrt(5)-1)/2, so the band rule
    # removes it.
    cfg = SeriesConfig(problem="example1", alpha="0.01", m=1,
                       tol_exponent=100, precision=350, max_iter=3000,
                       rng_seed=202000)
    rec, rows = run_single(cfg, 0)
    assert rec.status is Status.CONVERGED and rec.kbar == 264
    assert [row.k for row in rows] == list(range(198, 265))
    ctx = rec.trace[0].ctx
    lo, hi = ctx.real("0.643"), ctx.real("0.656")
    assert all(lo <= row.r <= hi for row in rows)
    q_lo, q_hi = ctx.real("0.616"), ctx.real("0.620")
    assert any(not (q_lo <= row.q <= q_hi) for row in rows)
    assert removal_reason(rec, rows, default_criteria("example1")) == "band"


def test_removal_reason_reads_only_the_final_row():
    # the rule gives the same reason on a run's window rows K as on its one
    # row at kbar: accepted and removed example1/2/3 runs, the start that is
    # not q-linear, a timeout and a run that stops at kbar = 0 (empty K)
    base = SeriesConfig(problem="example1", alpha="1e-5", m=1, tol_exponent=60,
                        precision=130, max_iter=500, rng_seed=23)
    cases = [base] + [dataclasses.replace(base, problem=name, alpha="0.01",
                                          rng_seed=seed)
                      for name in ("example1", "example2", "example3")
                      for seed in (23, 24)] + [
        SeriesConfig(problem="example1", alpha="0.01", m=1, tol_exponent=100,
                     precision=350, max_iter=3000, rng_seed=202000),
        dataclasses.replace(base, max_iter=3),
        dataclasses.replace(base, alpha="1e-200")]
    reasons = []
    for cfg in cases:
        rec, rows = run_single(cfg, 0)
        p, crit = get_problem(cfg.problem), default_criteria(cfg.problem)
        final = metrics_from_trace(rec, p, range(rec.kbar, rec.kbar + 1))
        reason = removal_reason(rec, rows, crit)
        assert removal_reason(rec, final, crit) == reason
        reasons.append(reason)
    assert {None, "band", "timeout", "degenerate"} <= set(reasons)
    assert rec.kbar == 0 and rows == []


def test_broyden_update_series_evaluates_few_spectra():
    # at 160 digits ||E_k|| varies across a window by about 2**-(prec // 2);
    # the bounds' pad, at most 16 svd_tol relative, still separates the
    # rows.  The final columns are read after the window extrema, so the
    # final row's spectrum enters by its bounds too: an accepted run
    # evaluates at most two spectra, most runs only the final row's
    cfg = SeriesConfig(problem="example1", alpha="1e-5", b0_mode="broyden-update",
                       m=8, precision=160, rng_seed=0)
    crit = default_criteria("example1")
    counts = []
    for j in range(cfg.m):
        rec, rows = run_single(cfg, j)
        if removal_reason(rec, rows, crit) is not None:
            continue
        wire = run_stats(rows)
        counts.append(sum(not isinstance(row.pending["e_svals"], _Spectrum)
                          for row in rows))
        assert wire == eager_stats_wire(rec, rows)
    assert len(counts) >= 6
    assert max(counts) <= 2 and sum(counts) < 2 * len(counts)
