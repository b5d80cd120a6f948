"""Six-digit cells taken from the enclosures of lazy metrics."""
import pytest
from mpmath.libmp import fone, from_man_exp, from_str, mpf_neg

from broydenlab.diagnostics import metrics_from_trace
from broydenlab.formatting import format_metric, interval_cell
from broydenlab.harness import SeriesConfig, seeded_start
from broydenlab.linalg import PrecisionContext
from broydenlab.solvers import bmp_run, broyden_run, newton_run, smp_run

LAZY = ("r", "r_eps", "delta", "lambda1", "lambda2", "e_norm")
PROBLEMS = (("example1", "0.01"), ("example2", "0.01"), ("example3", "0.1"),
            ("example4", "0.1"), ("monomial:3", "0.1"))


def _run(problem, alpha, method, seed):
    cfg = SeriesConfig(problem=problem, alpha=alpha, precision=150, tol_exponent=100,
                       max_iter=3000, rng_seed=seed)
    p, opts, u_hat, b_hat, b0 = seeded_start(cfg, 0)
    if method == "bmp":
        rec = bmp_run(p, u_hat, b_hat, opts, b0)
    elif method == "bm":
        rec = broyden_run(p, u_hat, b_hat, opts)
    elif method == "newton":
        rec = newton_run(p, u_hat, opts)
    else:
        rec = smp_run(p, u_hat, b_hat, "1", "0.5", opts)
    return metrics_from_trace(rec, p)


def test_certified_cells_equal_the_exact_cells():
    certified = fallback = 0
    for problem, alpha in PROBLEMS:
        for method in ("bm", "bmp", "newton", "smp"):
            for row in _run(problem, alpha, method, 7):
                bounds = row.enclosures()   # before any lazy value is read
                assert set(bounds) <= set(LAZY)
                for attr, span in bounds.items():
                    cell = interval_cell(*span)
                    exact = getattr(row, attr)
                    if cell is None:
                        fallback += 1
                    else:
                        certified += 1
                        assert cell == format_metric(exact), (problem, method, row.k, attr)
                assert row.enclosures() == {}   # read values need no bounds
    print(f"{certified} certified cells, {fallback} fell back")
    # most fallbacks are spectra of early rows where sigma_min / sigma_mid
    # is not yet small (79 of 89 at seed 7); Newton's delta on example2, 2
    # up to rounding, spans a binade edge and is certified
    assert certified > 3000
    assert fallback * 140 <= certified


def _raw(text):
    return from_str(text, 64, "n")


@pytest.mark.parametrize("lo, hi", [
    # across the midpoint between 1.23456 and 1.23457
    (_raw("1.2345649999"), _raw("1.2345650001")),
    # across the binade edge 2**-9 = 0.001953125, itself a midpoint: the
    # ends print 1.95312e-03 and 1.95313e-03
    (from_man_exp(2 ** 70 - 1, -79), from_man_exp(2 ** 70 + 1, -79)),
    # across zero
    (_raw("-1e-30"), _raw("1e-30")),
    (mpf_neg(fone), fone),
    # an end that is zero
    ((0, 0, 0, 0), _raw("1e-30")),
])
def test_intervals_that_may_hold_two_cells_fall_back(lo, hi):
    assert interval_cell(lo, hi) is None


def test_an_interval_inside_one_cell_gives_it():
    assert interval_cell(_raw("6.180339"), _raw("6.180341")) == "6.18034e+00"
    # across a binade edge, where 2**0 and the largest 4000-bit value below
    # it print 1.00000e+00 too
    assert interval_cell(from_man_exp(2 ** 64 - 1, -64),
                         from_man_exp(2 ** 64 + 1, -64)) == "1.00000e+00"
    assert interval_cell(_raw("-2.0000001e-300"), _raw("-1.9999999e-300")) \
        == "-2.00000e-300"


def test_format_metric_beyond_3500_binades():
    # at 4,400 digits the unclipped mantissa made an integer of more than
    # 4,300 digits, which Python refuses to print
    assert format_metric(PrecisionContext(4400).pow10(-1100)) == "1.00000e-1100"
    assert format_metric(PrecisionContext(1200).pow10(-1100)) == "1.00000e-1100"
