"""Fast tests of the benchmark's oracles, reductions and output checks."""
from pathlib import Path

import mpmath
import pytest

import oracles
from spans import pool_balance
from workloads import CASES, check_case

FIXTURE = Path(__file__).parent / "fixtures" / "metrics_example1_bmp.csv"


def test_golden_ratio_solves_its_quadratic():
    g = oracles.golden_ratio()
    assert abs(g * g + g - 1) < mpmath.mpf(10) ** -35
    assert float(g) == pytest.approx(0.6180339887498949, abs=1e-15)


def test_t_star_is_the_real_root_of_the_cubic():
    t = oracles.t_star()
    assert abs(t ** 3 + t ** 2 - 1) < mpmath.mpf(10) ** -35
    assert float(t) == pytest.approx(0.7548776662466927, abs=1e-15)
    assert float(t * t) == pytest.approx(0.5698402909980532, abs=1e-15)


def test_broyden_recursion_is_the_secant_method_in_one_dimension():
    def f(ctx, u):
        return [u[0] ** 2 - 2]

    def jac(ctx, u):
        return [[2 * u[0]]]

    iterates = [u[0] for u in oracles.broyden_iterates(f, jac, ["1.5"], 40, 50, 60)]
    ctx = mpmath.MPContext()
    ctx.dps = 60
    x = [ctx.mpf("1.5")]
    x.append(x[0] - (x[0] ** 2 - 2) / (2 * x[0]))    # Newton-like step
    x.append(x[1] - (x[1] ** 2 - 2) / (2 * x[1]))    # B_0 = F'(u_0)
    while abs(x[-1] ** 2 - 2) > ctx.mpf(10) ** -40:
        a, b = x[-2], x[-1]
        x.append(b - (b ** 2 - 2) * (b - a) / ((b ** 2 - 2) - (a ** 2 - 2)))
    assert len(iterates) == len(x)
    for mine, textbook in zip(iterates, x):
        assert abs(mine - textbook) <= ctx.mpf(10) ** -45


def test_fitted_order_recovers_a_known_order():
    errs = [mpmath.mpf("1e-2")]
    for _ in range(8):
        errs.append(errs[-1] ** 1.5)
    assert oracles.fitted_order(errs) == pytest.approx(1.5, rel=1e-9)


def test_median_and_rate():
    assert oracles.median_ms([0.3, 0.1, 0.2]) == pytest.approx(200.0)
    assert oracles.median_ms([0.1, 0.2, 0.3, 0.4]) == pytest.approx(250.0)
    assert oracles.rate(10, 4.0) == 2.5
    with pytest.raises(ValueError):
        oracles.rate(1, 0.0)


def test_six_digit_agreement():
    full = "0.61803398874989484820458683436563811772030917980576286213544862"
    assert oracles.six_digit_agrees("6.18034e-01", full)
    assert not oracles.six_digit_agrees("6.18035e-01", full)
    assert oracles.six_digit_agrees("-1", "-1")
    assert not oracles.six_digit_agrees("-1", full)
    assert oracles.six_digit_agrees("12", "12")


def test_ppm_reader_rejects_a_short_image():
    good = b"P6\n3 3\n255\n" + bytes(27)
    assert len(oracles.ppm_pixels(good, 3)) == 3
    with pytest.raises(ValueError):
        oracles.ppm_pixels(good[:-1], 3)


def test_pool_balance():
    renders = [(2.0, [{"pid": 1, "busy_s": 2.0}, {"pid": 2, "busy_s": 1.0}]),
               (1.0, [{"pid": 3, "busy_s": 1.0}])]
    efficiency, imbalance = pool_balance(renders, workers=2)
    assert efficiency == pytest.approx(4.0 / 6.0)
    assert imbalance == pytest.approx(1.0 + 1.0)


def test_single_check_accepts_the_fixture():
    text = FIXTURE.read_text()
    assert check_case(CASES[0], 0, "status=converged kbar=2 F_final=1e-101", text) == []


def test_single_check_rejects_a_wrong_rate():
    text = FIXTURE.read_text().replace(
        "6.18034e-01,2.47214e-03", "6.50000e-01,2.47214e-03")
    failures = check_case(CASES[0], 0, "status=converged kbar=2 F_final=1e-101", text)
    assert failures and "final q" in failures[0]


def test_single_check_rejects_a_missing_row_and_a_bad_exit():
    text = FIXTURE.read_text()
    assert check_case(CASES[0], 0, "status=converged kbar=3 F_final=1e-101", text)
    assert check_case(CASES[0], 1, "status=converged kbar=2 F_final=1e-101", text)
