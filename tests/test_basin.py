import dataclasses

import pytest

from helpers import problem_linear, zero_vec
from broydenlab.basin import (Classification, DimensionMismatch, GridSpec,
                              blue_fraction, classify_point_detail,
                              render_basin)
from broydenlab.cli import BASIN_COLUMNS, _csv
from broydenlab.formatting import format_metric
from broydenlab.harness import default_criteria
from broydenlab.linalg import PrecisionContext
from broydenlab.problems import get_problem
from broydenlab.solvers import SolverOptions


def basin_opts(digits=160, tol=60, max_iter=300):
    return SolverOptions(precision=PrecisionContext(digits), tol_exponent=tol,
                         max_iter=max_iter)


@pytest.fixture(scope="module")
def ex1():
    return get_problem("example1")


@pytest.fixture(scope="module")
def crit():
    return default_criteria("example1")


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(half_width="0.1", resolution=4)
    with pytest.raises(ValueError):
        GridSpec(half_width="0.1", resolution=1)
    with pytest.raises(ValueError):
        GridSpec(half_width="0.1", resolution=5, center=("0",))


def test_grid_point_mapping():
    ctx = PrecisionContext(100)
    grid = GridSpec(half_width="0.5", resolution=3)
    assert grid.point(0, 0, ctx).entries == ctx.vec(["-0.5", "-0.5"]).entries
    assert grid.point(1, 1, ctx).entries == ctx.vec([0, 0]).entries
    assert grid.point(2, 1, ctx).entries == ctx.vec(["0.5", 0]).entries
    off = GridSpec(half_width="1", resolution=3, center=("2", "3"))
    assert off.point(2, 2, ctx).entries == ctx.vec([3, 4]).entries


def test_classify_root_pixel_is_in_band(ex1, crit):
    ctx = PrecisionContext(160)
    assert classify_point_detail(ex1, zero_vec(ctx, 2), crit, basin_opts())[0] \
        is Classification.IN_BAND


def test_classify_singular_jacobian_is_yellow(ex1, crit):
    # 1.5 u1 + 2 u2 = 0 is the singular set of example1; both coordinates
    # are binary-exact so the determinant vanishes exactly
    ctx = PrecisionContext(160)
    u = ctx.vec(["0.25", "-0.1875"])
    assert classify_point_detail(ex1, u, crit, basin_opts())[0] \
        is Classification.NO_CONVERGENCE


def test_classify_nullspace_start_is_blue(ex1, crit):
    ctx = PrecisionContext(160)
    u = ctx.vec([0, "0.001"])
    assert classify_point_detail(ex1, u, crit, basin_opts())[0] \
        is Classification.IN_BAND


def test_classify_requires_dimension_two(crit):
    ctx = PrecisionContext(160)
    with pytest.raises(DimensionMismatch):
        classify_point_detail(get_problem("example2"), zero_vec(ctx, 3), crit,
                              basin_opts())


def test_ppm_format_resolution_three(ex1, crit):
    grid = GridSpec(half_width="0.001", resolution=3)
    image, results = render_basin(ex1, grid, crit, basin_opts())
    assert image.startswith(b"P6\n3 3\n255\n")
    assert len(image) == len(b"P6\n3 3\n255\n") + 27
    assert len(results) == 9
    lines = "".join(_csv(BASIN_COLUMNS, results)).splitlines()
    assert lines[0] == "x,y,class,kbar,q_final"
    assert len(lines) == 10


def test_far_grid_is_all_yellow(ex1, crit):
    # a grid far away from the root: every start diverges or breaks down
    grid = GridSpec(half_width="1e3", resolution=3, center=("2500", "2500"))
    image, results = render_basin(ex1, grid, crit, basin_opts())
    assert all(r.classification is Classification.NO_CONVERGENCE for r in results)
    body = image[len(b"P6\n3 3\n255\n"):]
    assert body == bytes((255, 255, 0)) * 9


def test_render_deterministic_and_worker_invariant(ex1, crit):
    grid = GridSpec(half_width="0.001", resolution=5)
    img1, res1 = render_basin(ex1, grid, crit, basin_opts())
    img2, _ = render_basin(ex1, grid, crit, basin_opts())
    assert img1 == img2
    img3, res3 = render_basin(ex1, grid, crit, basin_opts(), workers=2)
    assert img1 == img3
    assert [r.classification for r in res1] == [r.classification for r in res3]
    assert [(r.x, r.y, r.kbar, r.q_final) for r in res1] == \
        [(r.x, r.y, r.kbar, r.q_final) for r in res3]


def test_per_pixel_classification_matches_render(ex1, crit):
    # rendering is a pure per-pixel function: spot-check pixels out of order
    grid = GridSpec(half_width="0.001", resolution=3)
    opts = basin_opts()
    _, results = render_basin(ex1, grid, crit, opts)
    ctx = opts.precision
    res = grid.resolution
    for idx in (8, 0, 4, 2):
        row, col = divmod(idx, res)
        i, j = col, res - 1 - row
        expect = classify_point_detail(ex1, grid.point(i, j, ctx), crit, opts)[0]
        assert results[idx].classification is expect


def test_blue_fraction_density_trend_small_grid(ex1, crit):
    # density proxy on a coarse grid: more blue close to the root
    near = render_basin(ex1, GridSpec(half_width="0.001", resolution=15),
                        crit, basin_opts())[1]
    far = render_basin(ex1, GridSpec(half_width="0.1", resolution=15),
                       crit, basin_opts())[1]
    assert blue_fraction(near) >= blue_fraction(far)
    assert blue_fraction(near) > 0.5


@pytest.mark.parametrize("half_width", ["-0.001", "0", "nan", "inf", "abc"])
def test_grid_spec_rejects_bad_half_width(half_width):
    with pytest.raises(ValueError):
        GridSpec(half_width=half_width, resolution=3)


@pytest.mark.parametrize("workers", [1, 2])
def test_render_keeps_the_callers_divergence_guard(ex1, crit, workers):
    # a guard below the grid's radius stops every start but the root at
    # once: the render must classify each pixel with the caller's options
    opts = SolverOptions(precision=PrecisionContext(80), tol_exponent=40,
                         max_iter=300, divergence_guard=1e-4)
    grid = GridSpec(half_width="0.001", resolution=3)
    _, results = render_basin(ex1, grid, crit, opts, workers=workers)
    for idx, result in enumerate(results):
        row, i = divmod(idx, 3)
        u_hat = grid.point(i, 2 - row, opts.precision)
        assert result.classification is \
            classify_point_detail(ex1, u_hat, crit, opts)[0]
    # pixel (0, 0) sits in the bottom-left corner
    assert results[6].classification is Classification.NO_CONVERGENCE
    assert [r.classification for r in results].count(Classification.IN_BAND) == 1


def test_point_detail_forms_no_jacobian_at_the_root(ex1, crit):
    # a pixel's one metrics row reads no spectrum, so the kept B_k form no
    # F'(root): the calls are F'(u_hat) and B_0 = F'(u0) for each of the
    # eight pixels off the root, as many as when the trace kept no B_k
    grid = GridSpec(half_width="0.001", resolution=3)
    calls = []
    p = dataclasses.replace(ex1, jac=lambda u: calls.append(u) or ex1.jac(u))
    opts = basin_opts()
    for i in range(3):
        for j in range(3):
            classify_point_detail(p, grid.point(i, j, opts.precision), crit, opts)
    assert len(calls) == 16


@pytest.mark.parametrize("workers", [1, 2])
def test_render_uses_the_given_problem(crit, workers):
    # a 2-D problem outside the registry: 2 u1 + u2 = 1, u1 + 3 u2 = -2
    p = problem_linear(((2, 1), (1, 3)), (1, -2), (1, -1))
    opts = basin_opts(digits=60, tol=30, max_iter=50)
    grid = GridSpec(half_width="0.5", resolution=3, center=("1", "-1"))
    image, results = render_basin(p, grid, crit, opts, workers=workers)
    assert image.startswith(b"P6\n3 3\n255\n") and len(results) == 9
    for idx, result in enumerate(results):
        row, i = divmod(idx, 3)
        u_hat = grid.point(i, 2 - row, opts.precision)
        cls, kbar, q = classify_point_detail(p, u_hat, crit, opts)
        assert (result.x, result.y) == (format_metric(u_hat[0]),
                                        format_metric(u_hat[1]))
        assert (result.classification, result.kbar) == (cls, kbar)
        assert result.q_final == (None if q is None else format_metric(q))


def test_render_calls_the_given_problems_jacobian(ex1, crit):
    grid = GridSpec(half_width="0.001", resolution=3)
    opts = basin_opts()
    calls = []
    p = dataclasses.replace(ex1, jac=lambda u: calls.append(u) or ex1.jac(u))
    render_basin(p, grid, crit, opts)
    rendered = len(calls)
    for i in range(3):
        for j in range(3):
            classify_point_detail(p, grid.point(i, j, opts.precision), crit, opts)
    assert rendered == len(calls) - rendered > 0


def test_near_basin_fails_only_on_two_lines_through_the_root(ex1, crit):
    # the paper's first result: on a near grid the exceptional starts lie on
    # u2 = 0, where the Newton-like step lands on the root (exact-root,
    # kbar 1), and on det F'(u) = 1.5 u1 + 2 u2 = 0, where B_hat is singular
    # (kbar 0); with offsets (a, b) from the centre these are b = 0 and
    # 3a + 4b = 0, taken from the integers, never from mpf coordinates
    res = 21
    _, results = render_basin(ex1, GridSpec(half_width="0.001", resolution=res),
                              crit, basin_opts(160, 60), workers=1)
    half = res // 2
    on_lines = 0
    for idx, pixel in enumerate(results):
        a, b = idx % res - half, half - idx // res
        got = (pixel.classification, pixel.kbar)
        if a == b == 0:
            assert got == (Classification.IN_BAND, 0)
        elif b == 0:
            assert got == (Classification.OUT_OF_BAND, 1), (a, b)
        elif 3 * a + 4 * b == 0:
            assert got == (Classification.NO_CONVERGENCE, 0), (a, b)
        else:
            assert pixel.classification is Classification.IN_BAND, (a, b)
            continue
        on_lines += 1
    assert on_lines == 2 * half + 4 + 1
