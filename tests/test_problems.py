import pytest

from helpers import identity, normalized, zero_vec
from broydenlab.harness import CounterRng
from broydenlab.linalg import PrecisionContext, Vec
from broydenlab.problems import (MissingNullData, fd_jacobian_deviation,
                                 get_problem, list_problems, projectors,
                                 verify_a2)

ALL_NAMES = ["example1", "example2", "example3", "example4"]


def test_registry_listing():
    assert list_problems() == ALL_NAMES
    assert get_problem("monomial:3").n == 1
    with pytest.raises(ValueError):
        get_problem("nonexistent")
    with pytest.raises(ValueError):
        get_problem("monomial:0")
    with pytest.raises(ValueError):
        get_problem("monomial:x")


@pytest.mark.parametrize("name", ALL_NAMES + ["monomial:1", "monomial:2", "monomial:4"])
def test_residual_vanishes_exactly_at_root(name, ctx100):
    p = get_problem(name)
    f_root = p.f(p.root(ctx100))
    assert all(x == 0 for x in f_root.entries)


def test_example1_values(ctx100):
    p = get_problem("example1")
    assert p.f(ctx100.vec([0, 0])).entries == zero_vec(ctx100, 2).entries
    got = p.f(ctx100.vec([1, 1]))
    assert got == ctx100.vec([2, "3.5"])


def test_example4_hand_value(ctx100):
    p = get_problem("example4")
    assert p.f(ctx100.vec([0, 0, 0])).entries == zero_vec(ctx100, 3).entries


def test_jacobian_hand_values(ctx100):
    p1 = get_problem("example1")
    assert p1.jac(zero_vec(ctx100, 2)) == ctx100.mat([[1, 0], [0, 0]])
    assert p1.jac(ctx100.vec([1, 1])) == ctx100.mat([[1, 2], ["1.5", "6.5"]])
    p2 = get_problem("example2")
    assert p2.jac(zero_vec(ctx100, 3)) == ctx100.mat(
        [[0, 1, 1], [0, 1, 0], [0, 0, 5]])


def test_example2_and_example3_share_jacobian_at_root(ctx100):
    p2, p3 = get_problem("example2"), get_problem("example3")
    z = zero_vec(ctx100, 3)
    assert p2.jac(z) == p3.jac(z)


def test_dimension_checks(ctx100):
    p = get_problem("example1")
    with pytest.raises(ValueError):
        p.f(ctx100.vec([1, 2, 3]))
    with pytest.raises(ValueError):
        p.jac(ctx100.vec([1]))


@pytest.mark.parametrize("name", ALL_NAMES + ["monomial:2", "monomial:3"])
def test_jacobian_matches_finite_differences(name, ctx100):
    p = get_problem(name)
    rng = CounterRng(777, 0)
    bound = ctx100.pow10(-(ctx100.decimal_digits // 3) + 5)
    for _ in range(20):
        u = ctx100.vec([rng.uniform_symmetric(ctx100, 1) for _ in range(p.n)])
        assert fd_jacobian_deviation(p, u, ctx100) <= bound


def test_projector_example1(ctx100):
    p_n = projectors(get_problem("example1"), ctx100)
    assert p_n == ctx100.mat([[0, 0], [0, 1]])
    assert identity(ctx100, 2) - p_n == ctx100.mat([[1, 0], [0, 0]])


def test_projector_example2_from_cross_product_oracle(ctx100):
    p = get_problem("example2")
    # psi must be orthogonal to the range basis (1,1,0), (1,0,5)
    psi = p.psi(ctx100)
    for basis in ([1, 1, 0], [1, 0, 5]):
        assert psi.dot(ctx100.vec(basis)) == 0
    p_n = projectors(p, ctx100)
    third = ctx100.real(1) / 5
    row0 = (ctx100.one, ctx100.real(-1), -third)
    assert p_n.rows[0] == row0
    assert all(x == 0 for x in p_n.rows[1])
    assert all(x == 0 for x in p_n.rows[2])


@pytest.mark.parametrize("name", ["example1", "example2", "example3", "monomial:2"])
def test_projector_structure(name, ctx100):
    p = get_problem(name)
    p_n = projectors(p, ctx100)
    n = p.n
    # P_N + P_X = I
    p_x = identity(ctx100, n) - p_n
    assert p_n + p_x == identity(ctx100, n)
    # idempotent to working precision
    tol = ctx100.pow10(-ctx100.decimal_digits + 15)
    for i in range(n):
        column = Vec(tuple(row[i] for row in p_n.rows), ctx100)
        col = p_n.matvec(column) - column
        assert col.norm() <= tol


@pytest.mark.parametrize("name", ["example1", "example2", "example3"])
def test_projector_annihilates_jacobian_range(name, ctx100):
    # ||P_N F'(root) v|| small for random unit v
    p = get_problem(name)
    p_n = projectors(p, ctx100)
    jac = p.jac(p.root(ctx100))
    rng = CounterRng(55, 0)
    tol = ctx100.pow10(-ctx100.decimal_digits + 15)
    for _ in range(100):
        v = ctx100.vec([rng.uniform_symmetric(ctx100, 1) for _ in range(p.n)])
        if v.norm() == 0:
            continue
        v = normalized(v)
        assert p_n.matvec(jac.matvec(v)).norm() <= tol


def test_projector_missing_data():
    ctx = PrecisionContext(100)
    with pytest.raises(MissingNullData):
        projectors(get_problem("example4"), ctx)
    with pytest.raises(MissingNullData):
        get_problem("example4").phi(ctx)


def test_phi_is_unit_null_vector(ctx100):
    for name in ("example1", "example2", "example3", "monomial:2"):
        p = get_problem(name)
        phi = p.phi(ctx100)
        assert phi.norm() == 1
        jac = p.jac(p.root(ctx100))
        assert jac.matvec(phi).norm() <= ctx100.pow10(-ctx100.decimal_digits + 10)
        assert p.psi(ctx100).dot(phi) != 0


def test_verify_a2_second_difference(ctx100):
    h = ctx100.pow10(-20)
    tol = h * h * 100 + ctx100.pow10(-50)
    p1 = get_problem("example1")
    got = verify_a2(p1, h, ctx100)
    two_phi = p1.phi(ctx100).scaled(ctx100.real(2))
    assert (got - two_phi).norm() <= tol

    p2 = get_problem("example2")
    got2 = verify_a2(p2, h, ctx100)
    two_phi2 = p2.phi(ctx100).scaled(ctx100.real(2))
    assert (got2 - two_phi2).norm() <= tol

    # the second-order singularity has no nullspace component
    got3 = verify_a2(get_problem("example3"), h, ctx100)
    assert got3.norm() <= tol


def test_verify_a2_step_validation(ctx100):
    p = get_problem("example1")
    with pytest.raises(ValueError):
        verify_a2(p, ctx100.real(1) / 10, ctx100)
    with pytest.raises(ValueError):
        verify_a2(p, ctx100.pow10(-60), ctx100)
    with pytest.raises(MissingNullData):
        verify_a2(get_problem("example4"), ctx100.pow10(-20), ctx100)


def test_monomial_family(ctx100):
    p2 = get_problem("monomial:2")
    assert p2.singularity_order == 1
    p3 = get_problem("monomial:3")
    assert p3.singularity_order == 2
    p1 = get_problem("monomial:1")
    assert p1.singularity_order == 0 and not p1.has_null_data
    u = ctx100.vec(["0.5"])
    assert p2.f(u)[0] == ctx100.real("0.25")
    assert p2.jac(u).rows[0][0] == ctx100.one
    assert p3.jac(u).rows[0][0] == ctx100.real("0.75")
