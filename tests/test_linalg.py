import itertools

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import libmp
from mpmath.libmp import fzero, mpf_gt, mpf_mul

from helpers import (charpoly_singular_values, identity, normalized, outer,
                     zero_vec)
from broydenlab.diagnostics import _Spectrum
from broydenlab.harness import CounterRng
from broydenlab import linalg
from broydenlab.linalg import (Mat, PrecisionContext, SingularMatrix, Vec,
                               kernels, lu_solve, rank_one_update, raw_dot,
                               singular_values)
from broydenlab.problems import _f_example1
from broydenlab.solvers import TraceEntry


def test_context_validation():
    with pytest.raises(ValueError):
        PrecisionContext(49)
    with pytest.raises(TypeError):   # the pivot guard is a constant
        PrecisionContext(100, singular_pivot_guard=20)
    ctx = PrecisionContext(100)
    assert ctx.pivot_scale == ctx.pow10(-80)
    assert ctx == PrecisionContext(100)


def test_lu_identity(ctx100):
    x = lu_solve(ctx100.mat([[1, 0], [0, 1]]), ctx100.vec([1, 2]))
    assert x.entries == ctx100.vec([1, 2]).entries


def test_lu_permutation_exercises_pivoting(ctx100):
    x = lu_solve(ctx100.mat([[0, 1], [1, 0]]), ctx100.vec([3, 5]))
    assert x.entries == ctx100.vec([5, 3]).entries


def test_lu_rank_one_matrix_raises(ctx100):
    with pytest.raises(SingularMatrix):
        lu_solve(ctx100.mat([[1, 1], [1, 1]]), ctx100.vec([1, 0]))


def test_lu_zero_matrix_raises(ctx100):
    with pytest.raises(SingularMatrix):
        lu_solve(ctx100.mat([[0, 0], [0, 0]]), ctx100.vec([1, 0]))


@pytest.mark.parametrize("digits,big", [(60, "3"), (160, "-1e5")])
def test_pivot_decision_at_the_threshold(digits, big):
    # the rule is |pivot| < pivot_scale * max|A| on the rounded threshold.
    # Pivots at it, one ulp either side and in the binades next to 2**bound
    # (bound = E(pivot_scale) + E(max|A|), E = exp + bc) must decide as that
    # rule; deciding from the pivot's exponent alone gets some of them wrong
    ctx = PrecisionContext(digits)
    big = ctx.real(big)
    threshold = ctx.pivot_scale * abs(big)
    ulp = ctx.mp.ldexp(1, sum(threshold._mpf_[2:]) - ctx.prec)
    bound = sum(ctx.pivot_scale._mpf_[2:]) + sum(big._mpf_[2:])
    pivots = [threshold, threshold - ulp, threshold + ulp, -threshold,
              ctx.mp.ldexp(1, bound - 1), ctx.mp.ldexp(1, bound),
              ctx.mp.ldexp(1, bound - 2), threshold / 2, ctx.zero]
    outcomes = []
    for piv in pivots:
        want = piv == 0 or abs(piv) < threshold
        A = ctx.mat([[big, 0], [0, piv]])
        try:
            lu_solve(A, ctx.vec([1, 1]))
            got = False
        except SingularMatrix:
            got = True
        assert got == want
        outcomes.append((want, piv == 0 or sum(abs(piv)._mpf_[2:]) - 1 < bound))
    assert {want for want, _ in outcomes} == {True, False}
    assert any(want != by_exponent for want, by_exponent in outcomes)
    # an infinite entry makes the threshold infinite, and every finite
    # pivot falls below it
    with pytest.raises(SingularMatrix):
        lu_solve(ctx.mat([[ctx.mp.inf, 0], [0, 1]]), ctx.vec([1, 1]))


def test_lu_dimension_mismatch(ctx100):
    with pytest.raises(ValueError):
        lu_solve(identity(ctx100, 2), ctx100.vec([1, 2, 3]))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.data())
def test_lu_residual_bound_property(n, data):
    # diagonally dominant integer matrices are well-conditioned by construction
    for digits in (100, 300):
        ctx = PrecisionContext(digits)
        off = [[data.draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]
        rows = [[off[i][j] if i != j else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            rows[i][i] = 4 * n + data.draw(st.integers(0, 5))
        b = [data.draw(st.integers(-9, 9)) for _ in range(n)]
        A = ctx.mat(rows)
        x = lu_solve(A, ctx.vec(b))
        residual = (A.matvec(x) - ctx.vec(b)).norm()
        unit_roundoff = ctx.pow10(-ctx.decimal_digits)
        frobenius = ctx.mp.sqrt(sum(a * a for row in A.rows for a in row))
        bound = 100 * n * unit_roundoff * frobenius * x.norm()
        assert residual <= bound


def test_lu_precision_bump_stability():
    rows = [[3, 1, -2], [1, 5, 1], [-1, 2, 6]]
    b = [7, -3, 2]
    ctx_lo, ctx_hi = PrecisionContext(100), PrecisionContext(200)
    x_lo = lu_solve(ctx_lo.mat(rows), ctx_lo.vec(b))
    x_hi = lu_solve(ctx_hi.mat(rows), ctx_hi.vec(b))
    tol = ctx_hi.pow10(-90)
    for a, c in zip(x_lo.entries, x_hi.entries):
        assert abs(ctx_hi.real(a) - c) <= tol * abs(c)


def test_svd_identity(ctx100):
    assert singular_values(identity(ctx100, 2)) == (ctx100.one, ctx100.one)


def test_svd_sign_invariance(ctx100):
    svals = singular_values(ctx100.mat([[3, 0], [0, -4]]))
    assert svals == (ctx100.real(3), ctx100.real(4))


def test_svd_matches_charpoly_oracle(ctx100):
    # fixed 3x3 with entries in [-1, 1]; expected values from the independent
    # characteristic-polynomial root oracle
    A = ctx100.mat([["0.5", "0.25", "-0.3"],
                    ["0.1", "-0.7", "0.2"],
                    ["0.9", "0.0", "0.4"]])
    got = singular_values(A)
    want = charpoly_singular_values(A, ctx100)
    tol = ctx100.pow10(-30)
    for g, w in zip(got, want):
        assert abs(g - w) <= tol * max(ctx100.one, w)


def test_svd_orthogonal_columns(ctx100):
    theta = ctx100.real(1) / 3
    c, s = ctx100.mp.cos(theta), ctx100.mp.sin(theta)
    rot = Mat(((c, -s), (s, c)), ctx100)
    tol = ctx100.pow10(-90)
    for sv in singular_values(rot):
        assert abs(sv - 1) <= tol


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=2, max_size=3),
       st.lists(st.integers(-9, 9), min_size=2, max_size=3))
def test_outer_product_norm_identity(v_ints, w_ints):
    # ||v w^T||_2 = ||v||_2 when ||w||_2 = 1
    n = min(len(v_ints), len(w_ints))
    ctx = PrecisionContext(100)
    v = ctx.vec(v_ints[:n])
    w_raw = ctx.vec(w_ints[:n])
    if w_raw.norm() == 0:
        return
    w = normalized(w_raw)
    norm = singular_values(outer(v, w))[-1]
    tol = ctx.pow10(-85)
    assert abs(norm - v.norm()) <= tol * max(ctx.one, v.norm())


def test_svd_exactly_rank_deficient_matrices(ctx100):
    # parallel columns keep |c| = sqrt(a b), which the pair criterion alone
    # never clears; the deflation floor must retire the annihilated column
    import itertools
    tol = ctx100.pow10(-85)
    for v_ints in itertools.product(range(-2, 3), repeat=2):
        for w_ints in itertools.product(range(-2, 3), repeat=2):
            v, w = ctx100.vec(v_ints), ctx100.vec(w_ints)
            svs = singular_values(outer(v, w))
            want = v.norm() * w.norm()
            scale = max(ctx100.one, want)
            assert abs(svs[-1] - want) <= tol * scale
            assert svs[0] <= tol * scale
    for v_ints, w_ints in (((2, -1, 3), (1, 1, -2)), ((1, 0, 0), (0, 5, 7)),
                           ((-2, 2, 1), (3, 3, 3))):
        v, w = ctx100.vec(v_ints), ctx100.vec(w_ints)
        svs = singular_values(outer(v, w))
        want = v.norm() * w.norm()
        assert abs(svs[-1] - want) <= tol * want
        assert svs[0] <= tol * want and svs[1] <= tol * want


def test_rank_one_update_examples(ctx100):
    B = identity(ctx100, 2)
    got = rank_one_update(B, ctx100.vec([1, 0]), ctx100.vec([0, 1]))
    assert got == ctx100.mat([[1, 1], [0, 1]])
    # input unmodified
    assert B == identity(ctx100, 2)
    # zero update leaves B unchanged
    assert rank_one_update(B, zero_vec(ctx100, 2), ctx100.vec([5, 7])) == B


def test_rank_one_update_matches_direct_outer_product(ctx100):
    v, w = ctx100.vec([2, 3]), ctx100.vec([1, 1])
    got = rank_one_update(ctx100.mat([[0, 0], [0, 0]]), v, w)
    # direct entrywise evaluation of v w^T
    expect = [[v[i] * w[j] for j in range(2)] for i in range(2)]
    assert got == Mat(tuple(tuple(r) for r in expect), ctx100)
    assert got == ctx100.mat([[2, 2], [3, 3]])


def test_rank_one_update_dimension_mismatch(ctx100):
    with pytest.raises(ValueError):
        rank_one_update(identity(ctx100, 2), ctx100.vec([1, 2, 3]), ctx100.vec([1, 2]))


def test_vectors_are_immutable_values(ctx100):
    v = ctx100.vec([1, 2])
    w = v + ctx100.vec([1, 1])
    assert v == ctx100.vec([1, 2])
    assert w == ctx100.vec([2, 3])
    assert (-v).entries == ctx100.vec([-1, -2]).entries
    assert v.dot(w) == ctx100.real(8)


def test_normalize_zero_vector_raises(ctx100):
    with pytest.raises(ZeroDivisionError):
        normalized(zero_vec(ctx100, 2))


def test_context_independence_from_global_state():
    # two contexts coexist; arithmetic respects each one's precision
    lo, hi = PrecisionContext(60), PrecisionContext(200)
    x = lo.real(2) / 3
    y = hi.real(2) / 3
    assert abs(hi.real(x) - y) > hi.pow10(-70)   # lo really is coarser
    assert abs(hi.real(x) - y) < hi.pow10(-55)


def _operator_lu_solve(A, b, ctx):
    # the textbook elimination in mpf operator arithmetic
    n = A.n
    rows = [list(r) for r in A.rows]
    x = list(b.entries)
    max_abs = max(abs(a) for r in A.rows for a in r)
    threshold = ctx.pow10(-(ctx.decimal_digits - 20)) * max_abs
    for k in range(n):
        piv = max(range(k, n), key=lambda i: (abs(rows[i][k]), -i))
        if rows[piv][k] == 0 or abs(rows[piv][k]) < threshold:
            return None
        rows[k], rows[piv] = rows[piv], rows[k]
        x[k], x[piv] = x[piv], x[k]
        for i in range(k + 1, n):
            m = rows[i][k] / rows[k][k]
            if m != 0:
                for j in range(k + 1, n):
                    rows[i][j] -= m * rows[k][j]
                x[i] -= m * x[k]
    for i in range(n - 1, -1, -1):
        acc = x[i]
        for j in range(i + 1, n):
            acc -= rows[i][j] * x[j]
        x[i] = acc / rows[i][i]
    return tuple(x)


def _operator_singular_values(A, ctx):
    # the one-sided Jacobi sweep in mpf operator arithmetic
    n = A.n
    cols = [[A.rows[i][j] for i in range(n)] for j in range(n)]
    tol = ctx.pow10(-ctx.decimal_digits + 10)
    one = ctx.one

    def gram(p, q):
        acc = ctx.zero
        for a, b in zip(cols[p], cols[q]):
            acc += a * b
        return acc

    floor2 = max(gram(j, j) for j in range(n)) * tol * tol
    while True:
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                a, b = gram(p, p), gram(q, q)
                if a <= floor2 or b <= floor2:
                    continue
                c = gram(p, q)
                if c == 0 or abs(c) <= tol * ctx.mp.sqrt(a * b):
                    continue
                tau = (b - a) / (2 * c)
                t = one / (abs(tau) + ctx.mp.sqrt(one + tau * tau))
                if tau < 0:
                    t = -t
                cs = one / ctx.mp.sqrt(one + t * t)
                sn = t * cs
                cp, cq = cols[p], cols[q]
                for i in range(n):
                    up, uq = cp[i], cq[i]
                    cp[i] = cs * up - sn * uq
                    cq[i] = sn * up + cs * uq
                rotated = True
        if not rotated:
            break
    return tuple(sorted(ctx.mp.sqrt(gram(j, j)) for j in range(n)))


def _assert_key_matches_jacobi(A, near_tolerance=False):
    # the window key of a 2x2 E_k is Jacobi's 4 sigma_max**2 to within
    # 2**-(prec - 8), relative; an off-diagonal near the Jacobi tolerance
    # stays within the window's slack 4 svd_tol
    ctx = A.ctx
    key = ctx.make(_Spectrum(ctx, A.raw(), lambda: (A - A).raw()).key())
    want = 4 * singular_values(A)[-1] ** 2
    if near_tolerance:
        assert abs(key - want) <= 4 * ctx.svd_tol * key
    else:
        assert abs(key - want) <= ctx.real(2) ** -(ctx.prec - 8) * want


def _assert_raw_kernels_match(A, b, w):
    """The n = 2 and the generic raw kernels give the tuples of lu_solve and
    the secant update B + (w / w.w) b^T as rank_one_update forms it, or the
    same SingularMatrix."""
    ctx = A.ctx
    try:
        want_x = lu_solve(A, b).raw()
    except SingularMatrix as exc:
        want_x = str(exc)
    ss = b.raw_dot(b)
    want_b = None
    if ss != fzero:
        want_b = rank_one_update(A, w.scaled(1 / ctx.make(ss)), b).raw()
    # the generic kernels do not depend on n; kernels(ctx, 1) gives them
    for solve, secant in (kernels(ctx, A.n), kernels(ctx, 1)):
        try:
            got_x = solve(A.raw(), b.raw())
        except SingularMatrix as exc:
            got_x = str(exc)
        assert got_x == want_x
        if want_b is not None:
            assert secant(A.raw(), b.raw(), ss, w.raw()) == want_b


def _assert_raw_kernels_at_the_boundaries(digits):
    """Pivot swaps, zero multipliers, pivots around pivot_scale * max|A|,
    singular and non-finite matrices, and u.u on either side of guard**2."""
    ctx = PrecisionContext(digits)
    ps = ctx.pivot_scale
    ulp = ctx.mp.ldexp(1, sum(ps._mpf_[2:]) - ctx.prec)
    inf, nan = ctx.mp.inf, ctx.mp.nan
    b, w = ctx.vec(["0.3", "-7"]), ctx.vec(["1e-5", "2"])
    cases = [
        [[1, 2], [3, 4]],                    # the second row is the pivot
        [[2, 1], [0, 3]], [[0, 1], [5, 3]],  # a zero multiplier, with a swap
        [[1, 0], [0, ps + ulp]], [[1, 0], [0, ps]],      # at the threshold
        [[1, 0], [0, ps - ulp]], [[ps - ulp, 0], [0, 1]],  # just below it
        [[ps + ulp, 0], [0, -1]], [[1, 0], [ps * 3, ps * 2]],
        [[1, 2], [2, 4]], [[0, 0], [0, 0]],  # exactly singular
        [[inf, 1], [1, 1]], [[1, 2], [nan, 1]], [[1, 0], [0, -inf]],
        [[inf, inf], [0, 1]],                # where only the skip keeps 0 inf out
    ]
    outcomes = set()
    for rows in cases:
        A = ctx.mat(rows)
        _assert_raw_kernels_match(A, b, w)
        try:
            lu_solve(A, b)
            outcomes.add("solved")
        except SingularMatrix:
            outcomes.add("singular")
        _assert_raw_kernels_match(A, ctx.vec([0, 0]), w)
    assert outcomes == {"solved", "singular"}
    # n = 3 and n = 1 take the generic kernels
    _assert_raw_kernels_match(ctx.mat([[1, 2, 0], [3, 4, 1], [0, 1, ps]]),
                              ctx.vec([1, 2, 3]), ctx.vec([3, 2, 1]))
    _assert_raw_kernels_match(ctx.mat([[ps - ulp]]), ctx.vec([1]), ctx.vec([2]))
    # u.u on either side of guard**2, the divergence guard's test
    guard = ctx.real("1e10")
    guard2 = mpf_mul(guard._mpf_, guard._mpf_)
    g_ulp = ctx.mp.ldexp(1, sum(guard._mpf_[2:]) - ctx.prec + 1)
    sides = set()
    for u in (ctx.vec([guard, 0]), ctx.vec([guard + g_ulp, 0]),
              ctx.vec([guard - g_ulp, 0]), ctx.vec([guard * ctx.real("0.6"),
                                                    guard * ctx.real("0.8")])):
        uu = u.raw_dot(u)
        assert ctx.make(uu) == u[0] * u[0] + u[1] * u[1]
        sides.add(mpf_gt(uu, guard2))
    assert sides == {True, False}


def test_kernels_bit_identical_to_mpf_operators():
    ctx = PrecisionContext(160)
    rng = CounterRng(11, 0)
    for trial in range(40):
        n = 1 + trial % 4
        scale = ctx.pow10(-(trial % 7) * 5)

        def draw():
            return [rng.uniform_symmetric(ctx, scale) for _ in range(n)]

        v, w = ctx.vec(draw()), ctx.vec(draw())
        rows = [draw() for _ in range(n)]
        if trial % 5 == 4 and n > 1:
            rows[1] = [2 * x for x in rows[0]]   # exactly singular
        B = ctx.mat(rows)
        assert (v + w).entries == tuple(a + b for a, b in zip(v, w))
        assert (v - w).entries == tuple(a - b for a, b in zip(v, w))
        assert (-v).entries == tuple(-a for a in v)
        assert v.scaled(w[0]).entries == tuple(w[0] * a for a in v)
        acc = ctx.zero
        for a, b in zip(v, w):
            acc += a * b
        assert v.dot(w) == acc
        assert w.norm() == ctx.mp.sqrt(w.dot(w))
        assert rank_one_update(B, v, w).rows == tuple(
            tuple(b + a * c for b, c in zip(row, w)) for row, a in zip(B.rows, v))
        assert B.max_abs() == max(abs(x) for row in B.rows for x in row)
        C = rank_one_update(B, w, v)
        assert (B + C).rows == tuple(tuple(a + b for a, b in zip(ra, rc))
                                     for ra, rc in zip(B.rows, C.rows))
        assert (B - C).rows == tuple(tuple(a - b for a, b in zip(ra, rc))
                                     for ra, rc in zip(B.rows, C.rows))
        products = []
        for row in B.rows:
            acc = ctx.zero
            for a, x in zip(row, v):
                acc += a * x
            products.append(acc)
        assert B.matvec(v).entries == tuple(products)
        if n == 2:
            for u in (v, w):
                u1, u2 = u
                assert _f_example1(u).entries == (
                    u1 + u2 * u2, u1 * u2 * 3 / 2 + u2 * u2 + u2 * u2 * u2)
        # the trace entry's lazy norms against Vec.norm and the mpf quotient
        entry = TraceEntry(ctx, v.raw(), ff=w.raw_dot(w), raw_s=w.raw(),
                           ss=w.raw_dot(w), ff_next=v.raw_dot(v))
        assert entry.f_norm == w.norm()
        if w.norm() != 0:
            assert entry.eps == v.norm() / w.norm()
        _assert_raw_kernels_match(B, v, w)
        want = _operator_lu_solve(B, v, ctx)
        if want is None:
            with pytest.raises(SingularMatrix):
                lu_solve(B, v)
        else:
            assert lu_solve(B, v).entries == want
        assert singular_values(B) == _operator_singular_values(B, ctx)
        if n == 2:
            _assert_key_matches_jacobi(B)
    # the raw kernels at 60, 160 and 320 digits, at the pivot and guard
    # boundaries
    for digits in (60, 160, 320):
        _assert_raw_kernels_at_the_boundaries(digits)
    # singular_values at 60, 160 and 320 digits: random, exactly singular,
    # rank-one (where the deflation floor retires the parallel columns) and
    # zero matrices; then a column deflated from the start, pairs that never
    # rotate (orthogonal, or off-diagonal far below the tolerance) and
    # off-diagonals from a quarter to three times the tolerance, where the
    # pair test's exponents leave the decision to the square root
    for digits in (60, 160, 320):
        ctx = PrecisionContext(digits)
        tol, tiny = ctx.svd_tol, ctx.pow10(-digits)
        near = [[[1, ctx.real(m) * tol], [0, d]] for m in ("0.25", "0.5", "0.75", "1",
                                                 "1.5", "2", "3")
                for d in ("1", "1.5", "1.4143")]
        for rows in [[[1, tiny], [2, tiny]], [[1, 0, tiny], [0, 2, tiny], [1, 1, 0]],
                     [[3, 0], [0, 5]], [[1, 1], [1, -1]], [[1, tiny], [0, 1]],
                     [[2, 0, 0], [0, 1, tol / 4], [0, 0, 1]]] + near:
            A = ctx.mat(rows)
            assert singular_values(A) == _operator_singular_values(A, ctx)
            if A.n == 2:
                _assert_key_matches_jacobi(A, near_tolerance=True)
        rng = CounterRng(12, digits)
        for trial in range(16):
            n = 1 + trial % 4
            rows = [[rng.uniform_symmetric(ctx, 1) for _ in range(n)]
                    for _ in range(n)]
            kind = trial // 4
            if kind == 1 and n > 1:
                rows[-1] = [3 * x for x in rows[0]]
            elif kind == 2:
                ints = [rng.bits() % 7 - 3 for _ in range(2 * n)]
                rows = [[a * b for b in ints[:n]] for a in ints[n:]]
            elif kind == 3:
                rows = [[0] * n for _ in range(n)]
            A = ctx.mat(rows)
            svals = singular_values(A)
            assert svals == _operator_singular_values(A, ctx)
            if n == 2:
                _assert_key_matches_jacobi(A)
            if kind >= 2 and n > 1:
                assert svals[-2] <= ctx.pow10(-digits + 15) * (svals[-1] + 1)


# -- the scalar ops against mpmath.libmp -------------------------------------------

_SPECIALS = (libmp.fzero, libmp.fnan, libmp.finf, libmp.fninf)


def _outcome(op, *args):
    try:
        return op(*args)
    except Exception as exc:   # the same exception type on both sides
        return type(exc)


def _assert_scalar_ops_match(s, t, prec, rnd):
    for name in ("mpf_add", "mpf_sub", "mpf_div"):
        assert (_outcome(getattr(linalg, name), s, t, prec, rnd)
                == _outcome(getattr(libmp, name), s, t, prec, rnd)), (name, s, t)
    for x in (s, t, libmp.mpf_mul(s, s)):
        assert (_outcome(linalg.mpf_sqrt, x, prec, rnd)
                == _outcome(libmp.mpf_sqrt, x, prec, rnd)), ("mpf_sqrt", x)


def _raw(man, exp=0):
    return libmp.from_man_exp(man, exp)


def _enumerated_scalar_cases():
    cases = []
    for prec in (53, 160, 1066, 3700):
        full = 2 ** prec - 1             # prec one-bits
        cases += [
            # round-half ties: 1 + 2**-prec to even (down), 1 + 3 2**-prec (up)
            (libmp.fone, _raw(1, -prec)),
            (_raw(2 ** (prec - 1) + 1, 1 - prec), _raw(1, -prec)),
            # carries to a power of two, exact and by rounding a tie up
            (_raw(full), libmp.fone), (_raw(full), libmp.fhalf),
            (_raw(-full, -3), _raw(-1, -4)),
            # exact cancellation
            (_raw(full, -7), _raw(full, -7)), (_raw(-5, 3), _raw(5, 3)),
            # exact, power-of-two and inexact quotients and square roots
            (_raw(6), _raw(3)), (_raw(7, 5), _raw(1, -2)), (_raw(1), _raw(-3)),
            (_raw(9, 2), _raw(1, 2)), (_raw(1, 1), _raw(full, -prec)),
            # a dividend wider than prec + 5 bits over a narrow divisor
            (_raw(2 ** (2 * prec) - 1), _raw(3)),
        ]
        for offset in (-101, -100, 100, 101):
            # small mantissas: beyond 100 bits libmp perturbs at low precision;
            # wide ones keep the sum exact
            for a, b in ((3, 5), (-3, 5), (full, 1), (1, -full)):
                cases.append((_raw(a), _raw(b, offset)))
        cases += [(x, y) for x in _SPECIALS + (libmp.fone, libmp.fnone)
                  for y in _SPECIALS + (libmp.fone, _raw(full, -prec))]
    return cases


@pytest.mark.parametrize("rnd", ["n", "f", "c", "d", "u"])
def test_scalar_ops_match_libmp_on_enumerated_cases(rnd):
    for s, t in _enumerated_scalar_cases():
        for prec in (53, 160, 1066, 3700):
            _assert_scalar_ops_match(s, t, prec, rnd)


@st.composite
def _scalar_operands(draw):
    prec = draw(st.integers(53, 3700))

    def operand(exp_lo=-400, exp_hi=400):
        if draw(st.integers(0, 15)) == 0:
            return draw(st.sampled_from(_SPECIALS))
        bits = draw(st.integers(1, 2 * prec))
        # an odd mantissa of exactly ``bits`` bits
        man = (1 << (bits - 1)) | draw(st.integers(0, 2 ** bits - 1)) >> 1 | 1
        return _raw(man * draw(st.sampled_from((1, -1))), draw(st.integers(exp_lo, exp_hi)))

    s = operand()
    kind = draw(st.sampled_from(("free", "negated", "near")))
    if kind == "negated":
        t = libmp.mpf_neg(s)
    elif kind == "near" and s[1]:
        # an exponent offset around libmp's 100-bit shortcut
        t = operand(s[2] - 110, s[2] + 110)
    else:
        t = operand()
    return s, t, prec, draw(st.sampled_from("nnnfcdu"))


@settings(max_examples=400, deadline=None)
@given(_scalar_operands())
def test_scalar_ops_match_libmp(args):
    _assert_scalar_ops_match(*args)


def test_raw_dot_starts_from_the_first_product():
    # the sum used to start from 0 + x0 y0; libmp returns a product, already
    # rounded to prec, unchanged from that sum, and zero, inf and nan as they are
    ctx = PrecisionContext(100)
    prec, rnd = ctx.prec, ctx.rounding

    def summed_from_zero(a, b):
        acc = fzero
        for x, y in zip(a, b):
            acc = libmp.mpf_add(acc, libmp.mpf_mul(x, y, prec, rnd), prec, rnd)
        return acc

    values = _SPECIALS + (libmp.fone, _raw(-3, -7), _raw(2 ** 400 - 1, -5))
    for n in (0, 1, 2):
        for a, b in itertools.product(itertools.product(values, repeat=n), repeat=2):
            assert raw_dot(a, b, prec, rnd) == summed_from_zero(a, b)
    v = ctx.vec(["0.3"])
    assert v.raw_dot(v) == summed_from_zero(v.raw(), v.raw())


@st.composite
def _jacobi_matrices(draw):
    """Raw rows of an n x n matrix, n = 2 or 3, exact at 60 digits: free,
    rank-deficient, with sigma_min below 1e-40 ||E||, or with a column
    below Jacobi's deflation floor."""
    n = draw(st.sampled_from((2, 3)))
    kind = draw(st.sampled_from(("free", "rank-deficient", "tiny-sigma", "deflated")))
    m = [[draw(st.integers(-2 ** 30, 2 ** 30)) for _ in range(n)] for _ in range(n)]
    exps = [[0] * n for _ in range(n)]
    if kind in ("rank-deficient", "tiny-sigma"):
        c = [draw(st.integers(-9, 9)) for _ in range(n - 1)]
        m[-1] = [sum(ci * row[j] for ci, row in zip(c, m)) for j in range(n)]
    if kind == "tiny-sigma":
        # one entry moved by at most 2**-100 of a norm of up to 2**32
        m = [[x << 120 for x in row] for row in m]
        exps = [[-120] * n for _ in range(n)]
        m[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] += \
            draw(st.integers(1, 2 ** 20))
    if kind == "deflated":
        j = draw(st.integers(0, n - 1))
        for row in exps:
            row[j] = -700
    return [[_raw(x, e) for x, e in zip(row, erow)] for row, erow in zip(m, exps)]


@settings(max_examples=60, deadline=None)
@given(_jacobi_matrices())
def test_jacobi_output_within_2n_svd_tol_of_the_singular_values(rows):
    # the bound the six-digit spectrum cells rest on (next to KEY_MARGIN in
    # diagnostics.py): Jacobi's outputs at P and at 2P digits each lie within
    # 2 n svd_tol ||E||_F of the exact singular values of the same E
    n = len(rows)
    lo, hi = PrecisionContext(60), PrecisionContext(120)
    got, want = (singular_values(ctx.raw_mat(rows)) for ctx in (lo, hi))
    e = hi.raw_mat(rows)
    norm = hi.mp.sqrt(sum(x * x for row in e.rows for x in row))
    bound = 2 * n * (lo.svd_tol + hi.svd_tol) * norm
    for a, b in zip(got, want):
        assert abs(hi.real(a) - b) <= bound
