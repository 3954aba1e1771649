"""Dual-number differentiation and Lie operation tests.

The expected bracket and gradient polynomials below were rederived by hand
from the defining recursions; the simulation-based cross-check of the same
quantities lives in test_rank.py.
"""

import numpy as np
import pytest

from oracles import fd_jacobian
from vargram.calculus import (
    Dual,
    MatrixField,
    VectorField,
    ad_closed_loop,
    ad_closed_loop_field,
    ad_standard,
    ad_standard_field,
    frozen_input_jacobian_scalars,
    jacobian,
    jacobian_scalars,
    lie_derivative_scalar,
    matrix_field_directional,
    seed_identity,
)
from vargram.systems import registry


def test_dual_arithmetic():
    x = Dual(3.0, (1.0,))
    y = Dual(2.0, (0.0,))
    assert (x * y).value == 6.0
    assert (x * y).derivs == (2.0,)
    assert (x / y).derivs == (0.5,)
    assert (1.0 / x).derivs == (-1.0 / 9.0,)
    assert (x ** 3).value == 27.0
    assert (x ** 3).derivs == (27.0,)
    assert (x ** np.int64(3)).derivs == (x ** np.uint8(3)).derivs == (27.0,)
    assert (x ** 0) == 1.0  # integer zero power collapses to a constant
    assert (2.0 - x).derivs == (-1.0,)
    assert (-x).value == -3.0


def test_dual_division_by_zero():
    z = Dual(0.0, (1.0,))
    with pytest.raises(ZeroDivisionError):
        1.0 / z
    with pytest.raises(ZeroDivisionError):
        z / Dual(0.0, (1.0,))
    with pytest.raises(ZeroDivisionError):
        z / 0.0


def test_dual_division_by_zero_on_array_primals():
    # a stack of points: any zero entry of the denominator is a zero division
    z = Dual(np.array([1.0, 0.0, 2.0]), (1.0,))
    with pytest.raises(ZeroDivisionError):
        1.0 / z
    with pytest.raises(ZeroDivisionError):
        Dual(np.ones(3), (1.0,)) / z
    # without a zero the quotient rule holds entry by entry
    w = Dual(np.array([1.0, 4.0, 2.0]), (np.array([1.0, 1.0, 3.0]),))
    q = 2.0 / w
    assert np.array_equal(q.value, [2.0, 0.5, 1.0])
    assert np.array_equal(q.derivs[0], [-2.0, -0.125, -1.5])
    q = Dual(np.array([3.0, 8.0, 2.0]), (1.0,)) / w
    assert np.array_equal(q.value, [3.0, 2.0, 1.0])
    assert np.array_equal(q.derivs[0], [-2.0, -0.25, -1.0])


def test_dual_pow_rejects_bad_exponents():
    x = Dual(2.0, (1.0,))
    with pytest.raises(ValueError):
        x ** -1
    with pytest.raises(ValueError):
        x ** 0.5
    with pytest.raises(ValueError):
        x ** np.float64(2.0)
    with pytest.raises(ValueError):
        x ** np.int64(-1)


def test_second_derivative_via_nesting():
    # d2/dx2 of x^3 at x = 2 is 12
    inner = Dual(2.0, (1.0,))
    outer = Dual(inner, (Dual(1.0, (0.0,)),))
    cube = outer ** 3
    assert cube.value.value == 8.0
    assert cube.derivs[0].derivs[0] == 12.0


def test_jacobian_matches_finite_differences():
    def func(xs):
        x1, x2, x3 = xs
        return [x1 * x2 - x3 ** 2, x1 ** 3 / (1.0 + x2 ** 2), x2 * x3]

    field = VectorField(3, 3, func)
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = rng.uniform(-2, 2, 3)
        assert np.allclose(jacobian(field, x), fd_jacobian(func, x), atol=1e-7)


def test_jacobian_scalars_accepts_nested_duals():
    def func(xs):
        return [xs[0] * xs[1]]

    outer = seed_identity([1.0, 2.0])
    values, rows = jacobian_scalars(func, outer, 1)
    # gradient of x1*x2 is (x2, x1); entries are duals carrying the outer frame
    assert rows[0][0].value == 2.0
    assert rows[0][1].value == 1.0
    assert rows[0][0].derivs == (0.0, 1.0)
    assert rows[0][1].derivs == (1.0, 0.0)
    assert values[0].value == 2.0


def test_jacobian_rejects_wrong_arity():
    field = VectorField(2, 2, lambda xs: [xs[0]])
    with pytest.raises(ValueError, match="expected 2"):
        jacobian(field, [0.0, 0.0])


def test_frozen_vs_full_jacobian_at_origin():
    sys_ = registry("paper_sec5")
    drift, frozen = frozen_input_jacobian_scalars(sys_, [0.0, 0.0])
    assert np.allclose(drift, [0.0, 0.0])
    # input held at k(0) = 0, only the state dependence differentiates
    assert np.allclose(frozen, [[-0.5, -1.0], [0.0, -0.5]])

    def closed(xs):
        fv = sys_.f(xs)
        gv = sys_.g(xs)
        kv = sys_.k(xs)
        return [fv[i] + sum(gv[i][j] * kv[j] for j in range(sys_.m)) for i in range(sys_.n)]

    full = jacobian(VectorField(2, 2, closed), [0.0, 0.0])
    # the feedback contributes g(0) dk(0) = [[1],[1]] @ [[1, 1]] on top
    assert np.allclose(full, [[0.5, 0.0], [1.0, 0.5]])


def test_frozen_jacobian_with_explicit_input():
    sys_ = registry("paper_sec5")
    drift, frozen = frozen_input_jacobian_scalars(sys_, [0.0, 0.0], u=[1.0])
    # drift picks up g(0) u and the Jacobian picks up u * dg/dx
    assert np.allclose(drift, [1.0, 1.0])
    assert np.allclose(frozen, [[0.5, -1.0], [0.0, -0.5]])


def test_bracket_values_at_origin():
    sys_ = registry("paper_sec5")
    g0 = sys_.g.column(0)
    b1 = ad_closed_loop(sys_, g0, [0.0, 0.0])
    b2 = ad_closed_loop(sys_, ad_closed_loop_field(sys_, g0), [0.0, 0.0])
    assert np.allclose(b1, [1.5, 0.5], atol=1e-12)
    assert np.allclose(b2, [1.25, 0.25], atol=1e-12)


def test_bracket_closed_forms_away_from_origin():
    sys_ = registry("paper_sec5")
    g0 = sys_.g.column(0)
    b1_field = ad_closed_loop_field(sys_, g0)
    b2_field = ad_closed_loop_field(sys_, b1_field)

    def expect_b1(x1):
        return 1.5 + 3.0 * x1 + 2.0 * x1 ** 2 + (2.0 / 3.0) * x1 ** 3

    def expect_b2(x1):
        return (1.25 + 5.0 * x1 + 8.25 * x1 ** 2 + (22.0 / 3.0) * x1 ** 3
                + (10.0 / 3.0) * x1 ** 4 + (2.0 / 3.0) * x1 ** 5)

    # spot value: at x1 = 1 the first bracket's top entry is 43/6
    assert np.isclose(expect_b1(1.0), 43.0 / 6.0)

    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.uniform(-1, 1, 2)
        assert np.allclose(b1_field(list(x)), [expect_b1(x[0]), 0.5], atol=1e-12)
        assert np.allclose(b2_field(list(x)), [expect_b2(x[0]), 0.25], atol=1e-12)


def test_bracket_is_linear_in_the_argument_field():
    sys_ = registry("paper_sec5")
    g0 = sys_.g.column(0)
    scaled = VectorField(2, 2, lambda xs: [3.0 * v for v in g0(xs)])
    x = [0.2, -0.4]
    assert np.allclose(ad_closed_loop(sys_, scaled, x), 3.0 * ad_closed_loop(sys_, g0, x))


def test_standard_bracket_on_linear_system_is_minus_a_times_b():
    sys_ = registry("linear_2x2")
    a = sys_.meta["A"]
    b = sys_.meta["B"]
    col = sys_.g.column(0)
    v1 = ad_standard(sys_.f, col, [0.3, -0.7])
    assert np.allclose(v1, (-a @ b).ravel(), atol=1e-12)
    v2_field = ad_standard_field(sys_.f, ad_standard_field(sys_.f, col))
    assert np.allclose(v2_field([0.3, -0.7]), (a @ a @ b).ravel(), atol=1e-12)


def test_closed_loop_bracket_reduces_to_open_bracket_for_constant_g():
    # the input-frozen Jacobian drops the g dk/dx term, and for constant g
    # the transport term vanishes, so the modified bracket equals the
    # standard bracket against the open drift f alone
    sys_ = registry("linear_2x2")
    col = sys_.g.column(0)
    x = [0.5, 0.25]
    assert np.allclose(
        ad_closed_loop(sys_, col, x), ad_standard(sys_.f, col, x), atol=1e-12
    )


def test_lie_derivative_scalar_values_and_gradients():
    sys_ = registry("paper_sec5")

    def h0(xs):
        return sys_.h(xs)[0]

    value, grad = lie_derivative_scalar(sys_.f, h0, [0.0, 0.0])
    assert value == 0.0
    assert np.allclose(grad, [-0.5, -1.0], atol=1e-12)

    # the drift's first component at (-1, 0) is 1/2 - 1 + 1/3 - 0 - 0
    value, grad = lie_derivative_scalar(sys_.f, h0, [-1.0, 0.0])
    assert np.isclose(value, -1.0 / 6.0, atol=1e-12)
    assert np.allclose(grad, [0.5, 0.0], atol=1e-12)


def test_matrix_field_directional_against_finite_differences():
    def mat(xs):
        x1, x2 = xs
        return [[x1 ** 2, x1 * x2], [x1 * x2, x2 ** 2 + 1.0]]

    field = MatrixField(2, 2, mat)
    x = np.array([0.7, -0.3])
    v = np.array([1.0, 2.0])
    h = 1e-6
    fd = (np.array(mat(list(x + h * v))) - np.array(mat(list(x - h * v)))) / (2 * h)
    assert np.allclose(matrix_field_directional(field, x, v), fd, atol=1e-8)


def test_matrix_field_column_extraction():
    field = MatrixField(2, 2, lambda xs: [[1.0, xs[0]], [2.0, xs[1]]])
    col = field.column(1)
    assert col([3.0, 4.0]) == [3.0, 4.0]
    assert col.dim_out == 2
