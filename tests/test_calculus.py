"""Dual-number differentiation and Lie operation tests.

The expected bracket and gradient polynomials below were rederived by hand
from the defining recursions; the simulation-based cross-check of the same
quantities lives in test_rank.py.
"""

import operator
import struct
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import ReferenceDual, fd_jacobian
from vargram.calculus import (
    Dual,
    MatrixField,
    Traced,
    VectorField,
    ad_closed_loop_field,
    ad_closed_loop_scalars,
    ad_standard_field,
    ad_standard_scalars,
    field_values,
    frozen_input_jacobian_scalars,
    jacobian,
    jacobian_scalars,
    lie_scalar,
    seed_identity,
)
from vargram.calculus import _Tape
from vargram.gramian import matrix_directional
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



# Random expressions on nested duals, for the lean Dual against the
# isinstance-and-generator reference in tests/oracles.py.  Entries include
# signed zeros, so zero tangents, zero denominators and the sign of every
# zero are exercised; constants come in every numeric type a field may hold.
_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 1e-300]),
                     st.floats(-10.0, 10.0))
_CONSTANTS = st.one_of(
    _ENTRIES, st.integers(-3, 3), st.booleans(), _ENTRIES.map(np.float64),
    st.sampled_from([1j, None, "x"]))  # unsupported operands: TypeError
_EXPONENTS = st.sampled_from([0, 1, 2, 3, 5, True, np.int64(3), np.uint8(2),
                              -1, np.int64(-2), 2.0, 0.5])  # the last four raise
_BINARY = (operator.add, operator.sub, operator.mul, operator.truediv)


def _expressions(variables: int):
    leaves = st.one_of(st.tuples(st.just("var"), st.integers(0, variables - 1)),
                       st.tuples(st.just("const"), _CONSTANTS))
    return st.recursive(leaves, lambda inner: st.one_of(
        st.tuples(st.just("neg"), inner),
        st.tuples(st.just("pos"), inner),
        st.tuples(st.just("pow"), inner, _EXPONENTS),
        st.tuples(st.just("bin"), st.sampled_from(_BINARY), inner, inner)), max_leaves=10)


def _run_expression(node, env):
    kind = node[0]
    if kind == "var":
        return env[node[1]]
    if kind == "const":
        return node[1]
    if kind == "neg":
        return -_run_expression(node[1], env)
    if kind == "pos":
        return +_run_expression(node[1], env)
    if kind == "pow":
        return _run_expression(node[1], env) ** node[2]
    # a constant on the left reaches the dual's reflected method
    return node[1](_run_expression(node[2], env), _run_expression(node[3], env))


def _nested(cls, depth: int, width: int, entries):
    """A dual of the given nesting depth whose floats are drawn in order."""
    if depth == 0:
        return next(entries)
    return cls(_nested(cls, depth - 1, width, entries),
               tuple(_nested(cls, depth - 1, width, entries) for _ in range(width)))


def _bits(s):
    """Every float of a result with its type, bit for bit, or the error raised."""
    if isinstance(s, (Dual, ReferenceDual)):
        return ("dual", _bits(s.value), tuple(_bits(d) for d in s.derivs))
    if isinstance(s, float):
        return (type(s).__name__, struct.pack("<d", s))
    if isinstance(s, complex):  # a NaN part never equals itself: compare its bits
        return (type(s).__name__, struct.pack("<dd", s.real, s.imag))
    return (type(s).__name__, s)


def _outcome(cls, node, depth, width, floats):
    entries = iter(floats)
    env = [_nested(cls, depth, width, entries) for _ in range(2)]
    try:
        with np.errstate(all="ignore"):  # numpy scalars give inf, as on both classes
            return _bits(_run_expression(node, env))
    except (ZeroDivisionError, ValueError, TypeError, OverflowError) as exc:
        return type(exc).__name__


def _without_nan_signs(bits):
    """An outcome (_bits) with the sign bit of every NaN cleared."""
    if isinstance(bits, tuple) and bits[0] == "dual":
        return ("dual", _without_nan_signs(bits[1]), tuple(map(_without_nan_signs, bits[2])))
    if isinstance(bits, tuple) and isinstance(bits[1], bytes):
        values = struct.unpack(f"<{len(bits[1]) // 8}d", bits[1])
        return (bits[0], struct.pack(f"<{len(values)}d",
                                     *(abs(v) if v != v else v for v in values)))
    return bits


def _traced(frame, event, arg):
    return _traced


def _generic_outcome(cls, node, depth, width, floats):
    """_outcome with a trace function set, under which CPython 3.11 runs
    every instruction in its generic form, never a specialized one."""
    previous = sys.gettrace()
    sys.settrace(_traced)
    try:
        return _outcome(cls, node, depth, width, floats)
    finally:
        sys.settrace(previous)


@settings(max_examples=300, deadline=None)
@given(node=_expressions(2), depth=st.integers(1, 3), width=st.integers(1, 2),
       floats=st.lists(_ENTRIES, min_size=2 * 3 ** 3, max_size=2 * 3 ** 3))
# a constant-only complex result, nan-infj on both classes
@example(node=("bin", operator.truediv, ("pow", ("const", 1j), np.int64(3)), ("const", 0.0)),
         depth=1, width=1, floats=[0.0] * (2 * 3 ** 3))
# tangents that are NaNs made from NaNs of both signs, whose signs the two
# classes' specialized lines may give apart
@example(node=("bin", operator.sub, ("bin", operator.truediv, ("const", 0.99999), ("var", 0)),
               ("const", -2.0)),
         depth=3, width=2, floats=[1e-300, 0.0, 0.5] + [0.0] * 12 + [-0.0] + [0.0] * 38)
def test_dual_matches_the_reference_dual_bitwise(node, depth, width, floats):
    """Bit for bit, NaN signs included.  CPython 3.11 runs a float
    operation by a specialized instruction once its line has warmed up,
    and the sign of a NaN made from two NaNs of unequal sign can depend
    on which form ran, and so on each class's call history.  So when the
    outcomes differ only in the signs of NaNs, both are made again with
    every instruction in its generic form, and those must be equal."""
    lean = _outcome(Dual, node, depth, width, floats)
    ref = _outcome(ReferenceDual, node, depth, width, floats)
    if lean != ref and _without_nan_signs(lean) == _without_nan_signs(ref):
        lean, ref = (_generic_outcome(cls, node, depth, width, floats)
                     for cls in (Dual, ReferenceDual))
    assert lean == ref


def test_dual_errors_match_the_reference_dual():
    for cls in (Dual, ReferenceDual):
        zero = cls(-0.0, (1.0,))
        for divide in (lambda: 1.0 / zero, lambda: cls(1.0, (0.0,)) / zero,
                       lambda: zero / 0, lambda: cls(zero, (zero,)) / cls(zero, (zero,))):
            with pytest.raises(ZeroDivisionError):
                divide()
        for bad in (-1, 0.5, np.float64(2.0), "2"):
            with pytest.raises(ValueError):
                zero ** bad
        for other in (1j, None, "x"):
            for apply in (operator.add, operator.sub, operator.mul, operator.truediv):
                with pytest.raises(TypeError):
                    apply(zero, other)
                with pytest.raises(TypeError):
                    apply(other, zero)


def test_dual_defers_to_arrays_and_traced_terms():
    x = Dual(2.0, (1.0,))
    tape = _Tape()
    for other in (np.array([1.0, 2.0]), Traced(tape, "x0")):
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                     "__truediv__", "__rtruediv__"):
            assert getattr(x, name)(other) is NotImplemented, name


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


def _pow_with_trailing_square(x, n):
    # the same products as Dual.__pow__ plus one: the base is squared once
    # more after the last exponent bit and that square is discarded
    result, base = 1.0, x
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


def test_dual_pow_does_no_discarded_product(monkeypatch):
    products = []
    mul = Dual.__mul__

    def counting_mul(self, other):
        products.append(None)
        return mul(self, other)

    monkeypatch.setattr(Dual, "__mul__", counting_mul)
    monkeypatch.setattr(Dual, "__rmul__", counting_mul)
    x = Dual(1.1, (0.7, -1.3))
    for n in range(9):
        products.clear()
        power = x ** n
        used = len(products)
        products.clear()
        reference = _pow_with_trailing_square(x, n)
        assert used == max(len(products) - 1, 0), n
        assert used == (n.bit_count() + n.bit_length() - 1 if n else 0), n
        if n == 0:
            assert power == reference == 1.0
        else:
            assert power.value == reference.value and power.derivs == reference.derivs, n


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
    b1 = ad_closed_loop_scalars(sys_, g0.func, [0.0, 0.0])
    b2 = field_values(ad_closed_loop_field(sys_, ad_closed_loop_field(sys_, g0)), [0.0, 0.0])
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
    assert np.allclose(ad_closed_loop_scalars(sys_, scaled.func, x),
                       3.0 * field_values(ad_closed_loop_field(sys_, g0), x))


def test_standard_bracket_on_linear_system_is_minus_a_times_b():
    sys_ = registry("linear_2x2")
    a = sys_.meta["A"]
    b = sys_.meta["B"]
    col = sys_.g.column(0)
    v1 = ad_standard_scalars(sys_.f.func, col.func, [0.3, -0.7], 2)
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
        field_values(ad_closed_loop_field(sys_, col), x),
        field_values(ad_standard_field(sys_.f, col), x), atol=1e-12
    )


def test_lie_derivative_scalar_values_and_gradients():
    sys_ = registry("paper_sec5")

    def h0(xs):
        return sys_.h(xs)[0]

    # L_f h0 as a field: its values by the traced kernel, its gradient by
    # re-differentiating it, one extra dual level
    lie = VectorField(2, 1, lambda xs: [lie_scalar(sys_.f.func, h0, xs, 2)])
    assert lie_scalar(sys_.f.func, h0, [0.0, 0.0], 2) == 0.0
    assert field_values(lie, [0.0, 0.0])[0] == 0.0
    assert np.allclose(jacobian(lie, [0.0, 0.0])[0], [-0.5, -1.0], atol=1e-12)

    # the drift's first component at (-1, 0) is 1/2 - 1 + 1/3 - 0 - 0
    assert np.isclose(lie_scalar(sys_.f.func, h0, [-1.0, 0.0], 2), -1.0 / 6.0, atol=1e-12)
    assert np.isclose(field_values(lie, [-1.0, 0.0])[0], -1.0 / 6.0, atol=1e-12)
    assert np.allclose(jacobian(lie, [-1.0, 0.0])[0], [0.5, 0.0], atol=1e-12)


def test_matrix_field_directional_against_finite_differences():
    def mat(xs):
        x1, x2 = xs
        return [[x1 ** 2, x1 * x2], [x1 * x2, x2 ** 2 + 1.0]]

    field = MatrixField(2, 2, mat)
    x = np.array([0.7, -0.3])
    v = np.array([1.0, 2.0])
    h = 1e-6
    fd = (np.array(mat(list(x + h * v))) - np.array(mat(list(x - h * v)))) / (2 * h)
    assert np.allclose(matrix_directional(field, x, v), fd, atol=1e-8)


def test_matrix_field_column_extraction():
    field = MatrixField(2, 2, lambda xs: [[1.0, xs[0]], [2.0, xs[1]]])
    col = field.column(1)
    assert col([3.0, 4.0]) == [3.0, 4.0]
    assert col.dim_out == 2
