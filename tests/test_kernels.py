"""Traced kernels: straight-line value-and-Jacobian code at float points.

A field's func runs once on Traced scalars and the recorded lines are
compiled; every per-step right-hand side evaluates fields through them.
These tests pin the kernels to the dual path with np.array_equal (same
floats, not merely close), check that errors keep their class, that a
replaced func is traced again, and that the right-hand sides built on the
kernels equal the ones built on duals.
"""

import gc
import math
import weakref

import numpy as np
import pytest

from vargram.calculus import (
    Dual,
    MatrixField,
    VectorField,
    _evaluate,
    field_values,
    flow_rhs,
    frozen_input_jacobian,
    frozen_input_jacobian_scalars,
    jacobian,
    jacobian_scalars,
    matrix_jacobian_scalars,
    value_and_rows,
)
from vargram.expr import BinOp, ExprEvalError, Num, Var, parse_system_spec
from vargram.integrate import DEFAULT_ATOL, DEFAULT_RTOL, _solve_segment
from vargram.systems import (
    SystemModel,
    adjoint_pair,
    closed_loop_prolonged,
    dual_closed_loop,
    dual_open,
    from_spec,
    prolong,
    registry,
    two_copy,
)

# n = 1 ... 4, with division (/), integer powers (^), constant components
SPECS = [
    {"name": "spec_n1", "n": 1, "m": 1, "p": 1,
     "f": ["-x1 + x1^3 / (2 + x1^2)"], "g": [["1 / (3 + x1^2)"]],
     "h": ["x1^2 - 1/3"], "k": ["-2*x1 + x1^5"]},
    {"name": "spec_n2", "n": 2, "m": 1, "p": 2,
     "f": ["x2 / (2 + x1^2)", "-x1 - x2^3 / 3 + 1/2"], "g": [["1"], ["x1 / 4"]],
     "h": ["x1^2 - x2", "3"], "k": ["-x2 / (1 + x1^2)"]},
    {"name": "spec_n3", "n": 3, "m": 2, "p": 1,
     "f": ["-x1 + x2*x3", "-x2^2 / (1 + x3^2) - x2", "0.25 - x3 + x1^4"],
     "g": [["1", "0"], ["x1", "2.5"], ["0", "1 / (2 + x2^2)"]],
     "h": ["x1 + x2^2 * x3"], "k": ["x1 - x3", "x2^3"]},
    {"name": "spec_n4", "n": 4, "m": 1, "p": 2,
     "f": ["x2", "-x1 - x2 / 7 + x3^2", "x4 * (1 - x1) / (4 + x2^2)", "-x3 - x4^0 + 1"],
     "g": [["0"], ["1"], ["x1^2"], ["-1/(5 + x4^2)"]],
     "h": ["x1", "x3 - x4 / 2"], "k": ["0.5*x2 - x4^2"]},
]


def _numpy_constants() -> SystemModel:
    """A spec system whose trees hold numpy-scalar constants, and a Python
    field with numpy-scalar constants and exponents."""
    spec = parse_system_spec(SPECS[1])
    spec.f[0] = BinOp("*", Num(np.float64(0.7)), BinOp("/", Var("x2"), Num(np.int64(3))))
    spec.h[1] = Num(np.float64(-2.5))
    system = from_spec(spec)
    system.name = "numpy_constants"
    system.k = VectorField(2, 1, lambda xs: [np.float64(1.5) * xs[0] ** np.int64(3)
                                             - np.int64(2) / (np.float64(4.0) + xs[1] * xs[1])])
    return system


def _systems():
    for name in ("paper_sec5", "linear_scalar", "linear_2x2"):
        yield registry(name)
    for spec in SPECS:
        yield from_spec(parse_system_spec(spec))
    yield _numpy_constants()


def _points(n, count=60, seed=11):
    rng = np.random.default_rng(seed)
    points = rng.uniform(-1.5, 1.5, size=(count, n))
    points[0] = 0.0
    return [p.tolist() for p in points]


def _dual(field, xs):
    if isinstance(field, MatrixField):
        values, grads = matrix_jacobian_scalars(field.func, xs, field.rows, field.cols)
        return np.array(values, dtype=float), np.array(grads, dtype=float)
    values, rows = jacobian_scalars(field.func, xs, field.dim_out)
    return np.array(values, dtype=float), np.array(rows, dtype=float)


def _is_traced(field, kind: str = "jacobian") -> bool:
    """Whether the field's cached kernel of that kind is compiled code,
    not the dual path."""
    kernel = next(k for key, (_, k) in field._kernels.items() if key[0] == kind)
    return kernel.__code__.co_filename == "<traced kernel>"


def test_float64_and_integer_numpy_constants_are_traced():
    system = _numpy_constants()
    for field in (system.f, system.h, system.k):
        field_values(field, [0.1, 0.2])
        jacobian(field, [0.1, 0.2])
        assert _is_traced(field) and _is_traced(field, "values")


@pytest.mark.parametrize("func", [
    # on duals a float32 constant rounds its products to float32
    lambda xs: [xs[0] / np.float32(3.0) + xs[0] * xs[1]],
    lambda xs: [xs[1] * math.inf - xs[0]],
], ids=["float32", "infinite"])
def test_fields_with_untraceable_constants_keep_the_dual_path(func):
    field = VectorField(2, 1, func)
    for xs in _points(2):
        values, jac = field_values(field, xs), jacobian(field, xs)
        dual_values, dual_jac = _dual(field, xs)
        assert np.array_equal(values, dual_values, equal_nan=True)
        assert np.array_equal(jac, dual_jac, equal_nan=True)
    assert not _is_traced(field) and not _is_traced(field, "values")


def _frozen_at(system, xs, u):
    """The drift f + g u and its input-frozen state Jacobian at xs from the
    traced kernel of (x, u) -> f + g u, u = k(x) when None (as
    frozen_input_jacobian evaluates them)."""
    if u is None:
        return frozen_input_jacobian(system, xs)[:2]
    drift, jac = _evaluate(system.affine_field(), "jacobian", list(xs) + list(u))
    return drift, jac[:, :system.n]


@pytest.mark.parametrize("system", list(_systems()), ids=lambda s: s.name)
def test_kernels_equal_the_dual_path_bitwise(system):
    fields = {"f": system.f, "g": system.g, "h": system.h, "k": system.k,
              "closed loop": system.closed_loop_field()}
    for xs in _points(system.n):
        for label, field in fields.items():
            values, jac = field_values(field, xs), jacobian(field, xs)
            dual_values, dual_jac = _dual(field, xs)
            assert np.array_equal(values, dual_values), (label, xs)
            assert np.array_equal(jac, dual_jac), (label, xs)

        # u is k's values on the dual path
        drift, frozen, g_vals = frozen_input_jacobian(system, xs)
        dual_drift, dual_frozen = frozen_input_jacobian_scalars(system, xs,
                                                                _dual(system.k, xs)[0])
        assert np.array_equal(drift, np.array(dual_drift, dtype=float))
        assert np.array_equal(frozen, np.array(dual_frozen, dtype=float))
        assert np.array_equal(g_vals, _dual(system.g, xs)[0])
        u = [0.3 - 0.2 * j for j in range(system.m)]
        drift, frozen = _frozen_at(system, xs, u)
        dual_drift, dual_frozen = frozen_input_jacobian_scalars(system, xs, u)
        assert np.array_equal(drift, np.array(dual_drift, dtype=float))
        assert np.array_equal(frozen, np.array(dual_frozen, dtype=float))


def test_powers_unroll_like_dual_powers():
    # Dual.__pow__ squares and multiplies, rounding at every product, where
    # float ** n calls libm's pow; the kernel follows the dual path
    field = VectorField(1, 1, lambda xs: [xs[0] ** 7 + xs[0] ** 0])
    for x in np.linspace(-1.3, 1.7, 101):
        values, jac = field_values(field, [float(x)]), jacobian(field, [float(x)])
        dual_values, dual_jac = _dual(field, [float(x)])
        assert np.array_equal(values, dual_values) and np.array_equal(jac, dual_jac)


def _variational_forms(system):
    """(label, kernel-built rhs, dual-built rhs, Jacobian-product rhs, state
    dimension) of the four variational flows.

    The dual-built form seeds each state entry x_i with the i-th row of
    the tangent block, Dual(x_i, T_i), so one dual pass gives Df T; the
    Jacobian-product form is sign * (f(x), jacobian(f, x) @ T).
    """
    n = system.n
    cl = system.closed_loop_field()

    def dual_pass(field, sign):
        def rhs(t, z):
            tangent = z[n:].reshape(n, -1)
            outputs = field.func([Dual(x, tuple(row))
                                  for x, row in zip(z[:n].tolist(), tangent.tolist())])
            values, rows = value_and_rows(outputs, tangent.shape[1])
            return sign * np.concatenate([values, np.reshape(rows, -1)])
        return rhs

    def product(field, sign):
        def rhs(t, z):
            x = z[:n].tolist()
            tangent = z[n:].reshape(n, -1)
            out = np.concatenate([_dual(field, x)[0],
                                  (jacobian(field, x) @ tangent).reshape(-1)])
            return sign * out
        return rhs

    for label, rhs, field, sign, dim in (
            ("prolong", prolong(system).rhs, system.f, 1.0, 2 * n),
            ("closed_loop_prolonged", closed_loop_prolonged(system).rhs, cl, 1.0, 2 * n),
            ("obs flow", flow_rhs(system.f, width=n), system.f, 1.0, n + n * n),
            ("ctrl flow", flow_rhs(cl, width=n, sign=-1.0), cl, -1.0, n + n * n)):
        yield label, rhs, dual_pass(field, sign), product(field, sign), dim


def _right_hand_sides(system):
    """(label, kernel-built rhs, dual-built rhs, state dimension).

    Field values in the dual-built forms are the dual path's values too;
    they differ from a float evaluation of func only where a field raises
    to an integer power of 3 or more.
    """
    n = system.n
    cl = system.closed_loop_field()

    def at(field, x):
        return _dual(field, x)[0]

    def frozen(x):
        drift, rows = frozen_input_jacobian_scalars(system, x, at(system.k, x))
        return np.array(drift, dtype=float), np.array(rows, dtype=float)

    def two_copy_ref(t, z):
        return np.concatenate([at(cl, z[:n].tolist()), at(cl, z[n:].tolist())])

    def transposed(rows, dp):  # A^T dp, summed in index order as the kernels trace it
        return [sum(rows[i][l] * dp[i] for i in range(n)) for l in range(n)]

    def dual_closed_ref(t, z):
        drift, rows = frozen(z[:n].tolist())
        return np.concatenate([-drift, transposed(rows.tolist(), z[n:].tolist())])

    def adjoint_ref(t, z):
        drift, rows = frozen(z[:n].tolist())
        rows, dx = rows.tolist(), z[2 * n:].tolist()
        return np.concatenate([-drift, transposed(rows, z[n:2 * n].tolist()),
                               [-sum(rows[i][l] * dx[l] for l in range(n)) for i in range(n)]])

    def dual_open_ref(t, z):
        x = z[:n].tolist()
        return np.concatenate([-at(system.f, x),
                               transposed(jacobian(system.f, x).tolist(), z[n:].tolist())])

    for label, rhs, reference, _, dim in _variational_forms(system):
        yield label, rhs, reference, dim
    yield "two_copy", two_copy(system, cl).rhs, two_copy_ref, 2 * n
    yield "dual_closed_loop", dual_closed_loop(system).rhs, dual_closed_ref, 2 * n
    yield "adjoint_pair", adjoint_pair(system).rhs, adjoint_ref, 3 * n
    yield "dual_open", dual_open(system).rhs, dual_open_ref, 2 * n


@pytest.mark.parametrize("system", list(_systems()), ids=lambda s: s.name)
def test_right_hand_sides_equal_their_dual_forms_bitwise(system):
    rng = np.random.default_rng(5)
    for label, rhs, reference, dim in _right_hand_sides(system):
        for _ in range(20):
            t = float(rng.uniform(0.0, 3.0))
            z = rng.uniform(-1.2, 1.2, dim)
            assert np.array_equal(rhs(t, z), reference(t, z)), label


@pytest.mark.parametrize("system", list(_systems()), ids=lambda s: s.name)
def test_dual_right_hand_sides_match_numpys_matrix_products(system):
    # the kernels sum A^T dp and A dx in index order, numpy's matmul in its
    # own (through BLAS, possibly with fused multiply-adds), so the two agree
    # entry by entry to rounding of the sum of the terms' magnitudes
    n = system.n
    rng = np.random.default_rng(7)
    for build, u in ((dual_closed_loop, None), (dual_open, [0.0] * system.m),
                     (adjoint_pair, None)):
        aug = build(system)
        for _ in range(20):
            z = rng.uniform(-1.2, 1.2, aug.dim)
            drift, rows = _frozen_at(system, z[:n].tolist(), u)
            products = [(rows.T, z[n:2 * n])] + [(-rows, z[2 * n:])] * (aug.dim == 3 * n)
            expected = np.concatenate([-drift] + [a @ v for a, v in products])
            scale = np.concatenate([np.zeros(n)] + [np.abs(a) @ np.abs(v) for a, v in products])
            got = aug.rhs(0.0, z)
            assert np.array_equal(got[:n], expected[:n]), build.__name__
            assert np.all(np.abs(got - expected) <= 1e-15 * scale), build.__name__


@pytest.mark.parametrize("system", list(_systems()), ids=lambda s: s.name)
def test_variational_right_hand_sides_match_jacobian_products(system):
    # the dual chain rule sums J_il T_lj in the field's own order, not in
    # matmul's, so the two agree to rounding, not bitwise
    rng = np.random.default_rng(6)
    for label, rhs, _, product, dim in _variational_forms(system):
        for _ in range(20):
            z = rng.uniform(-1.2, 1.2, dim)
            expected = product(0.0, z)
            error = np.max(np.abs(rhs(0.0, z) - expected))
            assert error <= 1e-12 * np.max(np.abs(expected)), label


def test_zero_denominator_raises_the_fields_own_error():
    spec = from_spec(parse_system_spec({
        "n": 2, "m": 1, "p": 1, "f": ["x2 / x1", "1 / x2"], "g": [["1"], ["0"]],
        "h": ["x1"], "k": ["x2"]}))
    for field in (spec.f, spec.closed_loop_field()):
        jacobian(field, [1.0, 2.0])  # traced at a regular point first
        field_values(field, [1.0, 2.0])
        for xs in ([0.0, 2.0], [1.0, -0.0]):
            with pytest.raises(ExprEvalError, match="division by zero"):
                jacobian(field, xs)
            with pytest.raises(ExprEvalError, match="division by zero"):
                field_values(field, xs)
    with pytest.raises(ExprEvalError):
        prolong(spec).rhs(0.0, np.array([0.0, 2.0, 1.0, 1.0]))

    # the second quotient's value is multiplied away, but still divides
    python = VectorField(2, 2, lambda xs: [xs[1] / xs[0], xs[0] + 0.0 * (1.0 / xs[1])])
    jacobian(python, [1.0, 2.0])
    for xs in ([0.0, 2.0], [1.0, 0.0]):
        with pytest.raises(ZeroDivisionError, match="dual division by zero"):
            jacobian(python, xs)
        with pytest.raises(ZeroDivisionError):
            flow_rhs(python, width=2)(0.0, np.array(xs + [1.0, 0.0, 0.0, 1.0]))


@pytest.mark.parametrize("func", [
    lambda xs: [abs(xs[0])],
    lambda xs: [xs[0] if xs[0] > 0 else -xs[0]],
    lambda xs: [math.sqrt(xs[0])],
    lambda xs: [xs[0] / 0.0],
    lambda xs: [xs[0], xs[0]],
], ids=["abs", "comparison", "math", "constant zero denominator", "arity"])
def test_untraceable_fields_raise_like_the_dual_path(func):
    with pytest.raises(Exception) as on_duals:
        jacobian_scalars(func, [0.5], 1)
    field = VectorField(1, 1, func)
    for evaluate in (jacobian, field_values):
        for x in ([0.5], np.array([[0.5], [0.25]])):  # a point and a stack
            with pytest.raises(Exception) as on_kernel:
                evaluate(field, x)
            assert type(on_kernel.value) is on_duals.type


def test_replacing_func_traces_again():
    calls = []

    def counted(scale):
        def func(xs):
            calls.append(scale)
            return [scale * xs[0] * xs[0]]
        return func

    field = VectorField(1, 1, counted(2.0))
    for _ in range(3):
        assert jacobian(field, [3.0])[0, 0] == 12.0
    assert calls == [2.0]  # one trace, then compiled code only

    field.func = counted(5.0)
    assert jacobian(field, [3.0])[0, 0] == 30.0
    assert field_values(field, [1.0])[0] == 5.0
    assert calls == [2.0, 5.0, 5.0]  # one trace per kernel kind

    # fresh callables in a loop reuse memory, and with it id()s
    for scale in range(20):
        field.func = counted(float(scale))
        assert field_values(field, [1.0])[0] == scale
        assert jacobian(field, [0.5])[0, 0] == scale


def test_the_batch_entry_is_compiled_at_the_first_batched_step_and_traced_again():
    calls = []

    def linear(scale):
        def func(xs):
            calls.append(scale)
            return [-scale * xs[0]]
        return func

    field = VectorField(1, 1, linear(2.0))
    fun = flow_rhs(field)
    _solve_segment(fun, [1.0], 0.0, 1.0, DEFAULT_RTOL, DEFAULT_ATOL)
    ((_, kernel),) = field._kernels.values()
    assert hasattr(kernel, "stages") and not hasattr(kernel, "batch_stages")
    _solve_segment(fun, [[1.0], [2.0]], 0.0, 1.0, DEFAULT_RTOL, DEFAULT_ATOL)
    assert hasattr(kernel, "batch_stages")

    # the stage states 1 + 0.5 * 0.5 and 2 + 1.0 * 0.5, a batch of two
    y, K = np.array([1.0, 2.0]), np.array([[0.5, 1.0], [0.0, 0.0]])
    plan = [(1, K[:1].T, np.array([1.0]))]
    fun.batch_stages(y, K, plan, 0.5)
    assert list(K[1]) == [-2.5, -5.0]
    field.func = linear(5.0)
    fun.batch_stages(y, K, plan, 0.5)
    assert list(K[1]) == [-6.25, -12.5]
    one = np.array([[0.0], [0.0]])
    fun.stages(y[:1], one, [(1, K[:1, :1].T, np.array([1.0]))], 0.5)
    assert list(one[1]) == [-6.25]
    assert calls == [2.0, 5.0]  # one trace per func, shared by all three entries


def test_a_flow_rhs_is_freed_without_the_cyclic_collector():
    """A right-hand side is built on every energy call, so it must be no
    reference cycle: with the cyclic collector off it is freed once its
    last reference goes, after calls of all its entries, a batch step
    that falls back stage by stage on a pole at x1 = 0 included.  (That
    a solve frees its solver is pinned in test_shared_flows.py.)"""
    field = from_spec(parse_system_spec({
        "name": "pole", "n": 2, "m": 1, "p": 1, "f": ["1", "1/x1"],
        "g": [["0"], ["1"]], "h": ["x2"]})).f
    # the stage states x1 = 1 + 0.25 and 0.5 + 0.25, then -0.25 + 0.25
    y, K = np.array([1.0, 0.5, 0.0, 0.0]), np.ones((2, 4))
    plan = [(1, K[:1].T, np.array([1.0]))]
    gc.collect()
    gc.disable()
    try:
        fun = flow_rhs(field)
        fun(0.0, y[::2].copy())
        fun(0.0, y.reshape(2, 2))
        fun.stages(y[::2].copy(), K[:, :2], [(1, K[:1, :2].T, np.array([1.0]))], 0.25)
        fun.batch_stages(y, K, plan, 0.25)
        y[1] = -0.25
        with pytest.raises(ExprEvalError, match="division by zero"):
            fun.batch_stages(y, K, plan, 0.25)
        freed = weakref.ref(fun)
        del fun
        assert freed() is None
    finally:
        gc.enable()


def _batchable_right_hand_sides(system):
    """(label, rhs, state dimension) of the kernel-built right-hand sides,
    which take a (dim, B) batch as well as one state."""
    n = system.n
    cl = system.closed_loop_field()
    yield "prolong", prolong(system).rhs, 2 * n
    for sign in (1.0, -1.0):
        yield (f"closed_loop_prolonged {sign:+}", closed_loop_prolonged(system, sign).rhs,
               2 * n)
        yield f"obs flow {sign:+}", flow_rhs(system.f, width=n, sign=sign), n + n * n
        yield f"two_copy {sign:+}", two_copy(system, cl, sign).rhs, 2 * n


def _with_constant_component() -> SystemModel:
    # f2, and with it the second tangent row, is a constant of the kernel
    return from_spec(parse_system_spec({
        "name": "constant_component", "n": 2, "m": 1, "p": 1,
        "f": ["-x1 + x2", "1/2"], "g": [["1"], ["0"]], "h": ["x1"], "k": ["-x1"]}))


@pytest.mark.parametrize("system", list(_systems()) + [_with_constant_component()],
                         ids=lambda s: s.name)
def test_reversed_and_batched_right_hand_sides_bitwise(system):
    rng = np.random.default_rng(8)
    n = system.n
    cl = system.closed_loop_field()
    for forward, backward, dim in (
            (closed_loop_prolonged(system).rhs, closed_loop_prolonged(system, -1.0).rhs, 2 * n),
            (two_copy(system, cl).rhs, two_copy(system, cl, sign=-1.0).rhs, 2 * n),
            (flow_rhs(cl, width=n), flow_rhs(cl, width=n, sign=-1.0), n + n * n)):
        for _ in range(20):
            z = rng.uniform(-1.2, 1.2, dim)
            assert np.array_equal(backward(0.0, z), -forward(0.0, z))
    for label, rhs, dim in _batchable_right_hand_sides(system):
        batch = rng.uniform(-1.2, 1.2, (dim, 7))
        out = rhs(0.0, batch)
        assert out.shape == batch.shape, label
        per_point = np.stack([rhs(0.0, np.ascontiguousarray(col)) for col in batch.T], axis=1)
        assert np.array_equal(out, per_point), label


def test_zero_denominator_in_a_batch_raises_the_fields_own_error():
    spec = from_spec(parse_system_spec({
        "n": 2, "m": 1, "p": 1, "f": ["x2 / x1", "1 / x2"], "g": [["1"], ["0"]],
        "h": ["x1"], "k": ["x2"]}))
    python = VectorField(2, 2, lambda xs: [xs[1] / xs[0], xs[0] + 0.0 * (1.0 / xs[1])])
    for field, error in ((spec.f, ExprEvalError), (python, ZeroDivisionError)):
        rhs = flow_rhs(field, width=1)
        regular = np.array([[1.0, 2.0, -0.5], [2.0, 1.0, 3.0], [1.0] * 3, [0.0] * 3])
        assert np.all(np.isfinite(rhs(0.0, regular)))
        for column in ([0.0, 2.0], [1.0, 0.0], [0.0, -0.0]):  # x / 0 and 0 / 0
            batch = regular.copy()
            batch[:2, 1] = column
            with pytest.raises(error, match="division by zero"):
                rhs(0.0, batch)
            for evaluate in (field_values, jacobian):  # on the stack of points
                with pytest.raises(error, match="division by zero"):
                    evaluate(field, np.ascontiguousarray(batch[:2].T))
