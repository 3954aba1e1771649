"""Forward-mode differentiation and Lie operations on vector fields.

Dual numbers carry a tuple of tangent components, one per seeded
direction, so a single evaluation yields a full Jacobian row.  Tangent
entries may themselves be duals, which is how second derivatives (Lie
derivative gradients, iterated brackets) are obtained without symbolic
manipulation.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

_NUMBER = numbers.Real


def _primal(s):
    while isinstance(s, Dual):
        s = s.value
    return s


def _is_zero(s) -> bool:
    """Whether the primal of s is zero; for an array primal, whether any
    entry is."""
    p = _primal(s)
    if isinstance(p, np.ndarray):
        return not p.all()
    return p == 0


class Dual:
    """Number with attached tangent components."""

    __slots__ = ("value", "derivs")

    def __init__(self, value, derivs: tuple):
        self.value = value
        self.derivs = derivs

    def __repr__(self):
        return f"Dual({self.value!r}, {self.derivs!r})"

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value + other.value,
                        tuple(a + b for a, b in zip(self.derivs, other.derivs)))
        if isinstance(other, _NUMBER):
            return Dual(self.value + other, self.derivs)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value - other.value,
                        tuple(a - b for a, b in zip(self.derivs, other.derivs)))
        if isinstance(other, _NUMBER):
            return Dual(self.value - other, self.derivs)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _NUMBER):
            return Dual(other - self.value, tuple(-a for a in self.derivs))
        return NotImplemented

    def __neg__(self):
        return Dual(-self.value, tuple(-a for a in self.derivs))

    def __pos__(self):
        return self

    def __mul__(self, other):
        if isinstance(other, Dual):
            sv, ov = self.value, other.value
            return Dual(sv * ov,
                        tuple(a * ov + sv * b for a, b in zip(self.derivs, other.derivs)))
        if isinstance(other, _NUMBER):
            return Dual(self.value * other, tuple(a * other for a in self.derivs))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            if _is_zero(other):
                raise ZeroDivisionError("dual division by zero")
            q = self.value / other.value
            return Dual(q, tuple((a - q * b) / other.value
                                 for a, b in zip(self.derivs, other.derivs)))
        if isinstance(other, _NUMBER):
            if other == 0:
                raise ZeroDivisionError("dual division by zero")
            return Dual(self.value / other, tuple(a / other for a in self.derivs))
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _NUMBER):
            if _is_zero(self):
                raise ZeroDivisionError("dual division by zero")
            q = other / self.value
            return Dual(q, tuple(-q * b / self.value for b in self.derivs))
        return NotImplemented

    def __pow__(self, n):
        if not hasattr(n, "__index__") or operator.index(n) < 0:
            raise ValueError("dual powers require a non-negative integer exponent")
        n = operator.index(n)
        # exponentiation by squaring keeps the op count low and the result exact
        result = 1.0
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result


def seed_identity(xs: Sequence) -> list[Dual]:
    """Wrap a point in duals carrying the identity tangent frame."""
    n = len(xs)
    return [Dual(xs[i], tuple(1.0 if j == i else 0.0 for j in range(n)))
            for i in range(n)]


def seed_direction(xs: Sequence, v: Sequence) -> list[Dual]:
    """Wrap a point in duals carrying a single tangent direction v."""
    return [Dual(x, (float(vi),)) for x, vi in zip(xs, v)]


def split_scalar(s, width: int):
    """Split an evaluation result into (value, tangent list).

    Plain numbers are constants: their tangent row is zero.
    """
    if isinstance(s, Dual):
        return s.value, list(s.derivs)
    return s, [0.0] * width


def value_and_rows(outputs: Sequence, width: int):
    values, rows = [], []
    for s in outputs:
        v, row = split_scalar(s, width)
        values.append(v)
        rows.append(row)
    return values, rows


@dataclass
class VectorField:
    """Map from R^dim_in to R^dim_out, generic over the scalar type.

    func takes a sequence of scalars and returns a sequence of scalars.
    A scalar may be a float, a dual, or a 1-D float array holding one
    value per point of a stack (also as a dual's primal), so fields must
    be written with arithmetic only: no comparisons, branches or math
    functions on their inputs.  Components not depending on the input
    may come back as plain constants.
    """

    dim_in: int
    dim_out: int
    func: Callable[[Sequence], Sequence]

    def __call__(self, xs):
        return self.func(xs)

    @classmethod
    def from_exprs(cls, asts, dim_in: int) -> "VectorField":
        names = [f"x{i + 1}" for i in range(dim_in)]

        def func(xs):
            env = dict(zip(names, xs))
            return [ast.evaluate(env) for ast in asts]

        return cls(dim_in, len(asts), func)

    @classmethod
    def zero(cls, dim_in: int, dim_out: int) -> "VectorField":
        return cls(dim_in, dim_out, lambda xs: [0.0] * dim_out)


@dataclass
class MatrixField:
    """Matrix-valued map on state space.

    dual_ok marks whether func accepts dual scalars; empirically built
    fields (trajectory integrals at a point) are pointwise-only and must
    be differentiated by finite differences instead.
    """

    rows: int
    cols: int
    func: Callable[[Sequence], Sequence]
    dual_ok: bool = True

    def __call__(self, xs):
        return self.func(xs)

    def as_array(self, x) -> np.ndarray:
        return np.asarray(self.func(list(x)), dtype=float).reshape(self.rows, self.cols)

    @classmethod
    def constant(cls, matrix) -> "MatrixField":
        mat = [list(map(float, row)) for row in np.atleast_2d(np.asarray(matrix, dtype=float))]
        r, c = len(mat), len(mat[0])
        return cls(r, c, lambda xs: mat, dual_ok=True)

    @classmethod
    def from_exprs(cls, grid, dim_in: int) -> "MatrixField":
        names = [f"x{i + 1}" for i in range(dim_in)]
        r, c = len(grid), len(grid[0])

        def func(xs):
            env = dict(zip(names, xs))
            return [[ast.evaluate(env) for ast in row] for row in grid]

        return cls(r, c, func, dual_ok=True)

    @classmethod
    def from_pointwise(cls, func, rows: int, cols: int) -> "MatrixField":
        return cls(rows, cols, func, dual_ok=False)

    def column(self, j: int) -> VectorField:
        return VectorField(self.cols, self.rows, lambda xs: [row[j] for row in self.func(xs)])


def jacobian_scalars(func, xs, dim_out: int):
    """Values and Jacobian rows of func at xs, generic over scalars.

    Entries of xs may themselves be duals; the derivative taken here is
    with respect to the newly seeded directions only.
    """
    n = len(xs)
    outputs = func(seed_identity(xs))
    if len(outputs) != dim_out:
        raise ValueError(f"field returned {len(outputs)} components, expected {dim_out}")
    return value_and_rows(outputs, n)


def _is_stack(x) -> bool:
    return isinstance(x, np.ndarray) and x.ndim == 2


def _columns(stack: np.ndarray) -> list[np.ndarray]:
    """The n coordinate arrays of an (N, n) stack of points."""
    return list(np.ascontiguousarray(np.asarray(stack, dtype=float).T))


def field_values(field, x) -> np.ndarray:
    """Values of a vector field at a point, shape (dim_out,), or at each
    row of an (N, n) stack, shape (N, dim_out), from one evaluation on
    length-N arrays; constant components are broadcast to N."""
    if not _is_stack(x):
        return np.asarray(field.func([float(v) for v in x]), dtype=float)
    outputs = field.func(_columns(x))
    return np.stack([np.broadcast_to(np.asarray(v, dtype=float), (len(x),))
                     for v in outputs], axis=1)


def jacobian(field, x) -> np.ndarray:
    """Jacobian matrix of a vector field by forward-mode duals.

    At a point x of shape (n,) the duals carry Python floats and the
    result has shape (dim_out, n).  An (N, n) stack of points gives the
    (N, dim_out, n) stack of Jacobians from one dual pass whose primals
    are length-N arrays; entries that do not vary are broadcast to N.
    """
    stacked = _is_stack(x)
    xs = _columns(x) if stacked else [float(v) for v in x]
    dim_out = getattr(field, "dim_out", None)
    func = field.func if isinstance(field, VectorField) else field
    outputs = func(seed_identity(xs))
    if dim_out is not None and len(outputs) != dim_out:
        raise ValueError(f"field returned {len(outputs)} components, expected {dim_out}")
    _, rows = value_and_rows(outputs, len(xs))
    if not stacked:
        return np.array(rows, dtype=float)
    out = np.empty((len(x), len(rows), len(xs)))
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            out[:, i, j] = entry
    return out


def matrix_jacobian_scalars(mat_func, xs, rows: int, cols: int):
    """Values and per-entry gradients of a matrix field, generic over scalars."""
    n = len(xs)
    out = mat_func(seed_identity(xs))
    values = [[None] * cols for _ in range(rows)]
    grads = [[None] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            v, row = split_scalar(out[i][j], n)
            values[i][j] = v
            grads[i][j] = row
    return values, grads


def frozen_input_jacobian_scalars(system, xs, u=None):
    """State Jacobian of f + g u with the input frozen at u (default k(x)).

    Returns (drift values f+g u, jacobian rows), both generic scalars.
    """
    n, m = system.n, system.m
    if u is None:
        if system.k is None:
            raise ValueError("system has no feedback law k")
        u = system.k(xs)
    f_vals, f_rows = jacobian_scalars(system.f, xs, n)
    g_vals, g_grads = matrix_jacobian_scalars(system.g, xs, n, m)
    drift = [f_vals[i] + sum(g_vals[i][j] * u[j] for j in range(m)) for i in range(n)]
    rows = [[f_rows[i][l] + sum(g_grads[i][j][l] * u[j] for j in range(m))
             for l in range(n)]
            for i in range(n)]
    return drift, rows


def closed_loop_scalars(system, xs):
    """f(x) + g(x) k(x), generic over scalars."""
    if system.k is None:
        raise ValueError("system has no feedback law k")
    f_vals = system.f(xs)
    g_vals = system.g(xs)
    u = system.k(xs)
    return [f_vals[i] + sum(g_vals[i][j] * u[j] for j in range(system.m))
            for i in range(system.n)]


def ad_closed_loop_scalars(system, v_func, xs):
    """One application of the input-frozen bracket to a vector field V.

    Computes (dV/dx)(f + g k) - (d(f + g u)/dx at u = k(x)) V, the step
    of the recursion whose iterates span the controllability directions
    of the feedback-closed variational dynamics.
    """
    n = system.n
    v_vals, v_rows = jacobian_scalars(v_func, xs, n)
    drift, frozen = frozen_input_jacobian_scalars(system, xs)
    return [sum(v_rows[i][l] * drift[l] for l in range(n))
            - sum(frozen[i][l] * v_vals[l] for l in range(n))
            for i in range(n)]


def ad_closed_loop(system, V: VectorField, x) -> np.ndarray:
    """Input-frozen bracket of V along the feedback-closed drift, at a point."""
    out = ad_closed_loop_scalars(system, V.func, [float(v) for v in x])
    return np.array([_primal(s) for s in out], dtype=float)


def ad_closed_loop_field(system, V: VectorField) -> VectorField:
    """The bracket as a field, for building iterates."""
    return VectorField(system.n, system.n,
                       lambda xs: ad_closed_loop_scalars(system, V.func, xs))


def ad_standard_scalars(f_func, v_func, xs, n):
    """Standard Lie bracket step (dV/dx) f - (df/dx) V, generic scalars."""
    f_vals, f_rows = jacobian_scalars(f_func, xs, n)
    v_vals, v_rows = jacobian_scalars(v_func, xs, n)
    return [sum(v_rows[i][l] * f_vals[l] for l in range(n))
            - sum(f_rows[i][l] * v_vals[l] for l in range(n))
            for i in range(n)]


def ad_standard(f: VectorField, V: VectorField, x) -> np.ndarray:
    """Standard Lie bracket [f, V] evaluated at a point."""
    out = ad_standard_scalars(f.func, V.func, [float(v) for v in x], f.dim_in)
    return np.array([_primal(s) for s in out], dtype=float)


def ad_standard_field(f: VectorField, V: VectorField) -> VectorField:
    return VectorField(f.dim_in, f.dim_in,
                       lambda xs: ad_standard_scalars(f.func, V.func, xs, f.dim_in))


def lie_scalar(f_func, h_func, xs, n):
    """Directional derivative of the scalar h along f, generic scalars."""
    _, rows = jacobian_scalars(lambda ys: [h_func(ys)], xs, 1)
    f_vals = f_func(xs)
    return sum(rows[0][l] * f_vals[l] for l in range(n))


def lie_derivative_scalar(f: VectorField, h, x):
    """Lie derivative L_f h and its gradient row at a point.

    h is a callable mapping a scalar sequence to one scalar.  The gradient
    is obtained by re-differentiating the Lie derivative itself, which
    nests one extra dual level.
    """
    n = f.dim_in
    xs = [float(v) for v in x]
    value = _primal(lie_scalar(f.func, h, xs, n))
    _, rows = jacobian_scalars(lambda ys: [lie_scalar(f.func, h, ys, n)], xs, 1)
    gradient = np.array([_primal(s) for s in rows[0]], dtype=float)
    return value, gradient


def matrix_field_directional(M: MatrixField, x, v) -> np.ndarray:
    """Directional derivative of a matrix field along v, by a one-direction dual pass."""
    if not M.dual_ok:
        raise ValueError("matrix field is pointwise-only; differentiate by finite differences")
    xs = [float(s) for s in x]
    out = M.func(seed_direction(xs, [float(s) for s in v]))
    result = np.zeros((M.rows, M.cols))
    for i in range(M.rows):
        for j in range(M.cols):
            _, row = split_scalar(out[i][j], 1)
            result[i, j] = _primal(row[0])
    return result
