"""Forward-mode differentiation and Lie operations on vector fields.

Dual numbers carry a tuple of tangent components, one per seeded
direction, so a single evaluation yields a full Jacobian row.  Tangent
entries may themselves be duals, which is how second derivatives (Lie
derivative gradients, iterated brackets) are obtained without symbolic
manipulation.

At a single float point the same arithmetic runs through a traced
kernel: a field's func is run once on duals whose entries are Traced
terms, every float operation on a term becomes one line of straight-line
Python, and the compiled lines return the values and Jacobian rows of
the field (Griewank & Walther, Evaluating Derivatives, 2nd ed., SIAM
2008).  A flow's right-hand side is traced the same way (flow_kernel):
duals seeded with the rows of a tangent block T give Df T by the chain
rule, with no Jacobian formed.  The kernels are straight-line code, so
they run unchanged on length-B arrays, one entry per point of a batch.
Stacked points of field_values and jacobian, and nested duals, keep the
dual path.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
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
            n >>= 1
            if n:
                base = base * base
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
    value per point of a stack (also as a dual's primal, and a Traced
    term is a dual's entry while a kernel is traced), so fields must be
    written with arithmetic only: no comparisons, branches or math
    functions on their inputs.  That contract is what makes one trace of
    func valid at every point: the operations it records cannot depend on
    where it was run.  Components not depending on the input may come
    back as plain constants.
    """

    dim_in: int
    dim_out: int
    func: Callable[[Sequence], Sequence]
    # (func, n, shape, kernels) of the last trace; see point_jacobian
    _traced: tuple | None = field(default=None, init=False, repr=False, compare=False)
    # (copies, width, reversed) -> (func, kernel); see flow_kernel
    _flows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
    _traced: tuple | None = field(default=None, init=False, repr=False, compare=False)

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


# ------------------------------------------------------------ traced kernels


def _constant(c) -> float:
    """A number met while tracing, as a Python float.  float64 and integer
    numpy scalars combine with floats as Python floats do; a float32 or
    wider constant keeps its own precision on duals, so it is not traced."""
    if isinstance(c, np.generic) and not isinstance(c, (np.float64, np.integer)):
        raise TypeError(f"cannot trace a {type(c).__name__} constant")
    return float(c)


class Traced:
    """Float known only when a kernel runs: the name of one line of a tape.

    A field is traced on duals whose entries are Traced, so every
    operation it performs is the Dual operation itself (integer powers
    included, through Dual.__pow__), and each float operation on a
    Traced entry becomes one line of the tape.  Comparisons, abs and math
    functions are not supported, as on duals.
    """

    __slots__ = ("tape", "name")
    __array_ufunc__ = None  # numpy scalars defer to the reflected methods

    def __init__(self, tape: "_Tape", name: str):
        self.tape = tape
        self.name = name

    def __add__(self, other):
        return self.tape.add(self, other)

    def __radd__(self, other):
        return self.tape.add(other, self)

    def __sub__(self, other):
        return self.tape.sub(self, other)

    def __rsub__(self, other):
        return self.tape.sub(other, self)

    def __mul__(self, other):
        return self.tape.mul(self, other)

    def __rmul__(self, other):
        return self.tape.mul(other, self)

    def __truediv__(self, other):
        return self.tape.div(self, other)

    def __rtruediv__(self, other):
        return self.tape.div(other, self)

    def __neg__(self):
        return self.tape.neg(self)


class _Tape:
    """Straight-line program recorded by operations on Traced terms.

    Operations between numbers never reach the tape: Dual combines them
    by the same float operation at trace time.  Structurally zero terms
    fold away (a product with 0.0 is 0.0, a sum with 0.0 is the other
    term), products with 1.0 return the other factor, and equal lines are
    emitted once; these folds change at most the sign of a zero.  The
    first division by each Traced denominator is kept even when unused,
    so a zero denominator raises where the dual path raises.
    """

    def __init__(self):
        self.lines: dict[str, list] = {}  # name -> [code, operand names, kept]
        self.names: dict[str, Traced] = {}  # code -> term
        self.guarded: set[str] = set()  # denominators with a kept division

    @staticmethod
    def text(a) -> str:
        if isinstance(a, Traced):
            return a.name
        a = _constant(a)
        if not math.isfinite(a):
            raise ValueError(f"cannot trace the constant {a!r}")
        return f"({a!r})" if math.copysign(1.0, a) < 0 else repr(a)

    def emit(self, op: str, a, b=None, kept: bool = False) -> Traced:
        code = f"{op}{self.text(a)}" if b is None else f"{self.text(a)} {op} {self.text(b)}"
        term = self.names.get(code)
        if term is None:
            term = self.names[code] = Traced(self, f"t{len(self.lines)}")
            operands = tuple(t.name for t in (a, b) if isinstance(t, Traced))
            self.lines[term.name] = [code, operands, kept]
        elif kept:
            self.lines[term.name][2] = True
        return term

    @staticmethod
    def _is(a, number: float) -> bool:
        return not isinstance(a, Traced) and _constant(a) == number

    def add(self, a, b):
        if self._is(a, 0.0):
            return b
        if self._is(b, 0.0):
            return a
        return self.emit("+", a, b)

    def sub(self, a, b):
        if self._is(b, 0.0):
            return a
        if self._is(a, 0.0):
            return self.neg(b)
        return self.emit("-", a, b)

    def neg(self, a):
        return self.emit("-", a)

    def mul(self, a, b):
        if self._is(a, 0.0) or self._is(b, 0.0):
            return 0.0
        if self._is(a, 1.0):
            return b
        if self._is(b, 1.0):
            return a
        return self.emit("*", a, b)

    def div(self, a, b):
        if not isinstance(b, Traced):
            if _constant(b) == 0:
                raise ZeroDivisionError("dual division by zero")
            return a if self._is(b, 1.0) else self.emit("/", a, b)
        if b.name not in self.guarded:
            self.guarded.add(b.name)
            return self.emit("/", a, b, kept=True)
        return 0.0 if self._is(a, 0.0) else self.emit("/", a, b)

    def compile(self, n: int, results, split: int):
        """Function of a list of n floats returning the values of the first
        split result terms, and the rest as a second tuple if any."""
        live = {t.name for t in results if isinstance(t, Traced)}
        live.update(name for name, (_, _, kept) in self.lines.items() if kept)
        for name in reversed(self.lines):
            if name in live:
                live.update(self.lines[name][1])
        inputs = [f"x{i}" for i in range(n)]
        body = [f"    {', '.join(inputs)}, = xs"]
        body += [f"    {name} = {code}" for name, (code, _, _) in self.lines.items()
                 if name in live]
        groups = [results[:split], results[split:]] if split < len(results) else [results]
        body.append("    return " + ", ".join(
            "(" + "".join(self.text(t) + ", " for t in group) + ")" for group in groups))
        namespace = {}
        exec(compile("def kernel(xs):\n" + "\n".join(body) + "\n", "<traced kernel>",
                     "exec"), namespace)
        return namespace["kernel"]


def _entries(field) -> tuple[tuple, Callable]:
    """Output shape of a vector or matrix field and a map from one output
    of its func to the flat, row-major list of scalars."""
    if isinstance(field, MatrixField):
        rows, cols = field.rows, field.cols
        return (rows, cols), lambda out: [out[i][j] for i in range(rows) for j in range(cols)]
    return (field.dim_out,), list


def _trace(field, n: int):
    """(values kernel, values-and-Jacobian kernel) of a field on n inputs.

    Both take a list of n floats; the first returns the tuple of values,
    the second that tuple and the tuple of Jacobian entries, row-major.
    """
    shape, flatten = _entries(field)
    tape = _Tape()
    outputs = flatten(field.func(seed_identity([Traced(tape, f"x{i}") for i in range(n)])))
    if len(outputs) != math.prod(shape):
        raise ValueError(f"field returned {len(outputs)} components, expected "
                         f"{math.prod(shape)}")
    values, rows = value_and_rows(outputs, n)
    derivs = [d for row in rows for d in row]
    return (tape.compile(n, values, len(values)),
            tape.compile(n, values + derivs, len(values)))


def _dual_point(field, xs):
    """Flat (values, Jacobian entries) of a field at a float point by duals."""
    if isinstance(field, MatrixField):
        values, grads = matrix_jacobian_scalars(field.func, xs, field.rows, field.cols)
        return ([v for row in values for v in row],
                [d for row in grads for entry in row for d in entry])
    values, rows = jacobian_scalars(field.func, xs, field.dim_out)
    return values, [d for row in rows for d in row]


def _kernels(field, n: int) -> tuple:
    """(func, n, shape, values kernel, full kernel) of a field on n inputs,
    traced at its first use and again whenever field.func has been
    replaced.  A func the tracer cannot run (a comparison, abs, a math
    function, a constant zero denominator, a wrong arity) keeps the dual
    path, which raises the error the field raises on duals."""
    cached = field._traced
    if cached is None or cached[0] is not field.func or cached[1] != n:
        try:
            kernels = _trace(field, n)
        except Exception:
            kernels = (lambda xs: _dual_point(field, xs)[0],
                       lambda xs: _dual_point(field, xs))
        cached = field._traced = (field.func, n, _entries(field)[0]) + kernels
    return cached


def _flat_values(field, xs) -> tuple:
    try:
        return _kernels(field, len(xs))[3](xs)
    except ZeroDivisionError:
        return _dual_point(field, xs)[0]  # raises the field's own error


def _flat_jacobian(field, xs) -> tuple:
    try:
        return _kernels(field, len(xs))[4](xs)
    except ZeroDivisionError:
        return _dual_point(field, xs)  # raises the field's own error


def point_values(field, xs) -> np.ndarray:
    """Values of a vector or matrix field at one point xs, a list of
    floats, from the field's traced kernel: shape (dim_out,) or (rows, cols)."""
    values = _flat_values(field, xs)
    return np.array(values, dtype=float).reshape(field._traced[2])


def point_jacobian(field, xs) -> tuple[np.ndarray, np.ndarray]:
    """Values and Jacobian of a vector or matrix field at one point xs, a
    list of floats, from the field's traced kernel.

    Shapes (dim_out,) and (dim_out, n), or (rows, cols) and (rows, cols, n).
    The floats are those of jacobian_scalars and matrix_jacobian_scalars.
    A kernel that divides by zero hands over to the dual path, so the
    error raised is the field's own (ExprEvalError for spec fields).
    """
    values, entries = _flat_jacobian(field, xs)
    shape = field._traced[2]
    return (np.array(values, dtype=float).reshape(shape),
            np.array(entries, dtype=float).reshape(shape + (len(xs),)))


def _flow_outputs(field: VectorField, zs, copies: int, width: int, sign: float) -> list:
    """Flat right-hand side of a state zs made of `copies` blocks (x, T),
    each sign * (field(x), Dfield(x) T) for an n x width tangent block T
    (row-major; width 0 leaves the values alone).  Df T comes from one
    dual pass per block whose duals carry T's rows, Dual(x_i, T_i), so no
    Jacobian is formed.  Generic over the scalars of zs."""
    n = field.dim_in
    block = n * (1 + width)
    out = []
    for start in range(0, copies * block, block):
        z = zs[start:start + block]
        outputs = field.func([Dual(z[i], tuple(z[n + i * width:n + (i + 1) * width]))
                              for i in range(n)])
        if len(outputs) != field.dim_out:
            raise ValueError(f"field returned {len(outputs)} components, expected "
                             f"{field.dim_out}")
        values, rows = value_and_rows(outputs, width)
        out += values + [d for row in rows for d in row]
    return [-v for v in out] if sign < 0 else out


def flow_kernel(field: VectorField, copies: int = 1, width: int = 0,
                sign: float = 1.0) -> Callable:
    """Straight-line code of _flow_outputs on a list of floats, traced
    once per (copies, width, sign) and again whenever field.func has been
    replaced; a func the tracer cannot run keeps the dual path."""
    key = (copies, width, sign < 0)
    cached = field._flows.get(key)
    if cached is None or cached[0] is not field.func:
        size = copies * field.dim_in * (1 + width)
        tape = _Tape()
        try:
            outputs = _flow_outputs(field, [Traced(tape, f"x{i}") for i in range(size)],
                                    copies, width, sign)
            kernel = tape.compile(size, outputs, len(outputs))
        except Exception:
            def kernel(zs):
                return _flow_outputs(field, zs, copies, width, sign)
        cached = field._flows[key] = (field.func, kernel)
    return cached[1]


def flow_values(field: VectorField, z: np.ndarray, copies: int = 1, width: int = 0,
                sign: float = 1.0) -> np.ndarray:
    """_flow_outputs at a state z, from one call of the field's flow kernel.

    z is one state, shape (dim,), run as a list of floats, or a (dim, B)
    batch, run on its length-B rows (one column per point), giving
    (dim, B) with constant outputs broadcast.  A kernel that divides by
    zero hands over to the dual path, so the error raised is the field's
    own; on arrays numpy's division by zero and invalid operations are
    raised for that (np.errstate), never left as inf or NaN.
    """
    kernel = flow_kernel(field, copies, width, sign)
    if z.ndim == 1:
        zs = z.tolist()
        try:
            return np.array(kernel(zs), dtype=float)
        except ZeroDivisionError:
            return np.array(_flow_outputs(field, zs, copies, width, sign), dtype=float)
    zs = list(z)
    try:
        with np.errstate(divide="raise", invalid="raise"):
            outputs = kernel(zs)
    except (FloatingPointError, ZeroDivisionError):
        outputs = _flow_outputs(field, zs, copies, width, sign)
    out = np.empty(z.shape)
    for row, value in zip(out, outputs):
        row[...] = value
    return out


def frozen_input_jacobian(system, xs, u=None):
    """frozen_input_jacobian_scalars at one point xs, a list of floats, from
    one call of the traced kernel of the affine field (x, u) -> f + g u.

    Returns the drift f + g u, its input-frozen state Jacobian and g, as
    arrays of shapes (n,), (n, n) and (n, m): the kernel's Jacobian is
    [A | g].  u defaults to the values of k's kernel; given the same u, the
    floats are those of the scalar form.
    """
    if u is None:
        if system.k is None:
            raise ValueError("system has no feedback law k")
        u = _flat_values(system.k, xs)
    drift, jac = point_jacobian(system.affine_field(), xs + list(u))
    return drift, jac[:, :system.n], jac[:, system.n:]


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


def affine_scalars(system, xs, u):
    """f(x) + g(x) u, generic over scalars."""
    f_vals = system.f(xs)
    g_vals = system.g(xs)
    return [f_vals[i] + sum(g_vals[i][j] * u[j] for j in range(system.m))
            for i in range(system.n)]


def closed_loop_scalars(system, xs):
    """f(x) + g(x) k(x), generic over scalars."""
    if system.k is None:
        raise ValueError("system has no feedback law k")
    return affine_scalars(system, xs, system.k(xs))


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
