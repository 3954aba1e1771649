"""Forward-mode differentiation and Lie operations on vector fields.

Dual numbers carry a tuple of tangent components, one per seeded
direction, so a single evaluation yields a full Jacobian row.  Tangent
entries may themselves be duals, which is how second derivatives (Lie
derivative gradients, iterated brackets) are obtained without symbolic
manipulation.

Numeric evaluation runs the same arithmetic through traced kernels: a
field's func is run once on duals whose entries are Traced terms, every
float operation on a term becomes one line of straight-line Python, and
the compiled lines return the values (field_values) or the values and
Jacobian entries (jacobian) of the field (Griewank & Walther, Evaluating
Derivatives, 2nd ed., SIAM 2008).  A flow's right-hand side is traced
the same way (flow_rhs): duals seeded with the rows of a tangent
block T give Df T by the chain rule, with no Jacobian formed, and a
flow kernel is compiled with two entries that loop over the
Runge-Kutta stages of a step, of one state (rhs.stages) or of a batch
(rhs.batch_stages, one numpy call per line into preallocated rows),
forming the stage inputs the lines read and running the same lines on
them, and say whether they ran them: a step they
cannot run is run by the solver's own stage loop, one call of rhs per
stage, which is where a kernel hands over to duals (_run).  The kernels are
straight-line code, so they run unchanged on a list of floats (one
point) or of length-N arrays (the columns of a stack of points, or the
rows of a batch of states).
Duals stay for tracing, for funcs the tracer cannot run, and for nested
derivatives: brackets, Lie derivatives and ranks.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import struct
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

_NUMBER = numbers.Real

# the numpy function of each binary tape operation, and a batch entry's locals
_UFUNCS = {"+": "add", "-": "subtract", "*": "multiply", "/": "divide"}
_BATCH_UFUNCS = (np.add, np.subtract, np.multiply, np.divide, np.negative)


def _primal(s):
    while type(s) is Dual:
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
    """Number with attached tangent components.

    Each operation tests its operand's exact type before the numbers.Real
    check, which is slow and which sum() reaches through its int start, and
    builds tangents with map or a list comprehension; the expressions and
    their operand order are fixed, so every float, and every sign of zero,
    is that of the plain isinstance-and-generator form (tests/oracles.py).
    """

    __slots__ = ("value", "derivs")

    def __init__(self, value, derivs: tuple):
        self.value = value
        self.derivs = derivs

    def __repr__(self):
        return f"Dual({self.value!r}, {self.derivs!r})"

    def __add__(self, other):
        if type(other) is Dual:
            return Dual(self.value + other.value,
                        tuple(map(operator.add, self.derivs, other.derivs)))
        if type(other) is float or type(other) is int or isinstance(other, _NUMBER):
            return Dual(self.value + other, self.derivs)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is Dual:
            return Dual(self.value - other.value,
                        tuple(map(operator.sub, self.derivs, other.derivs)))
        if type(other) is float or type(other) is int or isinstance(other, _NUMBER):
            return Dual(self.value - other, self.derivs)
        return NotImplemented

    def __rsub__(self, other):
        if type(other) is float or type(other) is int or isinstance(other, _NUMBER):
            return Dual(other - self.value, tuple(map(operator.neg, self.derivs)))
        return NotImplemented

    def __neg__(self):
        return Dual(-self.value, tuple(map(operator.neg, self.derivs)))

    def __pos__(self):
        return self

    def __mul__(self, other):
        if type(other) is Dual:
            sv, ov = self.value, other.value
            return Dual(sv * ov,
                        tuple([a * ov + sv * b for a, b in zip(self.derivs, other.derivs)]))
        if type(other) is float or type(other) is int or isinstance(other, _NUMBER):
            return Dual(self.value * other, tuple([a * other for a in self.derivs]))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is Dual:
            if _is_zero(other):
                raise ZeroDivisionError("dual division by zero")
            ov = other.value
            q = self.value / ov
            return Dual(q, tuple([(a - q * b) / ov for a, b in zip(self.derivs, other.derivs)]))
        if type(other) is float or type(other) is int or isinstance(other, _NUMBER):
            if other == 0:
                raise ZeroDivisionError("dual division by zero")
            return Dual(self.value / other, tuple([a / other for a in self.derivs]))
        return NotImplemented

    def __rtruediv__(self, other):
        if type(other) is float or type(other) is int or isinstance(other, _NUMBER):
            if _is_zero(self):
                raise ZeroDivisionError("dual division by zero")
            sv = self.value
            q = other / sv
            return Dual(q, tuple([-q * b / sv for b in self.derivs]))
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


@functools.cache
def _identity_frame(n: int) -> tuple:
    """The n tangent tuples of the identity frame, shared by every seeding."""
    return tuple(tuple(1.0 if j == i else 0.0 for j in range(n)) for i in range(n))


def seed_identity(xs: Sequence) -> list[Dual]:
    """Wrap a point in duals carrying the identity tangent frame."""
    return [Dual(x, e) for x, e in zip(xs, _identity_frame(len(xs)))]


def split_scalar(s, width: int):
    """Split an evaluation result into (value, tangent list).

    Plain numbers are constants: their tangent row is zero.
    """
    if type(s) is Dual:
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
    # kernel key -> (func, compiled kernel), shared by copy.copy; see _kernel
    _kernels: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __call__(self, xs):
        return self.func(xs)

    @classmethod
    def from_exprs(cls, asts, dim_in: int) -> "VectorField":
        names = [f"x{i + 1}" for i in range(dim_in)]

        def func(xs):
            env = dict(zip(names, xs))
            return [ast.evaluate(env) for ast in asts]

        return cls(dim_in, len(asts), func)


@dataclass
class MatrixField:
    """Matrix-valued map on state space whose func takes dual scalars.

    A matrix field evaluated only on floats (an empirical Gramian at a
    point, say) is any callable returning a matrix, not a MatrixField.
    """

    rows: int
    cols: int
    func: Callable[[Sequence], Sequence]
    # kernel key -> (func, compiled kernel), shared by copy.copy; see _kernel
    _kernels: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __call__(self, xs):
        return self.func(xs)

    @classmethod
    def constant(cls, matrix) -> "MatrixField":
        mat = [list(map(float, row)) for row in np.atleast_2d(np.asarray(matrix, dtype=float))]
        r, c = len(mat), len(mat[0])
        return cls(r, c, lambda xs: mat)

    @classmethod
    def from_exprs(cls, grid, dim_in: int) -> "MatrixField":
        names = [f"x{i + 1}" for i in range(dim_in)]
        r, c = len(grid), len(grid[0])

        def func(xs):
            env = dict(zip(names, xs))
            return [[ast.evaluate(env) for ast in row] for row in grid]

        return cls(r, c, func)

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
    term), products with 1.0 return the other factor, equal lines are
    emitted once, a commutative + or * is recorded once whatever its
    operand order (b * a is the line a * b), and a negation folds into a
    constant divisor (-a / c is a / -c); these folds change at most the
    sign of a zero or of a NaN.  The first division by each Traced
    denominator is kept even when unused, so a zero denominator raises
    where the dual path raises.
    """

    def __init__(self):
        self.lines: dict[str, list] = {}  # name -> [code, operand names, kept]
        self.calls: dict[str, tuple] = {}  # name -> (numpy ufunc, operand texts)
        self.names: dict[str, Traced] = {}  # code -> term
        self.guarded: set[str] = set()  # denominators with a kept division
        self.negated: dict[str, Traced] = {}  # name of a line -a -> a

    @staticmethod
    def text(a) -> str:
        if isinstance(a, Traced):
            return a.name
        a = _constant(a)
        if not math.isfinite(a):
            raise ValueError(f"cannot trace the constant {a!r}")
        return f"({a!r})" if math.copysign(1.0, a) < 0 else repr(a)

    def emit(self, op: str, a, b=None, kept: bool = False) -> Traced:
        texts = (self.text(a),) if b is None else (self.text(a), self.text(b))
        code = f"{op}{texts[0]}" if b is None else f"{texts[0]} {op} {texts[1]}"
        term = self.names.get(code)
        if term is None and op in "+*" and b is not None:  # commutative: b op a
            term = self.names.get(f"{texts[1]} {op} {texts[0]}")
        if term is None:
            term = self.names[code] = Traced(self, f"t{len(self.lines)}")
            operands = tuple(t.name for t in (a, b) if isinstance(t, Traced))
            self.lines[term.name] = [code, operands, kept]
            self.calls[term.name] = "negative" if b is None else _UFUNCS[op], texts
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
        term = self.emit("-", a)
        self.negated[term.name] = a
        return term

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
            if isinstance(a, Traced) and a.name in self.negated:  # -x / c is x / -c
                return self.div(self.negated[a.name], -_constant(b))
            return a if self._is(b, 1.0) else self.emit("/", a, b)
        if b.name not in self.guarded:
            self.guarded.add(b.name)
            return self.emit("/", a, b, kept=True)
        return 0.0 if self._is(a, 0.0) else self.emit("/", a, b)

    def live(self, results) -> set[str]:
        """The names of the inputs (x0, x1, ...) and lines that the result
        terms read, directly or through other lines, and of the kept
        divisions and what they read."""
        live = {t.name for t in results if isinstance(t, Traced)}
        live.update(name for name, (_, _, kept) in self.lines.items() if kept)
        for name in reversed(self.lines):
            if name in live:
                live.update(self.lines[name][1])
        return live

    def compile(self, n: int, results, stages: bool = False):
        """Function of a list of n floats returning the tuple of the values
        of the result terms.

        With stages (flow kernels), one source defines it and two more
        entries of the same lines, compiled with it, so a kernel is never
        modified after it is traced.  kernel.stages(ys, K, plan, h) runs
        the Runge-Kutta stages of one step in one call, on a list ys of n
        floats and a float h: for each (s, rows, a) of plan in turn it
        takes d = rows . a by numpy's dot, as a list of floats, forms the
        stage inputs x_i = y_i + d_i * h that the lines read (a flow never
        reads its cost block), on Python floats, by the IEEE operations
        numpy applies to y + d * h entry by entry, and writes the values
        to the row K[s], which a later stage's rows may read, by a
        precompiled struct.Struct(f"{m}d").pack_into at the row's byte
        offset in K's buffer (m outputs), bound as a local of the entry,
        not by K[s] = (...), which goes through numpy's sequence
        conversion.  K must be C-contiguous float64 (pack_into raises
        TypeError on any other K, before it writes a row).  So K[s] holds
        the floats of kernel(list(y + rows.dot(a) * h)).  A division by
        zero raises ZeroDivisionError.

        kernel.batch_stages(y, K, plan, h, batch) runs the stages of one
        step of a batch, y the flattened (n, batch) state: each stage state
        is y + rows.dot(a) * h, as numpy forms it, taken only up to the
        last input the lines read, and its rows of batch points are the
        kernel's inputs, so K[s] holds the floats of
        kernel(list((y + rows.dot(a) * h).reshape(n, batch))), each
        constant output broadcast to its row.  It allocates no array per
        line: rows.dot(a, d) fills the first n rows of its workspace
        (_Workspace), flat, whose first `read` rows are multiplied by h
        and added to y's in place, and each line, kept divisions
        included, is one call of np.add, subtract, multiply, divide or
        negative, bound as locals of the entry, with a positional out row:
        the line's first row of K[s].reshape(m, batch), written in place,
        or else a workspace row.  Each constant operand is a workspace row
        filled once, keyed by its text, so that 0.0 and -0.0 stay apart.
        A repeated output, an input passed through and a constant output
        are then copied or filled into their rows.  The workspace is one
        array of the kernel's, reallocated only when the batch size
        changes, so it holds (n + lines kept out of K + constants) rows of
        at most integrate.MAX_BATCH points; two threads must not step one
        kernel at once.  flow_rhs runs both entries and reports a step
        they cannot run."""
        live = self.live(results)
        lines = [name for name in self.lines if name in live]
        body = [f"    {name} = {self.lines[name][0]}" for name in lines]
        texts = [self.text(t) for t in results]
        values = "(" + "".join(text + ", " for text in texts) + ")"
        source = ["def kernel(xs):", f"    {''.join(f'x{i}, ' for i in range(n))}= xs",
                  *body, f"    return {values}"]
        if not stages:
            return _compiled("\n".join(source), "kernel")[0]
        inputs = [i for i in range(n) if f"x{i}" in live]
        # up to the last input read, and at least one, which keeps every
        # unpacking below a valid statement
        read = inputs[-1] + 1 if inputs else 1

        def unpack(letter):  # the first `read` entries, the unread ones to _
            return "".join(f"{letter}{i}, " if i in inputs else "_, " for i in range(read))

        prefix = "" if read == n else f"[:{read}]"
        source += ["def stages(ys, K, plan, h):",
                   "    put = pack",
                   f"    {unpack('y')}= ys{prefix}",
                   "    for s, rows, a in plan:",
                   f"        {unpack('d')}= rows.dot(a){prefix}.tolist()",
                   *(f"        x{i} = y{i} + d{i} * h" for i in inputs),
                   *("    " + line for line in body),
                   f"        put(K, s * {8 * len(results)}, {', '.join(texts)})"]
        # the batch entry's rows: the stage state, the lines not written
        # into K (each line goes to the first K row that outputs it), and
        # the constant operands, one row each
        first = {}
        for i, text in enumerate(texts):
            if text in self.lines:
                first.setdefault(text, i)
        constants = {text: f"c{j}" for j, text in enumerate(dict.fromkeys(
            text for name in lines for text in self.calls[name][1]
            if text not in self.lines[name][1]))}
        slots = [f"x{i}" if i in inputs else "_" for i in range(n)]
        slots += [name for name in lines if name not in first] + list(constants.values())
        calls = []
        for name in lines:
            ufunc, operands = self.calls[name]
            args = ", ".join(constants.get(text, text) for text in operands)
            calls.append(f"        {name} = {ufunc}({args}, k[{first[name]}])" if name in first
                         else f"        {ufunc}({args}, {name})")
        source += ["def batch_stages(y, K, plan, h, batch):",
                   "    add, subtract, multiply, divide, negative = UFUNCS",
                   f"    d, head, {''.join(slot + ', ' for slot in slots)}= workspace(batch)",
                   *([] if read == n else [f"    y = y[:{read} * batch]"]),
                   "    for s, rows, a in plan:",
                   "        rows.dot(a, d)",
                   "        multiply(head, h, head)",
                   "        add(y, head, head)",
                   f"        k = K[s].reshape({len(results)}, batch)",
                   *calls,
                   *(f"        k[{i}] = {text}" for i, text in enumerate(texts)
                     if first.get(text) != i)]
        fills = [(len(slots) - len(constants) + j, float(text.strip("()")))
                 for j, text in enumerate(constants)]
        kernel, kernel.stages, kernel.batch_stages = _compiled(
            "\n".join(source), "kernel", "stages", "batch_stages",
            pack=struct.Struct(f"{len(results)}d").pack_into, UFUNCS=_BATCH_UFUNCS,
            workspace=_Workspace(n, read, len(slots), fills))
        return kernel


class _Workspace:
    """The rows a flow kernel's batch entry writes (_Tape.compile), as one
    (height, batch) array: the stage state d (its first n rows, which
    rows.dot fills, flat, and whose first `read` rows become the inputs),
    then the rows of the lines and constants.  workspace(batch) returns d
    and those first rows (flat), then each row; the array is made, and
    its constant rows filled, only when the batch size changes, so one
    workspace holds one array."""

    __slots__ = ("n", "read", "height", "fills", "batch", "rows")

    def __init__(self, n: int, read: int, height: int, fills: list):
        self.n, self.read, self.height, self.fills = n, read, height, fills
        self.batch, self.rows = None, ()

    def __call__(self, batch: int) -> tuple:
        if batch != self.batch:
            array = np.empty((self.height, batch))
            for row, value in self.fills:
                array[row] = value
            self.batch = batch
            self.rows = (array[:self.n].reshape(-1), array[:self.read].reshape(-1), *array)
        return self.rows


def _compiled(source: str, *names: str, **names_in_scope) -> list:
    """The functions of those names that source defines, with names_in_scope
    as globals, taken out of the namespace they run in, their __globals__:
    left there, each would keep itself alive, so only the cyclic collector
    could free it."""
    namespace = dict(names_in_scope)
    exec(compile(source + "\n", "<traced kernel>", "exec"), namespace)
    return [namespace.pop(name) for name in names]


def _shape(field) -> tuple:
    """Output shape of a vector or matrix field."""
    return (field.rows, field.cols) if isinstance(field, MatrixField) else (field.dim_out,)


def _evaluated(field, duals: list, width: int) -> list:
    """Values of field.func on duals carrying width tangent entries each,
    then their tangent rows, as one flat, row-major list."""
    out = field.func(duals)
    if isinstance(field, MatrixField):
        out = [entry for row in out for entry in row]
    size = math.prod(_shape(field))
    if len(out) != size:
        raise ValueError(f"field returned {len(out)} components, expected {size}")
    values, rows = value_and_rows(out, width)
    return values + [d for row in rows for d in row]


def _outputs(field, key: tuple, xs) -> list:
    """What a field's kernel for key computes on the inputs xs, by duals;
    generic over the scalars of xs.

    ("values", n): the field's values at x.  ("jacobian", n): its values,
    then its Jacobian entries, one row of n per value.  ("flow", copies,
    width, reversed, outputs): a state of `copies` blocks (x, T), each
    giving (f(x), Df(x) T) for an n x width tangent block T (row-major;
    width 0 leaves the values alone), negated if reversed.  Df T comes
    from one dual pass per block whose duals carry T's rows,
    Dual(x_i, T_i), so no Jacobian is formed.  With outputs = p > 0 the
    field's last p components are an output o, not part of the flow, and
    the state ends in a cost block: the w x w matrix M^T M (row-major,
    w = max(width, 1)), never negated, where M is the p x w matrix
    Do(x) T of one copy (o(x) when width is 0), or the second copy's less
    the first's for two copies (o(x2) - o(x1) when width is 0).
    """
    kind = key[0]
    if kind == "values":
        return _evaluated(field, [Dual(x, ()) for x in xs], 0)
    if kind == "jacobian":
        return _evaluated(field, seed_identity(xs), len(xs))
    _, copies, width, reverse, outputs = key
    n = field.dim_in
    size = n + outputs  # the field's components
    block = n * (1 + width)
    flow, gaps = [], []
    for start in range(0, copies * block, block):
        z = xs[start:start + block]
        out = _evaluated(field, [Dual(z[i], tuple(z[n + i * width:n + (i + 1) * width]))
                                 for i in range(n)], width)
        flow += out[:n] + out[size:size + n * width]
        gaps.append(out[size + n * width:] if width else out[n:size])
    if reverse:
        flow = [-v for v in flow]
    if not outputs:
        return flow
    m = gaps[0] if copies == 1 else [b - a for a, b in zip(gaps[0], gaps[-1])]
    w = max(width, 1)
    cost = {(i, j): sum(m[k * w + i] * m[k * w + j] for k in range(outputs))
            for i in range(w) for j in range(i, w)}
    return flow + [cost[min(i, j), max(i, j)] for i in range(w) for j in range(w)]


def _kernel(field, key: tuple, size: int) -> Callable | None:
    """Straight-line code of _outputs(field, key, xs) on size inputs, traced
    at the key's first use and again whenever field.func has been
    replaced.  A copy.copy of the field (systems.registry makes them)
    shares its cache, each entry kept for the func it was traced for.  A
    func the tracer cannot run (a comparison, abs, a math function, a
    constant zero denominator, a wrong arity) keeps the dual path, which
    raises the error the field raises on duals: its kernel is None, which
    _run evaluates by _outputs, so that nothing the field holds refers
    back to it.  A traced flow kernel comes with its two entries over a
    step's stages, kernel.stages and kernel.batch_stages, compiled with
    it from one source (_Tape.compile); the dual path has neither, so the
    solver runs its steps stage by stage (flow_rhs)."""
    cached = field._kernels.get(key)
    if cached is None or cached[0] is not field.func:
        tape = _Tape()
        stages = key[0] == "flow"
        try:
            kernel = tape.compile(size, _outputs(field, key, [Traced(tape, f"x{i}")
                                                              for i in range(size)]), stages)
        except Exception:
            kernel = None
        cached = field._kernels[key] = (field.func, kernel)
    return cached[1]


def _run(kernel, field, key: tuple, xs, batch: int | None = None) -> np.ndarray:
    """kernel, the field's kernel for key (_kernel), on xs: a list of
    floats, giving a 1-D array, or for batch = B a list of length-B arrays
    (one entry per point), giving one row of B per output, constant
    outputs broadcast.

    A kernel that divides by zero hands over to the dual path, so the
    error raised is the field's own (ExprEvalError for spec fields); on
    arrays numpy's division by zero and invalid operations are raised for
    that (np.errstate), never left as inf or NaN.  This is the one such
    hand-over: a step that a flow kernel's loop or batch entry cannot run
    comes here through the solver's stage loop, one call of rhs per stage.
    A None kernel is the dual path itself.
    """
    if kernel is None:
        outputs = _outputs(field, key, xs)
    elif batch is None:
        try:
            outputs = kernel(xs)
        except ZeroDivisionError:
            outputs = _outputs(field, key, xs)
    else:
        try:
            with np.errstate(divide="raise", invalid="raise"):
                outputs = kernel(xs)
        except (FloatingPointError, ZeroDivisionError):
            outputs = _outputs(field, key, xs)
    if batch is None:
        return np.array(outputs, dtype=float)
    out = np.empty((len(outputs), batch))
    for row, value in zip(out, outputs):
        row[...] = value
    return out


def _evaluate(field, kind: str, x) -> tuple:
    """(values, Jacobian) of a field at x from one call of its kernel of
    kind "jacobian", or (values, None) for kind "values"; x is one point
    (n,) or an (N, n) stack, run on its columns."""
    shape = _shape(field)
    size = math.prod(shape)
    if isinstance(x, np.ndarray) and x.ndim == 2:
        lead, n = x.shape[:1], x.shape[1]
        columns = list(np.ascontiguousarray(np.asarray(x, dtype=float).T))
        out = _run(_kernel(field, (kind, n), n), field, (kind, n), columns, len(x)).T
    else:
        xs = [float(v) for v in x]
        lead, n = (), len(xs)
        out = _run(_kernel(field, (kind, n), n), field, (kind, n), xs)
    values = np.ascontiguousarray(out[..., :size]).reshape(lead + shape)
    if kind == "values":
        return values, None
    return values, np.ascontiguousarray(out[..., size:]).reshape(lead + shape + (n,))


def field_values(field, x) -> np.ndarray:
    """Values of a vector or matrix field at a point x, shape (dim_out,)
    or (rows, cols), or at each row of an (N, n) stack, with N leading."""
    return _evaluate(field, "values", x)[0]


def jacobian(field, x) -> np.ndarray:
    """Jacobian of a vector or matrix field at a point x, shape
    (dim_out, n) or (rows, cols, n), or at each row of an (N, n) stack,
    with N leading.  The floats are those of jacobian_scalars and
    matrix_jacobian_scalars."""
    return _evaluate(field, "jacobian", x)[1]


def flow_rhs(field: VectorField, copies: int = 1, width: int = 0,
             sign: float = 1.0, outputs: int = 0) -> Callable:
    """rhs(t, z) of a state z made of `copies` blocks (x, T), each
    sign * (field(x), Dfield(x) T) for an n x width tangent block T, from
    one call of the field's flow kernel (see _outputs).  z is one state,
    shape (dim,), or a (dim, B) batch, one column per point, giving
    (dim, B).  The kernel is looked up at the first call, and again
    after field.func is replaced.

    With outputs = p > 0 the field has n + p components, the last p an
    output o, and z ends in a cost block C of w * w entries, w =
    max(width, 1), with C' = M^T M: M = Do(x) T for one copy with a
    tangent block, M = o(x2) - o(x1) for two copies.  C is accumulated
    as it stands in reversed time (sign < 0 negates the flow only), so
    integrating the flow to time t gives C(t), the integral of M^T M
    over [0, t].

    rhs.stages(y, K, plan, h) runs the Runge-Kutta stages of one step
    from one state y (dim,) in one call of the kernel's loop entry
    (_Tape.compile): for each (s, rows, a) of plan in turn, K[s] =
    rhs(t, y + rows.dot(a) * h), with those floats, where K is the
    step's C-contiguous stage array (any other K raises TypeError) and
    rows may read rows of K that earlier stages wrote (dop853._DOP853
    steps a one-state flow by it, once per trial step).
    rhs.batch_stages(y, K, plan, h) does the same for a batch, y the
    flattened (dim, B) state, in one call of the kernel's batch entry
    under one np.errstate for the step, with the floats of rhs on y +
    rows.dot(a) * h reshaped to (dim, B): one numpy call per tape line,
    into rows of a workspace the kernel keeps for its last batch size,
    or straight into K's rows (_Tape.compile).  Each returns True when it
    ran all the stages, and False when a stage divides by zero (or, in a
    batch, makes an invalid operation) or the kernel is on the dual path:
    the solver then runs the step by calls of rhs, which raises the
    field's own error; a batch step stopped partway leaves some of K's
    rows written, and the solver's stage loop rewrites every one.

    rhs.kernel is (field, key): two right-hand sides whose fields have the
    same func, and with the same key, compute the same floats on a state
    (its size fixes n), and a func replaced on the field is another
    computation (integrate.shared_flows keys solves on field.func and
    key, read when a solve starts).
    rhs.cost is the size of the cost block, 0 without outputs."""
    key = ("flow", copies, width, sign < 0, outputs)
    n = field.dim_in
    cost = max(width, 1) ** 2 if outputs else 0
    size = copies * n * (1 + width) + cost
    resolved = [None, None]  # the func the kernel was looked up for, the kernel

    def resolve():
        if resolved[0] is not field.func:
            resolved[:] = field.func, _kernel(field, key, size)
        return resolved[1]

    def rhs(t, z):
        if z.ndim == 1:
            return _run(resolve(), field, key, z.tolist())
        return _run(resolve(), field, key, list(z), z.shape[1])

    def stages(y, K, plan, h):
        entry = getattr(resolve(), "stages", None)
        if entry is None:
            return False
        try:
            entry(y.tolist(), K, plan, h)
        except ZeroDivisionError:
            return False
        return True

    def batch_stages(y, K, plan, h):
        entry = getattr(resolve(), "batch_stages", None)
        if entry is None:
            return False
        try:
            with np.errstate(divide="raise", invalid="raise"):
                entry(y, K, plan, h, len(y) // size)
        except (FloatingPointError, ZeroDivisionError):
            return False
        return True

    rhs.stages = stages
    rhs.batch_stages = batch_stages
    rhs.kernel = field, key
    rhs.cost = cost
    return rhs


def frozen_input_jacobian(system, xs):
    """frozen_input_jacobian_scalars at one point xs, a list of floats, and
    u = k(x), from one call of the traced kernel of (x, u) -> f + g u.

    Returns the drift f + g u, its input-frozen state Jacobian and g, as
    arrays of shapes (n,), (n, n) and (n, m): the kernel's Jacobian is
    [A | g].  u is the values of k's kernel; given the same u, the floats
    are those of the scalar form.
    """
    drift, jac = _evaluate(system.affine_field(), "jacobian",
                           list(xs) + list(system.feedback(xs)))
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


def ad_standard_field(f: VectorField, V: VectorField) -> VectorField:
    return VectorField(f.dim_in, f.dim_in,
                       lambda xs: ad_standard_scalars(f.func, V.func, xs, f.dim_in))


def lie_scalar(f_func, h_func, xs, n):
    """Directional derivative of the scalar h along f, generic scalars."""
    _, rows = jacobian_scalars(lambda ys: [h_func(ys)], xs, 1)
    f_vals = f_func(xs)
    return sum(rows[0][l] * f_vals[l] for l in range(n))


def matrix_at(field, x) -> np.ndarray:
    """The matrix of a field at the point x: by field_values for a
    MatrixField, by a call on floats for a pointwise field
    (gramian.EmpiricalGramianField, or any callable returning a matrix)."""
    if isinstance(field, MatrixField):
        return field_values(field, x)
    return np.atleast_2d(np.asarray(field([float(v) for v in x]), dtype=float))
