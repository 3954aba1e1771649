"""Control-affine system models and their augmented dynamics.

A SystemModel bundles the fields of dx/dt = f(x) + g(x) u, y = h(x),
optionally a feedback law u = k(x) and certificate matrix fields.  The
constructors below assemble the composite systems the energy and
verification layers simulate: variational (prolonged) dynamics, two
trajectory copies, and the reversed-time dual systems whose output is
read through g(x)^T.

Built-in registry entries:

  paper_sec5    planar polynomial system with feedback and unit certificates
  linear_scalar dx/dt = -x + u, y = x, k = 2x
  linear_2x2    controllable/observable companion pair with stabilizing data
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from vargram.calculus import (
    MatrixField,
    VectorField,
    affine_scalars,
    closed_loop_scalars,
    field_values,
    flow_rhs,
    frozen_input_jacobian,
    jacobian,
)
from vargram.expr import SystemSpec
from vargram.integrate import variational_rhs


@dataclass
class SystemModel:
    """Control-affine system with optional feedback and certificates."""

    name: str
    n: int
    m: int
    p: int
    f: VectorField
    g: MatrixField
    h: VectorField
    k: VectorField | None = None
    certificates: dict[str, MatrixField] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    # name -> (component funcs, field) of the last closed_loop_field or
    # affine_field call
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def require_k(self) -> VectorField:
        if self.k is None:
            raise ValueError(f"system {self.name!r} has no feedback law k")
        return self.k

    def _derived_field(self, name: str, funcs: tuple, build) -> VectorField:
        """The field build() makes, built once per model so that its traced
        kernel is reused; built anew only if one of funcs has changed
        (functions compare equal only to themselves)."""
        cached = self._derived.get(name)
        if cached is None or cached[0] != funcs:
            cached = self._derived[name] = (funcs, build())
        return cached[1]

    def closed_loop_field(self) -> VectorField:
        """The field f + g k on n inputs, rebuilt when f, g or k changes."""
        return self._derived_field(
            "closed_loop", (self.f.func, self.g.func, self.require_k().func),
            lambda: VectorField(self.n, self.n, lambda xs: closed_loop_scalars(self, xs)))

    def affine_field(self) -> VectorField:
        """The field (x, u) -> f(x) + g(x) u on n + m inputs, rebuilt when f
        or g changes; its Jacobian is [A | g], A the input-frozen one."""
        n = self.n
        return self._derived_field(
            "affine", (self.f.func, self.g.func),
            lambda: VectorField(n + self.m, n,
                                lambda zs: affine_scalars(self, zs[:n], zs[n:])))

    def output(self, x) -> np.ndarray:
        """h at a point, or at each row of an (N, n) stack."""
        return field_values(self.h, x)

    def feedback(self, x) -> np.ndarray:
        """k at a point, or at each row of an (N, n) stack."""
        return field_values(self.require_k(), x)


@dataclass
class AugmentedField:
    """Composite dynamics with named state blocks and derived outputs.

    rhs takes one state.  The rhs of prolong, closed_loop_prolonged and
    two_copy also takes a (dim, B) batch, one column per point, and
    returns (dim, B); their outputs take one state (dim,) or a stack of
    states (N, dim), giving (p,) or (N, p).  The other builders' rhs and
    outputs take one state; integrate_ivp calls such an rhs one state at
    a time.
    """

    dim: int
    rhs: Callable[[float, np.ndarray], np.ndarray]
    layout: dict[str, slice]
    outputs: dict[str, Callable[[np.ndarray], np.ndarray]] = field(default_factory=dict)

    def block(self, z: np.ndarray, name: str) -> np.ndarray:
        return np.asarray(z)[self.layout[name]]

    def pack(self, **blocks) -> np.ndarray:
        """One state (dim,) from its blocks, or a (B, dim) stack when a
        block is a (B, size) stack; the other blocks broadcast to it."""
        arrays = {name: np.asarray(value, dtype=float) for name, value in blocks.items()}
        lead = np.broadcast_shapes(*(a.shape[:-1] for a in arrays.values()))
        z = np.zeros(lead + (self.dim,))
        for name, value in arrays.items():
            z[..., self.layout[name]] = value
        return z


def _apply(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """mat @ vec at one point, or row by row over (N, r, n) and (N, n) stacks."""
    return (mat @ vec[..., None])[..., 0]


def prolong(system: SystemModel) -> AugmentedField:
    """Variational dynamics under zero input: state (x, dx).

    dx follows the state Jacobian of f.  Outputs: y = h(x) and
    dy = (dh/dx) dx.
    """
    n = system.n

    def out_y(z):
        return system.output(z[..., :n])

    def out_dy(z):
        return _apply(jacobian(system.h, z[..., :n]), z[..., n:])

    return AugmentedField(
        dim=2 * n,
        rhs=variational_rhs(system.f, 1),
        layout={"x": slice(0, n), "dx": slice(n, 2 * n)},
        outputs={"y": out_y, "dy": out_dy},
    )


def closed_loop_prolonged(system: SystemModel, sign: float = 1.0) -> AugmentedField:
    """Variational dynamics of the feedback-closed drift f + g k.

    The variational block uses the full state Jacobian of the closed
    loop, including the derivative of k.  Output dk = (dk/dx) dx is the
    integrand of the feedback controllability energy.  sign = -1 runs
    the flow in reversed time.
    """
    n = system.n

    def out_dk(z):
        return _apply(jacobian(system.require_k(), z[..., :n]), z[..., n:])

    def out_dy(z):
        return _apply(jacobian(system.h, z[..., :n]), z[..., n:])

    return AugmentedField(
        dim=2 * n,
        rhs=variational_rhs(system.closed_loop_field(), 1, sign),
        layout={"x": slice(0, n), "dx": slice(n, 2 * n)},
        outputs={"dk": out_dk, "dy": out_dy},
    )


def two_copy(system: SystemModel, field: VectorField | None = None,
             sign: float = 1.0) -> AugmentedField:
    """Two copies (x, x2) of one flow: field, by default the zero-input f.

    The rhs sign * (field(x), field(x2)) is one call of a kernel traced on
    both copies (calculus.flow_rhs); sign = -1 runs it in reversed
    time.  Outputs report the copy gaps: output_gap = h(x2) - h(x) and,
    when a feedback law exists, feedback_gap = k(x2) - k(x).
    """
    n = system.n
    field = system.f if field is None else field

    outputs = {
        "output_gap": lambda z: system.output(z[..., n:]) - system.output(z[..., :n]),
    }
    if system.k is not None:
        outputs["feedback_gap"] = (lambda z: system.feedback(z[..., n:])
                                   - system.feedback(z[..., :n]))

    return AugmentedField(
        dim=2 * n,
        rhs=flow_rhs(field, copies=2, sign=sign),
        layout={"x": slice(0, n), "x2": slice(n, 2 * n)},
        outputs=outputs,
    )


def _dual(system: SystemModel, u) -> AugmentedField:
    """Reversed drift f + g u with the transposed input-frozen Jacobian, u
    frozen at k(x) when None: state (x, dp), output dz = g(x)^T dp."""
    n = system.n

    def rhs(t, z):
        drift, frozen, _ = frozen_input_jacobian(system, z[:n].tolist(), u)
        return np.concatenate([-drift, frozen.T @ z[n:]])

    def out_dz(z):
        return field_values(system.g, z[:n]).T @ z[n:]

    return AugmentedField(
        dim=2 * n,
        rhs=rhs,
        layout={"x": slice(0, n), "dp": slice(n, 2 * n)},
        outputs={"dz": out_dz},
    )


def dual_closed_loop(system: SystemModel) -> AugmentedField:
    """Reversed closed-loop drift with the transposed frozen-input Jacobian.

    State (x, dp): dx/dt = -(f + g k), ddp/dt = (d(f+gu)/dx|_{u=k})^T dp,
    output dz = g(x)^T dp.
    """
    system.require_k()
    return _dual(system, None)


def adjoint_pair(system: SystemModel) -> AugmentedField:
    """Dual state and variational state propagated together in reversed time.

    State (x, dp, dx): dx/dt = -(f + g k), ddp/dt = A^T dp, ddx/dt = -A dx,
    where A is the frozen-input Jacobian along x.  The output "pairing" is
    <dp, dx>, which is conserved along trajectories; its drift measures the
    consistency of the transposed and untransposed variational flows.
    """
    n = system.n
    system.require_k()

    def rhs(t, z):
        drift, a_mat, _ = frozen_input_jacobian(system, z[:n].tolist())
        return np.concatenate([-drift, a_mat.T @ z[n : 2 * n], -(a_mat @ z[2 * n :])])

    return AugmentedField(
        dim=3 * n,
        rhs=rhs,
        layout={"x": slice(0, n), "dp": slice(n, 2 * n), "dx": slice(2 * n, 3 * n)},
        outputs={"pairing": lambda z: np.array([float(np.dot(z[n : 2 * n], z[2 * n :]))])},
    )


def dual_open(system: SystemModel) -> AugmentedField:
    """Reversed open drift with the transposed Jacobian of f.

    State (x, dp): dx/dt = -f, ddp/dt = (df/dx)^T dp, output dz = g(x)^T dp.
    """
    return _dual(system, [0.0] * system.m)


def from_spec(spec: SystemSpec) -> SystemModel:
    """Build a SystemModel from a parsed JSON system description."""
    cert_map = {"P": "P", "Q": "Q", "R": "R"}
    certificates = {
        cert_map[key]: MatrixField.from_exprs(grid, spec.n)
        for key, grid in spec.fields.items()
    }
    return SystemModel(
        name=spec.name,
        n=spec.n,
        m=spec.m,
        p=spec.p,
        f=VectorField.from_exprs(spec.f, spec.n),
        g=MatrixField.from_exprs(spec.g, spec.n),
        h=VectorField.from_exprs(spec.h, spec.n),
        k=VectorField.from_exprs(spec.k, spec.n) if spec.k is not None else None,
        certificates=certificates,
    )


def _paper_sec5() -> SystemModel:
    def f(xs):
        x1, x2 = xs
        return [-x1 / 2 - x1 * x1 - x1 * x1 * x1 / 3 - x1 * x2 - x2, -x2 / 2]

    def g(xs):
        return [[1 + xs[0]], [1.0]]

    def h(xs):
        return [xs[0]]

    def k(xs):
        x1, x2 = xs
        return [x1 + x1 * x1 / 2 + x2]

    # closed forms of the first two input-direction brackets, rederived by
    # hand from the recursion and cross-checked against the simulated dual
    # output derivatives (see tests)
    def bracket_1(x1):
        return 1.5 + 3.0 * x1 + 2.0 * x1 ** 2 + (2.0 / 3.0) * x1 ** 3

    def bracket_2(x1):
        return (1.25 + 5.0 * x1 + 8.25 * x1 ** 2 + (22.0 / 3.0) * x1 ** 3
                + (10.0 / 3.0) * x1 ** 4 + (2.0 / 3.0) * x1 ** 5)

    meta = {
        "default_region": [(-0.3, 0.3), (-0.3, 0.3)],
        "closed_form_brackets": [
            lambda x: np.array([1.0 + x[0], 1.0]),
            lambda x: np.array([bracket_1(x[0]), 0.5]),
            lambda x: np.array([bracket_2(x[0]), 0.25]),
        ],
        "closed_form_obs_rows": [
            lambda x: np.array([1.0, 0.0]),
            lambda x: np.array([-0.5 - 2.0 * x[0] - x[0] ** 2 - x[1], -1.0 - x[0]]),
        ],
        # observability Gramian of the variational dynamics at the origin,
        # where it coincides with the linearization's Lyapunov solution
        "gramian_at_origin": np.array([[1.0, -1.0], [-1.0, 2.0]]),
    }
    return SystemModel(
        name="paper_sec5", n=2, m=1, p=1,
        f=VectorField(2, 2, f),
        g=MatrixField(2, 1, g),
        h=VectorField(2, 1, h),
        k=VectorField(2, 1, k),
        certificates={
            "P": MatrixField.constant(np.eye(2)),
            "R": MatrixField.constant(np.eye(2)),
        },
        meta=meta,
    )


def _linear_scalar() -> SystemModel:
    return SystemModel(
        name="linear_scalar", n=1, m=1, p=1,
        f=VectorField(1, 1, lambda xs: [-xs[0]]),
        g=MatrixField(1, 1, lambda xs: [[1.0]]),
        h=VectorField(1, 1, lambda xs: [xs[0]]),
        k=VectorField(1, 1, lambda xs: [2.0 * xs[0]]),
        certificates={
            "Q": MatrixField.constant([[0.5]]),
            "R": MatrixField.constant([[2.0]]),
            "P": MatrixField.constant([[0.5]]),
            "P_open": MatrixField.constant([[0.5]]),
        },
        meta={
            "default_region": [(-1.0, 1.0)],
            "A": np.array([[-1.0]]),
            "B": np.array([[1.0]]),
            "C": np.array([[1.0]]),
            "K": np.array([[2.0]]),
        },
    )


def _linear_2x2() -> SystemModel:
    a = np.array([[0.0, 1.0], [-2.0, -3.0]])
    b = np.array([[0.0], [1.0]])
    c = np.array([[1.0, 0.0]])
    gain = np.array([[0.0, 6.0]])  # B^T R with R below

    return SystemModel(
        name="linear_2x2", n=2, m=1, p=1,
        f=VectorField(2, 2, lambda xs: [xs[1], -2.0 * xs[0] - 3.0 * xs[1]]),
        g=MatrixField(2, 1, lambda xs: [[0.0], [1.0]]),
        h=VectorField(2, 1, lambda xs: [xs[0]]),
        k=VectorField(2, 1, lambda xs: [6.0 * xs[1]]),
        certificates={
            "Q": MatrixField.constant([[11.0 / 12.0, 0.25], [0.25, 1.0 / 12.0]]),
            "P": MatrixField.constant([[1.0 / 12.0, 0.0], [0.0, 1.0 / 6.0]]),
            "R": MatrixField.constant([[12.0, 0.0], [0.0, 6.0]]),
            "P_open": MatrixField.constant([[1.0 / 12.0, 0.0], [0.0, 1.0 / 6.0]]),
        },
        meta={
            "default_region": [(-1.0, 1.0), (-1.0, 1.0)],
            "A": a, "B": b, "C": c, "K": gain,
        },
    )


_REGISTRY = {
    "paper_sec5": _paper_sec5,
    "linear_scalar": _linear_scalar,
    "linear_2x2": _linear_2x2,
}


def registry(name: str) -> SystemModel:
    """Look up a built-in system by name."""
    try:
        build = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown system {name!r}; built-ins: {known}") from None
    return build()


def registry_names() -> list[str]:
    return sorted(_REGISTRY)
