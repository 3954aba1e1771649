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

Input signals are callables (t, x) -> u so that feedback laws and
tabulated open-loop inputs share one representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from vargram.calculus import (
    MatrixField,
    VectorField,
    closed_loop_scalars,
    field_values,
    frozen_input_jacobian_scalars,
    jacobian,
)
from vargram.expr import SystemSpec


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

    def require_k(self) -> VectorField:
        if self.k is None:
            raise ValueError(f"system {self.name!r} has no feedback law k")
        return self.k

    def closed_loop_field(self) -> VectorField:
        self.require_k()
        return VectorField(self.n, self.n, lambda xs: closed_loop_scalars(self, xs))

    def output(self, x) -> np.ndarray:
        """h at a point, or at each row of an (N, n) stack."""
        return field_values(self.h, x)

    def feedback(self, x) -> np.ndarray:
        """k at a point, or at each row of an (N, n) stack."""
        return field_values(self.require_k(), x)


@dataclass
class AugmentedField:
    """Composite dynamics with named state blocks and derived outputs.

    rhs takes one state.  The outputs of prolong, closed_loop_prolonged
    and two_copy take one state (dim,) or a stack of states (N, dim),
    giving (p,) or (N, p); the other builders' outputs take one state.
    """

    dim: int
    rhs: Callable[[float, np.ndarray], np.ndarray]
    layout: dict[str, slice]
    outputs: dict[str, Callable[[np.ndarray], np.ndarray]] = field(default_factory=dict)

    def block(self, z: np.ndarray, name: str) -> np.ndarray:
        return np.asarray(z)[self.layout[name]]

    def pack(self, **blocks) -> np.ndarray:
        z = np.zeros(self.dim)
        for name, value in blocks.items():
            z[self.layout[name]] = np.asarray(value, dtype=float)
        return z


def _apply(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """mat @ vec at one point, or row by row over (N, r, n) and (N, n) stacks."""
    return (mat @ vec[..., None])[..., 0]


def zero_signal(m: int):
    return lambda t, x: [0.0] * m


def constant_signal(u: Sequence[float]):
    vals = [float(v) for v in u]
    return lambda t, x: vals


def feedback_signal(system: SystemModel):
    k = system.require_k()
    return lambda t, x: [float(v) for v in k(list(map(float, x)))]


def tabulated_signal(times: Sequence[float], values):
    """Piecewise-linear open-loop signal; clamped outside the table."""
    ts = np.asarray(times, dtype=float)
    vs = np.atleast_2d(np.asarray(values, dtype=float))
    if vs.shape[0] != ts.size:
        vs = vs.T
    return lambda t, x: [float(np.interp(t, ts, vs[:, j])) for j in range(vs.shape[1])]


def prolong(system: SystemModel, u_signal=None, du_signal=None) -> AugmentedField:
    """Variational dynamics along the input u: state (x, dx).

    dx follows the input-frozen state Jacobian of f + g u plus g du.
    Outputs: y = h(x) and dy = (dh/dx) dx.
    """
    n, m = system.n, system.m
    u_signal = u_signal or zero_signal(m)
    du_signal = du_signal or zero_signal(m)

    def rhs(t, z):
        x = [float(v) for v in z[:n]]
        dx = z[n:]
        u = [float(v) for v in u_signal(t, x)]
        drift, frozen = frozen_input_jacobian_scalars(system, x, u)
        g_vals = np.asarray(system.g(x), dtype=float)
        du = np.asarray(du_signal(t, x), dtype=float)
        ddx = np.asarray(frozen, dtype=float) @ dx + g_vals @ du
        return np.concatenate([np.asarray(drift, dtype=float), ddx])

    def out_y(z):
        return system.output(z[..., :n])

    def out_dy(z):
        return _apply(jacobian(system.h, z[..., :n]), z[..., n:])

    return AugmentedField(
        dim=2 * n,
        rhs=rhs,
        layout={"x": slice(0, n), "dx": slice(n, 2 * n)},
        outputs={"y": out_y, "dy": out_dy},
    )


def closed_loop_prolonged(system: SystemModel) -> AugmentedField:
    """Variational dynamics of the feedback-closed drift f + g k.

    The variational block uses the full state Jacobian of the closed
    loop, including the derivative of k.  Output dk = (dk/dx) dx is the
    integrand of the feedback controllability energy.
    """
    n = system.n
    cl = system.closed_loop_field()

    def rhs(t, z):
        x = [float(v) for v in z[:n]]
        dx = z[n:]
        drift = np.asarray(cl(x), dtype=float)
        ddx = jacobian(cl, x) @ dx
        return np.concatenate([drift, ddx])

    def out_dk(z):
        return _apply(jacobian(system.require_k(), z[..., :n]), z[..., n:])

    def out_dy(z):
        return _apply(jacobian(system.h, z[..., :n]), z[..., n:])

    return AugmentedField(
        dim=2 * n,
        rhs=rhs,
        layout={"x": slice(0, n), "dx": slice(n, 2 * n)},
        outputs={"dk": out_dk, "dy": out_dy},
    )


def two_copy(system: SystemModel, u_signal=None, u2_signal=None) -> AugmentedField:
    """Two independent copies (x, x2) under their own input signals.

    Outputs report the copy gaps: output_gap = h(x2) - h(x) and, when a
    feedback law exists, feedback_gap = k(x2) - k(x).
    """
    n, m = system.n, system.m
    u_signal = u_signal or zero_signal(m)
    u2_signal = u2_signal or zero_signal(m)

    def one_side(x, u):
        f_vals = np.asarray(system.f(x), dtype=float)
        g_vals = np.asarray(system.g(x), dtype=float)
        return f_vals + g_vals @ np.asarray(u, dtype=float)

    def rhs(t, z):
        x = [float(v) for v in z[:n]]
        x2 = [float(v) for v in z[n:]]
        return np.concatenate([one_side(x, u_signal(t, x)), one_side(x2, u2_signal(t, x2))])

    outputs = {
        "output_gap": lambda z: system.output(z[..., n:]) - system.output(z[..., :n]),
    }
    if system.k is not None:
        outputs["feedback_gap"] = (lambda z: system.feedback(z[..., n:])
                                   - system.feedback(z[..., :n]))

    return AugmentedField(
        dim=2 * n,
        rhs=rhs,
        layout={"x": slice(0, n), "x2": slice(n, 2 * n)},
        outputs=outputs,
    )


def dual_closed_loop(system: SystemModel) -> AugmentedField:
    """Reversed closed-loop drift with the transposed frozen-input Jacobian.

    State (x, dp): dx/dt = -(f + g k), ddp/dt = (d(f+gu)/dx|_{u=k})^T dp,
    output dz = g(x)^T dp.
    """
    n = system.n
    system.require_k()

    def rhs(t, z):
        x = [float(v) for v in z[:n]]
        dp = z[n:]
        drift, frozen = frozen_input_jacobian_scalars(system, x)
        ddp = np.asarray(frozen, dtype=float).T @ dp
        return np.concatenate([-np.asarray(drift, dtype=float), ddp])

    def out_dz(z):
        g_vals = np.asarray(system.g([float(v) for v in z[:n]]), dtype=float)
        return g_vals.T @ z[n:]

    return AugmentedField(
        dim=2 * n,
        rhs=rhs,
        layout={"x": slice(0, n), "dp": slice(n, 2 * n)},
        outputs={"dz": out_dz},
    )


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
        x = [float(v) for v in z[:n]]
        dp = z[n : 2 * n]
        dx = z[2 * n :]
        drift, frozen = frozen_input_jacobian_scalars(system, x)
        a_mat = np.asarray(frozen, dtype=float)
        return np.concatenate(
            [-np.asarray(drift, dtype=float), a_mat.T @ dp, -(a_mat @ dx)]
        )

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
    n = system.n

    def rhs(t, z):
        x = [float(v) for v in z[:n]]
        dp = z[n:]
        ddp = jacobian(system.f, x).T @ dp
        return np.concatenate([-np.asarray(system.f(x), dtype=float), ddp])

    def out_dz(z):
        g_vals = np.asarray(system.g([float(v) for v in z[:n]]), dtype=float)
        return g_vals.T @ z[n:]

    return AugmentedField(
        dim=2 * n,
        rhs=rhs,
        layout={"x": slice(0, n), "dp": slice(n, 2 * n)},
        outputs={"dz": out_dz},
    )


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
