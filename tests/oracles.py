"""Independent numerical oracles used across the test suite.

Everything here is deliberately built on plain numpy linear algebra and
finite differences, not on the library's own dual numbers, quadrature, or
Jacobi routines, so that agreement between the two is evidence rather than
tautology.  The one exception is feedback_perturbation_energy, a probe of
the completion-of-squares bound: it evaluates the system's fields through
the library's kernels, but integrates them with scipy's solver.
"""

from __future__ import annotations

import math
import numbers
import operator
from typing import Callable

import numpy as np

# the fixed span [-PERTURBATION_HORIZON, 0] of feedback_perturbation_energy
PERTURBATION_HORIZON = 40.0


def fd_jacobian(func, x, h: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of a list-in/list-out function."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(func(list(x)), dtype=float)
    jac = np.zeros((f0.size, x.size))
    for j in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        fp = np.asarray(func(list(xp)), dtype=float)
        fm = np.asarray(func(list(xm)), dtype=float)
        jac[:, j] = (fp - fm) / (2.0 * h)
    return jac


def lyap_obs(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solve A^T Q + Q A + C^T C = 0 by vectorization.

    Kronecker identity: vec(A^T Q + Q A) = (I (x) A^T + A^T (x) I) vec(Q).
    """
    a = np.asarray(a, dtype=float)
    c = np.atleast_2d(np.asarray(c, dtype=float))
    n = a.shape[0]
    lhs = np.kron(np.eye(n), a.T) + np.kron(a.T, np.eye(n))
    rhs = -(c.T @ c).reshape(n * n, order="F")
    q = np.linalg.solve(lhs, rhs).reshape((n, n), order="F")
    return 0.5 * (q + q.T)


def lyap_ctrl(a_cl: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Solve A_cl^T R + R A_cl = K^T K (the constant-coefficient case)."""
    a_cl = np.asarray(a_cl, dtype=float)
    k = np.atleast_2d(np.asarray(k, dtype=float))
    n = a_cl.shape[0]
    lhs = np.kron(np.eye(n), a_cl.T) + np.kron(a_cl.T, np.eye(n))
    rhs = (k.T @ k).reshape(n * n, order="F")
    r = np.linalg.solve(lhs, rhs).reshape((n, n), order="F")
    return 0.5 * (r + r.T)


def lyap_dual(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A P + P A^T + B B^T = 0 by vectorization."""
    a = np.asarray(a, dtype=float)
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if b.shape[0] != a.shape[0]:
        b = b.T
    n = a.shape[0]
    lhs = np.kron(np.eye(n), a) + np.kron(a, np.eye(n))
    rhs = -(b @ b.T).reshape(n * n, order="F")
    p = np.linalg.solve(lhs, rhs).reshape((n, n), order="F")
    return 0.5 * (p + p.T)


def kalman(a: np.ndarray, b: np.ndarray, depth: int) -> np.ndarray:
    """Columns [B, A B, ..., A^depth B]."""
    a = np.asarray(a, dtype=float)
    b = np.atleast_2d(np.asarray(b, dtype=float))
    blocks = [b]
    for _ in range(depth):
        blocks.append(a @ blocks[-1])
    return np.hstack(blocks)


def fast_mode_spec(rate: float) -> dict:
    """--spec JSON of a fast mode beside a slow one: f = (-rate x1, -x2/2),
    g = (0, 1), h = x1 + x2.  The tangent (1, 0) stays on the fast mode,
    so its variational output is exp(-rate t) from every x0: the exact
    diff_observability is 1/(4 rate), and the observability Gramian's
    [0, 0] entry is 1/(2 rate)."""
    return {"name": f"fast_{rate:g}", "n": 2, "m": 1, "p": 1,
            "f": [f"-{rate!r} * x1", "-x2 / 2"], "g": [["0"], ["1"]], "h": ["x1 + x2"]}


def rk4(rhs, x0, t0: float, t1: float, steps: int = 2000) -> np.ndarray:
    """Fixed-step RK4, independent of the adaptive solver under test."""
    x = np.asarray(x0, dtype=float).copy()
    h = (t1 - t0) / steps
    t = t0
    for _ in range(steps):
        k1 = np.asarray(rhs(t, x), dtype=float)
        k2 = np.asarray(rhs(t + h / 2, x + h / 2 * k1), dtype=float)
        k3 = np.asarray(rhs(t + h / 2, x + h / 2 * k2), dtype=float)
        k4 = np.asarray(rhs(t + h, x + h * k3), dtype=float)
        x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return x


def cosine_bump(t0: float, t1: float, amplitude) -> Callable[[float], np.ndarray]:
    """Raised-cosine pulse supported on [t0, t1]; C^1 and compactly supported."""
    if not t1 > t0:
        raise ValueError("bump support needs t1 > t0")
    amp = np.atleast_1d(np.asarray(amplitude, dtype=float))
    width = t1 - t0

    def w(t: float) -> np.ndarray:
        if t <= t0 or t >= t1:
            return np.zeros_like(amp)
        phase = 2.0 * math.pi * (t - t0) / width
        return amp * (0.5 - 0.5 * math.cos(phase))

    return w


def feedback_perturbation_energy(system, x0, dx0,
                                 w_signal: Callable[[float], np.ndarray] | None = None):
    """Half squared norm of du = (dk/dx) dx + w over [-PERTURBATION_HORIZON, 0],
    as an energy.EnergyValue.

    The variational state follows the input-frozen Jacobian plus g*du along
    the nominal closed loop, so w = 0 reproduces the backward feedback
    energy.  Integrated in reversed time with an accumulator state by
    scipy's solve_ivp (DOP853 at the library's default tolerances, read
    on its dense output); the forcing w depends on time, so no autonomous
    flow kernel can carry it.  The horizon is fixed, so decay must have
    set in by then for the value to approximate the improper integral.
    The error estimate is rtol * |value| + atol.
    """
    from scipy.integrate import solve_ivp

    from vargram.calculus import frozen_input_jacobian, jacobian
    from vargram.energy import EnergyValue
    from vargram.integrate import DEFAULT_ATOL, DEFAULT_RTOL

    n, m = system.n, system.m
    k = system.require_k()
    w_signal = w_signal or (lambda t: np.zeros(m))

    def rhs(tau: float, z: np.ndarray) -> np.ndarray:
        x = z[:n].tolist()
        dx = z[n:2 * n]
        drift, frozen, g_vals = frozen_input_jacobian(system, x)
        du = jacobian(k, x) @ dx + np.asarray(w_signal(-tau), dtype=float)
        ddx = frozen @ dx + g_vals @ du
        dacc = 0.5 * float(np.dot(du, du))
        return np.concatenate([-drift, -ddx, [dacc]])

    z0 = np.concatenate([np.asarray(x0, dtype=float), np.asarray(dx0, dtype=float), [0.0]])
    sol = solve_ivp(rhs, (0.0, PERTURBATION_HORIZON), z0, method="DOP853",
                    rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL, dense_output=True)
    value = float(sol.sol(PERTURBATION_HORIZON)[-1])
    return EnergyValue(value=value, error_estimate=DEFAULT_RTOL * abs(value) + DEFAULT_ATOL,
                       horizon=PERTURBATION_HORIZON, nodes_used=0, direction="backward",
                       meta={"energy": "feedback_perturbation",
                             "note": "fixed horizon, no tail estimate"})


class ReferenceDual:
    """Plain dual number: each operation tests its operand with isinstance
    and builds its tangent tuple from a generator, in the order the library
    Dual must keep, so that the two agree bit for bit, signs of zero
    included."""

    __slots__ = ("value", "derivs")

    def __init__(self, value, derivs: tuple):
        self.value = value
        self.derivs = derivs

    def _zero(self) -> bool:
        p = self
        while isinstance(p, ReferenceDual):
            p = p.value
        return not p.all() if isinstance(p, np.ndarray) else p == 0

    def __add__(self, other):
        if isinstance(other, ReferenceDual):
            return ReferenceDual(self.value + other.value,
                                 tuple(a + b for a, b in zip(self.derivs, other.derivs)))
        if isinstance(other, numbers.Real):
            return ReferenceDual(self.value + other, self.derivs)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, ReferenceDual):
            return ReferenceDual(self.value - other.value,
                                 tuple(a - b for a, b in zip(self.derivs, other.derivs)))
        if isinstance(other, numbers.Real):
            return ReferenceDual(self.value - other, self.derivs)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, numbers.Real):
            return ReferenceDual(other - self.value, tuple(-a for a in self.derivs))
        return NotImplemented

    def __neg__(self):
        return ReferenceDual(-self.value, tuple(-a for a in self.derivs))

    def __pos__(self):
        return self

    def __mul__(self, other):
        if isinstance(other, ReferenceDual):
            sv, ov = self.value, other.value
            return ReferenceDual(sv * ov, tuple(a * ov + sv * b
                                                for a, b in zip(self.derivs, other.derivs)))
        if isinstance(other, numbers.Real):
            return ReferenceDual(self.value * other, tuple(a * other for a in self.derivs))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, ReferenceDual):
            if other._zero():
                raise ZeroDivisionError("dual division by zero")
            q = self.value / other.value
            return ReferenceDual(q, tuple((a - q * b) / other.value
                                          for a, b in zip(self.derivs, other.derivs)))
        if isinstance(other, numbers.Real):
            if other == 0:
                raise ZeroDivisionError("dual division by zero")
            return ReferenceDual(self.value / other, tuple(a / other for a in self.derivs))
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, numbers.Real):
            if self._zero():
                raise ZeroDivisionError("dual division by zero")
            q = other / self.value
            return ReferenceDual(q, tuple(-q * b / self.value for b in self.derivs))
        return NotImplemented

    def __pow__(self, n):
        if not hasattr(n, "__index__") or operator.index(n) < 0:
            raise ValueError("dual powers require a non-negative integer exponent")
        n = operator.index(n)
        result = 1.0
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result
