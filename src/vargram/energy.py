"""Energy functionals of variational and paired trajectories.

Four quadratic cost functionals are evaluated by simulating an augmented
system and integrating half the squared norm of a derived output over an
unbounded time interval:

- diff_observability: variational output energy, forward in time;
- incr_observability: output gap energy of two trajectory copies, forward;
- diff_controllability_fb: variational feedback effort, backward in time,
  along the feedback-closed loop;
- incr_controllability_fb: feedback gap energy of two closed-loop copies,
  backward in time.

Backward integrals run the time-reversed dynamics forward and relabel, so
one improper-integral controller serves all four.  On top of these sit the
line-path integral and the small-parameter quadratic limit used by the
theorem checks, plus the perturbed-input energy that witnesses the
completion-of-squares bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .calculus import frozen_input_jacobian_scalars, jacobian
from .integrate import (DEFAULT_ATOL, DEFAULT_RTOL, HorizonFlow, IntegrationError,
                        improper_time_integral, integrate_ivp, quadrature_finite)
from .systems import (AugmentedField, SystemModel, closed_loop_prolonged,
                      feedback_signal, prolong, two_copy)

DEFAULT_S_LADDER = (0.1, 0.05, 0.025, 0.0125)


class LadderError(IntegrationError):
    """Raised when the small-parameter ladder fails to settle."""

    def __init__(self, message: str, table=None):
        super().__init__(message)
        self.table = table or []


@dataclass
class EnergyValue:
    """Scalar energy with the bookkeeping of how it was obtained.

    error_estimate is an estimate, not a bound: quadrature differences
    plus the fitted tail mass beyond the truncation horizon.
    """

    value: float
    error_estimate: float
    horizon: float | None = None
    nodes_used: int = 0
    direction: str = "forward"
    meta: dict = field(default_factory=dict)

    def __float__(self) -> float:
        return float(self.value)


@dataclass(frozen=True)
class LinePath:
    """Straight segment s -> start + s*(end - start), s in [0, 1]."""

    start: tuple
    end: tuple

    @staticmethod
    def between(a, b) -> "LinePath":
        return LinePath(tuple(float(v) for v in a), tuple(float(v) for v in b))

    def point(self, s: float) -> np.ndarray:
        a = np.asarray(self.start, dtype=float)
        b = np.asarray(self.end, dtype=float)
        return a + float(s) * (b - a)

    def tangent(self) -> np.ndarray:
        return np.asarray(self.end, dtype=float) - np.asarray(self.start, dtype=float)


def _half_square_energy(aug: AugmentedField, z0, out_name: str, direction: str,
                        label: str, tol: float, rtol: float, atol: float) -> EnergyValue:
    """Integrate 0.5*|output|^2 along the augmented flow to +/- infinity.

    For backward energies aug.rhs must already be the time-reversed field;
    the integrand then receives t <= 0 and samples the reversed flow at -t.
    """
    out_fn = aug.outputs[out_name]
    flow = HorizonFlow(aug.rhs, np.asarray(z0, dtype=float), rtol=rtol, atol=atol)

    def integrand(t: np.ndarray) -> np.ndarray:
        v = out_fn(flow.state(np.abs(t)))
        return 0.5 * np.einsum("ij,ij->i", v, v)

    res = improper_time_integral(integrand, direction=direction, tol=tol)
    meta = {"energy": label, "tail_estimate": res.tail_estimate}
    meta.update(res.meta)
    return EnergyValue(value=float(res.value), error_estimate=res.error_estimate,
                       horizon=res.horizon, nodes_used=res.nodes_used,
                       direction=direction, meta=meta)


def diff_observability(system: SystemModel, x0, dx0, tol: float = 1e-8,
                       rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL) -> EnergyValue:
    """Half the squared L2 norm of the variational output, zero input."""
    aug = prolong(system)
    z0 = aug.pack(x=x0, dx=dx0)
    return _half_square_energy(aug, z0, "dy", "forward", "diff_observability",
                               tol, rtol, atol)


def incr_observability(system: SystemModel, x0, x0p, tol: float = 1e-8,
                       rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL) -> EnergyValue:
    """Half the squared L2 norm of the output gap of two zero-input copies."""
    aug = two_copy(system)
    z0 = aug.pack(x=x0, x2=x0p)
    return _half_square_energy(aug, z0, "output_gap", "forward", "incr_observability",
                               tol, rtol, atol)


def _reversed(aug: AugmentedField) -> AugmentedField:
    return AugmentedField(dim=aug.dim,
                          rhs=lambda t, z: -aug.rhs(t, z),
                          layout=aug.layout,
                          outputs=aug.outputs)


def diff_controllability_fb(system: SystemModel, x0, dx0, tol: float = 1e-8,
                            rtol: float = DEFAULT_RTOL,
                            atol: float = DEFAULT_ATOL) -> EnergyValue:
    """Backward variational feedback energy along u = k(x).

    Computes 0.5 * integral over (-inf, 0] of |(dk/dx) dx|^2 where dx obeys
    the full closed-loop variational dynamics.  This is the feedback-fixed
    characterization of the differential controllability cost; no
    minimization over open-loop variational inputs happens here.
    """
    aug = _reversed(closed_loop_prolonged(system))
    z0 = aug.pack(x=x0, dx=dx0)
    return _half_square_energy(aug, z0, "dk", "backward", "diff_controllability_fb",
                               tol, rtol, atol)


def incr_controllability_fb(system: SystemModel, x0, x0p, tol: float = 1e-8,
                            rtol: float = DEFAULT_RTOL,
                            atol: float = DEFAULT_ATOL) -> EnergyValue:
    """Backward feedback-gap energy of two closed-loop trajectory copies."""
    fb = feedback_signal(system)
    aug = _reversed(two_copy(system, fb, fb))
    z0 = aug.pack(x=x0, x2=x0p)
    return _half_square_energy(aug, z0, "feedback_gap", "backward",
                               "incr_controllability_fb", tol, rtol, atol)


def path_energy_integral(energy: Callable[[np.ndarray, np.ndarray], EnergyValue],
                         path: LinePath, gl_order: int = 8) -> EnergyValue:
    """Gauss-Legendre integral over s in [0, 1] of energy(path(s), tangent).

    The tangent is constant along a straight path.  The error combines the
    order-doubling difference of the outer rule with the worst inner
    estimate (outer weights sum to one, so the weighted mean inner error
    is bounded by the max).
    """
    tangent = path.tangent()
    inner: list[EnergyValue] = []

    def f(s: np.ndarray) -> np.ndarray:
        batch = [energy(path.point(si), tangent) for si in s]
        inner.extend(batch)
        return np.array([ev.value for ev in batch])

    res = quadrature_finite(f, 0.0, 1.0, order=gl_order)
    inner_err = max((ev.error_estimate for ev in inner), default=0.0)
    horizons = [ev.horizon for ev in inner if ev.horizon is not None]
    return EnergyValue(
        value=float(res.value),
        error_estimate=res.error_estimate + inner_err,
        horizon=max(horizons) if horizons else None,
        nodes_used=res.nodes_used,
        direction=inner[0].direction if inner else "forward",
        meta={"energy": "path_integral",
              "inner_nodes": sum(ev.nodes_used for ev in inner),
              "inner_error_max": inner_err},
    )


@dataclass
class QuadraticLimit:
    """Extrapolated s -> 0+ limit of a pair energy scaled by s^2."""

    limit: float
    table: list  # rows {s, value, scaled}
    extrapolants: list
    discrepancy: float
    error_budget: float


def quadratic_limit(pair_energy: Callable[[np.ndarray, np.ndarray], EnergyValue],
                    x0, dx0, s_ladder: Sequence[float] = DEFAULT_S_LADDER,
                    tol: float = 1e-4) -> QuadraticLimit:
    """Extrapolate pair_energy(x0, x0 + s*dx0)/s^2 to s = 0+.

    A quadratic model in s is fit through each window of three consecutive
    ladder points; the finest window's value at s = 0 is the limit.  Raises
    LadderError when the last two extrapolants differ by more than tol.
    """
    ladder = sorted(set(float(s) for s in s_ladder), reverse=True)
    if len(ladder) < 3:
        raise ValueError("s_ladder needs at least three distinct values")
    if any(s <= 0 for s in ladder):
        raise ValueError("ladder entries must be positive")
    x0 = np.asarray(x0, dtype=float)
    dx0 = np.asarray(dx0, dtype=float)

    table = []
    for s in ladder:
        ev = pair_energy(x0, x0 + s * dx0)
        table.append({"s": s, "value": float(ev.value),
                      "scaled": float(ev.value) / s**2,
                      "scaled_error": ev.error_estimate / s**2})

    extrapolants = []
    for i in range(len(table) - 2):
        ss = [row["s"] for row in table[i:i + 3]]
        vs = [row["scaled"] for row in table[i:i + 3]]
        coeffs = np.polyfit(ss, vs, 2)
        extrapolants.append(float(coeffs[-1]))

    discrepancy = abs(extrapolants[-1] - extrapolants[-2]) if len(extrapolants) > 1 else 0.0
    inner = max(row["scaled_error"] for row in table[-3:])
    if discrepancy > tol:
        raise LadderError(
            f"ladder extrapolants did not settle (last two differ by {discrepancy:g} "
            f"> tol {tol:g})", table)
    return QuadraticLimit(limit=extrapolants[-1], table=table,
                          extrapolants=extrapolants, discrepancy=discrepancy,
                          error_budget=discrepancy + inner)


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


def feedback_perturbation_energy(system: SystemModel, x0, dx0,
                                 w_signal: Callable[[float], np.ndarray] | None = None,
                                 horizon: float = 40.0,
                                 rtol: float = DEFAULT_RTOL,
                                 atol: float = DEFAULT_ATOL) -> EnergyValue:
    """Half squared norm of du = (dk/dx) dx + w over [-horizon, 0].

    The variational state follows the input-frozen Jacobian plus g*du along
    the nominal closed loop, so w = 0 reproduces the backward feedback
    energy.  Integrated in reversed time with an accumulator state; the
    horizon is fixed, so decay must have set in by -horizon for the value
    to approximate the improper integral.
    """
    n, m = system.n, system.m
    k = system.require_k()
    w_signal = w_signal or (lambda t: np.zeros(m))
    x0 = np.asarray(x0, dtype=float)
    dx0 = np.asarray(dx0, dtype=float)

    def rhs(tau: float, z: np.ndarray) -> np.ndarray:
        x = [float(v) for v in z[:n]]
        dx = z[n:2 * n]
        drift, frozen = frozen_input_jacobian_scalars(system, x)
        g_vals = np.asarray(system.g(x), dtype=float)
        du = jacobian(k, x) @ dx + np.asarray(w_signal(-tau), dtype=float)
        ddx = np.asarray(frozen, dtype=float) @ dx + g_vals @ du
        dacc = 0.5 * float(np.dot(du, du))
        return np.concatenate([-np.asarray(drift, dtype=float), -ddx, [dacc]])

    z0 = np.concatenate([x0, dx0, [0.0]])
    traj = integrate_ivp(rhs, z0, (0.0, float(horizon)), rtol=rtol, atol=atol)
    value = float(traj.at(float(horizon))[-1])
    return EnergyValue(value=value,
                       error_estimate=rtol * abs(value) + atol,
                       horizon=float(horizon), nodes_used=0,
                       direction="backward",
                       meta={"energy": "feedback_perturbation",
                             "note": "fixed horizon, no tail estimate"})
