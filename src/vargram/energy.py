"""Energy functionals of variational and paired trajectories.

Four quadratic cost functionals are evaluated by simulating an augmented
system whose state ends in a cost block c, c' = |output|^2 for a derived
output computed by the flow kernel on the flow's own duals
(calculus.flow_rhs), and reading half of c at t = +/- infinity:

- diff_observability: variational output energy, forward in time;
- incr_observability: output gap energy of two trajectory copies, forward;
- diff_controllability_fb: variational feedback effort, backward in time,
  along the feedback-closed loop;
- incr_controllability_fb: feedback gap energy of two closed-loop copies,
  backward in time.

Backward integrals run the time-reversed dynamics forward (the cost block
is never negated), so one improper-integral controller serves all four:
integrate.flow_integrals doubles the horizon from 20 until the last
increment of c drops below tol, the one setting an energy takes (the
solver's tolerances are integrate's).  The error estimate is that
increment plus a fitted tail; the integrator's own error is not
estimated.  nodes_used counts the accepted steps of the solves.  Each
energy takes one point or a (B, n) stack of points, and integrates a
stack in batched flows of up to integrate.MAX_BATCH points
(integrate.flow_integrals), giving one EnergyValue per point; one point
is a stack of one, and gives its one EnergyValue with the same floats.
On top of these sit the line-path integral (one batch for the nodes of
its PATH_ORDER = 8 rule) and the small-parameter quadratic limit used by
the theorem checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .integrate import IntegrationError, flow_integrals, quadrature_finite
from .systems import AugmentedField, SystemModel, closed_loop_prolonged, prolong, two_copy

# quadratic_limit's gaps s, coarsest first, and its settling tolerance
S_LADDER = (0.1, 0.05, 0.025, 0.0125)
LADDER_TOL = 1e-4
# order of path_energy_integral's Gauss-Legendre rule, checked against twice it
PATH_ORDER = 8


class LadderError(IntegrationError):
    """Raised when the small-parameter ladder fails to settle."""

    def __init__(self, message: str, table=None):
        super().__init__(message)
        self.table = table or []


@dataclass
class EnergyValue:
    """Scalar energy with the bookkeeping of how it was obtained.

    error_estimate is an estimate, not a bound: the last horizon-doubling
    increment plus the fitted tail mass beyond the truncation horizon (for
    a path integral, its quadrature difference plus the largest inner
    estimate).  The integrator's own error is not in it.
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


def _half_square_energy(aug: AugmentedField, z0, direction: str, label: str,
                        tol: float) -> EnergyValue | list[EnergyValue]:
    """Half the cost block of the augmented flow at t = +/- infinity:
    0.5 * integral of |output|^2 (integrate.flow_integrals).

    For backward energies aug.rhs must already be the time-reversed field.
    A (B, dim) stack z0 gives a list of B values (see flow_integrals), one
    state (dim,) its one value.
    """
    results = flow_integrals(aug.rhs, np.atleast_2d(z0), tol=tol, weight=0.5)
    energies = [EnergyValue(value=float(res.value[0]), error_estimate=res.error_estimate,
                            horizon=res.horizon, nodes_used=res.nodes_used,
                            direction=direction,
                            meta={"energy": label, "tail_estimate": res.tail_estimate,
                                  **res.meta})
                for res in results]
    return energies[0] if np.ndim(z0) == 1 else energies


def diff_observability(system: SystemModel, x0, dx0,
                       tol: float = 1e-8) -> EnergyValue | list[EnergyValue]:
    """Half the squared L2 norm of the variational output, zero input.

    x0 and dx0 may be (B, n) stacks (one broadcasting against the other),
    as for every energy here; the result is then a list of B values.
    """
    aug = prolong(system, cost="dy")
    return _half_square_energy(aug, aug.pack(x=x0, dx=dx0), "forward", "diff_observability",
                               tol)


def incr_observability(system: SystemModel, x0, x0p,
                       tol: float = 1e-8) -> EnergyValue | list[EnergyValue]:
    """Half the squared L2 norm of the output gap of two zero-input copies."""
    aug = pair_flow(system, "forward")
    return _half_square_energy(aug, aug.pack(x=x0, x2=x0p), "forward", "incr_observability",
                               tol)


def pair_flow(system: SystemModel, direction: str) -> AugmentedField:
    """Two copies of the system, with the cost block of the gap the pair
    energies integrate: 'forward' the output gap under zero input,
    'backward' the feedback gap along the closed loop in reversed time."""
    if direction == "forward":
        return two_copy(system, cost="output_gap")
    return two_copy(system, system.closed_loop_field(), sign=-1.0, cost="feedback_gap")


def diff_controllability_fb(system: SystemModel, x0, dx0,
                            tol: float = 1e-8) -> EnergyValue | list[EnergyValue]:
    """Backward variational feedback energy along u = k(x).

    Computes 0.5 * integral over (-inf, 0] of |(dk/dx) dx|^2 where dx obeys
    the full closed-loop variational dynamics.  This is the feedback-fixed
    characterization of the differential controllability cost; no
    minimization over open-loop variational inputs happens here.
    """
    aug = closed_loop_prolonged(system, sign=-1.0, cost="dk")
    return _half_square_energy(aug, aug.pack(x=x0, dx=dx0), "backward",
                               "diff_controllability_fb", tol)


def incr_controllability_fb(system: SystemModel, x0, x0p,
                            tol: float = 1e-8) -> EnergyValue | list[EnergyValue]:
    """Backward feedback-gap energy of two closed-loop trajectory copies."""
    aug = pair_flow(system, "backward")
    return _half_square_energy(aug, aug.pack(x=x0, x2=x0p), "backward",
                               "incr_controllability_fb", tol)


def path_energy_integral(energy: Callable[[np.ndarray, np.ndarray], list[EnergyValue]],
                         path: LinePath) -> EnergyValue:
    """Gauss-Legendre integral over s in [0, 1] of energy(path(s), tangent).

    energy is called once, with the (3*PATH_ORDER, n) stack of path points
    at the nodes and the tangent, and returns one EnergyValue per point
    (the energies here do so for a stack).  The tangent is constant along
    a straight path.  The error combines the order-doubling difference of
    the outer rule with the worst inner estimate (outer weights sum to
    one, so the weighted mean inner error is bounded by the max).
    """
    tangent = path.tangent()
    inner: list[EnergyValue] = []

    def f(s: np.ndarray) -> np.ndarray:
        batch = energy(np.array([path.point(si) for si in s]), tangent)
        inner.extend(batch)
        return np.array([ev.value for ev in batch])

    res = quadrature_finite(f, 0.0, 1.0, order=PATH_ORDER)
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
                    x0, dx0) -> QuadraticLimit:
    """Extrapolate pair_energy(x0, x0 + s*dx0)/s^2 to s = 0+.

    A quadratic model in s is fit through each window of three consecutive
    S_LADDER points; the finest window's value at s = 0 is the limit.
    Raises LadderError when the last two extrapolants differ by more than
    LADDER_TOL.
    """
    x0 = np.asarray(x0, dtype=float)
    dx0 = np.asarray(dx0, dtype=float)

    table = []
    for s in S_LADDER:
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

    discrepancy = abs(extrapolants[-1] - extrapolants[-2])
    inner = max(row["scaled_error"] for row in table[-3:])
    if discrepancy > LADDER_TOL:
        raise LadderError(
            f"ladder extrapolants did not settle (last two differ by {discrepancy:g} "
            f"> tol {LADDER_TOL:g})", table)
    return QuadraticLimit(limit=extrapolants[-1], table=table,
                          extrapolants=extrapolants, discrepancy=discrepancy,
                          error_budget=discrepancy + inner)
