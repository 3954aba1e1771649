"""Adaptive ODE integration and quadrature utilities.

Trajectories wrap embedded Runge-Kutta 5(4) solutions with dense output,
so downstream quadrature can sample between accepted steps.  Backward
integration is realized by integrating the negated field forward and
re-indexing.  Improper time integrals use horizon doubling with an
exponential tail fit; a non-decaying integrand is an error, never an
implicit infinity.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from vargram.calculus import VectorField, jacobian

BLOWUP_NORM = 1e12

DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-12


class IntegrationError(RuntimeError):
    pass


class BlowUpError(IntegrationError):
    """State norm exceeded BLOWUP_NORM before the requested horizon."""

    def __init__(self, escape_time: float):
        super().__init__(f"state norm exceeded {BLOWUP_NORM:g} near t = {escape_time:.6g}")
        self.escape_time = escape_time


class DivergenceError(IntegrationError):
    """Improper integral whose increments refuse to decay."""


def as_time_rhs(field) -> Callable[[float, np.ndarray], np.ndarray]:
    """Adapt a VectorField or rhs-style callable to (t, y) -> dy/dt."""
    if isinstance(field, VectorField):
        func = field.func

        def rhs(t, y):
            return np.asarray(func(list(y)), dtype=float)

        return rhs
    return field


class Trajectory:
    """Immutable solution curve with dense evaluation between stored nodes."""

    def __init__(self, times: np.ndarray, states: np.ndarray, eval_fn):
        self.times = np.asarray(times, dtype=float)
        self.states = np.asarray(states, dtype=float)
        self._eval = eval_fn
        if self.times.ndim != 1 or len(self.times) < 1:
            raise ValueError("trajectory needs at least one stored time")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("stored times must be strictly increasing")
        if not np.all(np.isfinite(self.states)):
            raise ValueError("trajectory contains non-finite states")

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def tf(self) -> float:
        return float(self.times[-1])

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def endpoint(self) -> np.ndarray:
        return self.states[-1].copy()

    def at(self, t) -> np.ndarray:
        """State at time t, shape (dim,), or at each entry of a 1-D array of
        times, shape (N, dim)."""
        slack = 1e-9 * (1.0 + abs(self.t0) + abs(self.tf))
        lo, hi = np.min(t), np.max(t)
        if lo < self.t0 - slack or hi > self.tf + slack:
            bad = lo if lo < self.t0 - slack else hi
            raise ValueError(f"t = {bad:g} outside trajectory span [{self.t0:g}, {self.tf:g}]")
        return np.asarray(self._eval(np.clip(t, self.t0, self.tf)), dtype=float)

    def time_reversed(self) -> "Trajectory":
        """View of this curve under t -> -t (span flips sign)."""
        inner = self._eval
        return Trajectory(-self.times[::-1], self.states[::-1].copy(),
                          lambda t: inner(-t))


class FlowJacobian:
    """State-transition (variational) matrices along a trajectory."""

    def __init__(self, n: int, times: np.ndarray, flats: np.ndarray, eval_fn):
        self.n = n
        self.times = np.asarray(times, dtype=float)
        self.matrices = np.asarray(flats, dtype=float).reshape(len(self.times), n, n)
        self._eval = eval_fn
        dets = np.linalg.det(self.matrices)
        if not np.all(np.isfinite(dets)) or np.any(dets == 0.0):
            raise IntegrationError("flow Jacobian became singular along the trajectory")

    def at(self, t: float) -> np.ndarray:
        return np.asarray(self._eval(t), dtype=float).reshape(self.n, self.n)


class _Segmented:
    """Dense evaluator over a chain of scipy OdeSolution pieces.

    A scalar time gives the state, shape (dim,); a 1-D array of times
    gives the states stacked on axis 0, shape (N, dim), from one
    vectorized OdeSolution call per piece the times fall in.
    """

    def __init__(self, sols):
        self.sols = list(sols)
        self.breaks = [s.t_max for s in self.sols]

    def __call__(self, t):
        last = len(self.sols) - 1
        if np.ndim(t) == 0:
            return self.sols[min(bisect.bisect_left(self.breaks, t), last)](t)
        pieces = np.minimum(np.searchsorted(self.breaks, t, side="left"), last)
        out = None
        for i in np.unique(pieces):
            mask = pieces == i
            states = self.sols[i](t[mask]).T
            if out is None:
                out = np.empty((len(t), states.shape[1]))
            out[mask] = states
        return out

    def extended(self, sol) -> "_Segmented":
        return _Segmented(self.sols + [sol])


def _solve_segment(rhs, x0, t0: float, tf: float, rtol: float, atol: float):
    x0 = np.asarray(x0, dtype=float)
    if not np.all(np.isfinite(x0)):
        raise IntegrationError("non-finite initial state")
    if float(np.linalg.norm(x0)) >= BLOWUP_NORM:
        raise BlowUpError(t0)

    def blow_up(t, y):
        return float(np.linalg.norm(y)) - BLOWUP_NORM

    blow_up.terminal = True
    blow_up.direction = 1

    sol = solve_ivp(rhs, (t0, tf), x0, method="RK45", rtol=rtol, atol=atol,
                    dense_output=True, events=blow_up)
    if sol.status == 1:
        raise BlowUpError(float(sol.t_events[0][0]))
    if sol.status != 0:
        raise IntegrationError(f"integrator failed on [{t0:g}, {tf:g}]: {sol.message}")
    return sol


def integrate_ivp(field, x0, t_span, rtol: float = DEFAULT_RTOL,
                  atol: float = DEFAULT_ATOL) -> Trajectory:
    """Solve an initial value problem forward on t_span = (t0, tf), t0 < tf.

    field is a VectorField (autonomous) or a callable rhs(t, y).  Raises
    BlowUpError with the escape time if the state norm passes 1e12, and
    IntegrationError on step-size underflow.
    """
    t0, tf = float(t_span[0]), float(t_span[1])
    if not tf > t0:
        raise ValueError("t_span must satisfy t0 < tf; use integrate_backward otherwise")
    sol = _solve_segment(as_time_rhs(field), x0, t0, tf, rtol, atol)
    return Trajectory(sol.t, sol.y.T, _Segmented([sol.sol]))


def integrate_backward(field, x0, duration: float, rtol: float = DEFAULT_RTOL,
                       atol: float = DEFAULT_ATOL) -> Trajectory:
    """Solve backward from t = 0 to t = -duration.

    Implemented as a forward solve of the negated field, re-indexed onto
    [-duration, 0].  The returned trajectory has increasing times ending at 0.
    """
    rhs = as_time_rhs(field)

    def reversed_rhs(t, y):
        return -np.asarray(rhs(-t, y), dtype=float)

    forward = integrate_ivp(reversed_rhs, x0, (0.0, float(duration)), rtol, atol)
    return forward.time_reversed()


def flow_with_jacobian(field: VectorField, x0, t_span, rtol: float = DEFAULT_RTOL,
                       atol: float = DEFAULT_ATOL):
    """Co-integrate a field with its variational matrix.

    Returns (trajectory of x, FlowJacobian), where the matrix solves
    dPhi/dt = (dfield/dx) Phi from Phi(t0) = I.
    """
    n = field.dim_in
    func = field.func

    def rhs(t, z):
        x = list(z[:n])
        phi = z[n:].reshape(n, n)
        dx = np.asarray(func(x), dtype=float)
        dphi = jacobian(field, x) @ phi
        return np.concatenate([dx, dphi.reshape(-1)])

    z0 = np.concatenate([np.asarray(x0, dtype=float), np.eye(n).reshape(-1)])
    t0, tf = float(t_span[0]), float(t_span[1])
    sol = _solve_segment(rhs, z0, t0, tf, rtol, atol)
    seg = _Segmented([sol.sol])
    traj = Trajectory(sol.t, sol.y.T[:, :n], lambda t: seg(t)[..., :n])
    flow = FlowJacobian(n, sol.t, sol.y.T[:, n:], lambda t: seg(t)[..., n:])
    return traj, flow


class HorizonFlow:
    """Lazily extendable forward solve used by improper-integral integrands.

    state(t) extends the underlying solution whenever t lies beyond the
    current horizon; previously integrated segments are reused.  t may be
    one time or a 1-D array of times (states stacked on axis 0).
    """

    def __init__(self, rhs, z0, rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL,
                 chunk: float = 20.0):
        self.rhs = rhs
        self.rtol = rtol
        self.atol = atol
        self.chunk = float(chunk)
        self._z0 = np.asarray(z0, dtype=float)
        self._traj: Trajectory | None = None

    @property
    def horizon(self) -> float:
        return 0.0 if self._traj is None else self._traj.tf

    def ensure(self, horizon: float) -> Trajectory:
        if self._traj is None:
            first = max(horizon, self.chunk)
            sol = _solve_segment(self.rhs, self._z0, 0.0, first, self.rtol, self.atol)
            self._traj = Trajectory(sol.t, sol.y.T, _Segmented([sol.sol]))
        while self._traj.tf < horizon:
            t_lo = self._traj.tf
            t_hi = max(horizon, 2.0 * t_lo)
            sol = _solve_segment(self.rhs, self._traj.endpoint, t_lo, t_hi,
                                 self.rtol, self.atol)
            seg = self._traj._eval.extended(sol.sol)
            times = np.concatenate([self._traj.times, sol.t[1:]])
            states = np.vstack([self._traj.states, sol.y.T[1:]])
            self._traj = Trajectory(times, states, seg)
        return self._traj

    def state(self, t) -> np.ndarray:
        if np.min(t) < 0:
            raise ValueError("HorizonFlow runs forward from t = 0")
        return self.ensure(float(np.max(t))).at(t)


@dataclass
class QuadratureResult:
    """Numerical integral with an error estimate.

    For improper integrals, horizon is the truncation point actually used
    and tail_estimate the fitted mass beyond it (an estimate, not a bound);
    both are folded into error_estimate.
    """

    value: object
    error_estimate: float
    nodes_used: int
    horizon: float | None = None
    tail_estimate: float | None = None
    meta: dict = field(default_factory=dict)


@functools.cache
def _gauss_legendre_pair(order: int):
    """Nodes of the order- and (2*order)-point Gauss-Legendre rules on
    [-1, 1], concatenated, and the weights of each rule."""
    coarse_nodes, coarse_weights = np.polynomial.legendre.leggauss(order)
    fine_nodes, fine_weights = np.polynomial.legendre.leggauss(2 * order)
    nodes = np.concatenate([coarse_nodes, fine_nodes])
    for arr in (nodes, coarse_weights, fine_weights):
        arr.flags.writeable = False
    return nodes, coarse_weights, fine_weights


def quadrature_finite(f, a: float, b: float, order: int = 12) -> QuadratureResult:
    """Gauss-Legendre integral of f over [a, b] at the given order.

    f is called once, with the 1-D array of the 3*order nodes of the
    order- and doubled-order rules, and returns its values stacked on
    axis 0: shape (3*order,) for a scalar integrand, (3*order, ...) for
    vector or matrix values.  The error estimate is the difference
    against the doubled-order rule.
    """
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    nodes, coarse_weights, fine_weights = _gauss_legendre_pair(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    values = np.asarray(f(mid + half * nodes), dtype=float)
    if values.shape[:1] != nodes.shape:
        raise ValueError(f"integrand returned shape {values.shape}, expected one value "
                         f"per node stacked on axis 0 ({len(nodes)} nodes)")
    coarse = half * np.tensordot(coarse_weights, values[:order], axes=1)
    fine = half * np.tensordot(fine_weights, values[order:], axes=1)
    err = float(np.linalg.norm(np.atleast_1d(coarse - fine)))
    value = coarse if np.ndim(coarse) else float(coarse)
    return QuadratureResult(value=value, error_estimate=err, nodes_used=len(nodes))


def composite_gauss_legendre(f, lo: float, hi: float, panel_width: float = 2.0,
                             order: int = 12):
    """(value, error estimate, nodes used) of f over [lo, hi], summed over
    equal panels about panel_width wide, each by quadrature_finite."""
    total, err, nodes = None, 0.0, 0
    edges = np.linspace(lo, hi, max(1, int(round((hi - lo) / panel_width))) + 1)
    for a, b in zip(edges[:-1], edges[1:]):
        part = quadrature_finite(f, float(a), float(b), order)
        piece = np.asarray(part.value, dtype=float)
        total = piece if total is None else total + piece
        err += part.error_estimate
        nodes += part.nodes_used
    return total, err, nodes


def _fit_exponential_tail(samples: list[tuple[float, float]], horizon: float):
    """Fit |f| ~ c exp(-2 lambda t) on the final half-window, integrate beyond."""
    window = [(t, v) for t, v in samples if t >= 0.5 * horizon and v > 0.0]
    if len(window) < 10:
        return None
    ts = np.array([t for t, _ in window])
    logs = np.log([v for _, v in window])
    slope, intercept = np.polyfit(ts, logs, 1)
    if slope >= 0.0:
        return None
    rate = -slope  # = 2 lambda in the fitted model
    return float(math.exp(intercept + slope * horizon) / rate)


def improper_time_integral(integrand, direction: str, tol: float = 1e-8,
                           initial_horizon: float = 20.0, max_doublings: int = 6,
                           panel_width: float = 2.0, order: int = 12) -> QuadratureResult:
    """Integrate to t = +/- infinity by horizon doubling.

    The integrand is sampled at |t| in [0, T] (direction 'forward' uses t,
    'backward' uses -t).  It is called once per panel with the 1-D array
    of that panel's nodes and returns its values stacked on axis 0, as
    in quadrature_finite.  Panels of fixed width are integrated by
    Gauss-Legendre; the horizon doubles until the last increment drops
    below tol.  The neglected tail is estimated from an exponential fit
    and reported in the error, not added to the value.
    """
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    sign = 1.0 if direction == "forward" else -1.0

    samples: list[tuple[float, float]] = []
    nodes_used = 0

    def f(tau: np.ndarray):
        nonlocal nodes_used
        nodes_used += len(tau)
        vals = np.asarray(integrand(sign * tau), dtype=float)
        rows = vals.reshape(len(tau), -1)
        finite = np.isfinite(rows).all(axis=1)
        if not finite.all():
            raise IntegrationError(f"integrand non-finite at t = {sign * tau[~finite][0]:g}")
        samples.extend(zip(tau.tolist(), np.linalg.norm(rows, axis=1).tolist()))
        return vals

    horizon = float(initial_horizon)
    value, quad_err, _ = composite_gauss_legendre(f, 0.0, horizon, panel_width, order)
    prev_increment = None
    stall = 0
    for _ in range(max_doublings):
        piece, err, _ = composite_gauss_legendre(f, horizon, 2.0 * horizon,
                                                 panel_width, order)
        horizon *= 2.0
        value = value + piece
        quad_err += err
        increment = float(np.linalg.norm(np.atleast_1d(piece)))
        if increment < tol:
            tail = _fit_exponential_tail(samples, horizon)
            total_err = quad_err + increment + (tail if tail is not None else 0.0)
            out = value if np.ndim(value) else float(value)
            return QuadratureResult(value=out, error_estimate=total_err,
                                    nodes_used=nodes_used, horizon=horizon,
                                    tail_estimate=tail,
                                    meta={"tail_fit": "ok" if tail is not None else "none"})
        if prev_increment is not None and increment >= 0.9 * prev_increment:
            stall += 1
            if stall >= 2:
                raise DivergenceError(
                    f"increments are not decaying (last two: {prev_increment:g}, {increment:g})")
        else:
            stall = 0
        prev_increment = increment
    raise DivergenceError(
        f"no convergence after {max_doublings} horizon doublings (T = {horizon:g}, "
        f"last increment {prev_increment:g} vs tol {tol:g})")
