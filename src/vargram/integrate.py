"""Adaptive ODE integration and quadrature utilities.

A Trajectory is a solved flow of the Dormand-Prince 8(5,3) pair: its
step times, its states and the coefficients of its 7th-order dense
output, so downstream quadrature can sample between accepted steps.
solve_ivp steps scipy's DOP853 itself (dop853._DOP853, scipy's step with
its per-call overhead removed), taking the steps and floats of scipy's
solve_ivp; it imports vargram.dop853, and with it scipy, when it first
runs.  It keeps each accepted step's stages and, after the loop,
evaluates the interpolant's three extra stages of all steps at once,
keeping the coefficients as one array, so that a lookup evaluates any
number of times in one pass (Hairer, Norsett & Wanner, Solving Ordinary
Differential Equations I, 2nd ed., Sec. II.6).
Improper time integrals use horizon doubling with an exponential tail
fit; a non-decaying integrand is an error, never an implicit infinity.

A right-hand side fun(t, y) takes one solver state, shape (N,), or an
(N, S) stack of S states with t giving the time of each column, and
returns the derivatives in the same shape.  A (B, dim) stack of initial
states is integrated as one solve: the right-hand side receives the
(dim, B) state, one column per point (batched flows are autonomous and
ignore t), and a step is accepted only when each point's own DOP853
error norm accepts it (the norm is the maximum over points), so every
point meets the tolerances it would meet alone.  Improper integrals over
such a batch stop doubling the horizon point by point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from vargram.calculus import VectorField, flow_rhs

BLOWUP_NORM = 1e12
EPS = np.finfo(float).eps

DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-12


class IntegrationError(RuntimeError):
    pass


def _at_point(point: int | None) -> str:
    """Suffix naming the point of a batch an error belongs to."""
    return "" if point is None else f" at point {point}"


class BlowUpError(IntegrationError):
    """State norm exceeded BLOWUP_NORM before the requested horizon; in a
    batch, point is the index of the state that escaped."""

    def __init__(self, escape_time: float, point: int | None = None):
        super().__init__(f"state norm exceeded {BLOWUP_NORM:g} near t = {escape_time:.6g}"
                         + _at_point(point))
        self.escape_time = escape_time
        self.point = point


class DivergenceError(IntegrationError):
    """Improper integral whose increments refuse to decay."""


def _within_span(t, t0: float, tf: float):
    """t clipped to [t0, tf]; ValueError if it lies outside by more than
    a relative 1e-9."""
    slack = 1e-9 * (1.0 + abs(t0) + abs(tf))
    lo, hi = np.min(t), np.max(t)
    if lo < t0 - slack or hi > tf + slack:
        bad = lo if lo < t0 - slack else hi
        raise ValueError(f"t = {bad:g} outside trajectory span [{t0:g}, {tf:g}]")
    return np.clip(t, t0, tf)


class Trajectory:
    """A solved flow: the steps of one DOP853 solve, or of consecutive
    solves, with their dense output, evaluated as scipy's OdeSolution
    evaluates its Dop853DenseOutput interpolants, for every requested time
    in one pass.

    times, shape (S + 1,), are the step times and states, (S + 1, N), the
    states there as the solver lays them out; F, (7, S, N), holds the
    seven coefficient rows of each step's interpolant (built by
    dop853._DOP853.dense_steps).  A batch of B points holds its (dim, B)
    solver state flattened, N = dim * B, and hands out states as (B, dim).
    """

    def __init__(self, times: np.ndarray, states: np.ndarray, F: np.ndarray,
                 batch: int | None = None):
        self.times = np.asarray(times, dtype=float)
        self.states = np.asarray(states, dtype=float)
        self.F = F
        self.batch = batch
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
    def endpoint(self) -> np.ndarray:
        return self._points(self.states[-1]).copy()

    def _points(self, y: np.ndarray) -> np.ndarray:
        """Solver states (..., N) as (..., dim), or (..., B, dim) for a batch."""
        if self.batch is None:
            return y
        return y.reshape(y.shape[:-1] + (-1, self.batch)).swapaxes(-1, -2)

    def at(self, t) -> np.ndarray:
        """State at time t, shape (dim,), or at each entry of a 1-D array of
        times, stacked on axis 0; a batch adds its point axis before dim.

        A time lies on the first step whose end is not before it (the
        earlier step at a step time), and its state is scipy's recurrence:
        x = (t - t_old) / h, y = 0, then y += F[k] and y *= x (k even) or
        1 - x (k odd) for k = 6, ..., 0, then y += y_old."""
        t = _within_span(t, self.t0, self.tf)
        times = np.atleast_1d(t)
        step = np.searchsorted(self.times[:-1], times, side="left") - 1
        step[step < 0] = 0
        t_old = self.times[step]
        x = ((times - t_old) / (self.times[step + 1] - t_old))[:, None]
        one_minus_x = 1 - x
        y = np.zeros((len(times), self.states.shape[1]))
        for k in range(6, -1, -1):
            y += self.F[k][step]
            y *= x if k % 2 == 0 else one_minus_x
        y += self.states[step]
        return self._points(y if np.ndim(t) else y[0])

    def then(self, later: "Trajectory") -> "Trajectory":
        """This flow followed by that of a solve from where it ends."""
        return Trajectory(np.concatenate([self.times, later.times[1:]]),
                          np.concatenate([self.states, later.states[1:]]),
                          np.concatenate([self.F, later.F], axis=1), self.batch)


@dataclass
class Solution:
    """Result of solve_ivp: the step times t, shape (S + 1,), and states
    y, shape (N, S + 1), as scipy lays them out; nfev; status 0 when tf
    was reached, 1 when the event crossed zero (at t_event, state
    y_event) and -1 when the solver failed (message); when tf was reached,
    dense holds the interpolant coefficients of the steps taken, shape
    (7, S, N) (dop853._DOP853.dense_steps), else None."""

    t: np.ndarray
    y: np.ndarray
    nfev: int
    status: int
    message: str | None
    dense: np.ndarray | None
    t_event: float | None = None
    y_event: np.ndarray | None = None


def solve_ivp(fun, t_span, y0, *, event, method=None, **options) -> Solution:
    """Integrate dy/dt = fun(t, y) from y0 over t_span = (t0, tf) by
    stepping `method`, a dop853._DOP853 (the default, None) built with
    options such as rtol and atol, to tf: the steps, nfev and floats of
    scipy's solve_ivp(..., method=DOP853, dense_output=True).

    fun takes one state (N,) or an (N, S) stack with one time per column
    (module docstring).  The dense output is built after the loop from
    each accepted step's stages (dop853._DOP853.dense_steps).

    event(t, y) is a terminal event crossing upwards: after each accepted
    step at which it is >= 0 (having been <= 0 before), its root on that
    step's interpolant is found by brentq at xtol = rtol = 4 eps, as
    scipy finds a terminal event, and the solve stops with status 1.
    """
    from vargram.dop853 import _DOP853, brentq

    t0, tf = map(float, t_span)
    solver = (_DOP853 if method is None else method)(fun, t0, y0, tf, **options)
    ts, ys, stages = [t0], [y0], []
    crossing = event(t0, y0)
    status, message, t_event, y_event = None, None, None, None
    while status is None:
        message = solver.step()
        if solver.status == "failed":
            status = -1
            break
        if solver.status == "finished":
            status = 0
        previous, crossing = crossing, event(solver.t, solver.y)
        if previous <= 0 <= crossing:
            step = solver.dense_output()
            t_event = brentq(lambda s: event(s, step(s)), solver.t_old, solver.t,
                             xtol=4 * EPS, rtol=4 * EPS)
            y_event, status = step(t_event), 1
            break
        ts.append(solver.t)
        ys.append(solver.y)
        stages.append(solver.K_extended.copy())
    ts, ys = np.array(ts), np.array(ys)
    dense = solver.dense_steps(ts, ys, np.array(stages)) if status == 0 and stages else None
    return Solution(ts, ys.T, solver.nfev, status, message, dense, t_event, y_event)


def _solve_segment(rhs, x0, t0: float, tf: float, rtol: float, atol: float) -> Solution:
    """solve_ivp by DOP853 from one state x0, shape (dim,), or one solve of
    a (B, dim) stack, where rhs(t, z) takes and returns the (dim, B)
    state, or a (dim, B * S) stack of S such states, and the error norm
    is taken per point (dop853._BatchDOP853).  BlowUpError when a
    state's norm reaches BLOWUP_NORM, naming the escaped point of a
    batch; IntegrationError, with the time and state norm reached, when
    the step size underflows."""
    from vargram.dop853 import _BatchDOP853

    x0 = np.asarray(x0, dtype=float)
    if not np.all(np.isfinite(x0)):
        raise IntegrationError("non-finite initial state")
    if x0.ndim == 1:
        fun, y0, options = rhs, x0, {}
        largest, escaped = _norm, lambda y: None
    else:
        batch, dim = x0.shape
        y0, options = x0.T.reshape(-1), {"method": _BatchDOP853, "batch": batch}

        def fun(t, y):
            return rhs(t, y.reshape(dim, -1)).reshape(y.shape)

        def point_norms(y):
            return np.linalg.norm(y.reshape(dim, batch), axis=0)

        def largest(y):
            return point_norms(y).max()

        def escaped(y):
            return int(np.argmax(point_norms(y)))

    if float(largest(y0)) >= BLOWUP_NORM:
        raise BlowUpError(t0, escaped(y0))

    def blow_up(t, y):
        return float(largest(y)) - BLOWUP_NORM

    sol = solve_ivp(fun, (t0, tf), y0, rtol=rtol, atol=atol, event=blow_up, **options)
    if sol.status == 1:
        raise BlowUpError(float(sol.t_event), escaped(sol.y_event))
    if sol.status != 0:
        reached = sol.y[:, -1]
        raise IntegrationError(
            f"integrator failed on [{t0:g}, {tf:g}] at t = {sol.t[-1]:.6g}, state norm "
            f"{float(largest(reached)):.3g}{_at_point(escaped(reached))}: {sol.message}")
    return sol


def _solved(rhs, x0, t0: float, tf: float, rtol: float, atol: float) -> Trajectory:
    """Trajectory of _solve_segment from x0, one state or a (B, dim) batch."""
    x0 = np.asarray(x0, dtype=float)
    sol = _solve_segment(rhs, x0, t0, tf, rtol, atol)
    return Trajectory(sol.t, sol.y.T, sol.dense, None if x0.ndim == 1 else len(x0))


def integrate_ivp(field, x0, t_span, rtol: float = DEFAULT_RTOL,
                  atol: float = DEFAULT_ATOL) -> Trajectory:
    """Solve an initial value problem forward on t_span = (t0, tf), finite
    with t0 < tf (ValueError otherwise).

    field is a VectorField (autonomous), run through its traced kernel
    (calculus.flow_rhs), or a callable rhs(t, y) of one state, called one
    column at a time on a stack of states.  Raises BlowUpError with the
    escape time if the state norm passes 1e12, and IntegrationError on
    step-size underflow.
    """
    t0, tf = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(tf) and t0 < tf):
        raise ValueError(f"t_span must be finite with t0 < tf, got ({t0:g}, {tf:g})")
    if isinstance(field, VectorField):
        rhs = flow_rhs(field)
    else:
        def rhs(t, y):
            if y.ndim == 1:
                return np.asarray(field(t, y), dtype=float)
            return np.stack([np.asarray(field(s, z), dtype=float) for s, z in zip(t, y.T)],
                            axis=1)
    return _solved(rhs, x0, t0, tf, rtol, atol)


def variational_rhs(field: VectorField, width: int, sign: float = 1.0):
    """rhs(t, z) of a field co-integrated with its variational equation.

    z holds x (n entries) and then an n x width tangent block, row-major:
    a vector dx (width 1) or a matrix Phi (width n).  The rhs is
    sign * (field(x), J(x) dx) or sign * (field(x), J(x) Phi), with J the
    Jacobian of the field; sign = -1 runs the flow backward.  z may also
    be a (dim, B) batch, one column per point.  Each call is one call of
    the field's flow kernel, traced with duals carrying the tangent's
    rows (calculus.flow_rhs).
    """
    return flow_rhs(field, width=width, sign=sign)


class HorizonFlow:
    """Lazily extendable forward solve used by improper-integral integrands.

    state(t) extends the underlying solution whenever t lies beyond the
    current horizon; previously integrated segments are reused.  t may be
    one time or a 1-D array of times (states stacked on axis 0).  The
    first solve covers [0, chunk] and each extension at least doubles the
    horizon, so the solver pieces do not depend on how the requested times
    are grouped into calls.  rhs takes one state or a stack of states,
    one per column (module docstring).  A (B, dim) stack z0 is solved as
    one batch (see _solve_segment), and state(t) then has shape (B, dim)
    or (N, B, dim).
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
            self._traj = _solved(self.rhs, self._z0, 0.0, self.chunk, self.rtol, self.atol)
        while self._traj.tf < horizon:
            t_lo = self._traj.tf
            t_hi = max(horizon, 2.0 * t_lo)
            self._traj = self._traj.then(_solved(self.rhs, self._traj.endpoint, t_lo, t_hi,
                                                 self.rtol, self.atol))
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


def _norm(a) -> float:
    """2-norm of a number or an array, computed as np.linalg.norm computes
    it: the square root of the flattened array's dot product with itself."""
    flat = np.ravel(a, order="K")
    return float(np.sqrt(flat.dot(flat)))


def _point_norms(a, batch: int | None):
    """2-norm of a, a float; for a batch, of each point's slice a[b], an
    array (B,), each computed as the unbatched norm is."""
    if batch is None:
        return _norm(a)
    return np.array([_norm(part) for part in a])


def _gauss_legendre_panels(f, edges: np.ndarray, order: int, batch: int | None = None):
    """(value, error estimate, nodes used) of f summed over the panels
    between consecutive edges.

    f is called once, with the 3*order nodes of every panel, panel-major
    (each panel's order-point nodes, then its doubled-order ones), and
    returns its values stacked on axis 0.  Each panel's value is the
    order-point rule and its error the difference against the
    doubled-order rule; both are summed panel by panel, in order.  With
    a batch, values are (nodes, B, ...) and the error is one per point.
    """
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    nodes, coarse_weights, fine_weights = _gauss_legendre_pair(order)
    mids, halves = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    taus = (mids[:, None] + halves[:, None] * nodes).reshape(-1)
    values = np.asarray(f(taus), dtype=float)
    if values.shape[:1] != taus.shape:
        raise ValueError(f"integrand returned shape {values.shape}, expected one value "
                         f"per node stacked on axis 0 ({len(taus)} nodes)")
    total, err = None, 0.0
    # each rule is np.tensordot(weights, nodes' values, axes=1), spelled as
    # the 2-D product tensordot performs
    coarse_row, fine_row = coarse_weights[None, :], fine_weights[None, :]
    for half, panel in zip(halves, values.reshape((len(halves), len(nodes))
                                                  + values.shape[1:])):
        coarse = half * np.dot(coarse_row, panel[:order].reshape(order, -1)
                               ).reshape(panel.shape[1:])
        fine = half * np.dot(fine_row, panel[order:].reshape(2 * order, -1)
                             ).reshape(panel.shape[1:])
        err = err + _point_norms(coarse - fine, batch)
        total = coarse if total is None else total + coarse
    return total, err, len(taus)


def quadrature_finite(f, a: float, b: float, order: int = 12) -> QuadratureResult:
    """Gauss-Legendre integral of f over [a, b] at the given order.

    f is called once, with the 1-D array of the 3*order nodes of the
    order- and doubled-order rules, and returns its values stacked on
    axis 0: shape (3*order,) for a scalar integrand, (3*order, ...) for
    vector or matrix values.  The error estimate is the difference
    against the doubled-order rule.
    """
    value, err, nodes = _gauss_legendre_panels(f, np.array([a, b], dtype=float), order)
    return QuadratureResult(value=value if np.ndim(value) else float(value),
                            error_estimate=err, nodes_used=nodes)


def composite_gauss_legendre(f, lo: float, hi: float, panel_width: float = 2.0,
                             order: int = 12, batch: int | None = None):
    """(value, error estimate, nodes used) of f over [lo, hi], summed over
    equal panels about panel_width wide, each by the rule of
    quadrature_finite.  f is called once, with the nodes of every panel
    (see _gauss_legendre_panels), so value and error are the sums of
    quadrature_finite's per-panel results.  With batch = B, f returns
    (nodes, B, ...) values, and value and error carry the point axis."""
    edges = np.linspace(lo, hi, max(1, int(round((hi - lo) / panel_width))) + 1)
    return _gauss_legendre_panels(f, edges, order, batch)


def _fit_exponential_tail(ts: np.ndarray, norms: np.ndarray, horizon: float):
    """Fit |f| ~ c exp(-2 lambda t) to the samples (ts, norms) on the final
    half-window, integrate beyond."""
    keep = (ts >= 0.5 * horizon) & (norms > 0.0)
    if np.count_nonzero(keep) < 10:
        return None
    slope, intercept = np.polyfit(ts[keep], np.log(norms[keep]), 1)
    if slope >= 0.0:
        return None
    rate = -slope  # = 2 lambda in the fitted model
    return float(math.exp(intercept + slope * horizon) / rate)


# points per batched flow of flow_integrals.  A batch's arrays grow with
# points times quadrature nodes, about 0.1 MiB per point at the fixed
# horizon 40: on paper_sec5 a 21 x 21 Gramian scan took 0.3 s and peaked
# at 122 MiB in one batch of 441, 0.9 s and 88 MiB in batches of 64, and
# 8 s and 83 MiB one point at a time (one process on a 2-CPU x86-64 host)
MAX_BATCH = 64


def flow_integrals(rhs, z0, integrand, direction: str, tol: float = 1e-8,
                   rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL,
                   fixed_horizon: float | None = None) -> list[QuadratureResult]:
    """Integrals of integrand(z(|t|)) along the flow of rhs from z0, one
    result per initial state.

    rhs takes one state or a stack of states, one per column (module
    docstring), as calculus.flow_rhs does.  integrand maps an (N, dim)
    stack of states to their N values stacked on axis 0, and is called
    once per horizon segment.  The integral runs over t from 0 to +/-
    infinity (improper_time_integral; for 'backward' rhs must already be
    the time-reversed field), or over [0, fixed_horizon] when given.  A
    single state (dim,) gives a list of one; a (B, dim) stack is solved
    in order, in batched flows of up to MAX_BATCH points, which bounds
    their memory.
    """
    z0 = np.asarray(z0, dtype=float)
    if z0.ndim == 2:
        return [res for start in range(0, len(z0), MAX_BATCH)
                for res in _flow_integrals(rhs, z0[start:start + MAX_BATCH], integrand,
                                           direction, tol, rtol, atol, fixed_horizon)]
    return _flow_integrals(rhs, z0, integrand, direction, tol, rtol, atol, fixed_horizon)


def _flow_integrals(rhs, z0: np.ndarray, integrand, direction: str, tol: float,
                    rtol: float, atol: float,
                    fixed_horizon: float | None) -> list[QuadratureResult]:
    """flow_integrals of one state or of one batch, from one HorizonFlow."""
    batch = None if z0.ndim == 1 else len(z0)
    flow = HorizonFlow(rhs, z0, rtol=rtol, atol=atol)

    def f(t: np.ndarray) -> np.ndarray:
        z = flow.state(np.abs(t))
        lead = z.shape[:-1]
        z = z.reshape(-1, z.shape[-1])  # one state per row; frees a batch's lookup
        values = integrand(z)
        return values.reshape(lead + values.shape[1:])

    if fixed_horizon is None:
        if batch is None:
            return [improper_time_integral(f, direction=direction, tol=tol)]
        return improper_time_integrals(f, direction, batch, tol=tol)
    value, err, nodes = composite_gauss_legendre(f, 0.0, float(fixed_horizon), batch=batch)
    return [QuadratureResult(value=v, error_estimate=e, nodes_used=nodes,
                             horizon=float(fixed_horizon),
                             meta={"tail": "untracked (fixed horizon)"})
            for v, e in (zip(value, err) if batch else [(value, err)])]


def improper_time_integral(integrand, direction: str, tol: float = 1e-8,
                           initial_horizon: float = 20.0, max_doublings: int = 6,
                           panel_width: float = 2.0, order: int = 12) -> QuadratureResult:
    """Integrate to t = +/- infinity by horizon doubling.

    The integrand is sampled at |t| in [0, T] (direction 'forward' uses t,
    'backward' uses -t).  It is called once per horizon segment ([0, T0],
    then [T0, 2 T0], [2 T0, 4 T0], ...) with the 1-D array of all that
    segment's nodes and returns its values stacked on axis 0, as in
    composite_gauss_legendre.  Panels of fixed width are integrated by
    Gauss-Legendre; the horizon doubles until the last increment drops
    below tol > 0.  The neglected tail is estimated from an exponential
    fit and reported in the error, not added to the value.
    """
    return improper_time_integrals(integrand, direction, None, tol, initial_horizon,
                                   max_doublings, panel_width, order)[0]


def improper_time_integrals(integrand, direction: str, batch: int | None,
                            tol: float = 1e-8, initial_horizon: float = 20.0,
                            max_doublings: int = 6, panel_width: float = 2.0,
                            order: int = 12) -> list[QuadratureResult]:
    """improper_time_integral of B integrals sampled together, one result
    per point.

    The integrand returns (nodes, B, ...) values.  Convergence is judged
    per point: a point whose increment drops below tol keeps the value,
    error, tail fit, horizon and node count it had there, while doubling
    continues for the others.  A point that diverges, or a non-finite
    value, raises for the whole batch, naming the point.  batch = None
    is the unbatched integral of improper_time_integral, as a list of one.
    """
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol:g}")
    if max_doublings < 1:
        raise ValueError(f"max_doublings must be at least 1, got {max_doublings}")
    for name, length in (("initial_horizon", initial_horizon), ("panel_width", panel_width)):
        if not (math.isfinite(length) and length > 0):
            raise ValueError(f"{name} must be positive and finite, got {length:g}")
    sign = 1.0 if direction == "forward" else -1.0
    points = 1 if batch is None else batch

    def per_point(a) -> list:
        return [a] if batch is None else list(a)

    def point(b: int) -> int | None:
        return None if batch is None else b

    taus: list[np.ndarray] = []  # every node sampled, and the norm of each point's value
    norms: list[np.ndarray] = []

    def f(tau: np.ndarray):
        vals = np.asarray(integrand(sign * tau), dtype=float)
        rows = vals.reshape(len(tau), points, -1)
        finite = np.isfinite(rows).all(axis=2)
        if not finite.all():
            node, b = np.argwhere(~finite)[0]
            raise IntegrationError(f"integrand non-finite at t = {sign * tau[node]:g}"
                                   + _at_point(point(b)))
        taus.append(tau)
        norms.append(np.linalg.norm(rows, axis=2))
        return vals

    horizon = float(initial_horizon)
    value, quad_err, _ = composite_gauss_legendre(f, 0.0, horizon, panel_width, order, batch)
    values, errs = per_point(value), per_point(quad_err)
    results: list[QuadratureResult | None] = [None] * points
    prev_increments: list[float | None] = [None] * points
    stalls = [0] * points
    for _ in range(max_doublings):
        piece, err, _ = composite_gauss_legendre(f, horizon, 2.0 * horizon,
                                                 panel_width, order, batch)
        horizon *= 2.0
        for b, (part, part_err, increment) in enumerate(zip(
                per_point(piece), per_point(err), per_point(_point_norms(piece, batch)))):
            if results[b] is not None:
                continue
            values[b] = values[b] + part
            errs[b] += part_err
            increment = float(increment)
            if increment < tol:
                tail = _fit_exponential_tail(np.concatenate(taus),
                                             np.concatenate(norms)[:, b], horizon)
                total_err = errs[b] + increment + (tail if tail is not None else 0.0)
                out = values[b] if np.ndim(values[b]) else float(values[b])
                results[b] = QuadratureResult(
                    value=out, error_estimate=float(total_err), nodes_used=sum(map(len, taus)),
                    horizon=horizon, tail_estimate=tail,
                    meta={"tail_fit": "ok" if tail is not None else "none"})
                continue
            prev = prev_increments[b]
            if prev is not None and increment >= 0.9 * prev:
                stalls[b] += 1
                if stalls[b] >= 2:
                    raise DivergenceError(
                        f"increments are not decaying (last two: {prev:g}, {increment:g})"
                        + _at_point(point(b)))
            else:
                stalls[b] = 0
            prev_increments[b] = increment
        if all(res is not None for res in results):
            return results
    b = results.index(None)
    raise DivergenceError(
        f"no convergence after {max_doublings} horizon doublings (T = {horizon:g}, "
        f"last increment {prev_increments[b]:g} vs tol {tol:g})" + _at_point(point(b)))
