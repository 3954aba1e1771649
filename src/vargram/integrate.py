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
Their settings are module constants: panels about PANEL_WIDTH = 2 wide by
the PANEL_ORDER = 12-point Gauss-Legendre rule, and a first horizon of
INITIAL_HORIZON = 20 doubled at most MAX_DOUBLINGS = 6 times.

A right-hand side fun(t, y) takes one solver state, shape (N,), or an
(N, S) stack of S states with t giving the time of each column, and
returns the derivatives in the same shape.  A (B, dim) stack of initial
states is integrated as one solve: the right-hand side receives the
(dim, B) state, one column per point (batched flows are autonomous and
ignore t), and a step is accepted only when each point's own DOP853
error norm accepts it (the norm is the maximum over points), so every
point meets the tolerances it would meet alone.  Improper integrals over
such a batch stop doubling the horizon point by point.  A stack of one is
solved as its one state, so a flow integral's point is a batch of one.

Inside a shared_flows() scope a one-state solve of a flow kernel is made
once: asked again for the same kernel, start state, span and tolerances,
it hands back the Trajectory it stored, read-only.  The store holds at
most SHARED_BYTES of arrays, dropping the least recently used first.
Batched solves, plain callables and solves that raise are never stored,
and the store is dropped when the scope closes.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from vargram.calculus import VectorField, flow_rhs

BLOWUP_NORM = 1e12
EPS = np.finfo(float).eps

DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-12

# a flow integral sums Gauss-Legendre panels about PANEL_WIDTH wide, each by
# the PANEL_ORDER-point rule; an improper one doubles its first horizon,
# INITIAL_HORIZON, at most MAX_DOUBLINGS times
PANEL_WIDTH = 2.0
PANEL_ORDER = 12
INITIAL_HORIZON = 20.0
MAX_DOUBLINGS = 6


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
        # OdeSolver.step's transitions; a zero-length span finishes unstepped
        t = solver.t
        stepped, message = (True, None) if t == tf else solver._step_impl()
        if not stepped:
            status = -1
            break
        solver.t_old = t
        if solver.direction * (solver.t - tf) >= 0:
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
    a (B, dim) stack, B > 1, where rhs(t, z) takes and returns the
    (dim, B) state, or a (dim, B * S) stack of S such states, and the
    error norm is taken per point (dop853._BatchDOP853); a stack of one is
    solved as its one state.  BlowUpError when a state's norm reaches
    BLOWUP_NORM, naming the escaped point of a batch; IntegrationError,
    with the time and state norm reached, when the step size underflows."""
    from vargram.dop853 import _BatchDOP853

    x0 = np.asarray(x0, dtype=float)
    if not np.all(np.isfinite(x0)):
        raise IntegrationError("non-finite initial state")
    batch, dim = x0.reshape(-1, x0.shape[-1]).shape
    if batch == 1:
        fun, y0, options = rhs, x0.reshape(dim), {}

        def largest(y):  # _norm's float for the solver's 1-D state
            return math.sqrt(y.dot(y))

        def escaped(y):
            return None
    else:
        y0, options = x0.T.reshape(-1), {"method": _BatchDOP853, "batch": batch}

        def fun(t, y):
            return rhs(t, y.reshape(dim, -1)).reshape(y.shape)

        def point_norms(y):
            return np.linalg.norm(y.reshape(dim, batch), axis=0)

        def largest(y):
            return point_norms(y).max()

        def escaped(y):
            return int(np.argmax(point_norms(y)))

    if largest(y0) >= BLOWUP_NORM:
        raise BlowUpError(t0, escaped(y0))

    def blow_up(t, y):
        return largest(y) - BLOWUP_NORM

    sol = solve_ivp(fun, (t0, tf), y0, rtol=rtol, atol=atol, event=blow_up, **options)
    if sol.status == 1:
        raise BlowUpError(float(sol.t_event), escaped(sol.y_event))
    if sol.status != 0:
        reached = sol.y[:, -1]
        raise IntegrationError(
            f"integrator failed on [{t0:g}, {tf:g}] at t = {sol.t[-1]:.6g}, state norm "
            f"{float(largest(reached)):.3g}{_at_point(escaped(reached))}: {sol.message}")
    return sol


# Bytes of arrays a shared_flows scope keeps at most.  A default verify
# run on paper_sec5 stores 1.5 MiB, all kept; larger budgets keep the
# reuse of a decay fit by the energy right after it in bounded memory.
SHARED_BYTES = 2 ** 21

# key -> (Trajectory, field, field.func, bytes of its arrays) of the open
# shared_flows scope, least recently used first; None outside one.  The
# field and func are kept so that their ids in the key stay theirs while
# the scope is open.
_shared: dict | None = None
_shared_nbytes = 0


@contextlib.contextmanager
def shared_flows():
    """Scope within which each one-state flow-kernel solve is made once.

    Inside it, _solved keys a solve of a calculus.flow_rhs right-hand side
    from one state (dim,), or a stack of one, on the kernel (the ids of its
    field and of the field's func, and its key), the start state's bytes,
    t0, tf, rtol and atol, and a solve asked for again returns the stored
    Trajectory, whose arrays are read-only.  A horizon extension starts at
    the endpoint of the segment before it, so extensions share as chains.
    Never stored: batched solves (a batch's steps depend on its members),
    plain callables and solves that raise.  Past SHARED_BYTES of arrays
    the least recently used trajectories are dropped, to be solved again
    if asked for.  A scope opened inside an open one joins it; the store
    is dropped when the outermost one closes.  It is usable as a decorator.
    """
    global _shared, _shared_nbytes
    if _shared is not None:
        yield
        return
    _shared, _shared_nbytes = {}, 0
    try:
        yield
    finally:
        _shared = None


def _solved(rhs, x0, t0: float, tf: float, rtol: float, atol: float) -> Trajectory:
    """Trajectory of _solve_segment from x0, one state or a (B, dim) batch;
    the stored one when the open shared_flows scope has made this solve."""
    x0 = np.asarray(x0, dtype=float)
    batch = None if x0.ndim == 1 else len(x0)
    kernel = getattr(rhs, "kernel", None)
    key = None
    if _shared is not None and kernel is not None and x0.size == x0.shape[-1]:
        field, flow = kernel
        key = id(field), id(field.func), flow, x0.tobytes(), t0, tf, rtol, atol
        stored = _shared.pop(key, None)
        if stored is not None:
            _shared[key] = stored  # now the most recently used
            traj = stored[0]
            return traj if traj.batch == batch else Trajectory(traj.times, traj.states,
                                                               traj.F, batch)
    sol = _solve_segment(rhs, x0, t0, tf, rtol, atol)
    traj = Trajectory(sol.t, sol.y.T, sol.dense, batch)
    if key is not None:
        _store(key, traj, field)
    return traj


def _store(key, traj: Trajectory, field) -> None:
    """Keep traj, read-only, under key in the open shared_flows scope, then
    drop the least recently used until at most SHARED_BYTES are kept."""
    global _shared_nbytes
    arrays = traj.times, traj.states, traj.F
    for array in arrays:
        array.flags.writeable = False
    nbytes = sum(array.nbytes for array in arrays)
    _shared[key] = traj, field, field.func, nbytes
    _shared_nbytes += nbytes
    while _shared_nbytes > SHARED_BYTES:
        _shared_nbytes -= _shared.pop(next(iter(_shared)))[3]


def integrate_ivp(field, x0, t_span, rtol: float = DEFAULT_RTOL,
                  atol: float = DEFAULT_ATOL) -> Trajectory:
    """Solve an initial value problem forward on t_span = (t0, tf), finite
    with t0 < tf (ValueError otherwise).

    field is a VectorField (autonomous), run through its traced kernel
    (calculus.flow_rhs), or a callable rhs(t, y) of one state, called one
    column at a time on a stack of states (per_column).  Raises
    BlowUpError with the escape time if the state norm passes 1e12, and
    IntegrationError on step-size underflow.
    """
    t0, tf = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(tf) and t0 < tf):
        raise ValueError(f"t_span must be finite with t0 < tf, got ({t0:g}, {tf:g})")
    rhs = flow_rhs(field) if isinstance(field, VectorField) else per_column(field)
    return _solved(rhs, x0, t0, tf, rtol, atol)


def per_column(fun):
    """rhs(t, y) of fun(t, y), a right-hand side of one state: y is one
    state, or an (N, S) stack whose columns fun gets one at a time, each
    with its own time (module docstring)."""
    def rhs(t, y):
        if y.ndim == 1:
            return np.asarray(fun(t, y), dtype=float)
        return np.stack([np.asarray(fun(s, z), dtype=float) for s, z in zip(t, y.T)], axis=1)

    return rhs


class HorizonFlow:
    """Lazily extendable forward solve used by improper-integral integrands.

    state(t) extends the underlying solution whenever t lies beyond the
    current horizon; previously integrated segments are reused.  t may be
    one time or a 1-D array of times (states stacked on axis 0).  The
    first solve covers [0, chunk], by default the first horizon of an
    improper integral (INITIAL_HORIZON), and each extension at least
    doubles the horizon, so the solver pieces do not depend on how the
    requested times are grouped into calls.  rhs takes one state or a
    stack of states, one per column (module docstring).  A (B, dim) stack
    z0 is solved as one batch (see _solve_segment), and state(t) then has
    shape (B, dim) or (N, B, dim).
    """

    def __init__(self, rhs, z0, rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL,
                 chunk: float = INITIAL_HORIZON):
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
    return math.sqrt(flat.dot(flat))


def _point_norms(a) -> np.ndarray:
    """2-norm of each point's slice a[b] of a (B, ...) array, shape (B,)."""
    return np.array([_norm(part) for part in a])


def _gauss_legendre_panels(f, edges: np.ndarray, order: int):
    """(value, error estimate, nodes used) of f summed over the panels
    between consecutive edges: value (B, ...) and error (B,), per point.

    f is called once, with the 3*order nodes of every panel, panel-major
    (each panel's order-point nodes, then its doubled-order ones), and
    returns their (nodes, B, ...) values.  Each panel's value is the
    order-point rule and its error the difference against the
    doubled-order rule; both are summed panel by panel, in order.
    """
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
        err = err + _point_norms(coarse - fine)
        total = coarse if total is None else total + coarse
    return total, err, len(taus)


def _one_point(f):
    """f, its values stacked on axis 0, as a batch of one: point axis 1."""
    return lambda t: np.expand_dims(np.asarray(f(t), dtype=float), 1)


def quadrature_finite(f, a: float, b: float, order: int = 12) -> QuadratureResult:
    """Gauss-Legendre integral of f over [a, b] at the given order.

    f is called once, with the 1-D array of the 3*order nodes of the
    order- and doubled-order rules, and returns its values stacked on
    axis 0: shape (3*order,) for a scalar integrand, (3*order, ...) for
    vector or matrix values.  The error estimate is the difference
    against the doubled-order rule.
    """
    (value,), (err,), nodes = _gauss_legendre_panels(_one_point(f),
                                                     np.array([a, b], dtype=float), order)
    return QuadratureResult(value=value if np.ndim(value) else float(value),
                            error_estimate=float(err), nodes_used=nodes)


def composite_gauss_legendre(f, lo: float, hi: float):
    """(value, error estimate, nodes used) of f over [lo, hi], summed over
    equal panels about PANEL_WIDTH wide, each by the PANEL_ORDER rule of
    quadrature_finite.  f is called once, with the nodes of every panel,
    and returns (nodes, B, ...) values (see _gauss_legendre_panels), so
    each point's value and error are quadrature_finite's, panel-summed."""
    edges = np.linspace(lo, hi, max(1, int(round((hi - lo) / PANEL_WIDTH))) + 1)
    return _gauss_legendre_panels(f, edges, PANEL_ORDER)


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
    """Integrals of integrand(z(|t|)) along the flow of rhs from each row
    of z0, a (B, dim) stack, one result per row.

    rhs takes one state or a stack of states, one per column (module
    docstring), as calculus.flow_rhs does.  integrand maps an (N, dim)
    stack of states to their N values stacked on axis 0, and is called
    once per horizon segment.  The integral runs over t from 0 to +/-
    infinity (improper_time_integrals; for 'backward' rhs must already be
    the time-reversed field), or over [0, fixed_horizon] when given.  The
    stack is solved in order, in batched flows of up to MAX_BATCH points,
    which bounds their memory.
    """
    z0 = np.asarray(z0, dtype=float)
    return [res for start in range(0, len(z0), MAX_BATCH)
            for res in _flow_integrals(rhs, z0[start:start + MAX_BATCH], integrand,
                                       direction, tol, rtol, atol, fixed_horizon)]


def _flow_integrals(rhs, z0: np.ndarray, integrand, direction: str, tol: float,
                    rtol: float, atol: float,
                    fixed_horizon: float | None) -> list[QuadratureResult]:
    """flow_integrals of one batch, from one HorizonFlow."""
    flow = HorizonFlow(rhs, z0, rtol=rtol, atol=atol)

    def f(t: np.ndarray) -> np.ndarray:
        z = flow.state(np.abs(t))
        values = integrand(z.reshape(-1, z.shape[-1]))  # one state per row
        return values.reshape(z.shape[:-1] + values.shape[1:])

    if fixed_horizon is None:
        if len(z0) == 1:  # one point, as a timing wrapper of improper_time_integral sees it
            return [improper_time_integral(lambda t: f(t)[:, 0], direction=direction, tol=tol)]
        return improper_time_integrals(f, direction, len(z0), tol=tol)
    value, err, nodes = composite_gauss_legendre(f, 0.0, float(fixed_horizon))
    return [QuadratureResult(value=v, error_estimate=float(e), nodes_used=nodes,
                             horizon=float(fixed_horizon),
                             meta={"tail": "untracked (fixed horizon)"})
            for v, e in zip(value, err)]


def improper_time_integral(integrand, direction: str, tol: float = 1e-8) -> QuadratureResult:
    """Integrate to t = +/- infinity by horizon doubling.

    The integrand is sampled at |t| in [0, T] (direction 'forward' uses t,
    'backward' uses -t).  It is called once per horizon segment ([0, T0],
    then [T0, 2 T0], [2 T0, 4 T0], ...) with the 1-D array of all that
    segment's nodes and returns its values stacked on axis 0: the
    integral of improper_time_integrals over a batch of one.
    """
    return improper_time_integrals(_one_point(integrand), direction, 1, tol)[0]


def improper_time_integrals(integrand, direction: str, batch: int,
                            tol: float = 1e-8) -> list[QuadratureResult]:
    """improper_time_integral of B integrals sampled together, one result
    per point: the integrand returns (nodes, B, ...) values.

    The horizon starts at INITIAL_HORIZON and doubles, at most
    MAX_DOUBLINGS times, until a point's last increment drops below
    tol > 0; that point keeps the value, error, tail fit, horizon and node
    count it had there, while doubling continues for the others.  The
    neglected tail is estimated from an exponential fit and reported in
    the error, not added to the value.  A point that diverges, or a
    non-finite value, raises for the whole batch, naming the point if B > 1.
    """
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol:g}")
    sign = 1.0 if direction == "forward" else -1.0
    names = list(range(batch)) if batch > 1 else [None]  # a batch of one is one point

    taus: list[np.ndarray] = []  # every node sampled, and the norm of each point's value
    norms: list[np.ndarray] = []

    def f(tau: np.ndarray):
        vals = np.asarray(integrand(sign * tau), dtype=float)
        rows = vals.reshape(len(tau), batch, -1)
        finite = np.isfinite(rows).all(axis=2)
        if not finite.all():
            node, b = np.argwhere(~finite)[0]
            raise IntegrationError(f"integrand non-finite at t = {sign * tau[node]:g}"
                                   + _at_point(names[b]))
        taus.append(tau)
        norms.append(np.linalg.norm(rows, axis=2))
        return vals

    horizon = INITIAL_HORIZON
    value, quad_err, _ = composite_gauss_legendre(f, 0.0, horizon)
    values, errs = list(value), list(quad_err)
    results: list[QuadratureResult | None] = [None] * batch
    prev_increments: list[float | None] = [None] * batch
    stalls = [0] * batch
    for _ in range(MAX_DOUBLINGS):
        piece, err, _ = composite_gauss_legendre(f, horizon, 2.0 * horizon)
        horizon *= 2.0
        for b, (part, part_err, increment) in enumerate(zip(piece, err,
                                                            _point_norms(piece))):
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
                        + _at_point(names[b]))
            else:
                stalls[b] = 0
            prev_increments[b] = increment
        if all(res is not None for res in results):
            return results
    b = results.index(None)
    raise DivergenceError(
        f"no convergence after {MAX_DOUBLINGS} horizon doublings (T = {horizon:g}, "
        f"last increment {prev_increments[b]:g} vs tol {tol:g})" + _at_point(names[b]))
