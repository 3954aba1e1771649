"""Adaptive ODE integration, improper integrals along flows, and quadrature.

A Trajectory is a solved flow of the Dormand-Prince 8(5,3) pair: its
step times, its states, the solver's derivative at each of them and,
when the solve built one, its 7th-order dense output.  solve_ivp steps
scipy's DOP853 itself (dop853._DOP853, scipy's step with its per-call
overhead removed), taking the steps and floats of scipy's solve_ivp; it
imports vargram.dop853, and with it scipy, when it first runs.  For a
dense output it keeps, as scipy's solve_ivp does, the solver's
dense_output() after each accepted step, and a Trajectory evaluates
scipy's OdeSolution of those interpolants (Hairer, Norsett & Wanner,
Solving Ordinary Differential Equations I, 2nd ed., Sec. II.6).  Only
integrate_ivp and HorizonFlow build one; the integrals along flows and
the decay fits read the accepted steps.

An integral along a flow is accumulated as part of the flow: the state
ends in a cost block c whose rate is the integrand (calculus.flow_rhs),
so DOP853's error control covers the integral as it covers the flow, and
the integral up to T is c(T), read at the end of the solve with no
quadrature and no dense output.  An improper one doubles its horizon
from INITIAL_HORIZON = 20, at most MAX_DOUBLINGS = 6 times, until the
last increment c(2T) - c(T) drops below tol; the tail beyond is estimated
by an exponential fit (fit_exponential, the one behind verify's decay
fits too) to the integrand at the solver's accepted steps (the cost rows
of the derivatives the solver took there).  A
non-decaying integrand is an error, never an implicit infinity.  The
error estimate is that last increment plus the tail; the integrator's
own error is not estimated.  nodes_used counts the integrand samples:
the accepted steps of the solves up to a point's horizon.  A bare
integrand g(t) is integrated the same way, as the flow c' = g(t).

Every flow is solved at DEFAULT_RTOL and DEFAULT_ATOL, read when the
solve starts (_solved); only scipy's solver interface (solve_ivp,
_solve_segment) takes tolerances as arguments.

A right-hand side fun(t, y) takes one solver state, shape (N,), and
returns its derivative in the same shape.  A (B, dim) stack of initial
states is integrated as one solve: the right-hand side receives the
(dim, B) state, one column per point (batched flows are autonomous and
ignore t), and a step is accepted only when each point's own DOP853
error norm accepts it (the norm is the maximum over points), so every
point meets the tolerances it would meet alone.  Improper integrals over
such a batch stop doubling the horizon point by point.  A stack of one is
solved as its one state, so a flow integral's point is a batch of one.

Inside a shared_flows() scope a solve of a flow kernel with a cost block
from a stack of one state, made without a dense output, is made once:
asked again for the same computation (the func of the kernel's field,
the kernel's key, the start state, span and tolerances), it hands back
the Trajectory it stored, read-only.  These are the solves a verify run
asks for twice: a decay fit and an energy from the same start, both
stacks of one.  The store holds at most SHARED_BYTES of arrays, dropping
the least recently used first; a stored solve keeps its arrays and
nothing else.  One-state solves, larger batches, dense outputs, flows
without a cost block, plain callables and solves that raise are never
stored, and the store is dropped when the scope closes.
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

# an improper integral doubles its first horizon, INITIAL_HORIZON, at most
# MAX_DOUBLINGS times
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
    solves, with their dense output.

    times, shape (S + 1,), are the step times and states, (S + 1, N), the
    states there as the solver lays them out; dydt, (S + 1, N) or None,
    holds the solver's derivative at each of them; dense is scipy's
    OdeSolution of the solver's Dop853DenseOutput interpolants, one per
    step, or None for a solve made without dense output.  A batch of B
    points holds its (dim, B) solver state flattened, N = dim * B, and
    hands out states as (B, dim).
    """

    def __init__(self, times: np.ndarray, states: np.ndarray, dense=None,
                 batch: int | None = None, dydt: np.ndarray | None = None):
        self.times = np.asarray(times, dtype=float)
        self.states = np.asarray(states, dtype=float)
        self.dense = dense
        self.batch = batch
        self.dydt = dydt
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

        The dense output's value there: a time lies on the first step
        whose end is not before it (the earlier step at a step time)."""
        if self.dense is None:
            raise ValueError("trajectory was solved without dense output")
        return self._points(self.dense(_within_span(t, self.t0, self.tf)).T)

    def then(self, later: "Trajectory") -> "Trajectory":
        """This flow followed by that of a solve from where it ends."""
        from vargram.dop853 import OdeSolution

        times = np.concatenate([self.times, later.times[1:]])
        dense = dydt = None
        if self.dense is not None and later.dense is not None:
            dense = OdeSolution(times, self.dense.interpolants + later.dense.interpolants)
        if self.dydt is not None and later.dydt is not None:
            dydt = np.concatenate([self.dydt, later.dydt[1:]])
        return Trajectory(times, np.concatenate([self.states, later.states[1:]]), dense,
                          self.batch, dydt)


@dataclass
class Solution:
    """Result of solve_ivp: the step times t, shape (S + 1,), states y and
    the derivatives dydt there, both shape (N, S + 1) as scipy lays them
    out; nfev; status 0 when tf was reached, 1 when the event crossed zero
    (at t_event, state y_event) and -1 when the solver failed (message);
    when tf was reached and a dense output was asked for, dense is scipy's
    OdeSolution of the steps taken, else None."""

    t: np.ndarray
    y: np.ndarray
    dydt: np.ndarray
    nfev: int
    status: int
    message: str | None
    dense: object | None
    t_event: float | None = None
    y_event: np.ndarray | None = None


def solve_ivp(fun, t_span, y0, *, event, method=None, dense=True, **options) -> Solution:
    """Integrate dy/dt = fun(t, y) from y0 over t_span = (t0, tf) by
    calling the step() of `method`, a dop853._DOP853 (the default, None)
    built with options such as rtol and atol, until its status is no
    longer "running": the steps, nfev and floats of scipy's
    solve_ivp(..., method=DOP853, dense_output=dense).

    fun takes one state (N,) (module docstring).  With dense, the
    solver's dense_output() is kept after each accepted step, as scipy's
    solve_ivp keeps it, and scipy's counting wrapper of fun counts its
    three extra stages in nfev.  The derivative at each kept state is the
    one the solver computed there (its first-same-as-last stage), at no
    call.  When it returns, the solver drops scipy's two wrappers of fun,
    closures over the solver, so that reference counting frees it.

    event(t, y) is a terminal event crossing upwards: after each accepted
    step at which it is >= 0 (having been <= 0 before), its root on that
    step's interpolant is found by brentq at xtol = rtol = 4 eps, as
    scipy finds a terminal event, and the solve stops with status 1.
    """
    from vargram.dop853 import _DOP853, OdeSolution, brentq

    t0, tf = map(float, t_span)
    solver = (_DOP853 if method is None else method)(fun, t0, y0, tf, **options)
    ts, ys, dydts, steps = [t0], [y0], [solver.f], []
    crossing = event(t0, y0)
    t_event = y_event = None
    while solver.status == "running":
        message = solver.step()
        if solver.status == "failed":
            break
        previous, crossing = crossing, event(solver.t, solver.y)
        if previous <= 0 <= crossing:
            step = solver.dense_output()
            t_event = brentq(lambda s: event(s, step(s)), solver.t_old, solver.t,
                             xtol=4 * EPS, rtol=4 * EPS)
            y_event = step(t_event)
            break
        ts.append(solver.t)
        ys.append(solver.y)
        dydts.append(solver.f)
        if dense:
            steps.append(solver.dense_output())
    status = -1 if solver.status == "failed" else 0 if t_event is None else 1
    del solver.fun, solver.fun_vectorized
    ts = np.array(ts)
    return Solution(ts, np.array(ys).T, np.array(dydts).T, solver.nfev, status, message,
                    OdeSolution(ts, steps) if status == 0 and steps else None,
                    t_event, y_event)


def _solve_segment(rhs, x0, t0: float, tf: float, rtol: float, atol: float,
                   dense: bool = True) -> Solution:
    """solve_ivp by DOP853 from one state x0, shape (dim,), or one solve of
    a (B, dim) stack, B > 1, where rhs(t, z) takes and returns the
    (dim, B) state, and the error norm is taken per point
    (dop853._BatchDOP853); a stack of one is
    solved as its one state.  The solver runs a trial step's stages in
    one call of rhs.stages for one state and, through the batch's wrapper
    of rhs, of rhs.batch_stages for a batch, when rhs has them
    (calculus.flow_rhs).  BlowUpError when a state's norm reaches
    BLOWUP_NORM, naming the escaped point of a batch; IntegrationError,
    with the time and state norm reached, when the step size underflows.
    The norms leave out the last rhs.cost components of a state, the
    cost block of a calculus.flow_rhs flow, which is not part of it."""
    from vargram.dop853 import _BatchDOP853

    x0 = np.asarray(x0, dtype=float)
    if not np.all(np.isfinite(x0)):
        raise IntegrationError("non-finite initial state")
    batch, dim = x0.reshape(-1, x0.shape[-1]).shape
    flow = dim - getattr(rhs, "cost", 0)
    if batch == 1:
        fun, y0, options = rhs, x0.reshape(dim), {}

        def largest(y):  # np.linalg.norm's float for the solver's 1-D state
            y = y[:flow]
            return math.sqrt(y.dot(y))

        def escaped(y):
            return None
    else:
        y0, options = x0.T.reshape(-1), {"method": _BatchDOP853, "batch": batch}

        def fun(t, y):
            return rhs(t, y.reshape(dim, batch)).reshape(-1)

        if hasattr(rhs, "batch_stages"):
            fun.stages = rhs.batch_stages

        def point_norms(y):
            return np.linalg.norm(y.reshape(dim, batch)[:flow], axis=0)

        def largest(y):
            return point_norms(y).max()

        def escaped(y):
            return int(np.argmax(point_norms(y)))

    if largest(y0) >= BLOWUP_NORM:
        raise BlowUpError(t0, escaped(y0))

    def blow_up(t, y):
        return largest(y) - BLOWUP_NORM

    sol = solve_ivp(fun, (t0, tf), y0, rtol=rtol, atol=atol, event=blow_up, dense=dense,
                    **options)
    if sol.status == 1:
        raise BlowUpError(float(sol.t_event), escaped(sol.y_event))
    if sol.status != 0:
        reached = sol.y[:, -1]
        raise IntegrationError(
            f"integrator failed on [{t0:g}, {tf:g}] at t = {sol.t[-1]:.6g}, state norm "
            f"{float(largest(reached)):.3g}{_at_point(escaped(reached))}: {sol.message}")
    return sol


# Bytes of arrays a shared_flows scope keeps at most.  A default verify run on
# paper_sec5 stores 0.53 MiB in 335 of its 400 solves, all kept; larger runs
# keep the reuse of a decay fit by the energy right after it in bounded
# memory.
SHARED_BYTES = 2 ** 22

# key -> (Trajectory, bytes of its arrays) of the open shared_flows scope,
# least recently used first; None outside one.
_shared: dict | None = None
_shared_nbytes = 0


@contextlib.contextmanager
def shared_flows():
    """Scope within which each stack-of-one solve of a cost flow is made once.

    Inside it, _solved keys a solve without a dense output of a
    calculus.flow_rhs right-hand side with a cost block (rhs.cost > 0)
    from a (1, dim) stack on what it computes: the func of the kernel's
    field and the kernel's key (rhs.kernel), the start state's bytes, t0,
    tf, rtol and atol.  A solve asked for again returns the stored
    Trajectory, whose arrays are read-only.  A horizon extension starts
    at the endpoint of the segment before it, so extensions share as
    chains.  Never stored: one-state (dim,) solves, batches of more than
    one (a batch's steps depend on its members), dense outputs, flows
    without a cost block (no energy solves them again), plain callables
    and solves that raise.  Past SHARED_BYTES of arrays the least
    recently used trajectories are dropped, to be solved again if asked
    for.  A scope opened inside an open one joins it; the store is
    dropped when the outermost one closes.  It is usable as a decorator.
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


def _solved(rhs, x0, t0: float, tf: float, dense: bool = True) -> Trajectory:
    """Trajectory of _solve_segment from x0, one state or a (B, dim) batch,
    at the tolerances DEFAULT_RTOL and DEFAULT_ATOL, read when the solve
    starts, with its dense output unless dense is false; the stored one
    when the open shared_flows scope has made this solve, and stored,
    read-only, when the scope keeps it, dropping the least recently used
    until at most SHARED_BYTES are kept."""
    global _shared_nbytes
    x0 = np.asarray(x0, dtype=float)
    batch = None if x0.ndim == 1 else len(x0)
    key = None
    if (_shared is not None and not dense and batch == 1 and getattr(rhs, "cost", 0)
            and hasattr(rhs, "kernel")):
        field, flow = rhs.kernel
        key = (field.func, flow, x0.tobytes(), t0, tf, DEFAULT_RTOL, DEFAULT_ATOL)
        stored = _shared.pop(key, None)
        if stored is not None:
            _shared[key] = stored  # now the most recently used
            return stored[0]
    sol = _solve_segment(rhs, x0, t0, tf, DEFAULT_RTOL, DEFAULT_ATOL, dense)
    traj = Trajectory(sol.t, sol.y.T, sol.dense, batch, sol.dydt.T)
    if key is not None:
        arrays = (traj.times, traj.states, traj.dydt)
        for array in arrays:
            array.flags.writeable = False
        nbytes = sum(array.nbytes for array in arrays)
        _shared[key] = traj, nbytes
        _shared_nbytes += nbytes
        while _shared_nbytes > SHARED_BYTES:
            _shared_nbytes -= _shared.pop(next(iter(_shared)))[1]
    return traj


def integrate_ivp(field, x0, t_span) -> Trajectory:
    """Solve an initial value problem forward on t_span = (t0, tf), finite
    with t0 < tf (ValueError otherwise).

    field is a VectorField (autonomous), run through its traced kernel
    (calculus.flow_rhs), or a right-hand side rhs(t, y) taking one solver
    state (module docstring).  Raises BlowUpError with the
    escape time if the state norm passes 1e12, and IntegrationError on
    step-size underflow.
    """
    t0, tf = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(tf) and t0 < tf):
        raise ValueError(f"t_span must be finite with t0 < tf, got ({t0:g}, {tf:g})")
    rhs = flow_rhs(field) if isinstance(field, VectorField) else field
    return _solved(rhs, x0, t0, tf)


class HorizonFlow:
    """Lazily extendable forward solve whose states are looked up by time.

    state(t) extends the underlying solution whenever t lies beyond the
    current horizon; previously integrated segments are reused.  t may be
    one time or a 1-D array of times (states stacked on axis 0).  The
    first solve covers [0, INITIAL_HORIZON], the first horizon of an
    improper integral, and each extension at least doubles the horizon,
    so the solver pieces do not depend on how the requested times are
    grouped into calls.  rhs takes one solver state (module docstring).
    A (B, dim) stack
    z0 is solved as one batch (see _solve_segment), and state(t) then has
    shape (B, dim) or (N, B, dim).
    """

    def __init__(self, rhs, z0):
        self.rhs = rhs
        self._z0 = np.asarray(z0, dtype=float)
        self._traj: Trajectory | None = None

    @property
    def horizon(self) -> float:
        return 0.0 if self._traj is None else self._traj.tf

    def ensure(self, horizon: float) -> Trajectory:
        if self._traj is None:
            self._traj = _solved(self.rhs, self._z0, 0.0, INITIAL_HORIZON)
        while self._traj.tf < horizon:
            t_lo = self._traj.tf
            t_hi = max(horizon, 2.0 * t_lo)
            self._traj = self._traj.then(_solved(self.rhs, self._traj.endpoint, t_lo, t_hi))
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
    both are folded into error_estimate.  nodes_used counts the integrand
    samples: the quadrature nodes of quadrature_finite, or the accepted
    steps of the solves an integral along a flow took up to its horizon.
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
    nodes, coarse_weights, fine_weights = _gauss_legendre_pair(order)
    half = 0.5 * (b - a)
    taus = 0.5 * (a + b) + half * nodes
    values = np.asarray(f(taus), dtype=float)
    if values.shape[:1] != taus.shape:
        raise ValueError(f"integrand returned shape {values.shape}, expected one value "
                         f"per node stacked on axis 0 ({len(taus)} nodes)")
    # each rule is np.tensordot(weights, nodes' values, axes=1), spelled as
    # the 2-D product tensordot performs
    flat = values.reshape(len(taus), -1)
    coarse = half * np.dot(coarse_weights[None, :], flat[:order]).reshape(values.shape[1:])
    fine = half * np.dot(fine_weights[None, :], flat[order:]).reshape(values.shape[1:])
    return QuadratureResult(value=coarse if np.ndim(coarse) else float(coarse),
                            error_estimate=float(np.linalg.norm(coarse - fine)),
                            nodes_used=len(taus))


# fewest positive samples an exponential fit reads in its window: three,
# so that its line leaves a residual.  The windows of accepted steps in the
# tests and the benchmark workloads hold 5 or more, alone or in a batch, so
# whether a point was batched does not decide whether it gets a fit.
MIN_FIT_SAMPLES = 3


def fit_exponential(times, values):
    """Fit log values ~ intercept + slope t by least squares on the later
    half of the increasing times, each sample weighted by the length of
    the step that ends there, so that the fit does not depend on where a
    solver crowds its steps.  Samples whose value is not positive have no
    logarithm and are left out.  Returns (slope, intercept, the weighted
    root-mean-square residual of the logs, (first, last) time of the
    window), or None when the window holds fewer than MIN_FIT_SAMPLES."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    steps = np.diff(times, prepend=times[0])
    keep = (times >= 0.5 * (times[0] + times[-1])) & (values > 0.0)
    if np.count_nonzero(keep) < MIN_FIT_SAMPLES:
        return None
    t, logs, w = times[keep], np.log(values[keep]), steps[keep]
    slope, intercept = np.polyfit(t, logs, 1, w=np.sqrt(w))
    residual = math.sqrt(w.dot((logs - (slope * t + intercept)) ** 2) / w.sum())
    return float(slope), float(intercept), residual, (float(t[0]), float(t[-1]))


def _tail(times: np.ndarray, norms: np.ndarray) -> float | None:
    """The integral of norms beyond the last time under the exponential
    fit_exponential fits to them; None without a decaying fit."""
    fit = fit_exponential(times, norms)
    if fit is None or fit[0] >= 0.0:
        return None
    slope, intercept = fit[:2]
    return math.exp(intercept + slope * times[-1]) / -slope


# points per batched flow of flow_integrals.  A batch's arrays (its states
# and their derivatives at every accepted step) grow with its points, so
# fixed batches bound the memory of a large stack
MAX_BATCH = 64


def flow_integrals(rhs, z0, tol: float = 1e-8,
                   fixed_horizon: float | None = None,
                   weight: float = 1.0) -> list[QuadratureResult]:
    """weight times the cost block of the flow of rhs from each row of z0,
    a (B, dim) stack whose cost blocks are zero, at t = +/- infinity, one
    result per row, its value the block's (rhs.cost,) entries.

    rhs is a calculus.flow_rhs right-hand side with a cost block
    (rhs.cost > 0), taking one state or a (dim, B) batch, one point per
    column; a backward integral is the flow of the time-reversed field
    (whose cost block is never negated).  The integral runs from 0 to
    infinity by horizon doubling (see _cost_integrals), or over
    [0, fixed_horizon] when given, by one solve whose error estimate is 0:
    no truncation error is tracked there.  The stack is solved in order,
    in batched flows of up to MAX_BATCH points, which bounds their
    memory.  No solve builds a dense output; each runs at DEFAULT_RTOL
    and DEFAULT_ATOL, tol being the caller's only numerical setting.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol:g}")
    z0 = np.asarray(z0, dtype=float)
    return [res for start in range(0, len(z0), MAX_BATCH)
            for res in _cost_integrals(rhs, z0[start:start + MAX_BATCH], tol,
                                       fixed_horizon, weight)]


def _cost_integrals(rhs, z0: np.ndarray, tol: float,
                    fixed_horizon: float | None, weight: float) -> list[QuadratureResult]:
    """flow_integrals of one batch of B points.

    The flow is solved on [0, INITIAL_HORIZON], then on [T, 2 T] from
    where it ended, at most MAX_DOUBLINGS times, until a point's last
    increment |c(2 T) - c(T)| drops below tol; that point keeps the value,
    error, tail fit, horizon and step count it had there, while doubling
    continues for the others.  A point whose cost block and integrand are
    exactly zero at every accepted step of [0, INITIAL_HORIZON] converges
    there with value 0.  The neglected tail is estimated from an
    exponential fit to the integrand's norm at the accepted steps and
    reported in the error, not added to the value.  A point that
    diverges raises for the whole batch, naming the point if B > 1.
    """
    batch, cost = len(z0), rhs.cost
    names = list(range(batch)) if batch > 1 else [None]  # a batch of one is one point
    times: list[np.ndarray] = []  # the accepted step times, and each point's
    rates: list[np.ndarray] = []  # integrand norm there, (steps, B)
    steps = 0

    def advance(z: np.ndarray, lo: float, hi: float) -> np.ndarray:
        nonlocal steps
        traj = _solved(rhs, z, lo, hi, dense=False)
        first = 0 if not times else 1  # a segment starts where the last one ended
        times.append(traj.times[first:])
        rates.append(np.linalg.norm(weight * traj._points(traj.dydt[first:])[..., -cost:],
                                    axis=-1))
        steps += len(traj.times) - 1
        return traj.endpoint

    if batch == 0:
        return []
    if fixed_horizon is not None:
        ends = advance(z0, 0.0, float(fixed_horizon))
        return [QuadratureResult(value=weight * end[-cost:], error_estimate=0.0,
                                 nodes_used=steps, horizon=float(fixed_horizon),
                                 meta={"tail": "untracked (fixed horizon)"})
                for end in ends]

    def result(value: np.ndarray, error: float, tail: float | None) -> QuadratureResult:
        return QuadratureResult(value=value, error_estimate=error, nodes_used=steps,
                                horizon=horizon, tail_estimate=tail,
                                meta={"tail_fit": "ok" if tail is not None else "none"})

    horizon = INITIAL_HORIZON
    ends = advance(z0, 0.0, horizon)
    values = [weight * end[-cost:] for end in ends]
    results: list[QuadratureResult | None] = [
        result(values[b], 0.0, None) if not values[b].any() and not rates[0][:, b].any()
        else None for b in range(batch)]
    prev_increments: list[float | None] = [None] * batch
    stalls = [0] * batch
    for _ in range(MAX_DOUBLINGS):
        if all(res is not None for res in results):
            return results
        ends = advance(ends, horizon, 2.0 * horizon)
        horizon *= 2.0
        every = None  # (times, rates) so far, joined at this doubling's first convergence
        for b, end in enumerate(ends):
            if results[b] is not None:
                continue
            value = weight * end[-cost:]
            increment = float(np.linalg.norm(value - values[b]))
            values[b] = value
            if increment < tol:
                if every is None:
                    every = np.concatenate(times), np.concatenate(rates)
                tail = _tail(every[0], every[1][:, b])
                results[b] = result(value, increment + (tail if tail is not None else 0.0), tail)
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


def improper_time_integral(integrand, direction: str, tol: float = 1e-8) -> QuadratureResult:
    """Integrate to t = +/- infinity by horizon doubling.

    integrand(t) takes a 1-D array of times (t >= 0 for 'forward', t <= 0
    for 'backward') and returns its values stacked on axis 0; its integral
    is the cost c' = integrand(+/- tau), solved as a flow on the horizon
    doubling of flow_integrals, as a batch of one.  A non-finite value
    raises IntegrationError.
    """
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    sign = 1.0 if direction == "forward" else -1.0
    shape = np.shape(integrand(np.zeros(1)))[1:]
    size = math.prod(shape)

    def rhs(t, c):
        values = np.asarray(integrand(np.array([sign * t])), dtype=float).reshape(size)
        if not np.isfinite(values).all():
            raise IntegrationError(f"integrand non-finite at t = {sign * t:g}")
        return values

    rhs.cost = size
    (res,) = flow_integrals(rhs, np.zeros((1, size)), tol)
    res.value = res.value.reshape(shape) if shape else float(res.value[0])
    return res
