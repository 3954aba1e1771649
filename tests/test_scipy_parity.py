"""The step loop and the dense output against scipy.

integrate.solve_ivp steps scipy's DOP853 through _DOP853's lean step,
builds the steps' Dop853DenseOutput coefficients after the loop for all
steps at once, and Trajectory evaluates them for all requested times at
once.  These tests pin all three to scipy: the steps, nfev and states of
scipy's solve_ivp(method=DOP853, dense_output=True), its per-step
coefficients, the values of its OdeSolution, and the time and point of
its terminal event, all bitwise.  A batch is pinned to scipy's own step
with the per-point error norm of _BatchDOP853.  A change to scipy's step,
interpolant or event handling fails here.
"""

import numpy as np
import pytest
import scipy.integrate
from scipy.integrate import DOP853, OdeSolution

from vargram.calculus import VectorField
from vargram.energy import diff_observability
from vargram.expr import parse_system_spec
from vargram.dop853 import _BatchDOP853
from vargram.integrate import (BLOWUP_NORM, DEFAULT_ATOL, DEFAULT_RTOL, BlowUpError,
                               Trajectory, integrate_ivp, solve_ivp, variational_rhs)
from vargram.systems import from_spec, prolong, registry

from test_batch_flows import ESCAPING

TOLS = {"rtol": DEFAULT_RTOL, "atol": DEFAULT_ATOL}
BATCH = 5


class _ScipyBatchDOP853(DOP853):
    """scipy's own DOP853 step with the per-point error norm of
    _BatchDOP853: the reference for a batch."""

    def __init__(self, fun, t0, y0, t_bound, batch: int, **options):
        self.batch = batch
        super().__init__(fun, t0, y0, t_bound, **options)

    _estimate_error_norm = _BatchDOP853._estimate_error_norm


def _sec5_rhs():
    return prolong(registry("paper_sec5")).rhs


def _batch_fun(rhs, dim: int, batch: int):
    """rhs of a (dim, B) batch on its flattened state, or on an (N, S)
    stack of such states, as _solve_segment hands it to the solver."""
    return lambda t, y: rhs(t, y.reshape(dim, -1)).reshape(y.shape)


def _single():
    """(fun, y0, method options) of one paper_sec5 prolonged state."""
    return _sec5_rhs(), np.array([0.3, -0.2, 0.6, 0.8]), {}


def _batched():
    """(fun, y0, method options) of a batch of B prolonged states."""
    z0 = np.random.default_rng(5).uniform(-0.4, 0.4, (BATCH, 4))
    return (_batch_fun(_sec5_rhs(), 4, BATCH), z0.T.reshape(-1),
            {"method": _BatchDOP853, "batch": BATCH})


def _reference(options):
    """scipy's solver class, and its options, for a case's options."""
    method = _ScipyBatchDOP853 if "batch" in options else DOP853
    return method, {k: v for k, v in options.items() if k != "method"}


def _scipy(fun, y0, t_span, options, **kwargs):
    method, extra = _reference(options)
    return scipy.integrate.solve_ivp(fun, t_span, y0, method=method, dense_output=True,
                                     **TOLS, **extra, **kwargs)


@pytest.mark.parametrize("case", [_single, _batched], ids=["single", "batch"])
def test_solve_ivp_takes_scipys_steps(case):
    fun, y0, options = case()
    ours = solve_ivp(fun, (0.0, 20.0), y0, event=lambda t, y: -1.0, **TOLS, **options)
    ref = _scipy(fun, y0, (0.0, 20.0), options)
    assert (ours.status, ref.status) == (0, 0)
    assert ours.nfev == ref.nfev
    assert np.array_equal(ours.t, ref.t)
    assert np.array_equal(ours.y, ref.y)
    times = _times(ref.t)
    flow = Trajectory(ours.t, ours.y.T, ours.dense)
    assert np.array_equal(flow.at(times), ref.sol(times).T)


def _steps_of(interpolants: list, ts: np.ndarray, y_end: np.ndarray,
              batch: int | None = None) -> Trajectory:
    """Trajectory of scipy's Dop853DenseOutput interpolants over the step
    times ts (OdeSolution.ts), ending at the state y_end."""
    assert np.array_equal(ts[:-1], [p.t_old for p in interpolants])
    assert np.array_equal(np.diff(ts), [p.h for p in interpolants])
    return Trajectory(ts, np.array([p.y_old for p in interpolants] + [y_end]),
                      np.stack([p.F for p in interpolants], axis=1), batch)


def _trajectory_of(sol, batch: int | None = None) -> Trajectory:
    """Trajectory of a scipy solve_ivp result with dense_output=True."""
    return _steps_of(sol.sol.interpolants, sol.sol.ts, sol.y[:, -1], batch)


def _times(ts: np.ndarray) -> np.ndarray:
    """Random times, every step time and both span ends, shuffled."""
    rng = np.random.default_rng(11)
    times = np.concatenate([rng.uniform(ts[0], ts[-1], 300), ts, [ts[0], ts[-1]]])
    return rng.permutation(times)


@pytest.mark.parametrize("case", [_single, _batched], ids=["single", "batch"])
def test_dense_steps_equal_scipys_ode_solution(case):
    fun, y0, options = case()
    sol = _scipy(fun, y0, (0.0, 20.0), options)
    ref, steps = sol.sol, _trajectory_of(sol)
    times = _times(ref.ts)
    assert np.array_equal(steps.at(times), ref(times).T)
    for t in (ref.ts[0], ref.ts[7], 3.3, ref.ts[-1]):
        assert np.array_equal(steps.at(t), ref(t))
    if "batch" in options:  # the (B, dim) layout of a batch's states
        points = _trajectory_of(sol, BATCH)
        assert np.array_equal(points.at(times), ref(times).reshape(4, BATCH, -1).T)
        assert np.array_equal(points.at(3.3), ref(3.3).reshape(4, BATCH).T)
        assert np.array_equal(points.endpoint, sol.y[:, -1].reshape(4, BATCH).T)


def test_consecutive_solves_equal_one_chained_ode_solution():
    for case in (_single, _batched):
        fun, y0, options = case()
        batch = options.get("batch")
        first = _scipy(fun, y0, (0.0, 20.0), options)
        second = _scipy(fun, first.y[:, -1], (20.0, 40.0), options)
        chained = OdeSolution(np.concatenate([first.sol.ts, second.sol.ts[1:]]),
                              first.sol.interpolants + second.sol.interpolants)
        steps = _trajectory_of(first, batch).then(_trajectory_of(second, batch))

        def layout(y):  # solver states (..., N) as a batch hands them out, (..., B, dim)
            if batch is None:
                return y
            return y.reshape(y.shape[:-1] + (4, batch)).swapaxes(-1, -2)

        times = _times(chained.ts)
        assert np.array_equal(steps.at(times), layout(chained(times).T))
        assert np.array_equal(steps.at(20.0), layout(chained(20.0)))
        assert np.array_equal(steps.times, chained.ts)


N4_SPEC = {"name": "n4", "n": 4, "m": 1, "p": 1,
           "f": ["-x1 + 0.5*x2", "-x2 + 0.3*x3 - 0.1*x1^3", "-0.7*x3 + x4", "-x4 - 0.2*x1*x2"],
           "g": [["0"], ["0"], ["0"], ["1"]], "h": ["x1"], "k": ["-x4"]}


def _gramian_flow():
    """(fun, y0, method options) of the 20-state empirical-Gramian flow,
    (x, Phi) from (x0, I), of an n = 4 --spec system."""
    field = from_spec(parse_system_spec(N4_SPEC)).f
    z0 = np.concatenate([[0.4, -0.3, 0.2, 0.1], np.eye(4).ravel()])
    return variational_rhs(field, 4), z0, {}


def _per_step_coefficients(fun, y0, t_span, options) -> Trajectory:
    """Trajectory of scipy's dense_output() after each step: its times,
    step lengths h, states y and coefficients F."""
    method, extra = _reference(options)
    solver = method(fun, t_span[0], y0, t_span[1], **TOLS, **extra)
    ts, steps = [solver.t], []
    while solver.status == "running":
        solver.step()
        ts.append(solver.t)
        steps.append(solver.dense_output())
    assert solver.status == "finished"
    return _steps_of(steps, np.array(ts), solver.y)


@pytest.mark.parametrize("case", [_gramian_flow, _batched], ids=["gramian n=4", "batch"])
def test_after_the_loop_coefficients_equal_scipys_per_step_dense_output(case):
    fun, y0, options = case()
    ours = solve_ivp(fun, (0.0, 20.0), y0, event=lambda t, y: -1.0, **TOLS, **options)
    ref = _per_step_coefficients(fun, y0, (0.0, 20.0), options)
    assert np.array_equal(ours.t, ref.times)  # so the step lengths h are scipy's (_steps_of)
    assert np.array_equal(ours.y.T, ref.states)
    assert np.array_equal(ours.dense, ref.F)
    assert ref.F.shape[1] > 20  # enough steps to stack


def test_integrate_ivp_of_a_time_dependent_callable_equals_scipy():
    def fun(t, y):
        return -y + np.sin(t)

    ours = integrate_ivp(fun, [1.0], (0.0, 10.0))
    ref = _scipy(fun, np.array([1.0]), (0.0, 10.0), {})
    times = np.random.default_rng(3).uniform(0.0, 10.0, 200)
    assert np.array_equal(ours.times, ref.t)
    assert np.array_equal(ours.at(times), ref.sol(times).T)


def test_a_callable_of_one_state_still_integrates():
    def fun(t, y):
        x1, x2 = y.tolist()  # one state only: a stack would give two lists
        return [x2, -x1 - 0.5 * x2]

    ours = integrate_ivp(fun, [1.0, 0.0], (0.0, 5.0))
    ref = _scipy(fun, np.array([1.0, 0.0]), (0.0, 5.0), {})
    assert np.array_equal(ours.times, ref.t)
    assert np.array_equal(ours.at(ref.t[::3]), ref.sol(ref.t[::3]).T)


def _van_der_pol(t, y):
    """mu = 10: stiff enough that DOP853 rejects steps; takes stacks."""
    return np.array([y[1], -y[0] + 10.0 * (1.0 - y[0] ** 2) * y[1]])


@pytest.mark.parametrize("batch", [None, 3])
def test_nfev_equals_scipys_on_a_solve_that_rejects_steps(batch):
    if batch is None:
        fun, y0, options = _van_der_pol, np.array([2.0, 0.0]), {}
    else:
        z0 = np.array([[2.0, 0.0], [1.0, 1.0], [-0.5, 2.0]])
        fun, y0 = _batch_fun(_van_der_pol, 2, batch), z0.T.reshape(-1)
        options = {"method": _BatchDOP853, "batch": batch}
    ours = solve_ivp(fun, (0.0, 10.0), y0, event=lambda t, y: -1.0, **TOLS, **options)
    ref = _scipy(fun, y0, (0.0, 10.0), options)
    steps = len(ref.t) - 1
    assert ref.nfev > 2 + 15 * steps  # 12 per trial step, 3 per dense output
    assert ours.nfev == ref.nfev
    assert np.array_equal(ours.t, ref.t) and np.array_equal(ours.y, ref.y)


def _terminal_escape(fun, y0, t_span, options, largest):
    """Time and state of scipy's terminal event at largest(y) = BLOWUP_NORM."""
    def blow_up(t, y):
        return float(largest(y)) - BLOWUP_NORM

    blow_up.terminal = True
    blow_up.direction = 1
    sol = _scipy(fun, y0, t_span, options, events=blow_up)
    assert sol.status == 1
    return float(sol.t_events[0][0]), sol.y_events[0][0]


def test_blow_up_time_is_the_terminal_event_time():
    # dx/dt = x^2 from 1 escapes at t = 1
    field = VectorField(1, 1, lambda xs: [xs[0] ** 2])
    with pytest.raises(BlowUpError) as err:
        integrate_ivp(field, [1.0], (0.0, 2.0))
    fun = lambda t, y: np.asarray(field.func(list(y)), dtype=float)  # noqa: E731
    t_event, _ = _terminal_escape(fun, np.array([1.0]), (0.0, 2.0), {}, np.linalg.norm)
    assert err.value.escape_time == t_event
    assert err.value.point is None


def test_blow_up_time_and_point_of_a_batch_are_the_terminal_events():
    system = from_spec(parse_system_spec(ESCAPING))
    stack = np.array([[-0.5], [0.5], [1.5], [0.25]])
    with pytest.raises(BlowUpError) as err:
        diff_observability(system, stack, np.ones_like(stack))

    batch = len(stack)
    z0 = np.concatenate([stack, np.ones_like(stack)], axis=1)

    def norms(y):
        return np.linalg.norm(y.reshape(2, batch), axis=0)

    t_event, y_event = _terminal_escape(
        _batch_fun(prolong(system).rhs, 2, batch), z0.T.reshape(-1), (0.0, 20.0),
        {"method": _BatchDOP853, "batch": batch}, lambda y: norms(y).max())
    assert err.value.escape_time == t_event
    assert err.value.point == int(np.argmax(norms(y_event))) == 2
