"""The step loop and the dense output against scipy.

integrate.solve_ivp steps scipy's DOP853 itself, and DenseSteps evaluates
the steps' Dop853DenseOutput coefficients for all requested times at once.
These tests pin both to scipy: the steps, nfev and states of scipy's
solve_ivp(method=DOP853, dense_output=True), the values of its
OdeSolution, and the time and point of its terminal event, all bitwise.
A change to scipy's interpolant or to its event handling fails here.
"""

import numpy as np
import pytest
import scipy.integrate
from scipy.integrate import DOP853, OdeSolution

from vargram.calculus import VectorField
from vargram.energy import diff_observability
from vargram.expr import parse_system_spec
from vargram.integrate import (BLOWUP_NORM, DEFAULT_ATOL, DEFAULT_RTOL, BlowUpError,
                               DenseSteps, _BatchDOP853, _dense, integrate_ivp, solve_ivp)
from vargram.systems import from_spec, prolong, registry

from test_batch_flows import ESCAPING

TOLS = {"rtol": DEFAULT_RTOL, "atol": DEFAULT_ATOL}
BATCH = 5


def _sec5_rhs():
    return prolong(registry("paper_sec5")).rhs


def _batch_fun(rhs, dim: int, batch: int):
    """rhs of a (dim, B) batch on its flattened state, as _solve_segment
    hands it to the solver."""
    return lambda t, y: rhs(t, y.reshape(dim, batch)).reshape(-1)


def _single():
    """(fun, y0, method options) of one paper_sec5 prolonged state."""
    return _sec5_rhs(), np.array([0.3, -0.2, 0.6, 0.8]), {}


def _batched():
    """(fun, y0, method options) of a batch of B prolonged states."""
    z0 = np.random.default_rng(5).uniform(-0.4, 0.4, (BATCH, 4))
    return (_batch_fun(_sec5_rhs(), 4, BATCH), z0.T.reshape(-1),
            {"method": _BatchDOP853, "batch": BATCH})


def _scipy(fun, y0, t_span, options, **kwargs):
    method = options.get("method", DOP853)
    extra = {k: v for k, v in options.items() if k != "method"}
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
    assert np.array_equal(ours.dense(times), ref.sol(times).T)


def _times(ts: np.ndarray) -> np.ndarray:
    """Random times, every step time and both span ends, shuffled."""
    rng = np.random.default_rng(11)
    times = np.concatenate([rng.uniform(ts[0], ts[-1], 300), ts, [ts[0], ts[-1]]])
    return rng.permutation(times)


@pytest.mark.parametrize("case", [_single, _batched], ids=["single", "batch"])
def test_dense_steps_equal_scipys_ode_solution(case):
    fun, y0, options = case()
    ref = _scipy(fun, y0, (0.0, 20.0), options).sol
    steps = DenseSteps.of(ref.interpolants)
    times = _times(ref.ts)
    assert np.array_equal(steps(times), ref(times).T)
    for t in (ref.ts[0], ref.ts[7], 3.3, ref.ts[-1]):
        assert np.array_equal(steps(t), ref(t))
    if "batch" in options:  # the (B, dim) layout of a batch's states
        dense = _dense(steps, BATCH)
        assert np.array_equal(dense(times), ref(times).reshape(4, BATCH, -1).T)
        assert np.array_equal(dense(3.3), ref(3.3).reshape(4, BATCH).T)


def test_consecutive_solves_equal_one_chained_ode_solution():
    fun, y0, options = _single()
    first = _scipy(fun, y0, (0.0, 20.0), options)
    second = _scipy(fun, first.y[:, -1], (20.0, 40.0), options)
    chained = OdeSolution(np.concatenate([first.sol.ts, second.sol.ts[1:]]),
                          first.sol.interpolants + second.sol.interpolants)
    steps = DenseSteps.of(first.sol.interpolants).then(
        DenseSteps.of(second.sol.interpolants))
    times = _times(chained.ts)
    assert np.array_equal(steps(times), chained(times).T)
    assert np.array_equal(steps(20.0), chained(20.0))


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
