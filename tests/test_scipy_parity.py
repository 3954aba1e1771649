"""The step loop and the dense output against scipy.

integrate.solve_ivp steps scipy's DOP853 through _DOP853's lean step and
keeps scipy's dense output of each step, and Trajectory evaluates scipy's
OdeSolution of them, laid out by point for a batch.  These tests pin the
step loop to scipy: the steps, nfev and states of scipy's
solve_ivp(method=DOP853, dense_output=True), the values of its
OdeSolution, and the time and point of its terminal event, all bitwise.
A batch is pinned to scipy's own step with the per-point error norm of
_BatchDOP853.  A right-hand side without a loop entry is run by the
solver's stage-by-stage one, on one state per call.  A one-state flow
kernel runs all twelve stages of a trial step in one call of its loop
entry (calculus.flow_rhs's rhs.stages), which scipy never calls: its
solves are pinned to scipy's calls of rhs(t, y) too, for random
polynomial fields as well, as are the derivatives kept at its states and
the error its field raises at a middle stage and at the last one.  A
batch of a flow kernel's states runs them in one call of its batch entry
(rhs.batch_stages), pinned the same way to scipy's step with the batch's
error norm.  A change to scipy's step, interpolant or event handling
fails here.
"""

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st
from scipy.integrate import DOP853, OdeSolution

from vargram.calculus import Dual, VectorField, _primal, flow_rhs
from vargram.energy import diff_observability
from vargram.expr import ExprEvalError, parse_system_spec
from vargram.dop853 import _BatchDOP853, _DOP853
from vargram.integrate import (BLOWUP_NORM, DEFAULT_ATOL, DEFAULT_RTOL, BlowUpError,
                               Solution, Trajectory, _solve_segment, integrate_ivp, solve_ivp)
from vargram.systems import closed_loop_prolonged, from_spec, prolong, registry

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
    """rhs of a (dim, B) batch on its flattened state, as _solve_segment
    hands it to the solver."""
    return lambda t, y: rhs(t, y.reshape(dim, batch)).reshape(-1)


def _batch_entry_fun(rhs, dim: int, batch: int):
    """_batch_fun with rhs's batch entry as its loop entry over a trial
    step's stages, as _solve_segment hands a flow kernel's batch to the
    solver."""
    fun = _batch_fun(rhs, dim, batch)
    fun.stages = rhs.batch_stages
    return fun


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


def _trajectory_of(sol, batch: int | None = None) -> Trajectory:
    """Trajectory of a scipy solve_ivp result with dense_output=True."""
    return Trajectory(sol.t, sol.y.T, sol.sol, batch)


def _times(ts: np.ndarray) -> np.ndarray:
    """Random times, every step time and both span ends, shuffled."""
    rng = np.random.default_rng(11)
    times = np.concatenate([rng.uniform(ts[0], ts[-1], 300), ts, [ts[0], ts[-1]]])
    return rng.permutation(times)


@pytest.mark.parametrize("case", [_single, _batched], ids=["single", "batch"])
def test_dense_steps_equal_scipys_ode_solution(case):
    fun, y0, options = case()
    sol = _scipy(fun, y0, (0.0, 20.0), options)
    ours = solve_ivp(fun, (0.0, 20.0), y0, event=lambda t, y: -1.0, **TOLS, **options)
    ref, steps = sol.sol, Trajectory(ours.t, ours.y.T, ours.dense)
    times = _times(ref.ts)
    assert np.array_equal(steps.at(times), ref(times).T)
    for t in (ref.ts[0], ref.ts[7], 3.3, ref.ts[-1]):
        assert np.array_equal(steps.at(t), ref(t))
    if "batch" in options:  # the (B, dim) layout of a batch's states
        points = Trajectory(ours.t, ours.y.T, ours.dense, BATCH)
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
    return flow_rhs(field, width=4), z0, {}


def test_integrate_ivp_of_a_time_dependent_callable_equals_scipy():
    def fun(t, y):
        return -y + np.sin(t)

    ours = integrate_ivp(fun, [1.0], (0.0, 10.0))
    ref = _scipy(fun, np.array([1.0]), (0.0, 10.0), {})
    times = np.random.default_rng(3).uniform(0.0, 10.0, 200)
    assert np.array_equal(ours.times, ref.t)
    assert np.array_equal(ours.at(times), ref.sol(times).T)


def test_a_callable_is_run_as_given_on_one_state_only():
    # a plain right-hand side gets one state a call, in the steps' stages
    # and in the dense output's extra stages alike
    ndims = set()

    def fun(t, y):
        ndims.add(y.ndim)
        x1, x2 = y
        return np.array([x2, -x1 - 0.5 * x2])

    y0 = np.array([1.0, 0.0])
    ours = integrate_ivp(fun, y0, (0.0, 5.0))
    assert ndims == {1}
    ref = _scipy(fun, y0, (0.0, 5.0), {})
    assert np.array_equal(ours.times, ref.t)
    assert np.array_equal(ours.states, ref.y.T)
    assert np.array_equal(ours.at(ref.t[::3]), ref.sol(ref.t[::3]).T)
    assert solve_ivp(fun, (0.0, 5.0), y0, event=lambda t, y: -1.0, **TOLS).nfev == ref.nfev


def _van_der_pol(t, y):
    """mu = 10: stiff enough that DOP853 rejects steps; takes a batch's
    (dim, B) state too."""
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

    # the energy's flow ends in its cost block, which the norms leave out
    batch = len(stack)
    z0 = np.concatenate([stack, np.ones_like(stack), np.zeros_like(stack)], axis=1)

    def norms(y):
        return np.linalg.norm(y.reshape(3, batch)[:2], axis=0)

    t_event, y_event = _terminal_escape(
        _batch_fun(prolong(system, cost="dy").rhs, 3, batch), z0.T.reshape(-1), (0.0, 20.0),
        {"method": _BatchDOP853, "batch": batch}, lambda y: norms(y).max())
    assert err.value.escape_time == t_event
    assert err.value.point == int(np.argmax(norms(y_event))) == 2


def test_error_norm_equals_scipys_bitwise():
    """_DOP853's error norm against scipy's on random stages, step sizes of
    both signs and scales, on stages whose error is zero, and on stages
    whose norm is 0 / 0."""
    rng = np.random.default_rng(17)
    for n in (1, 4, 20):
        ours = _DOP853(lambda t, y: -y, 0.0, np.ones(n), 1.0, **TOLS)
        ref = DOP853(lambda t, y: -y, 0.0, np.ones(n), 1.0, **TOLS)
        for _ in range(100):
            K = rng.standard_normal((ours.n_stages + 1, n)) * 10.0 ** rng.uniform(-12, 3)
            h = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-8, 1)
            scale = 10.0 ** rng.uniform(-12, 1, n)
            K_in, scale_in = K.copy(), scale.copy()
            assert ours._estimate_error_norm(K, h, scale) == ref._estimate_error_norm(K, h, scale)
            assert np.array_equal(K, K_in) and np.array_equal(scale, scale_in)
        zero = np.zeros((ours.n_stages + 1, n))
        for h in (0.5, -0.5):
            assert ours._estimate_error_norm(zero, h, np.ones(n)) == 0.0
            assert ref._estimate_error_norm(zero, h, np.ones(n)) == 0.0
    # a first stage of 8 subnormal units: the 5th-order error rounds to 0,
    # the 3rd-order one's squared norm to 1e-322, which 0.01 takes to 0,
    # and scipy's norm is numpy's 0 / 0
    tiny = np.zeros((ours.n_stages + 1, 1))
    tiny[0] = 8 * 5e-324
    ours = _DOP853(lambda t, y: -y, 0.0, np.ones(1), 1.0, **TOLS)
    ref = DOP853(lambda t, y: -y, 0.0, np.ones(1), 1.0, **TOLS)
    with np.errstate(invalid="ignore"):
        assert np.isnan(ref._estimate_error_norm(tiny, 0.5, np.array([1e-162])))
    assert np.isnan(ours._estimate_error_norm(tiny, 0.5, np.array([1e-162])))


def test_a_batch_error_norm_is_nan_when_one_points_norm_is():
    """The 0 / 0 stages above, held by one point of a batch beside a point
    whose error is zero: each point's batch norm, alone, is _DOP853's norm
    of it, and the batch's norm is NaN, which rejects the step, as that
    point alone would; two zero points give 0."""
    stages = _DOP853.n_stages + 1
    tiny, zero = np.zeros((stages, 1)), np.zeros((stages, 1))
    tiny[0] = 8 * 5e-324
    scale = np.array([1e-162])
    one = _DOP853(lambda t, y: -y, 0.0, np.ones(1), 1.0, **TOLS)

    def batch_norm(*points):
        batch = _BatchDOP853(lambda t, y: -y, 0.0, np.ones(len(points)), 1.0,
                             batch=len(points), **TOLS)
        return batch._estimate_error_norm(np.hstack(points), 0.5, np.repeat(scale, len(points)))

    for point in (tiny, zero):
        alone = one._estimate_error_norm(point, 0.5, scale)
        assert np.array_equal(batch_norm(point), alone, equal_nan=True)
    assert np.isnan(one._estimate_error_norm(tiny, 0.5, scale))
    assert np.isnan(batch_norm(tiny, zero)) and np.isnan(batch_norm(zero, tiny))
    assert batch_norm(zero, zero) == 0.0


@pytest.mark.parametrize("fun, y0, t_span, status", [
    (_van_der_pol, [2.0, 0.0], (1e6, 1e6 + 10.0), 0),
    # dx/dt = x^2 escapes at t0 + 1, where the step falls below min_step
    (lambda t, y: y ** 2, [1.0], (1e6, 1e6 + 2.0), -1),
], ids=["van der Pol", "step-size underflow"])
def test_a_solve_far_from_t_zero_equals_scipys(fun, y0, t_span, status):
    """At t0 = 1e6 floats are 1.2e-10 apart, so min_step is 1.2e-9.  With
    a dense output and without, nfev is that of scipy's solve: a failed
    solve has built the dense output of each step it accepted, as scipy's
    has."""
    y0 = np.array(y0)
    for dense in (True, False):
        ours = solve_ivp(fun, t_span, y0, event=lambda t, y: -1.0, dense=dense, **TOLS)
        ref = scipy.integrate.solve_ivp(fun, t_span, y0, method=DOP853, dense_output=dense,
                                        **TOLS)
        assert ours.status == ref.status == status
        if status == -1:
            assert ours.message == ref.message
        assert ours.nfev == ref.nfev
        assert np.array_equal(ours.t, ref.t) and np.array_equal(ours.y, ref.y)


def _steps_by_its_stage_entry(fun, y0) -> bool:
    """Whether _DOP853 steps fun from y0 through fun's loop entry."""
    return _DOP853(fun, 0.0, y0, 1.0, **TOLS)._run_stages is fun.stages


def _takes_scipys_steps(fun, y0, t_span, **options) -> Solution:
    """Our solve of fun from y0, without a dense output, after checking that
    its steps, nfev and states are those of scipy's DOP853, bitwise.  The
    two solvers first take three steps in lockstep, comparing the
    derivative each keeps too, so a wrong step fails at once instead of
    running on at a step size it has driven down."""
    _lockstep(*(method(fun, t_span[0], y0, t_span[1], **TOLS, **options)
                for method in (_DOP853, DOP853)))
    ours = solve_ivp(fun, t_span, y0, event=lambda t, y: -1.0, dense=False, **TOLS, **options)
    ref = scipy.integrate.solve_ivp(fun, t_span, y0, method=DOP853, **TOLS, **options)
    assert (ours.status, ref.status) == (0, 0)
    assert ours.nfev == ref.nfev
    assert np.array_equal(ours.t, ref.t) and np.array_equal(ours.y, ref.y)
    return ours


def _lockstep(ours, ref) -> None:
    """Three steps of two solvers built alike, each state, nfev and kept
    derivative compared bitwise after each step."""
    for _ in range(3):
        if ref.status != "running":
            break
        ours.step()
        ref.step()
        assert (ours.t, ours.nfev) == (ref.t, ref.nfev)
        assert np.array_equal(ours.y, ref.y) and np.array_equal(ours.f, ref.f)


def _points(y0: np.ndarray, batch: int) -> np.ndarray:
    """A (B, dim) stack of y0 scaled by 1, 0.9, 0.8, ..."""
    return y0 * (1.0 - 0.1 * np.arange(batch))[:, None]


def _batch_takes_scipys_steps(rhs, z0: np.ndarray, t_span) -> Solution:
    """_takes_scipys_steps for a (B, dim) stack z0 of a flow kernel's
    states: ours steps them through rhs's batch entry, first by
    _BatchDOP853 in lockstep, then by _solve_segment; scipy's DOP853,
    with _BatchDOP853's error norm, calls rhs on each stage's batch."""
    batch, dim = z0.shape
    y0, options = z0.T.reshape(-1), {"batch": batch, **TOLS}
    fun = _batch_fun(rhs, dim, batch)
    ours = _BatchDOP853(_batch_entry_fun(rhs, dim, batch), t_span[0], y0, t_span[1], **options)
    assert ours._run_stages is rhs.batch_stages
    _lockstep(ours, _ScipyBatchDOP853(fun, t_span[0], y0, t_span[1], **options))
    ours = _solve_segment(rhs, z0, *t_span, DEFAULT_RTOL, DEFAULT_ATOL, dense=False)
    ref = scipy.integrate.solve_ivp(fun, t_span, y0, method=_ScipyBatchDOP853, **options)
    assert (ours.status, ref.status) == (0, 0)
    assert ours.nfev == ref.nfev
    assert np.array_equal(ours.t, ref.t) and np.array_equal(ours.y, ref.y)
    return ours


def _abs(s):
    """|s| by a comparison of its primal, entry by entry for the arrays of
    a batch's first-order duals: runs on duals, not on Traced terms."""
    p = _primal(s)
    if isinstance(p, np.ndarray):
        sign = np.where(p >= 0, 1.0, -1.0)
        return Dual(p * sign, tuple([d * sign for d in s.derivs]))
    return s if p >= 0 else -s


def _reversed_cost_flow():
    """The reversed closed-loop variational flow of an n = 4 --spec system
    with the cost block of dk: the flow of diff_controllability_fb."""
    system = from_spec(parse_system_spec(N4_SPEC))
    z0 = np.array([0.4, -0.3, 0.2, 0.1, 0.6, 0.0, -0.8, 0.0, 0.0])
    return closed_loop_prolonged(system, sign=-1.0, cost="dk").rhs, z0, {}


def _untraceable_flow():
    """The variational flow of a damped oscillator with an |x2| term, which
    the tracer cannot compile, so its kernel keeps the dual path."""
    field = VectorField(2, 2, lambda xs: [xs[1], -xs[0] - 0.5 * xs[1] * _abs(xs[1])])
    fun = flow_rhs(field, width=1)
    fun(0.0, np.zeros(4))
    (kernel,) = (k for _, k in field._kernels.values())
    assert kernel.__code__.co_filename != "<traced kernel>"
    return fun, np.array([1.0, -0.5, 0.3, 1.0]), {}


def _scalar_flow():
    """An n = 1 --spec field: a one-entry state and stage."""
    spec = {"name": "scalar", "n": 1, "m": 1, "p": 1, "f": ["-x1 + 0.4*x1^3"],
            "g": [["1"]], "h": ["x1"]}
    return flow_rhs(from_spec(parse_system_spec(spec)).f), np.array([0.9]), {}


def _constant_component_flow():
    """A field whose third component is the constant 1, which its kernel
    returns as a number, not a traced line."""
    field = VectorField(3, 3, lambda xs: [xs[1], -xs[0] - 0.2 * xs[1] * xs[2], 1.0])
    return flow_rhs(field), np.array([1.0, 0.0, -0.5]), {}


@pytest.mark.parametrize("case", [_gramian_flow, _reversed_cost_flow, _untraceable_flow,
                                  _scalar_flow, _constant_component_flow],
                         ids=["spec gramian", "reversed with cost", "untraceable", "n = 1",
                              "constant component"])
def test_a_flow_kernel_stepped_by_its_stage_entry_takes_scipys_steps(case):
    fun, y0, _ = case()
    assert _steps_by_its_stage_entry(fun, y0)
    ours = _takes_scipys_steps(fun, y0, (0.0, 5.0))
    assert len(ours.t) > 10


@pytest.mark.parametrize("case, batch", [
    (_gramian_flow, 3), (_reversed_cost_flow, 4), (_untraceable_flow, 5), (_scalar_flow, 3),
    (_constant_component_flow, 4)],
    ids=["spec gramian", "reversed with cost", "untraceable", "n = 1", "constant component"])
def test_a_batch_stepped_by_its_batch_entry_takes_scipys_steps(case, batch):
    fun, y0, _ = case()
    ours = _batch_takes_scipys_steps(fun, _points(y0, batch), (0.0, 5.0))
    assert len(ours.t) > 10


@pytest.mark.parametrize("case", [_gramian_flow, _reversed_cost_flow, _untraceable_flow],
                         ids=["spec gramian", "reversed with cost", "untraceable"])
def test_the_derivative_kept_at_each_state_is_the_right_hand_side_there(case):
    """Solution.dydt, the first-same-as-last stage of each step, written by
    the loop entry, is fun(t, y) at every kept state, bitwise."""
    fun, y0, _ = case()
    sol = _takes_scipys_steps(fun, y0, (0.0, 5.0))
    assert len(sol.t) > 10
    for i, t in enumerate(sol.t):
        assert np.array_equal(sol.dydt[:, i], fun(t, sol.y[:, i]))


class _Spy:
    """A flow kernel's right-hand side, counting its calls and the calls
    and stages of its loop entry and of its batch entry."""

    def __init__(self, rhs):
        self.rhs, self.calls, self.plans, self.batch_plans = rhs, 0, [], []
        self.cost = rhs.cost

    def __call__(self, t, y):
        self.calls += 1
        return self.rhs(t, y)

    def stages(self, y, K, plan, h):
        self.plans.append([s for s, _, _ in plan])
        return self.rhs.stages(y, K, plan, h)

    def batch_stages(self, y, K, plan, h):
        self.batch_plans.append([s for s, _, _ in plan])
        return self.rhs.batch_stages(y, K, plan, h)


def test_a_flow_kernel_makes_one_loop_entry_call_per_trial_step():
    fun, y0, _ = _reversed_cost_flow()
    ref = _takes_scipys_steps(fun, y0, (0.0, 5.0))
    spy = _Spy(fun)
    ours = solve_ivp(spy, (0.0, 5.0), y0, event=lambda t, y: -1.0, dense=False, **TOLS)
    assert ours.nfev == ref.nfev and np.array_equal(ours.y, ref.y)
    # scipy's nfev: f(t0) and the initial step's probe, then 12 per trial step
    assert spy.calls == 2 == ours.nfev % 12
    assert len(spy.plans) == ours.nfev // 12 >= len(ours.t) - 1
    assert all(plan == list(range(1, 13)) for plan in spy.plans)
    assert spy.batch_plans == []


def test_a_batch_makes_one_batch_entry_call_per_trial_step():
    fun, y0, _ = _reversed_cost_flow()
    z0 = _points(y0, 4)
    ref = _batch_takes_scipys_steps(fun, z0, (0.0, 5.0))
    spy = _Spy(fun)
    ours = _solve_segment(spy, z0, 0.0, 5.0, DEFAULT_RTOL, DEFAULT_ATOL, dense=False)
    assert ours.nfev == ref.nfev and np.array_equal(ours.y, ref.y)
    assert spy.calls == 2 == ours.nfev % 12
    assert len(spy.batch_plans) == ours.nfev // 12 >= len(ours.t) - 1
    assert all(plan == list(range(1, 13)) for plan in spy.batch_plans)
    assert spy.plans == []


_POLE = {"name": "pole", "n": 2, "m": 1, "p": 1, "f": ["1", "1/x1"],
         "g": [["0"], ["1"]], "h": ["x2"]}

# the field of _POLE as a --spec field and as a Python field, and the error
# each raises on its pole
_POLE_FIELDS = {
    "spec": (lambda: from_spec(parse_system_spec(_POLE)).f, ExprEvalError),
    "python": (lambda: VectorField(2, 2, lambda xs: [1.0, 1.0 / xs[0]]), ZeroDivisionError),
}


def _raises_the_fields_error_at(stage: int, batch: int | None = None, kind: str = "spec"):
    """x1' = 1, so stage s of a first step of length h is at x1 = y0 + d h
    with d = K[:s].T . a summed as the solver sums it; from y0 = -(d h) the
    first zero of x1, where x2' = 1/x1 divides by it, is at stage s (12:
    the first-same-as-last stage, at y_new).  Both solvers raise the
    field's own error in that step, scipy at its (1 + s)th call.  In a
    batch the middle point starts there, point i elsewhere at x1 = 1 + i,
    and ours steps it through its batch entry."""
    field, error = _POLE_FIELDS[kind]
    fun = flow_rhs(field())
    h = 0.5
    points = batch or 1
    K = np.ones((_DOP853.n_stages + 1, 2 * points))  # the x1 rows come first
    a = _DOP853.B if stage == 12 else _DOP853.A[stage][:stage]
    x1 = 1.0 + np.arange(points)
    x1[points // 2] = -(K[:stage].T.dot(a)[points // 2] * h)
    y0 = np.concatenate([x1, np.zeros(points)])
    calls = []

    def counted(t, y):
        calls.append(t)
        return fun(t, y)

    if batch is None:
        assert _steps_by_its_stage_entry(fun, y0)
        solvers = ((_DOP853, fun, {}), (DOP853, counted, {}))
    else:
        solvers = ((_BatchDOP853, _batch_entry_fun(fun, 2, batch), {"batch": batch}),
                   (_ScipyBatchDOP853, _batch_fun(counted, 2, batch), {"batch": batch}))
    for method, rhs, options in solvers:
        solver = method(rhs, 0.0, y0, 1.0, first_step=h, **TOLS, **options)
        with pytest.raises(error, match="division by zero"):
            solver.step()
    assert len(calls) == 1 + stage


def test_a_zero_denominator_inside_a_stage_raises_the_fields_error():
    _raises_the_fields_error_at(1)


@pytest.mark.parametrize("stage", [6, 12], ids=["middle", "first-same-as-last"])
def test_a_zero_denominator_first_met_at_a_later_stage_raises_the_fields_error(stage):
    _raises_the_fields_error_at(stage)


@pytest.mark.parametrize("kind", sorted(_POLE_FIELDS))
@pytest.mark.parametrize("stage", [1, 6, 12], ids=["first", "middle", "first-same-as-last"])
def test_a_zero_denominator_at_one_point_of_a_batch_raises_the_fields_error(stage, kind):
    _raises_the_fields_error_at(stage, batch=3, kind=kind)


def test_replacing_func_traces_the_stage_entry_again():
    calls = []

    def linear(scale):
        def func(xs):
            calls.append(scale)
            return [-scale * xs[0]]
        return func

    field = VectorField(1, 1, linear(2.0))
    fun = flow_rhs(field)
    y, K = np.array([1.0]), np.array([[0.5], [0.0]])
    plan = [(1, K[:1].T, np.array([1.0]))]  # the stage state 1 + 0.5 * 0.5
    for _ in range(3):
        fun.stages(y, K, plan, 0.5)
        assert list(K[1]) == [-2.5]
    field.func = linear(5.0)
    fun.stages(y, K, plan, 0.5)
    assert list(K[1]) == [-6.25]
    assert np.array_equal(fun(0.0, np.array([1.25])), [-6.25])
    assert calls == [2.0, 5.0]  # one trace per func, shared by both entries


def test_a_solve_whose_error_norm_is_zero_over_zero_takes_scipys_steps():
    """x' = -1.5 x from x = 0 with a tangent of 9.3e-172: some trial
    step's 5th-order error is 0 and its 3rd-order one too small to
    survive the 0.01 weight, so scipy's error norm is NaN, which rejects
    the step."""
    spec = {"name": "decay", "n": 1, "m": 1, "p": 1, "f": ["-x1 + -0.5*x1"],
            "g": [["0"]], "h": ["x1"]}
    fun = flow_rhs(from_spec(parse_system_spec(spec)).f, width=1)
    with np.errstate(invalid="ignore"):
        _takes_scipys_steps(fun, np.array([0.0, 9.31894629934916e-172]), (0.0, 3.0))


@st.composite
def _polynomials(draw, n: int, lowest: int = 0) -> str:
    """Up to three terms c * x_i * x_j ..., of degree lowest to 3 in
    x1..xn, each c in +-[0.125, 0.5]."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        c = draw(st.sampled_from([-0.5, -0.375, -0.25, -0.125, 0.125, 0.25, 0.375, 0.5]))
        factors = draw(st.lists(st.integers(1, n), min_size=lowest, max_size=3))
        terms.append("*".join([repr(c)] + [f"x{i}" for i in factors]))
    return " + ".join(terms)


_FLOWS = {
    "plain": lambda system: flow_rhs(system.f),
    "tangent": lambda system: prolong(system).rhs,
    "tangent and cost": lambda system: prolong(system, cost="dy").rhs,
    "gramian": lambda system: flow_rhs(system.f, width=system.n),
    "cost": lambda system: flow_rhs(system.with_output(system.f, system.h),
                                    outputs=system.p),
}


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 3), flow=st.sampled_from(sorted(_FLOWS)),
       batch=st.sampled_from([None, 3]))
def test_random_polynomial_flows_take_scipys_steps(data, n, flow, batch):
    # -x_i keeps states from 0.4 finite for the horizon of 3 (the slowest
    # escape the terms allow, x' = 0.5 x^3, takes 6.25); a batch of 3
    # states is stepped through the kernel's batch entry
    spec = {"name": "poly", "n": n, "m": 1, "p": 1,
            "f": [f"-x{i} + " + data.draw(_polynomials(n, lowest=1)) for i in range(1, n + 1)],
            "g": [["0"]] * n, "h": [data.draw(_polynomials(n))]}
    fun = _FLOWS[flow](from_spec(parse_system_spec(spec)))
    _, copies, width, _, _ = fun.kernel[1]
    dim = copies * n * (1 + width) + fun.cost
    size = dim * (batch or 1)
    y0 = np.array(data.draw(st.lists(st.floats(-0.4, 0.4), min_size=size, max_size=size)))
    if batch:
        _batch_takes_scipys_steps(fun, y0.reshape(batch, dim), (0.0, 3.0))
    else:
        assert _steps_by_its_stage_entry(fun, y0)
        _takes_scipys_steps(fun, y0, (0.0, 3.0))
