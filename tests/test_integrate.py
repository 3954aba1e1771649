"""Initial value problems, flow Jacobians, and quadrature."""

import math

import numpy as np
import pytest

from oracles import fd_jacobian, rk4
from vargram.calculus import VectorField, flow_rhs
from vargram.integrate import (
    BlowUpError,
    DivergenceError,
    HorizonFlow,
    IntegrationError,
    Trajectory,
    improper_time_integral,
    integrate_ivp,
    quadrature_finite,
)
from vargram.systems import registry


def test_scalar_decay_solution():
    traj = integrate_ivp(VectorField(1, 1, lambda xs: [-xs[0]]), [1.0], (0.0, 1.0))
    assert abs(traj.endpoint[0] - math.exp(-1.0)) < 1e-9
    assert abs(traj.at(0.5)[0] - math.exp(-0.5)) < 1e-9
    assert traj.t0 == 0.0 and traj.tf == 1.0


def test_matches_fixed_step_oracle_on_nonlinear_system():
    sys_ = registry("paper_sec5")
    x0 = [0.2, -0.1]
    traj = integrate_ivp(sys_.f, x0, (0.0, 3.0))
    expected = rk4(lambda t, x: np.asarray(sys_.f(list(x))), x0, 0.0, 3.0, steps=6000)
    assert np.allclose(traj.endpoint, expected, atol=1e-8)


def test_blow_up_reports_escape_time():
    # dx/dt = x^2 from 1 escapes at t = 1
    field = VectorField(1, 1, lambda xs: [xs[0] ** 2])
    with pytest.raises(BlowUpError) as err:
        integrate_ivp(field, [1.0], (0.0, 2.0))
    assert abs(err.value.escape_time - 1.0) < 1e-3


def test_rejects_non_finite_start():
    field = VectorField(1, 1, lambda xs: [0.0])
    with pytest.raises(IntegrationError):
        integrate_ivp(field, [float("nan")], (0.0, 1.0))


def test_a_plain_callable_gets_a_fresh_state_on_every_call():
    """A callable that keeps its inputs finds them unchanged after the
    solve, and no two calls share memory: the stages and the dense
    output's stacked stages hand it new arrays."""
    kept = []

    def fun(t, y):
        kept.append((y, y.copy()))
        return -y + np.sin(t)

    integrate_ivp(fun, [1.0, 0.5], (0.0, 5.0))
    assert len(kept) > 50
    for y, at_call in kept:
        assert np.array_equal(y, at_call)
    for i, (y, _) in enumerate(kept):
        assert not any(np.may_share_memory(y, other) for other, _ in kept[i + 1:])


def test_at_outside_span_raises():
    traj = integrate_ivp(VectorField(1, 1, lambda xs: [-xs[0]]), [1.0], (0.0, 1.0))
    with pytest.raises(ValueError, match="outside trajectory span"):
        traj.at(2.0)


def test_a_field_is_integrated_by_its_traced_kernel():
    # the field's func runs only while its kernel is traced, never per step
    calls = []

    def func(xs):
        calls.append(tuple(type(v).__name__ for v in xs))
        return [-xs[0] + xs[1] * xs[1], -2.0 * xs[1]]

    traj = integrate_ivp(VectorField(2, 2, func), [1.0, 0.5], (0.0, 2.0))
    assert len(traj.times) > 3
    assert calls == [("Dual", "Dual")]
    # x2 = e^{-2t} / 2, x1 = (1 - c) e^{-t} + c e^{-4t} with c = -1/12
    t = 2.0
    expected = [(13 / 12) * math.exp(-t) - math.exp(-4 * t) / 12, 0.5 * math.exp(-2 * t)]
    assert np.allclose(traj.endpoint, expected, rtol=0.0, atol=1e-9)


def _flow_matrix(field, x0, t_span):
    """The trajectory of x and the flow matrices Phi(t) read from one
    integrate_ivp solve of the variational equation from (x0, I)."""
    n = field.dim_in
    z0 = np.concatenate([np.asarray(x0, dtype=float), np.eye(n).reshape(-1)])
    traj = integrate_ivp(flow_rhs(field, width=n), z0, t_span)

    def phi(t):
        z = traj.at(t)
        return z[..., n:].reshape(np.shape(t) + (n, n))

    return traj, phi


def test_flow_jacobian_linear_system_is_matrix_exponential():
    a = np.array([[0.0, 1.0], [-2.0, -3.0]])
    field = VectorField(2, 2, lambda xs: list(a @ np.asarray(xs)))
    _, phi = _flow_matrix(field, [1.0, -1.0], (0.0, 1.5))
    # eigendecomposition oracle: A = V diag(-1, -2) V^{-1}
    evals, vecs = np.linalg.eig(a)
    expm = vecs @ np.diag(np.exp(evals * 1.5)) @ np.linalg.inv(vecs)
    assert np.allclose(phi(1.5), expm.real, atol=1e-8)


def test_flow_jacobian_matches_finite_difference_of_the_flow():
    sys_ = registry("paper_sec5")
    x0 = np.array([0.15, -0.2])
    tf = 2.0
    _, phi = _flow_matrix(sys_.f, x0, (0.0, tf))

    def flow_map(xs):
        return list(integrate_ivp(sys_.f, xs, (0.0, tf)).endpoint)

    assert np.allclose(phi(tf), fd_jacobian(flow_map, x0, h=1e-5), atol=1e-6)


def test_flow_jacobian_semigroup_property():
    sys_ = registry("paper_sec5")
    x0 = [0.1, 0.1]
    traj, phi = _flow_matrix(sys_.f, x0, (0.0, 2.0))
    mid = traj.at(1.2)[:2]
    _, phi_tail = _flow_matrix(sys_.f, mid, (0.0, 0.8))
    assert np.allclose(phi(2.0), phi_tail(0.8) @ phi(1.2), atol=1e-7)


def test_flow_jacobian_at_checks_the_span_and_takes_arrays():
    traj, phi = _flow_matrix(registry("paper_sec5").f, [0.2, -0.1], (0.0, 3.0))
    for t in (5.0, -1.0, np.array([1.0, 3.5])):
        with pytest.raises(ValueError, match="outside trajectory span"):
            traj.at(t)
        with pytest.raises(ValueError, match="outside trajectory span"):
            phi(t)
    assert np.array_equal(phi(0.0), np.eye(2))
    times = np.array([0.0, 0.7, 1.9, 3.0])
    stacked = phi(times)
    assert stacked.shape == (4, 2, 2)
    per_time = np.array([phi(t) for t in times])
    assert np.allclose(stacked, per_time, rtol=0.0, atol=1e-14 * np.abs(per_time).max())


def test_horizon_flow_extends_lazily():
    hf = HorizonFlow(lambda t, y: -y, np.array([1.0]))
    assert abs(hf.state(1.0)[0] - math.exp(-1.0)) < 1e-9
    assert hf.horizon >= 1.0
    first_horizon = hf.horizon
    assert abs(hf.state(50.0)[0] - math.exp(-50.0)) < 1e-12
    assert hf.horizon >= 50.0 > first_horizon
    # previously computed points are unchanged by extension
    assert abs(hf.state(1.0)[0] - math.exp(-1.0)) < 1e-9
    with pytest.raises(ValueError):
        hf.state(-0.5)


def test_quadrature_polynomial_exactness():
    res = quadrature_finite(lambda s: s ** 2, 0.0, 1.0, order=2)
    assert abs(res.value - 1.0 / 3.0) < 1e-14
    # order-12 Gauss-Legendre integrates degree-23 polynomials exactly
    res = quadrature_finite(lambda s: s ** 23, 0.0, 1.0, order=12)
    assert abs(res.value - 1.0 / 24.0) < 1e-13
    assert res.error_estimate < 1e-12
    assert res.nodes_used == 36


def test_quadrature_matches_per_node_loop():
    # one call on all nodes, weights applied by a dot product, against the
    # loop that called the integrand node by node; only the summation
    # order differs, so the sums agree to a few units of rounding
    def integrand(s):
        return np.stack([np.cos(3.0 * s) * np.exp(-s), s ** 2 - 1.0], axis=-1)

    a, b, order = 0.5, 2.5, 7
    res = quadrature_finite(integrand, a, b, order=order)
    assert res.value.shape == (2,) and res.nodes_used == 3 * order

    def loop(n):
        nodes, weights = np.polynomial.legendre.leggauss(n)
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        total = 0.0
        for xi, wi in zip(nodes, weights):
            total = total + wi * integrand(mid + half * xi)
        return half * total

    coarse, fine = loop(order), loop(2 * order)
    assert np.allclose(res.value, coarse, rtol=4e-16 * 2 * order, atol=1e-16)
    assert abs(res.error_estimate - np.linalg.norm(coarse - fine)) < 1e-14


def test_quadrature_error_estimate_is_honest():
    res = quadrature_finite(lambda s: 1.0 / (1.0 + 25.0 * s ** 2), -1.0, 1.0, order=4)
    exact = 2.0 / 5.0 * math.atan(5.0)
    assert abs(res.value - exact) <= 10.0 * res.error_estimate + 1e-12


def test_improper_integral_forward_exponential():
    res = improper_time_integral(lambda t: np.exp(-2.0 * t), "forward")
    assert abs(res.value - 0.5) < 1e-9
    assert res.error_estimate < 1e-6
    assert res.horizon >= 20.0


def test_improper_integral_backward_exponential():
    # backward direction feeds negative times to the integrand
    res = improper_time_integral(lambda t: np.exp(2.0 * t), "backward")
    assert abs(res.value - 0.5) < 1e-9


def test_improper_integral_rejects_non_decaying_integrand():
    with pytest.raises(DivergenceError):
        improper_time_integral(lambda t: np.ones_like(t), "forward")


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_improper_integral_rejects_a_tolerance_that_is_not_positive(tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        improper_time_integral(lambda t: np.exp(-t), "forward", tol=tol)


def test_improper_integral_rejects_slow_tails_at_tight_tolerance():
    # 1/(1+t)^2 is integrable but its tail shrinks only algebraically, so
    # the doubling controller gives up rather than report false convergence
    with pytest.raises(DivergenceError):
        improper_time_integral(lambda t: 1.0 / (1.0 + t) ** 2, "forward", tol=1e-8)


def test_trajectory_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        Trajectory(np.array([0.0, 0.0]), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        Trajectory(np.array([0.0, 1.0]), np.array([[0.0, 0.0], [float("inf"), 0.0]]))
    # endpoint is a copy, for one state and for a batch of two 1-D points
    states = np.array([[1.0, 2.0], [3.0, 4.0]])
    for batch, end in ((None, [3.0, 4.0]), (2, [[3.0], [4.0]])):
        traj = Trajectory(np.array([0.0, 1.0]), states.copy(), batch=batch)
        endpoint = traj.endpoint
        assert np.array_equal(endpoint, end)
        endpoint[...] = -1.0
        assert np.array_equal(traj.states, states)


def test_integrate_ivp_rejects_reversed_span():
    field = VectorField(1, 1, lambda xs: [0.0])
    with pytest.raises(ValueError, match=r"t_span must be finite with t0 < tf, got \(1, 0\)"):
        integrate_ivp(field, [0.0], (1.0, 0.0))


@pytest.mark.parametrize("t_span", [(0.0, 0.0), (0.0, -1.0), (0.0, math.inf),
                                    (0.0, math.nan), (-math.inf, 0.0), (math.nan, 1.0)],
                         ids=str)
def test_integrate_ivp_rejects_empty_or_non_finite_spans(t_span):
    for field in (VectorField(1, 1, lambda xs: [0.0]), lambda t, y: 0.0 * y):
        with pytest.raises(ValueError, match="t_span must be finite with t0 < tf"):
            integrate_ivp(field, [0.0], t_span)
