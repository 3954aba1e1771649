"""Initial value problems, flow Jacobians, and quadrature."""

import math

import numpy as np
import pytest

from oracles import fd_jacobian, rk4
from vargram.calculus import VectorField
from vargram.integrate import (
    BlowUpError,
    DivergenceError,
    HorizonFlow,
    IntegrationError,
    Trajectory,
    flow_with_jacobian,
    improper_time_integral,
    integrate_backward,
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


def test_at_outside_span_raises():
    traj = integrate_ivp(VectorField(1, 1, lambda xs: [-xs[0]]), [1.0], (0.0, 1.0))
    with pytest.raises(ValueError, match="outside trajectory span"):
        traj.at(2.0)


def test_backward_solve_is_reindexed():
    # dx/dt = x backward one unit of time: x(-1) = e^{-1} x(0)
    traj = integrate_backward(VectorField(1, 1, lambda xs: [xs[0]]), [1.0], 1.0)
    assert traj.t0 == -1.0 and traj.tf == 0.0
    assert abs(traj.at(-1.0)[0] - math.exp(-1.0)) < 1e-9
    assert abs(traj.at(0.0)[0] - 1.0) < 1e-12
    assert np.all(np.diff(traj.times) > 0)


def test_time_reversed_round_trip():
    traj = integrate_ivp(VectorField(1, 1, lambda xs: [-xs[0]]), [1.0], (0.0, 2.0))
    back = traj.time_reversed()
    assert back.t0 == -2.0 and back.tf == 0.0
    assert abs(back.at(-0.7)[0] - traj.at(0.7)[0]) == 0.0
    again = back.time_reversed()
    assert abs(again.at(0.7)[0] - traj.at(0.7)[0]) == 0.0


def test_flow_jacobian_linear_system_is_matrix_exponential():
    a = np.array([[0.0, 1.0], [-2.0, -3.0]])
    field = VectorField(2, 2, lambda xs: list(a @ np.asarray(xs)))
    traj, flow = flow_with_jacobian(field, [1.0, -1.0], (0.0, 1.5))
    # eigendecomposition oracle: A = V diag(-1, -2) V^{-1}
    evals, vecs = np.linalg.eig(a)
    expm = vecs @ np.diag(np.exp(evals * 1.5)) @ np.linalg.inv(vecs)
    assert np.allclose(flow.at(1.5), expm.real, atol=1e-8)


def test_flow_jacobian_matches_finite_difference_of_the_flow():
    sys_ = registry("paper_sec5")
    x0 = np.array([0.15, -0.2])
    tf = 2.0
    _, flow = flow_with_jacobian(sys_.f, x0, (0.0, tf))

    def flow_map(xs):
        return list(integrate_ivp(sys_.f, xs, (0.0, tf)).endpoint)

    assert np.allclose(flow.at(tf), fd_jacobian(flow_map, x0, h=1e-5), atol=1e-6)


def test_flow_jacobian_semigroup_property():
    sys_ = registry("paper_sec5")
    x0 = [0.1, 0.1]
    traj, flow = flow_with_jacobian(sys_.f, x0, (0.0, 2.0))
    mid = traj.at(1.2)
    _, flow_tail = flow_with_jacobian(sys_.f, mid, (0.0, 0.8))
    assert np.allclose(flow.at(2.0), flow_tail.at(0.8) @ flow.at(1.2), atol=1e-7)


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


def test_improper_integral_rejects_slow_tails_at_tight_tolerance():
    # 1/(1+t)^2 is integrable but its tail shrinks only algebraically, so
    # the doubling controller gives up rather than report false convergence
    with pytest.raises(DivergenceError):
        improper_time_integral(lambda t: 1.0 / (1.0 + t) ** 2, "forward", tol=1e-8)


def test_trajectory_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        Trajectory(np.array([0.0, 0.0]), np.zeros((2, 1)), lambda t: [0.0])
    with pytest.raises(ValueError, match="non-finite"):
        Trajectory(np.array([0.0, 1.0]), np.array([[0.0], [float("inf")]]), lambda t: [0.0])


def test_integrate_ivp_rejects_reversed_span():
    field = VectorField(1, 1, lambda xs: [0.0])
    with pytest.raises(ValueError, match="integrate_backward"):
        integrate_ivp(field, [0.0], (1.0, 0.0))
