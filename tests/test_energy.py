"""Energy functionals: closed forms, scaling laws, and limits.

Linear systems admit exact energies (half quadratic forms in the
algebraic Lyapunov solutions), which the Kronecker-solve oracle provides
without touching the trajectory pipeline under test.
"""

import numpy as np
import pytest

from oracles import (cosine_bump, fast_mode_spec, feedback_perturbation_energy, lyap_ctrl,
                     lyap_obs)
from vargram.energy import (
    LADDER_TOL,
    EnergyValue,
    LadderError,
    LinePath,
    diff_controllability_fb,
    diff_observability,
    incr_controllability_fb,
    incr_observability,
    path_energy_integral,
    quadratic_limit,
)
from vargram.expr import parse_system_spec
from vargram.gramian import empirical_ctrl_gramian, empirical_obs_gramian
from vargram.systems import from_spec, registry


def test_linear_scalar_closed_forms():
    sys_ = registry("linear_scalar")
    # Q = 1/2 and R = 2 solve the constant-coefficient equations exactly
    for x0 in ([0.0], [0.7], [-0.4]):
        assert abs(diff_observability(sys_, x0, [3.0]).value - 9.0 / 4.0) < 1e-8
        assert abs(diff_controllability_fb(sys_, x0, [3.0]).value - 9.0) < 1e-7
    assert abs(incr_observability(sys_, [0.2], [0.5]).value - 0.09 / 4.0) < 1e-9
    assert abs(incr_controllability_fb(sys_, [0.2], [0.5]).value - 0.09) < 1e-8


def test_linear_2x2_matches_lyapunov_oracle():
    sys_ = registry("linear_2x2")
    a = sys_.meta["A"]
    b = sys_.meta["B"]
    c = sys_.meta["C"]
    gain = sys_.meta["K"]
    q = lyap_obs(a, c)
    r = lyap_ctrl(a + b @ gain, gain)

    rng = np.random.default_rng(17)
    for _ in range(5):
        x0 = rng.uniform(-0.5, 0.5, 2)
        d = rng.uniform(-1, 1, 2)
        e_obs = diff_observability(sys_, x0, d).value
        e_ctl = diff_controllability_fb(sys_, x0, d).value
        assert abs(e_obs - 0.5 * d @ q @ d) < 1e-6
        assert abs(e_ctl - 0.5 * d @ r @ d) < 1e-6
        # incremental energies coincide with differential ones for linear maps
        assert abs(incr_observability(sys_, x0, x0 + d).value - e_obs) < 1e-6
        assert abs(incr_controllability_fb(sys_, x0, x0 + d).value - e_ctl) < 1e-6


def test_slowly_decaying_spec_oscillator_matches_lyapunov_oracle():
    # zeta = 0.02: the energy builds up over a horizon of 1280, so the
    # integrator's global error, not the quadrature, sets the accuracy
    spec = {"name": "oscillator", "n": 2, "m": 1, "p": 1,
            "f": ["x2", "-x1 - 0.04*x2"], "g": [["0"], ["1"]], "h": ["x1"]}
    system = from_spec(parse_system_spec(spec))
    q = lyap_obs(np.array([[0.0, 1.0], [-1.0, -0.04]]), np.array([[1.0, 0.0]]))
    d = np.array([0.6, 0.8])
    expected = 0.5 * d @ q @ d
    ev = diff_observability(system, [0.3, -0.2], d)
    assert ev.horizon == 1280.0
    assert abs(ev.value - expected) <= 1e-9 * abs(expected)


def _covered(value: float, exact: float, estimate: float) -> bool:
    return abs(value - exact) <= estimate + 1e-9 * abs(exact) + 1e-12


@pytest.mark.parametrize("rate", [10.0, 30.0, 100.0])
def test_a_fast_mode_matches_its_closed_form(rate):
    # its energy lies in a layer about 1/rate wide at t = 0, which the
    # integral, a state of the flow, resolves with the flow's own steps
    system = from_spec(parse_system_spec(fast_mode_spec(rate)))
    ev = diff_observability(system, [0.1, 0.1], [1.0, 0.0])
    assert _covered(ev.value, 1.0 / (4.0 * rate), ev.error_estimate)
    gram = empirical_obs_gramian(system, [0.1, 0.1])
    assert _covered(gram.matrix[0, 0], 1.0 / (2.0 * rate), gram.truncation_error)


def test_a_zero_integrand_stops_at_the_first_horizon():
    # k = 0 gives a zero integrand along a reversed flow that escapes near
    # t = 27.6; the integral must end at the first horizon, before it
    system = from_spec(parse_system_spec({"name": "zero_k", "n": 1, "m": 1, "p": 1,
                                          "f": ["-x1"], "g": [["1"]], "h": ["x1"],
                                          "k": ["0"]}))
    for result in (diff_controllability_fb(system, [0.5], [1.0]),
                   incr_controllability_fb(system, [0.5], [-0.3])):
        assert (result.value, result.error_estimate, result.horizon) == (0.0, 0.0, 20.0)
    gram = empirical_ctrl_gramian(system, [0.5])
    assert np.array_equal(gram.matrix, [[0.0]]) and gram.horizon == 20.0


def test_a_point_with_the_wrong_number_of_components_is_rejected():
    with pytest.raises(ValueError, match="block 'x' needs 2 components"):
        diff_observability(registry("paper_sec5"), [0.0], [1.0, 0.0])


def test_zero_tangent_and_identical_pair_give_zero():
    sys_ = registry("paper_sec5")
    assert diff_observability(sys_, [0.1, -0.2], [0.0, 0.0]).value == 0.0
    assert diff_controllability_fb(sys_, [0.1, -0.2], [0.0, 0.0]).value == 0.0
    assert incr_observability(sys_, [0.1, 0.1], [0.1, 0.1]).value == 0.0
    assert incr_controllability_fb(sys_, [0.1, 0.1], [0.1, 0.1]).value == 0.0


def test_differential_energies_are_quadratic_in_the_tangent():
    sys_ = registry("paper_sec5")
    x0 = [0.05, -0.1]
    d = np.array([0.4, 0.3])
    base_obs = diff_observability(sys_, x0, d).value
    base_ctl = diff_controllability_fb(sys_, x0, d).value
    for a in (2.0, 10.0, -1.0):
        scaled_obs = diff_observability(sys_, x0, a * d).value
        scaled_ctl = diff_controllability_fb(sys_, x0, a * d).value
        assert abs(scaled_obs - a ** 2 * base_obs) <= 1e-8 * abs(a ** 2 * base_obs)
        assert abs(scaled_ctl - a ** 2 * base_ctl) <= 1e-8 * abs(a ** 2 * base_ctl)


def test_energy_value_metadata():
    sys_ = registry("linear_scalar")
    ev = diff_observability(sys_, [0.0], [1.0])
    assert ev.direction == "forward"
    assert float(ev) == ev.value
    assert ev.horizon is not None and ev.horizon >= 20.0
    assert diff_controllability_fb(sys_, [0.0], [1.0]).direction == "backward"


def test_line_path_geometry():
    path = LinePath.between([0.0, 0.0], [1.0, 2.0])
    assert np.allclose(path.point(0.5), [0.5, 1.0])
    assert np.allclose(path.tangent(), [1.0, 2.0])
    assert np.allclose(path.point(0.0), path.start)
    assert np.allclose(path.point(1.0), path.end)


def test_path_integral_equals_incremental_for_linear():
    sys_ = registry("linear_scalar")
    path = LinePath.between([0.0], [0.6])
    lhs = path_energy_integral(lambda x, d: diff_controllability_fb(sys_, x, d), path)
    rhs = incr_controllability_fb(sys_, [0.0], [0.6])
    assert abs(lhs.value - rhs.value) < 1e-8
    assert abs(lhs.value - 0.36) < 1e-8


def test_path_integral_dominates_incremental_on_nonlinear_system():
    sys_ = registry("paper_sec5")
    x0, x1 = np.array([0.0, 0.0]), np.array([0.3, 0.2])
    path = LinePath.between(x0, x1)
    lhs = path_energy_integral(lambda x, d: diff_controllability_fb(sys_, x, d), path)
    rhs = incr_controllability_fb(sys_, x0, x1)
    budget = lhs.error_estimate + rhs.error_estimate
    assert lhs.value - rhs.value >= -budget


def test_quadratic_limit_recovers_differential_energy():
    sys_ = registry("linear_scalar")
    ql = quadratic_limit(lambda a, b: incr_controllability_fb(sys_, a, b), [0.0], [1.0])
    assert abs(ql.limit - 1.0) < 1e-6
    assert len(ql.table) == 4
    assert len(ql.extrapolants) == 2
    assert ql.discrepancy <= 1e-6
    assert ql.error_budget >= ql.discrepancy

    sys5 = registry("paper_sec5")
    ql5 = quadratic_limit(
        lambda a, b: incr_controllability_fb(sys5, a, b), [0.0, 0.0], [1.0, 0.0])
    ref = diff_controllability_fb(sys5, [0.0, 0.0], [1.0, 0.0]).value
    assert abs(ql5.limit - ref) < 1e-4


def test_quadratic_limit_flags_non_quadratic_behaviour():
    def linear_gap(a, b):
        # scales like s, so value/s^2 diverges and the window fits disagree
        return EnergyValue(value=float(np.linalg.norm(np.asarray(b) - np.asarray(a))),
                           error_estimate=0.0, horizon=None, nodes_used=0,
                           direction="forward", meta={})

    with pytest.raises(LadderError, match=f"> tol {LADDER_TOL:g}") as err:
        quadratic_limit(linear_gap, [0.0], [1.0])
    assert len(err.value.table) == 4


def test_cosine_bump_support_and_smoothness():
    w = cosine_bump(1.0, 3.0, [2.0])
    assert np.allclose(w(0.5), [0.0])
    assert np.allclose(w(3.5), [0.0])
    assert np.allclose(w(2.0), [2.0])  # peak at midpoint
    h = 1e-6  # C^1: one-sided slopes agree at the support boundary
    assert abs((w(1.0 + h)[0] - w(1.0)[0]) / h) < 1e-4


def test_perturbation_energy_reproduces_feedback_energy_at_zero():
    for name in ("linear_scalar", "paper_sec5"):
        sys_ = registry(name)
        x0 = [0.1] * sys_.n
        d = [1.0] + [0.0] * (sys_.n - 1)
        base = feedback_perturbation_energy(sys_, x0, d)
        ref = diff_controllability_fb(sys_, x0, d)
        assert abs(base.value - ref.value) <= ref.error_estimate + base.error_estimate + 1e-9


def test_perturbed_inputs_never_beat_the_feedback():
    sys_ = registry("paper_sec5")
    x0, d = [0.1, 0.1], [1.0, 0.0]
    ref = diff_controllability_fb(sys_, x0, d).value
    rng = np.random.default_rng(23)
    for _ in range(5):
        t0 = rng.uniform(0.5, 10.0)
        width = rng.uniform(0.5, 5.0)
        amp = rng.uniform(-1.0, 1.0, 1)
        pert = feedback_perturbation_energy(
            sys_, x0, d, w_signal=cosine_bump(-t0 - width, -t0, amp))
        assert pert.value >= ref - 1e-8
