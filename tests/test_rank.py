"""Bracket matrices, observation codistributions, and their rank.

Two independent oracles pin the bracket recursion down:

* for linear systems the columns must be (-A)^i B, directly comparable to
  the Kalman matrix;
* along the reversed-time dual flow the i-th time derivative of the dual
  output g(x)^T dp equals (-1)^i times the i-th bracket column paired with
  dp, so finite differences of a simulated trajectory test the recursion
  without any symbolic manipulation.
"""

import numpy as np
import pytest

from oracles import kalman
from vargram.calculus import MatrixField, VectorField
from vargram.cli import main
from vargram.integrate import integrate_ivp
from vargram.rank import (
    ctrl_bracket_matrix,
    obs_codistribution,
    rank_sweep,
    strong_access_matrix,
)
from vargram.systems import SystemModel, dual_closed_loop, prolong, registry


def _rederived_bracket_1(x1):
    return 1.5 + 3.0 * x1 + 2.0 * x1 ** 2 + (2.0 / 3.0) * x1 ** 3


def _rederived_bracket_2(x1):
    return (1.25 + 5.0 * x1 + 8.25 * x1 ** 2 + (22.0 / 3.0) * x1 ** 3
            + (10.0 / 3.0) * x1 ** 4 + (2.0 / 3.0) * x1 ** 5)


def test_bracket_matrix_spot_values_at_origin():
    res = ctrl_bracket_matrix(registry("paper_sec5"), [0.0, 0.0], depth=2)
    expected = np.array([[1.0, 1.5, 1.25], [1.0, 0.5, 0.25]])
    assert np.allclose(res.matrix, expected, atol=1e-12)
    assert res.rank == 2
    assert res.depth == 2
    assert res.meta["kind"] == "ctrl_bracket"


def test_bracket_columns_match_rederived_closed_forms():
    sys_ = registry("paper_sec5")
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-1, 1, 2)
        res = ctrl_bracket_matrix(sys_, x, depth=2)
        expected = np.array([
            [1.0 + x[0], _rederived_bracket_1(x[0]), _rederived_bracket_2(x[0])],
            [1.0, 0.5, 0.25],
        ])
        worst = max(worst, float(np.abs(res.matrix - expected).max()))
    assert worst <= 1e-9


def test_bracket_columns_match_dual_output_derivatives():
    # simulate the dual flow, numerically differentiate dz = g(x)^T dp in
    # its own time, and compare with the bracket columns along the path
    sys_ = registry("paper_sec5")
    aug = dual_closed_loop(sys_)
    z0 = aug.pack(x=[0.3, -0.2], dp=[0.7, 0.4])
    traj = integrate_ivp(aug.rhs, z0, (0.0, 2.0), rtol=1e-11, atol=1e-13)

    def dz(tau):
        return float(aug.outputs["dz"](traj.at(tau))[0])

    tau_star, h = 1.0, 1e-2
    samples = [dz(tau_star + i * h) for i in (-2, -1, 0, 1, 2)]
    d1 = (samples[0] - 8 * samples[1] + 8 * samples[3] - samples[4]) / (12 * h)
    d2 = (-samples[0] + 16 * samples[1] - 30 * samples[2]
          + 16 * samples[3] - samples[4]) / (12 * h ** 2)

    z_star = traj.at(tau_star)
    x_star, dp_star = z_star[:2], z_star[2:]
    cols = ctrl_bracket_matrix(sys_, x_star, depth=2).matrix
    assert abs(dz(tau_star) - cols[:, 0] @ dp_star) < 1e-10
    assert abs(d1 - (-cols[:, 1] @ dp_star)) < 1e-5
    assert abs(d2 - cols[:, 2] @ dp_star) < 1e-3


def test_obs_rows_match_variational_output_derivative():
    # same idea forward in time: d/dt of dy along the prolonged system is
    # the second codistribution row paired with the variational state
    sys_ = registry("paper_sec5")
    aug = prolong(sys_)
    z0 = aug.pack(x=[0.25, 0.1], dx=[0.5, -1.0])
    traj = integrate_ivp(aug.rhs, z0, (0.0, 2.0), rtol=1e-11, atol=1e-13)

    def dy(t):
        return float(aug.outputs["dy"](traj.at(t))[0])

    t_star, h = 1.0, 1e-2
    samples = [dy(t_star + i * h) for i in (-2, -1, 1, 2)]
    d1 = (samples[0] - 8 * samples[1] + 8 * samples[2] - samples[3]) / (12 * h)

    z_star = traj.at(t_star)
    rows = obs_codistribution(sys_, z_star[:2], depth=1).matrix
    assert abs(dy(t_star) - rows[0] @ z_star[2:]) < 1e-10
    assert abs(d1 - rows[1] @ z_star[2:]) < 1e-6


def test_obs_codistribution_spot_values():
    sys_ = registry("paper_sec5")
    res = obs_codistribution(sys_, [0.0, 0.0], depth=1)
    assert np.allclose(res.matrix, [[1.0, 0.0], [-0.5, -1.0]], atol=1e-12)
    assert res.rank == 2

    rng = np.random.default_rng(43)
    for _ in range(50):
        x = rng.uniform(-1, 1, 2)
        expected = [[1.0, 0.0],
                    [-0.5 - 2.0 * x[0] - x[0] ** 2 - x[1], -1.0 - x[0]]]
        got = obs_codistribution(sys_, x, depth=1)
        assert np.allclose(got.matrix, expected, atol=1e-9)


def test_obs_rank_drops_on_the_critical_line():
    sys_ = registry("paper_sec5")
    for x2 in (-1.0, -0.5, 0.0, 0.5, 1.0):
        res = obs_codistribution(sys_, [-1.0, x2], depth=1)
        assert res.rank == 1
    for x in ([-0.9, 0.0], [0.0, 0.4], [0.7, -0.7]):
        assert obs_codistribution(sys_, x, depth=1).rank == 2


def test_bracket_rank_full_across_the_box():
    sys_ = registry("paper_sec5")
    rng = np.random.default_rng(47)
    points = rng.uniform(-1, 1, (50, 2))
    for res in rank_sweep(ctrl_bracket_matrix, sys_, points, depth=2):
        assert res.rank == 2


def test_linear_system_matches_kalman_oracle():
    sys_ = registry("linear_2x2")
    a, b = sys_.meta["A"], sys_.meta["B"]
    x = [0.4, -0.8]

    res = strong_access_matrix(sys_, x, depth=2)
    signed = kalman(-a, b, 2)  # columns (-A)^i B
    assert np.allclose(res.matrix, signed, atol=1e-12)
    assert res.rank == np.linalg.matrix_rank(kalman(a, b, 1))

    # constant g makes the feedback-modified and standard brackets agree
    res_cl = ctrl_bracket_matrix(sys_, x, depth=2)
    assert np.allclose(res_cl.matrix, signed, atol=1e-12)


def test_default_depth_and_validation():
    sys_ = registry("paper_sec5")
    res = ctrl_bracket_matrix(sys_, [0.1, 0.1])
    assert res.depth == 3  # 2n - 1
    assert res.matrix.shape == (2, 4)
    with pytest.raises(ValueError, match="depth"):
        ctrl_bracket_matrix(sys_, [0.0, 0.0], depth=0)


def test_degenerate_fields_give_rank_zero():
    base = registry("linear_scalar")
    no_input = SystemModel(
        name="no_input", n=1, m=1, p=1,
        f=base.f, g=MatrixField.constant([[0.0]]), h=base.h, k=base.k,
        certificates={}, meta={},
    )
    assert ctrl_bracket_matrix(no_input, [0.3], depth=2).rank == 0
    assert strong_access_matrix(no_input, [0.3], depth=2).rank == 0

    no_output = SystemModel(
        name="no_output", n=1, m=1, p=1,
        f=base.f, g=base.g, h=VectorField(1, 1, lambda xs: [0.0]), k=base.k,
        certificates={}, meta={},
    )
    res = obs_codistribution(no_output, [0.3], depth=2)
    assert res.rank == 0
    assert np.allclose(res.matrix, 0.0)


def test_rank_is_scale_invariant():
    base = registry("paper_sec5")
    for scale in (1e-3, 1e3):
        scaled = SystemModel(
            name="scaled", n=2, m=1, p=1,
            f=base.f,
            g=MatrixField(2, 1, lambda xs, s=scale: [[s * (1.0 + xs[0])], [s]]),
            h=base.h, k=base.k, certificates={}, meta={},
        )
        res = ctrl_bracket_matrix(scaled, [0.2, -0.4], depth=2)
        assert res.rank == 2


def test_sweep_csv_layout(tmp_path):
    # grid order: (-1, 0), where the rank is 1, then (0, 0)
    assert main(["rank", "--matrix", "obs", "--depth", "1", "--region", "-1,0,0,1",
                 "--grid", "2x1", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "rank.csv").read_text().splitlines()
    assert lines[0] == "x1,x2,rank,sigma_min,sigma_max"
    assert lines[1].split(",")[2] == "1"
    assert lines[2].split(",")[2] == "2"
    # sigma_min on the rank-1 line is numerically zero
    assert float(lines[1].split(",")[3]) < 1e-12
