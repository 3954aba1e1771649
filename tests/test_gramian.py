"""Empirical Gramians, matrix-equation residuals, and definiteness scans."""

import numpy as np
import pytest

from oracles import lyap_ctrl, lyap_dual, lyap_obs
from vargram.calculus import Dual, MatrixField, VectorField, matrix_at
from vargram.cli import main
from vargram.expr import parse_system_spec
from vargram.gramian import (
    EmpiricalGramianField,
    empirical_ctrl_gramian,
    empirical_obs_gramian,
    grid_points,
    lyap_residual_ctrl,
    lyap_residual_obs,
    lyap_residual_open,
    matrix_directional,
    pd_scan,
    riccati_residual,
    scan_from_values,
)
from vargram.systems import SystemModel, from_spec, registry


def test_linear_gramians_match_lyapunov_oracle():
    sys_ = registry("linear_scalar")
    assert abs(empirical_obs_gramian(sys_, [0.3]).matrix[0, 0] - 0.5) < 1e-6
    assert abs(empirical_ctrl_gramian(sys_, [0.3]).matrix[0, 0] - 2.0) < 1e-6

    lin = registry("linear_2x2")
    a, b, c, gain = (lin.meta[k] for k in ("A", "B", "C", "K"))
    q = lyap_obs(a, c)
    r = lyap_ctrl(a + b @ gain, gain)
    got_q = empirical_obs_gramian(lin, [0.1, -0.2]).matrix
    got_r = empirical_ctrl_gramian(lin, [0.1, -0.2]).matrix
    assert np.allclose(got_q, q, atol=1e-6)
    assert np.allclose(got_r, r, atol=1e-6)


def test_nonlinear_gramian_at_equilibrium_matches_linearization():
    # the flow from an equilibrium is exactly its linearization, so the
    # Lyapunov solve for J_f(0) = [[-1/2, -1], [0, -1/2]] is the truth here
    sys_ = registry("paper_sec5")
    q_lin = lyap_obs(np.array([[-0.5, -1.0], [0.0, -0.5]]), np.array([[1.0, 0.0]]))
    assert np.allclose(q_lin, [[1.0, -1.0], [-1.0, 2.0]], atol=1e-12)
    got = empirical_obs_gramian(sys_, [0.0, 0.0]).matrix
    assert np.allclose(got, q_lin, atol=1e-5)

    # reversed closed loop at the origin: A_cl(0) = [[1/2, 0], [1, 1/2]],
    # K(0) = [1, 1]; the certificate R = I solves that equation
    r_lin = lyap_ctrl(np.array([[0.5, 0.0], [1.0, 0.5]]), np.array([[1.0, 1.0]]))
    assert np.allclose(r_lin, np.eye(2), atol=1e-12)
    got_r = empirical_ctrl_gramian(sys_, [0.0, 0.0]).matrix
    assert np.allclose(got_r, np.eye(2), atol=1e-5)


def test_gramian_results_are_symmetric_with_metadata():
    sys_ = registry("paper_sec5")
    res = empirical_obs_gramian(sys_, [0.1, 0.1])
    assert np.allclose(res.matrix, res.matrix.T)
    assert res.horizon >= 20.0
    assert res.truncation_error >= 0.0
    assert res.nodes_used > 0


def test_gramian_field_pins_horizon_and_caches():
    sys_ = registry("paper_sec5")
    field = EmpiricalGramianField(sys_, "obs", fixed_horizon=40.0)
    first = field([0.05, 0.0])
    again = field([0.05, 0.0])
    assert first is again  # cached object, not merely equal
    assert field.gramian([0.05, 0.0]).horizon == 40.0
    with pytest.raises(ValueError, match="kind"):
        EmpiricalGramianField(sys_, "nonsense")


def test_matrix_directional_uses_duals_when_available():
    field = MatrixField(2, 2, lambda xs: [[xs[0] ** 2, 0.0], [0.0, xs[1]]])
    got = matrix_directional(field, [1.5, 0.0], [1.0, 2.0])
    assert np.allclose(got, [[3.0, 0.0], [0.0, 2.0]], atol=1e-12)

    # pointwise-only route: central differences plus one Richardson step
    def blind(xs):
        return [[xs[0] ** 2, 0.0], [0.0, xs[1]]]

    got_fd = matrix_directional(blind, [1.5, 0.0], [1.0, 2.0])
    assert np.allclose(got_fd, [[3.0, 0.0], [0.0, 2.0]], atol=1e-9)


def test_certificate_residuals_vanish():
    sys_ = registry("paper_sec5")
    rng = np.random.default_rng(31)
    for _ in range(5):
        x = rng.uniform(-0.5, 0.5, 2)
        state, gain = riccati_residual(sys_, sys_.certificates["R"], x)
        assert state.frobenius_norm < 1e-12
        assert gain.frobenius_norm < 1e-12
        state, gain = lyap_residual_ctrl(sys_, sys_.certificates["P"], x)
        assert state.frobenius_norm < 1e-12
        assert gain.frobenius_norm < 1e-12

    lin = registry("linear_scalar")
    assert lyap_residual_obs(lin, lin.certificates["Q"], [0.4]).frobenius_norm < 1e-12
    assert lyap_residual_open(lin, lin.certificates["P_open"], [0.4]).frobenius_norm < 1e-12


def test_residuals_detect_wrong_certificates():
    sys_ = registry("linear_scalar")
    zero = MatrixField.constant([[0.0]])
    # with Q = 0 the whole equation collapses to C^T C
    assert abs(lyap_residual_obs(sys_, zero, [0.0]).residual[0, 0] - 1.0) < 1e-12
    # with P = 0 the open equation collapses to g g^T
    assert abs(lyap_residual_open(sys_, zero, [0.0]).residual[0, 0] - 1.0) < 1e-12
    # with R = 0 the gain residual is K itself
    _, gain = riccati_residual(sys_, zero, [0.5])
    assert abs(gain.residual[0, 0] - 2.0) < 1e-12


def test_equation_ids_and_reports():
    sys_ = registry("linear_2x2")
    rep = lyap_residual_obs(sys_, sys_.certificates["Q"], [0.0, 0.0])
    assert rep.equation_id == "dLya_ob"
    assert rep.residual.shape == (2, 2)
    assert rep.frobenius_norm == np.linalg.norm(rep.residual)
    state, gain = riccati_residual(sys_, sys_.certificates["R"], [0.0, 0.0])
    assert (state.equation_id, gain.equation_id) == ("dRicc_con", "dRicc_gain")
    state, gain = lyap_residual_ctrl(sys_, sys_.certificates["P"], [0.0, 0.0])
    assert (state.equation_id, gain.equation_id) == ("dLya_con", "dLya_gain")
    assert lyap_residual_open(
        sys_, sys_.certificates["P_open"], [0.0, 0.0]).equation_id == "dLya_open"


def test_open_dual_certificate_from_oracle():
    lin = registry("linear_2x2")
    p_bar = lyap_dual(lin.meta["A"], lin.meta["B"])
    field = MatrixField.constant(p_bar)
    assert lyap_residual_open(lin, field, [0.3, -0.3]).frobenius_norm < 1e-12


def test_empirical_gramian_nearly_solves_its_equation():
    sys_ = registry("paper_sec5")
    field = EmpiricalGramianField(sys_, "obs", fixed_horizon=40.0)
    for x in ([0.0, 0.0], [0.1, -0.1], [-0.2, 0.15]):
        rep = lyap_residual_obs(sys_, field, x)
        assert rep.frobenius_norm < 1e-3

    r_field = EmpiricalGramianField(sys_, "ctrl", fixed_horizon=40.0)
    state, gain = riccati_residual(sys_, r_field, [0.1, 0.0])
    assert state.frobenius_norm < 1e-3
    assert gain.frobenius_norm < 1e-3


def test_empirical_residual_shrinks_with_tolerance():
    # slow scalar decay keeps the adaptive horizon short at loose tolerance,
    # so truncation dominates the residual there and tightening must win
    slow = SystemModel(
        name="slow", n=1, m=1, p=1,
        f=VectorField(1, 1, lambda xs: [-0.05 * xs[0]]),
        g=MatrixField(1, 1, lambda xs: [[1.0]]),
        h=VectorField(1, 1, lambda xs: [xs[0]]),
        k=None, certificates={}, meta={},
    )
    loose = lyap_residual_obs(slow, EmpiricalGramianField(slow, "obs", tol=1e-2,
                                                          fixed_horizon=None), [0.0])
    tight = lyap_residual_obs(slow, EmpiricalGramianField(slow, "obs", tol=1e-6,
                                                          fixed_horizon=None), [0.0])
    assert tight.frobenius_norm < loose.frobenius_norm
    assert loose.frobenius_norm > 1e-7  # truncation is actually visible


def test_reversed_gramian_inverts_the_dual_solution():
    # R P = I links the two closed-loop certificates for this system
    sys_ = registry("paper_sec5")
    r = empirical_ctrl_gramian(sys_, [0.05, -0.05]).matrix
    p = matrix_at(sys_.certificates["P"], [0.05, -0.05])
    assert np.allclose(r @ p, np.eye(2), atol=1e-4)


def test_grid_points_row_major_inclusive():
    pts = grid_points([(-1.0, 1.0), (0.0, 2.0)], (3, 2))
    assert pts.shape == (6, 2)
    assert np.allclose(pts[0], [-1.0, 0.0])
    assert np.allclose(pts[1], [-1.0, 2.0])  # second axis varies fastest
    assert np.allclose(pts[-1], [1.0, 2.0])
    with pytest.raises(ValueError):
        grid_points([(-1.0, 1.0)], (3, 2))
    with pytest.raises(ValueError):
        grid_points([(-1.0, 1.0)], (0,))


def test_pd_scan_trivial_fields():
    ident = MatrixField.constant(np.eye(2))
    scan = pd_scan(ident, [(-1.0, 1.0), (-1.0, 1.0)], (3, 3))
    assert scan.all_positive_definite()
    assert np.allclose(scan.min_eigs, 1.0)
    assert np.allclose(scan.dets, 1.0)

    # diag(x1, 1) loses definiteness exactly where x1 <= 0
    indef = MatrixField(2, 2, lambda xs: [[xs[0], 0.0], [0.0, 1.0]])
    scan = pd_scan(indef, [(-1.0, 1.0), (-1.0, 1.0)], (3, 3))
    assert not scan.all_positive_definite()
    negative = scan.points[:, 0] < 0
    assert np.all(scan.min_eigs[negative] < 0)
    assert np.all(scan.min_eigs[scan.points[:, 0] > 0] > 0)


def test_pd_scan_records_errors_and_continues():
    def flaky(xs):
        if xs[0] == 0.0:
            raise RuntimeError("bad, point")
        return [[1.0]]

    scan = pd_scan(flaky, [(-1.0, 1.0)], (3,))
    assert scan.statuses[0] == "ok" and scan.statuses[2] == "ok"
    assert "bad; point" in scan.statuses[1]  # commas sanitized for CSV
    assert np.isnan(scan.min_eigs[1])
    assert not scan.all_positive_definite()


def test_pd_scan_csv_layout(tmp_path):
    assert main(["pd-scan", "--system", "linear_scalar", "--field", "cert-R",
                 "--region", "0,1", "--grid", "2", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "scan.csv").read_text().splitlines()
    assert lines[0] == "x1,min_eig,det,status"
    assert lines[1].split(",") == ["0", "2", "2", "ok"]
    assert len(lines) == 3


def test_scan_from_values_symmetrizes():
    pts = grid_points([(0.0, 1.0)], (2,))
    skew = np.array([[1.0, 1.0], [0.0, 1.0]])
    scan = scan_from_values([(0.0, 1.0)], (2,), pts, [("ok", skew), ("ok", skew)])
    # eigenvalues of the symmetric part [[1, .5], [.5, 1]]
    assert np.allclose(scan.min_eigs, 0.5, atol=1e-12)


# on floats an x^3 entry is Python's power, libm's pow; on duals, and so in
# the traced kernels, it is x * (x * x), which differs in the last bit at
# some points
CUBIC_CERTIFICATE = {"name": "cubic_certificate", "n": 2, "m": 1, "p": 1,
                     "f": ["-x1", "-x2"], "g": [["1"], ["0"]], "h": ["x1"], "k": ["-x1"],
                     "fields": {"P": [["1 + x1^2", "x1^3"], ["x2^3", "2 + x2^2"]]}}


def test_a_spec_certificate_is_evaluated_by_its_kernel():
    cert = from_spec(parse_system_spec(CUBIC_CERTIFICATE)).certificates["P"]
    region, shape = [(-0.9, 0.9), (-0.7, 0.8)], (7, 7)
    scan = pd_scan(cert, region, shape)
    by_duals, floats_differ = [], 0
    for x in scan.points:
        entries = cert.func([Dual(float(v), ()) for v in x])
        matrix = np.array([[entry.value for entry in row] for row in entries])
        assert np.array_equal(matrix_at(cert, x), matrix)
        by_duals.append(("ok", matrix))
        floats_differ += not np.array_equal(cert.func([float(v) for v in x]), matrix)
    assert floats_differ > 0
    expected = scan_from_values(region, shape, scan.points, by_duals)
    assert np.array_equal(scan.min_eigs, expected.min_eigs)
    assert np.array_equal(scan.dets, expected.dets)


def test_pointwise_matrix_fields_are_called_on_floats():
    seen = []

    def func(xs):
        seen.append(tuple(type(v) for v in xs))
        return [[1.0 + xs[0] ** 2]]

    scan = pd_scan(func, [(-1.0, 1.0)], (3,))
    assert np.array_equal(matrix_at(func, [0.5]), [[1.25]])
    assert scan.statuses == ["ok"] * 3
    assert seen == [(float,)] * 4
