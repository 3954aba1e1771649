"""Empirical Gramians, matrix-equation residuals, and definiteness scans.

The observability Gramian integrates (C Phi)^T (C Phi) forward along the
zero-input flow; the feedback controllability Gramian integrates
(K Phi)^T (K Phi) backward along the closed loop.  Both reuse the scalar
horizon-doubling controller on matrix values (convergence measured in
Frobenius norm).

Residual evaluators plug a supplied matrix field into the four first-order
matrix equations and report the left-minus-right side.  Fields defined by
expressions differentiate exactly through duals; pointwise-evaluable
fields (such as the empirical Gramians) fall back to central differences
with Richardson refinement.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .calculus import (MatrixField, frozen_input_jacobian_scalars, jacobian,
                       matrix_field_directional)
from .integrate import (DEFAULT_ATOL, DEFAULT_RTOL, HorizonFlow,
                        composite_gauss_legendre, improper_time_integral)
from .jacobi import determinant_and_min_eigenvalue
from .systems import SystemModel


@dataclass
class GramianResult:
    """Symmetrized matrix integral with truncation bookkeeping."""

    matrix: np.ndarray
    truncation_error: float
    horizon: float
    nodes_used: int = 0
    meta: dict = field(default_factory=dict)


@dataclass
class ResidualReport:
    """Left-minus-right side of one matrix equation at one point."""

    equation_id: str
    at: tuple
    residual: np.ndarray
    frobenius_norm: float
    meta: dict = field(default_factory=dict)


def _report(equation_id: str, xs, residual: np.ndarray, **meta) -> ResidualReport:
    residual = np.atleast_2d(np.asarray(residual, dtype=float))
    return ResidualReport(equation_id=equation_id, at=tuple(float(v) for v in xs),
                          residual=residual,
                          frobenius_norm=float(np.linalg.norm(residual)),
                          meta=meta)


def _gramian_from_flow(rhs, z0, out_field, direction: str, tol: float,
                       fixed_horizon: float | None, rtol: float, atol: float,
                       label: str) -> GramianResult:
    """Integrate (J Phi)^T (J Phi) along the (x, Phi) flow, J the Jacobian
    of out_field at x; each panel's nodes take one lookup and one
    Jacobian pass."""
    n = out_field.dim_in
    flow = HorizonFlow(rhs, z0, rtol=rtol, atol=atol)

    def integrand(t: np.ndarray) -> np.ndarray:
        z = flow.state(np.abs(t))
        m = jacobian(out_field, z[:, :n]) @ z[:, n:].reshape(-1, n, n)
        return np.swapaxes(m, 1, 2) @ m

    if fixed_horizon is not None:
        value, err, nodes = composite_gauss_legendre(integrand, 0.0,
                                                      float(fixed_horizon))
        sym = 0.5 * (value + value.T)
        return GramianResult(matrix=sym, truncation_error=err,
                             horizon=float(fixed_horizon), nodes_used=nodes,
                             meta={"kind": label, "direction": direction,
                                   "tail": "untracked (fixed horizon)"})
    res = improper_time_integral(integrand, direction=direction, tol=tol)
    value = np.asarray(res.value, dtype=float)
    sym = 0.5 * (value + value.T)
    meta = {"kind": label, "direction": direction,
            "tail_estimate": res.tail_estimate}
    meta.update(res.meta)
    return GramianResult(matrix=sym, truncation_error=res.error_estimate,
                         horizon=res.horizon, nodes_used=res.nodes_used, meta=meta)


def empirical_obs_gramian(system: SystemModel, x, tol: float = 1e-8,
                          rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL,
                          fixed_horizon: float | None = None) -> GramianResult:
    """Observability Gramian: forward integral of (C Phi)^T (C Phi).

    Phi is the flow Jacobian of the zero-input drift and C the output
    Jacobian along the flow, co-integrated as an n + n^2 system.
    """
    n = system.n
    f = system.f

    def rhs(t, z):
        xs = [float(v) for v in z[:n]]
        phi = z[n:].reshape(n, n)
        dx = np.asarray(f(xs), dtype=float)
        dphi = jacobian(f, xs) @ phi
        return np.concatenate([dx, dphi.reshape(-1)])

    z0 = np.concatenate([np.asarray(x, dtype=float), np.eye(n).reshape(-1)])
    return _gramian_from_flow(rhs, z0, system.h, "forward", tol,
                              fixed_horizon, rtol, atol, "obs_gramian")


def empirical_ctrl_gramian(system: SystemModel, x, tol: float = 1e-8,
                           rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL,
                           fixed_horizon: float | None = None) -> GramianResult:
    """Feedback controllability Gramian: backward integral of (K Phi)^T (K Phi).

    Runs the time-reversed closed loop forward together with its flow
    Jacobian; K is the feedback Jacobian along the reversed flow.
    """
    n = system.n
    k = system.require_k()
    cl = system.closed_loop_field()

    def rhs(t, z):
        xs = [float(v) for v in z[:n]]
        phi = z[n:].reshape(n, n)
        dx = -np.asarray(cl(xs), dtype=float)
        dphi = -(jacobian(cl, xs) @ phi)
        return np.concatenate([dx, dphi.reshape(-1)])

    z0 = np.concatenate([np.asarray(x, dtype=float), np.eye(n).reshape(-1)])
    return _gramian_from_flow(rhs, z0, k, "backward", tol,
                              fixed_horizon, rtol, atol, "ctrl_gramian")


class EmpiricalGramianField:
    """Pointwise matrix field backed by a fresh Gramian integral per call.

    fixed_horizon pins the truncation point so finite-difference stencils
    across nearby points see a smooth function of x instead of jumps from
    adaptive horizon selection.  Evaluations are memoized per point.
    """

    dual_ok = False

    def __init__(self, system: SystemModel, kind: str, tol: float = 1e-8,
                 rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL,
                 fixed_horizon: float | None = 40.0):
        if kind not in ("obs", "ctrl"):
            raise ValueError("kind must be 'obs' or 'ctrl'")
        self.system = system
        self.kind = kind
        self.tol = tol
        self.rtol = rtol
        self.atol = atol
        self.fixed_horizon = fixed_horizon
        self._cache: dict[tuple, np.ndarray] = {}

    def gramian(self, xs) -> GramianResult:
        fn = empirical_obs_gramian if self.kind == "obs" else empirical_ctrl_gramian
        return fn(self.system, xs, tol=self.tol, rtol=self.rtol, atol=self.atol,
                  fixed_horizon=self.fixed_horizon)

    def __call__(self, xs):
        key = tuple(float(v) for v in xs)
        if key not in self._cache:
            self._cache[key] = self.gramian(list(key)).matrix
        return self._cache[key]


def _eval_matrix(field_like, xs) -> np.ndarray:
    return np.atleast_2d(np.asarray(field_like([float(v) for v in xs]), dtype=float))


def matrix_directional(field_like, xs, v, fd_step: float = 1e-4) -> np.ndarray:
    """Directional derivative of a matrix field along v.

    Exact through duals when the field supports them; otherwise central
    differences at fd_step with one Richardson refinement step.
    """
    if isinstance(field_like, MatrixField) and field_like.dual_ok:
        return matrix_field_directional(field_like, [float(u) for u in xs], v)
    x = np.asarray(xs, dtype=float)
    v = np.asarray(v, dtype=float)

    def diff(h: float) -> np.ndarray:
        return (_eval_matrix(field_like, x + h * v)
                - _eval_matrix(field_like, x - h * v)) / (2.0 * h)

    coarse = diff(fd_step)
    fine = diff(0.5 * fd_step)
    return (4.0 * fine - coarse) / 3.0


def lyap_residual_obs(system: SystemModel, q_field, x,
                      fd_step: float = 1e-4) -> ResidualReport:
    """Residual of the forward matrix equation certifying Q.

    Zero residual means D_f Q + Q J_f + J_f^T Q + C^T C = 0 at x.
    """
    xs = [float(v) for v in x]
    fv = np.asarray(system.f(xs), dtype=float)
    jf = jacobian(system.f, xs)
    c = jacobian(system.h, xs)
    q = _eval_matrix(q_field, xs)
    dq = matrix_directional(q_field, xs, fv, fd_step)
    res = dq + q @ jf + jf.T @ q + c.T @ c
    return _report("dLya_ob", xs, res)


def riccati_residual(system: SystemModel, r_field, x,
                     fd_step: float = 1e-4) -> tuple[ResidualReport, ResidualReport]:
    """Residuals of the closed-loop equation pair certifying R.

    State part: D_{f+gk} R + R J_cl + J_cl^T R - K^T K with the full
    closed-loop Jacobian J_cl (including the feedback derivative).
    Gain part: K - g^T R.
    """
    xs = [float(v) for v in x]
    cl = system.closed_loop_field()
    clv = np.asarray(cl(xs), dtype=float)
    jcl = jacobian(cl, xs)
    kk = jacobian(system.require_k(), xs)
    g_vals = np.asarray(system.g(xs), dtype=float)
    r = _eval_matrix(r_field, xs)
    dr = matrix_directional(r_field, xs, clv, fd_step)
    res_state = dr + r @ jcl + jcl.T @ r - kk.T @ kk
    res_gain = kk - g_vals.T @ r
    return (_report("dRicc_con", xs, res_state), _report("dRicc_gain", xs, res_gain))


def lyap_residual_ctrl(system: SystemModel, p_field, x,
                       fd_step: float = 1e-4) -> tuple[ResidualReport, ResidualReport]:
    """Residuals of the dual equation pair certifying P.

    State part: -D_{f+gk} P + P A^T + A P + g g^T where A is the
    input-frozen Jacobian (u held at k(x), feedback derivative excluded).
    Gain part: K P - g^T.
    """
    xs = [float(v) for v in x]
    drift, frozen = frozen_input_jacobian_scalars(system, xs)
    a = np.asarray(frozen, dtype=float)
    clv = np.asarray(drift, dtype=float)
    kk = jacobian(system.require_k(), xs)
    g_vals = np.asarray(system.g(xs), dtype=float)
    p = _eval_matrix(p_field, xs)
    dp = matrix_directional(p_field, xs, clv, fd_step)
    res_state = -dp + p @ a.T + a @ p + g_vals @ g_vals.T
    res_gain = kk @ p - g_vals.T
    return (_report("dLya_con", xs, res_state), _report("dLya_gain", xs, res_gain))


def lyap_residual_open(system: SystemModel, p_field, x,
                       fd_step: float = 1e-4) -> ResidualReport:
    """Residual of the open-loop dual equation certifying an unforced P.

    Zero residual means -D_f P + P J_f^T + J_f P + g g^T = 0 at x.
    """
    xs = [float(v) for v in x]
    fv = np.asarray(system.f(xs), dtype=float)
    jf = jacobian(system.f, xs)
    g_vals = np.asarray(system.g(xs), dtype=float)
    p = _eval_matrix(p_field, xs)
    dp = matrix_directional(p_field, xs, fv, fd_step)
    res = -dp + p @ jf.T + jf @ p + g_vals @ g_vals.T
    return _report("dLya_open", xs, res)


def grid_points(region: Sequence[tuple[float, float]],
                grid_shape: Sequence[int]) -> np.ndarray:
    """Row-major inclusive grid over an axis-aligned box."""
    if len(region) != len(grid_shape):
        raise ValueError("region and grid_shape must have equal length")
    axes = []
    for (lo, hi), count in zip(region, grid_shape):
        count = int(count)
        if count < 1:
            raise ValueError("grid counts must be >= 1")
        axes.append(np.linspace(float(lo), float(hi), count))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


@dataclass
class PDScan:
    """Per-point minimum eigenvalue and determinant over a grid.

    Both quantities are reported; callers pick their notion of positivity.
    Failed evaluations carry a status message and NaN values, and do not
    abort the scan.
    """

    region: tuple
    grid_shape: tuple
    points: np.ndarray
    min_eigs: np.ndarray
    dets: np.ndarray
    statuses: list[str]

    def all_positive_definite(self, floor: float = 0.0) -> bool:
        if any(s != "ok" for s in self.statuses):
            return False
        return bool(np.all(self.min_eigs > floor) and np.all(self.dets > floor))

    def to_csv(self) -> str:
        n = self.points.shape[1]
        out = io.StringIO()
        cols = [f"x{i + 1}" for i in range(n)] + ["min_eig", "det", "status"]
        out.write(",".join(cols) + "\n")
        for row, me, dt, st in zip(self.points, self.min_eigs, self.dets, self.statuses):
            cells = [f"{v:.17g}" for v in row] + [f"{me:.17g}", f"{dt:.17g}", st]
            out.write(",".join(cells) + "\n")
        return out.getvalue()


def scan_from_values(region, grid_shape, points: np.ndarray, values) -> PDScan:
    """Assemble a PDScan from precomputed per-point ('ok', matrix) pairs.

    values entries are either ("ok", matrix) or ("error", message); order
    must match points.  This is the deterministic assembly step that
    parallel map implementations feed.
    """
    min_eigs = np.full(len(points), np.nan)
    dets = np.full(len(points), np.nan)
    statuses: list[str] = []
    for i, entry in enumerate(values):
        status, payload = entry
        if status != "ok":
            statuses.append(str(payload).replace(",", ";"))
            continue
        matrix = np.asarray(payload, dtype=float)
        sym = 0.5 * (matrix + matrix.T)
        det, min_eig = determinant_and_min_eigenvalue(sym)
        min_eigs[i] = min_eig
        dets[i] = det
        statuses.append("ok")
    return PDScan(region=tuple(tuple(map(float, rc)) for rc in region),
                  grid_shape=tuple(int(g) for g in grid_shape),
                  points=points, min_eigs=min_eigs, dets=dets, statuses=statuses)


def pd_scan(field_like, region, grid_shape) -> PDScan:
    """Evaluate a matrix field on an inclusive grid and test definiteness."""
    points = grid_points(region, grid_shape)
    values = []
    for row in points:
        try:
            values.append(("ok", _eval_matrix(field_like, row)))
        except Exception as exc:  # recorded per point, scan continues
            values.append(("error", f"{type(exc).__name__}: {exc}"))
    return scan_from_values(region, grid_shape, points, values)
