"""Empirical Gramians, matrix-equation residuals, and definiteness scans.

The observability Gramian integrates (C Phi)^T (C Phi) forward along the
zero-input flow; the feedback controllability Gramian integrates
(K Phi)^T (K Phi) backward along the closed loop.  Both reuse the scalar
horizon-doubling controller on matrix values (convergence measured in
Frobenius norm).

Both Gramians take one point or a (B, n) stack, solved as batched flows
by integrate.flow_integrals, where one point is a stack of one.

Residual evaluators plug a supplied matrix field into the four first-order
matrix equations and report the left-minus-right side.  Fields defined by
expressions differentiate exactly through duals; pointwise-evaluable
fields (such as the empirical Gramians) fall back to central differences
of step FD_STEP = 1e-4 with Richardson refinement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .calculus import (MatrixField, field_values, flow_rhs, frozen_input_jacobian,
                       jacobian, matrix_at, matrix_field_directional)
from .integrate import DEFAULT_ATOL, DEFAULT_RTOL, IntegrationError, flow_integrals
from .jacobi import determinant_and_min_eigenvalue
from .systems import SystemModel

# central-difference step of matrix_directional on a pointwise field
FD_STEP = 1e-4


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


def _gramian_from_flow(field, sign: float, x, out_field, direction: str, tol: float,
                       fixed_horizon: float | None, rtol: float, atol: float,
                       label: str) -> GramianResult | list[GramianResult]:
    """Integrate (J Phi)^T (J Phi) along the (x, Phi) flow of sign * field
    from (x, I), J the Jacobian of out_field at x.  The integrand is called
    once per horizon segment (once for all of [0, fixed_horizon]), and
    each call's nodes take one lookup and one Jacobian kernel call.  A
    (B, n) stack x gives a list of B results (see flow_integrals), one
    point x (n,) its one result."""
    n = out_field.dim_in
    x = np.asarray(x, dtype=float)
    points = np.atleast_2d(x)
    eye = np.broadcast_to(np.eye(n).reshape(-1), (len(points), n * n))

    def integrand(z: np.ndarray) -> np.ndarray:
        m = jacobian(out_field, z[:, :n]) @ z[:, n:].reshape(-1, n, n)
        return np.swapaxes(m, 1, 2) @ m

    results = flow_integrals(flow_rhs(field, width=n, sign=sign),
                             np.concatenate([points, eye], axis=1), integrand, direction,
                             tol=tol, rtol=rtol, atol=atol, fixed_horizon=fixed_horizon)
    grams = [GramianResult(matrix=0.5 * (res.value + res.value.T),
                           truncation_error=res.error_estimate, horizon=res.horizon,
                           nodes_used=res.nodes_used,
                           meta={"kind": label, "direction": direction,
                                 **({} if fixed_horizon is not None
                                    else {"tail_estimate": res.tail_estimate}),
                                 **res.meta})
             for res in results]
    return grams[0] if x.ndim == 1 else grams


def empirical_obs_gramian(system: SystemModel, x, tol: float = 1e-8,
                          rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL,
                          fixed_horizon: float | None = None
                          ) -> GramianResult | list[GramianResult]:
    """Observability Gramian: forward integral of (C Phi)^T (C Phi).

    Phi is the flow Jacobian of the zero-input drift and C the output
    Jacobian along the flow, co-integrated as an n + n^2 system.  A
    (B, n) stack x gives one result per point, from one batched flow.
    """
    return _gramian_from_flow(system.f, 1.0, x, system.h, "forward", tol,
                              fixed_horizon, rtol, atol, "obs_gramian")


def empirical_ctrl_gramian(system: SystemModel, x, tol: float = 1e-8,
                           rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL,
                           fixed_horizon: float | None = None
                           ) -> GramianResult | list[GramianResult]:
    """Feedback controllability Gramian: backward integral of (K Phi)^T (K Phi).

    Runs the time-reversed closed loop forward together with its flow
    Jacobian; K is the feedback Jacobian along the reversed flow.  A
    (B, n) stack x gives one result per point, from one batched flow.
    """
    return _gramian_from_flow(system.closed_loop_field(), -1.0, x, system.require_k(),
                              "backward", tol, fixed_horizon, rtol, atol, "ctrl_gramian")


class EmpiricalGramianField:
    """Pointwise matrix field backed by a fresh Gramian integral per call.

    fixed_horizon pins the truncation point so finite-difference stencils
    across nearby points see a smooth function of x instead of jumps from
    adaptive horizon selection.  Evaluations are memoized per point, and
    made by many: a call at one point is a batch of one.
    """

    def __init__(self, system: SystemModel, kind: str, tol: float = 1e-8,
                 fixed_horizon: float | None = 40.0):
        if kind not in ("obs", "ctrl"):
            raise ValueError("kind must be 'obs' or 'ctrl'")
        self.system = system
        self.kind = kind
        self.tol = tol
        self.fixed_horizon = fixed_horizon
        self._cache: dict[tuple, np.ndarray] = {}

    def gramian(self, xs) -> GramianResult | list[GramianResult]:
        """The Gramian at one point xs, or one per row of a (B, n) stack."""
        fn = empirical_obs_gramian if self.kind == "obs" else empirical_ctrl_gramian
        return fn(self.system, xs, tol=self.tol, fixed_horizon=self.fixed_horizon)

    def __call__(self, xs):
        return self.many([xs])[0]

    def many(self, points) -> list[np.ndarray]:
        """The matrices at each of points; those not yet memoized are
        computed as one stack (solved in batches of integrate.MAX_BATCH)."""
        keys = [tuple(float(v) for v in xs) for xs in points]
        missing = [key for key in dict.fromkeys(keys) if key not in self._cache]
        if missing:
            for key, res in zip(missing, self.gramian(np.array(missing))):
                self._cache[key] = res.matrix
        return [self._cache[key] for key in keys]


def matrix_directional(field_like, xs, v) -> np.ndarray:
    """Directional derivative of a matrix field along v.

    Exact through duals for a MatrixField; for a pointwise field, central
    differences at FD_STEP with one Richardson refinement step.
    """
    if isinstance(field_like, MatrixField):
        return matrix_field_directional(field_like, [float(u) for u in xs], v)
    x = np.asarray(xs, dtype=float)
    v = np.asarray(v, dtype=float)

    def diff(h: float) -> np.ndarray:
        return (matrix_at(field_like, x + h * v)
                - matrix_at(field_like, x - h * v)) / (2.0 * h)

    coarse = diff(FD_STEP)
    fine = diff(0.5 * FD_STEP)
    return (4.0 * fine - coarse) / 3.0


def lyap_residual_obs(system: SystemModel, q_field, x) -> ResidualReport:
    """Residual of the forward matrix equation certifying Q.

    Zero residual means D_f Q + Q J_f + J_f^T Q + C^T C = 0 at x.
    """
    xs = [float(v) for v in x]
    fv = field_values(system.f, xs)
    jf = jacobian(system.f, xs)
    c = jacobian(system.h, xs)
    q = matrix_at(q_field, xs)
    dq = matrix_directional(q_field, xs, fv)
    res = dq + q @ jf + jf.T @ q + c.T @ c
    return _report("dLya_ob", xs, res)


def riccati_residual(system: SystemModel, r_field, x) -> tuple[ResidualReport, ResidualReport]:
    """Residuals of the closed-loop equation pair certifying R.

    State part: D_{f+gk} R + R J_cl + J_cl^T R - K^T K with the full
    closed-loop Jacobian J_cl (including the feedback derivative).
    Gain part: K - g^T R.
    """
    xs = [float(v) for v in x]
    cl = system.closed_loop_field()
    clv = field_values(cl, xs)
    jcl = jacobian(cl, xs)
    kk = jacobian(system.require_k(), xs)
    g_vals = field_values(system.g, xs)
    r = matrix_at(r_field, xs)
    dr = matrix_directional(r_field, xs, clv)
    res_state = dr + r @ jcl + jcl.T @ r - kk.T @ kk
    res_gain = kk - g_vals.T @ r
    return (_report("dRicc_con", xs, res_state), _report("dRicc_gain", xs, res_gain))


def lyap_residual_ctrl(system: SystemModel, p_field, x) -> tuple[ResidualReport, ResidualReport]:
    """Residuals of the dual equation pair certifying P.

    State part: -D_{f+gk} P + P A^T + A P + g g^T where A is the
    input-frozen Jacobian (u held at k(x), feedback derivative excluded).
    Gain part: K P - g^T.
    """
    xs = [float(v) for v in x]
    clv, a, g_vals = frozen_input_jacobian(system, xs)
    kk = jacobian(system.require_k(), xs)
    p = matrix_at(p_field, xs)
    dp = matrix_directional(p_field, xs, clv)
    res_state = -dp + p @ a.T + a @ p + g_vals @ g_vals.T
    res_gain = kk @ p - g_vals.T
    return (_report("dLya_con", xs, res_state), _report("dLya_gain", xs, res_gain))


def lyap_residual_open(system: SystemModel, p_field, x) -> ResidualReport:
    """Residual of the open-loop dual equation certifying an unforced P.

    Zero residual means -D_f P + P J_f^T + J_f P + g g^T = 0 at x.
    """
    xs = [float(v) for v in x]
    fv = field_values(system.f, xs)
    jf = jacobian(system.f, xs)
    g_vals = field_values(system.g, xs)
    p = matrix_at(p_field, xs)
    dp = matrix_directional(p_field, xs, fv)
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

    def all_positive_definite(self) -> bool:
        if any(s != "ok" for s in self.statuses):
            return False
        return bool(np.all(self.min_eigs > 0.0) and np.all(self.dets > 0.0))


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


def points_read(evaluate, n: int) -> list[tuple]:
    """The points, in order, at which evaluate(field_like) reads a pointwise
    n x n matrix field, found by running it on a stand-in field that
    records each point and returns zeros."""
    points = []

    def stand_in(xs):
        points.append(tuple(float(v) for v in xs))
        return np.zeros((n, n))

    evaluate(stand_in)
    return points


def prefetch(field_like, points) -> None:
    """Evaluate a field with a many method (EmpiricalGramianField) at all
    of points as one batch, filling its memo.  If the batch fails, the
    points are left to be evaluated one at a time, so that each failing
    point raises, or is recorded with, its own error."""
    try:
        field_like.many(points)
    except (IntegrationError, ArithmeticError, ValueError):
        pass  # the failing points fail again, one at a time, where they are read


def scan_value(field_like, point) -> tuple:
    """One scan_from_values entry: ("ok", the field's matrix at point), or
    ("error", "Type: message") if evaluating it raises."""
    try:
        return ("ok", matrix_at(field_like, point))
    except Exception as exc:  # recorded per point, scan continues
        return ("error", f"{type(exc).__name__}: {exc}")


def pd_scan(field_like, region, grid_shape) -> PDScan:
    """Evaluate a matrix field on an inclusive grid and test definiteness.

    A field with a many method is evaluated on the whole grid as one
    batch first (prefetch).
    """
    points = grid_points(region, grid_shape)
    if hasattr(field_like, "many"):
        prefetch(field_like, points)
    return scan_from_values(region, grid_shape, points,
                            [scan_value(field_like, row) for row in points])
