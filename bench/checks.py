"""Correctness checks on the program's outputs, computed apart from it.

Every reference here comes from numpy, scipy or sympy working on the
vector fields written out by hand below, never from vargram's own dual
numbers, quadrature or Jacobi routines.  Each check returns the keys of
the operations whose output it rejects; an empty set means every output
passed.  None of this runs inside a timed part.
"""

from __future__ import annotations

import numpy as np

# A Gramian entry moved by 1e-6 must fail, and vargram's own errors on
# these systems are about 1e-9, so outputs must match references to 1e-7.
MATRIX_TOL = 1e-7
RANK_COLUMN_TOL = 1e-9

# ---------------------------------------------------------------- paper_sec5
# x' = f(x) + g(x) u, y = x1, u = k(x) = x1 + x1^2/2 + x2, written out by hand.


def sec5_f(x):
    x1, x2 = x
    return np.array([-x1 / 2 - x1 ** 2 - x1 ** 3 / 3 - x1 * x2 - x2, -x2 / 2])


def sec5_f_jac(x):
    x1, x2 = x
    return np.array([[-0.5 - 2 * x1 - x1 ** 2 - x2, -x1 - 1.0], [0.0, -0.5]])


def sec5_closed_loop(x):
    x1, x2 = x
    return np.array([x1 / 2 + x1 ** 2 / 2 + x1 ** 3 / 6, x1 + x1 ** 2 / 2 + x2 / 2])


def sec5_closed_loop_jac(x):
    x1, _ = x
    return np.array([[0.5 + x1 + x1 ** 2 / 2, 0.0], [1.0 + x1, 0.5]])


def sec5_k_jac(x):
    return np.array([[1.0 + x[0], 1.0]])


SEC5_C = np.array([[1.0, 0.0]])
GRAMIAN_HORIZON = 80.0  # decay ~ t^2 exp(-t): the tail beyond is below 1e-30


def sec5_gramians(point) -> dict[str, np.ndarray]:
    """Observability and feedback controllability Gramians at one point.

    DOP853 integrates the state with its variational matrix from the
    equations above (forward along f for Q, along the reversed closed
    loop for R); quad_vec integrates the output or feedback energy of
    the variational matrix over [0, 80] on the dense solution.
    """
    from scipy.integrate import quad_vec, solve_ivp

    def gramian(field, field_jac, out_jac):
        def rhs(_t, z):
            x, phi = z[:2], z[2:].reshape(2, 2)
            return np.concatenate([field(x), (field_jac(x) @ phi).ravel()])

        z0 = np.concatenate([np.asarray(point, dtype=float), np.eye(2).ravel()])
        sol = solve_ivp(rhs, (0.0, GRAMIAN_HORIZON), z0, method="DOP853",
                        rtol=1e-12, atol=1e-14, dense_output=True)
        if sol.status != 0:
            raise RuntimeError(f"reference integration failed: {sol.message}")

        def integrand(t):
            z = sol.sol(t)
            m = out_jac(z[:2]) @ z[2:].reshape(2, 2)
            return m.T @ m

        value, _ = quad_vec(integrand, 0.0, GRAMIAN_HORIZON, epsabs=1e-13, epsrel=1e-12,
                            limit=2000)
        return 0.5 * (value + value.T)

    return {
        "empirical-Q": gramian(sec5_f, sec5_f_jac, lambda x: SEC5_C),
        "empirical-R": gramian(lambda x: -sec5_closed_loop(x),
                               lambda x: -sec5_closed_loop_jac(x), sec5_k_jac),
    }


def sec5_origin_q() -> np.ndarray:
    """Lyapunov solution of the linearization at the origin."""
    from scipy.linalg import solve_continuous_lyapunov

    a = sec5_f_jac([0.0, 0.0])
    return solve_continuous_lyapunov(a.T, -SEC5_C.T @ SEC5_C)


def min_eig_and_det(matrix) -> tuple[float, float]:
    sym = 0.5 * (np.asarray(matrix) + np.asarray(matrix).T)
    return float(np.linalg.eigvalsh(sym)[0]), float(np.linalg.det(sym))


def sec5_rank_references():
    """Sympy bracket columns and codistribution rows of paper_sec5.

    Returns callables x -> matrix for the feedback-modified bracket
    columns g, ad g, ad^2 g, ad^3 g (step (dV/dx)(f + g k) minus the
    input-frozen Jacobian d(f + g u)/dx at u = k times V), the standard
    brackets g, ad_f g, ... and the rows grad(L_f^i h), i = 0..3.
    """
    import sympy as sp

    x1, x2 = sp.symbols("x1 x2")
    xs = sp.Matrix([x1, x2])
    half, third = sp.Rational(1, 2), sp.Rational(1, 3)
    f = sp.Matrix([-x1 * half - x1 ** 2 - x1 ** 3 * third - x1 * x2 - x2, -x2 * half])
    g = sp.Matrix([1 + x1, 1])
    h = x1
    k = x1 + x1 ** 2 * half + x2
    closed = f + g * k
    frozen = f.jacobian(xs) + g.jacobian(xs) * k

    ctrl, access = [g], [g]
    for _ in range(3):
        ctrl.append(sp.expand(ctrl[-1].jacobian(xs) * closed - frozen * ctrl[-1]))
        access.append(sp.expand(access[-1].jacobian(xs) * f - f.jacobian(xs) * access[-1]))
    lies = [h]
    for _ in range(3):
        lies.append(sp.expand((sp.Matrix([lies[-1]]).jacobian(xs) * f)[0]))
    rows = [sp.Matrix([lie]).jacobian(xs) for lie in lies]

    def to_fn(matrix):
        fn = sp.lambdify((x1, x2), matrix, "numpy")
        return lambda p: np.asarray(fn(float(p[0]), float(p[1])), dtype=float)

    return {"ctrl": to_fn(sp.Matrix.hstack(*ctrl)),
            "access": to_fn(sp.Matrix.hstack(*access)),
            "obs": to_fn(sp.Matrix.vstack(*rows))}


# ---------------------------------------------------------------- linear_2x2
# x' = A x + B u, y = C x (companion form with spectrum {-1, -2}).

L2_A = np.array([[0.0, 1.0], [-2.0, -3.0]])
L2_B = np.array([[0.0], [1.0]])
L2_C = np.array([[1.0, 0.0]])


def kalman_columns(a, b, depth: int) -> np.ndarray:
    """[B, -AB, A^2 B, ...]: the brackets of a constant field along Ax."""
    cols, col = [b], b
    for _ in range(depth):
        col = -a @ col
        cols.append(col)
    return np.hstack(cols)


def kalman_rows(a, c, depth: int) -> np.ndarray:
    """[C; CA; CA^2; ...]: gradients of the output's Lie derivatives."""
    rows, row = [c], c
    for _ in range(depth):
        row = row @ a
        rows.append(row)
    return np.vstack(rows)


# ---------------------------------------------------------------- checks

def check_verify(reports: dict) -> tuple[set[str], set[str]]:
    """reports: theorem -> parsed report JSON, plus 'summary'.

    Returns (theorems left inconclusive, theorems whose report is wrong).
    The paper's claims hold on paper_sec5, so a "fail" verdict, a summary
    that disagrees with a report, or a sample that breaks a relation
    checked here is a wrong output; "inconclusive" means the check could
    not settle, which counts as a failed operation but not a wrong one.
    """
    inconclusive, bad = set(), set()
    verdicts = reports["summary"]["verdicts"]
    for name in ("thm1", "thm2", "thm3", "thm4", "thm5", "cor7"):
        report = reports.get(name)
        if report is None:
            continue
        if verdicts.get(name) != report["verdict"] or report["verdict"] == "fail":
            bad.add(name)
            continue
        if report["verdict"] != "pass":
            inconclusive.add(name)
            continue
        if not report["samples"] and name not in ("thm5", "cor7"):
            bad.add(name)
        for sample in report["samples"]:
            if name in ("thm1", "thm3"):
                # the path integral bounds the pair energy, up to the budget
                if sample["lhs"] - sample["rhs"] < -sample["budget"]:
                    bad.add(name)
            if name == "thm2":
                # R = I solves the Riccati pair, so the differential
                # feedback energy is exactly |dx0|^2 / 2
                dx0 = np.asarray(sample["inputs"]["dx0"], dtype=float)
                exact = 0.5 * float(dx0 @ dx0)
                if abs(sample["rhs"] - exact) > MATRIX_TOL * max(1.0, exact):
                    bad.add(name)
    return inconclusive, bad


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= MATRIX_TOL * max(1.0, abs(ref))


def check_scan(scans: dict, references: dict) -> set[tuple]:
    """scans: field -> list of (x1, x2, min_eig, det, status) rows.

    references: (x1, x2) -> {field: matrix} from `sec5_gramians`, with
    the origin's Q also checked against the Lyapunov solution.
    """
    bad = set()
    origin_q = min_eig_and_det(sec5_origin_q())
    for field_name, rows in scans.items():
        for x1, x2, min_eig, det, status in rows:
            key = (field_name, x1, x2)
            if status != "ok" or not (min_eig > 0.0 and det > 0.0):
                bad.add(key)
                continue
            if field_name == "empirical-R":
                # the registered certificate R = I is the exact Gramian
                if not (_close(min_eig, 1.0) and _close(det, 1.0)):
                    bad.add(key)
            if field_name == "empirical-Q" and abs(x1) < 1e-12 and abs(x2) < 1e-12:
                if not (_close(min_eig, origin_q[0]) and _close(det, origin_q[1])):
                    bad.add(key)
            ref = references.get((x1, x2))
            if ref is not None:
                ref_eig, ref_det = min_eig_and_det(ref[field_name])
                if not (_close(min_eig, ref_eig) and _close(det, ref_det)):
                    bad.add(key)
    return bad


def check_ranks(sweeps: dict, points: np.ndarray, sample_idx, sec5_refs) -> set[tuple]:
    """sweeps: (system, kind, depth) -> (ranks, matrices) over `points`."""
    bad = set()
    for (system, kind, depth), (ranks, matrices) in sweeps.items():
        for i, (rank, matrix) in enumerate(zip(ranks, matrices)):
            key = (system, kind, depth, i)
            on_line = points[i][0] == -1.0
            expected = 1 if (system == "paper_sec5" and kind == "obs" and depth == 1
                             and on_line) else 2
            if rank != expected:
                bad.add(key)
            if system == "linear_2x2":
                ref = (kalman_rows(L2_A, L2_C, depth) if kind == "obs"
                       else kalman_columns(L2_A, L2_B, depth))
                if matrix.shape != ref.shape or not np.allclose(matrix, ref, rtol=0.0,
                                                                atol=RANK_COLUMN_TOL):
                    bad.add(key)
            elif i in sample_idx:
                ref = sec5_refs[kind](points[i])
                ref = ref[: depth + 1] if kind == "obs" else ref[:, : depth + 1]
                scale = 1.0 + np.abs(ref).max()
                if matrix.shape != ref.shape or np.abs(matrix - ref).max() > RANK_COLUMN_TOL * scale:
                    bad.add(key)
    return bad


def estimate_misses(ops: list[dict]) -> int:
    """Energies whose error estimate plus verify's integrator floor
    (1e-9 |value| + 1e-12) does not cover the distance to the oracle."""
    misses = 0
    for op in ops:
        if op["kind"] in ("gramian_obs", "gramian_ctrl") or op.get("value") is None:
            continue
        floor = 1e-9 * abs(op["value"]) + 1e-12
        if abs(op["value"] - op["oracle"]) > op["error_estimate"] + floor:
            misses += 1
    return misses


def check_linear(ops: list[dict]) -> set[int]:
    """ops: dicts with kind, value (float or matrix) and oracle."""
    bad = set()
    for i, op in enumerate(ops):
        value, oracle = op.get("value"), op["oracle"]
        if value is None:
            bad.add(i)
            continue
        value = np.asarray(value, dtype=float)
        oracle = np.asarray(oracle, dtype=float)
        scale = max(1.0, float(np.abs(oracle).max()))
        if value.shape != oracle.shape or not np.all(np.isfinite(value)) \
                or float(np.abs(value - oracle).max()) > MATRIX_TOL * scale:
            bad.add(i)
    return bad


def lyapunov_oracles(a, b, c, k) -> tuple[np.ndarray, np.ndarray]:
    """Q with A^T Q + Q A + C^T C = 0, and W for the backward feedback
    energy along the anti-stable closed loop F = A + B K:
    (-F)^T W + W (-F) + K^T K = 0."""
    from scipy.linalg import solve_continuous_lyapunov

    q = solve_continuous_lyapunov(a.T, -c.T @ c)
    closed = a + b @ k
    w = solve_continuous_lyapunov(-closed.T, -k.T @ k)
    return 0.5 * (q + q.T), 0.5 * (w + w.T)
