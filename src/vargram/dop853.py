"""scipy's DOP853 stepper, vargram's only contact with scipy.

_DOP853 is scipy's Dormand-Prince 8(5,3) step made lean, with its dense
output built for many steps at once; _BatchDOP853 steps a batch of
points with a per-point error norm; brentq locates a terminal event.
integrate.solve_ivp imports this module when it first runs, so a process
that never solves a flow (rank tests, certificate residuals) never
loads scipy.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import DOP853
from scipy.integrate._ivp.dop853_coefficients import INTERPOLATOR_POWER
from scipy.integrate._ivp.rk import MAX_FACTOR, MIN_FACTOR, SAFETY
from scipy.optimize import brentq

__all__ = ["_BatchDOP853", "_DOP853", "brentq"]


class _DOP853(DOP853):
    """scipy's DOP853 with its step made lean and its dense output built
    for many steps at once; the floats, steps and nfev are scipy's.

    _step_impl is scipy's RungeKutta step with rk_step inlined: the same
    arithmetic in the same order, on stage views built once per solver,
    calling the right-hand side as given instead of through scipy's
    counting and conversion wrappers (nfev grows by scipy's 12 per trial
    step).  fun must return a float array shaped like its state.
    """

    def __init__(self, fun, t0, y0, t_bound, **options):
        super().__init__(fun, t0, y0, t_bound, **options)
        self._rhs = fun
        K = self.K
        self._stages = [(s, K[:s].T, a[:s], c)
                        for s, (a, c) in enumerate(zip(self.A[1:], self.C[1:]), start=1)]
        self._solution_stages = K[:-1].T

    def _step_impl(self):
        t, y, rhs, K = self.t, self.y, self._rhs, self.K
        min_step = 10 * np.abs(np.nextafter(t, self.direction * np.inf) - t)
        if self.h_abs > self.max_step:
            h_abs = self.max_step
        elif self.h_abs < min_step:
            h_abs = min_step
        else:
            h_abs = self.h_abs

        K[0] = self.f
        step_rejected = False
        while True:
            if h_abs < min_step:
                return False, self.TOO_SMALL_STEP
            h = h_abs * self.direction
            t_new = t + h
            if self.direction * (t_new - self.t_bound) > 0:
                t_new = self.t_bound
            h = t_new - t
            h_abs = np.abs(h)

            for s, stages, a, c in self._stages:
                K[s] = rhs(t + c * h, y + stages.dot(a) * h)
            y_new = y + h * self._solution_stages.dot(self.B)
            f_new = rhs(t + h, y_new)
            K[-1] = f_new
            self.nfev += self.n_stages
            scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
            error_norm = self._estimate_error_norm(K, h, scale)

            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** self.error_exponent)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** self.error_exponent)
            step_rejected = True

        self.h_previous = h
        self.y_old = y
        self.t = t_new
        self.y = y_new
        self.h_abs = h_abs
        self.f = f_new
        return True, None

    def dense_steps(self, t: np.ndarray, y: np.ndarray, K: np.ndarray) -> np.ndarray:
        """Interpolant coefficients F, shape (7, S, N), of S accepted steps
        (see integrate.Trajectory), step i from t[i] to t[i + 1] and y[i] to
        y[i + 1] (t (S + 1,), y (S + 1, N)), whose stages fill the first
        n_stages + 1 rows of K[i] (K (S, 16, N), written in place).

        Each of DOP853's three extra stages is one call of the right-hand
        side on the (N, S) stack of all steps' stage states; every float is
        that of scipy's Dop853DenseOutput of the step, and nfev grows by 3
        per step, as scipy counts."""
        t_old, h, y_old = t[:-1], np.diff(t), y[:-1]
        h_rows = h[:, None]
        for s, (a, c) in enumerate(zip(self.A_EXTRA, self.C_EXTRA), start=self.n_stages + 1):
            dy = np.matmul(K[:, :s].transpose(0, 2, 1), a[:s]) * h_rows
            K[:, s] = self._rhs(t_old + c * h, (y_old + dy).T).T
        self.nfev += len(self.A_EXTRA) * len(h)

        f_old, f = K[:, 0], K[:, self.n_stages]
        delta_y = y[1:] - y_old
        F = np.empty((INTERPOLATOR_POWER,) + delta_y.shape)
        F[0] = delta_y
        F[1] = h_rows * f_old - delta_y
        F[2] = 2 * delta_y - h_rows * (f + f_old)
        F[3:] = (h[:, None, None] * np.matmul(self.D, K)).transpose(1, 0, 2)
        return F


class _BatchDOP853(_DOP853):
    """_DOP853 on B states stacked as one (dim, B) array, flattened.

    The error norm of a step is the largest of the B points' own DOP853
    norms, so a step is accepted only when every point would accept it
    alone and the step size follows the hardest point.
    """

    def __init__(self, fun, t0, y0, t_bound, batch: int, **options):
        self.batch = batch
        super().__init__(fun, t0, y0, t_bound, **options)

    def _estimate_error_norm(self, K, h, scale):
        err5 = (np.dot(K.T, self.E5) / scale).reshape(-1, self.batch)
        err3 = (np.dot(K.T, self.E3) / scale).reshape(-1, self.batch)
        err5_norm_2 = np.einsum("ij,ij->j", err5, err5)
        err3_norm_2 = np.einsum("ij,ij->j", err3, err3)
        denom = err5_norm_2 + 0.01 * err3_norm_2
        nonzero = denom > 0.0
        if not nonzero.any():
            return 0.0
        norms = err5_norm_2[nonzero] / np.sqrt(denom[nonzero] * len(err5))
        return np.abs(h) * float(norms.max())
