"""scipy's DOP853 stepper, vargram's only contact with scipy.

_DOP853 is scipy's Dormand-Prince 8(5,3) step made lean, all twelve
stages of a trial step run by one stage entry with scipy's floats: a
flow kernel's traced loop entry, or the solver's own, one call per
stage, for any other right-hand side;
_BatchDOP853 steps a batch of points with a per-point error norm, its
trial steps in one call of the kernel's batch entry too;
OdeSolution chains the solver's per-step dense outputs, scipy's own
interpolants;
brentq locates a terminal event.
integrate.solve_ivp imports this module when it first runs, so a process
that never solves a flow (rank tests, certificate residuals) never
loads scipy.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import DOP853, OdeSolution
from scipy.integrate._ivp.rk import MAX_FACTOR, MIN_FACTOR, SAFETY
from scipy.optimize import brentq

__all__ = ["OdeSolution", "_BatchDOP853", "_DOP853", "brentq"]


class _DOP853(DOP853):
    """scipy's DOP853 with its step made lean; the floats, steps and nfev
    are scipy's.

    _step_impl is scipy's RungeKutta step with rk_step inlined: the same
    arithmetic in the same order, on stage views built once per solver,
    calling the right-hand side as given instead of through scipy's
    counting and conversion wrappers (nfev grows by scipy's 12 per trial
    step).  Its scalars (t, the direction, the step size and the error
    norm) are Python floats, on which each IEEE operation is the one
    numpy performs on its float64 scalars at a fraction of the cost.
    fun must return a float array shaped like its state.

    Stage s is fun(t + c h, y + d h) with d = K[:s].T . a, taken by
    numpy's dot as scipy takes it, and the first-same-as-last stage is
    fun(t + h, y_new).  A trial step runs all twelve in one call of its
    stage entry, on the plan of the stages' (s, K[:s].T, a) and, last,
    (12, K[:12].T, B), whose stage state is y_new.  A flow kernel
    (calculus.flow_rhs) brings its own, fun.stages: for one state it
    forms each stage state on Python floats inside the traced call by
    the same IEEE operations, and for a batch (_BatchDOP853, whose
    fun.stages is the kernel's rhs.batch_stages) as y + rows.dot(a) * h
    on the flat state, so the floats, steps and nfev are unchanged, and a
    step makes one Python-level call instead of twelve.  Any other fun
    is run by the solver's entry, _each_stage, one call per stage.
    The per-step dense output is scipy's, whose three extra stages scipy's
    counting wrapper of fun runs and counts.
    """

    _FRACTIONS = DOP853.C[1:].tolist() + [1.0]  # c of the twelve stages, as Python floats

    def __init__(self, fun, t0, y0, t_bound, **options):
        super().__init__(fun, t0, y0, t_bound, **options)
        self._rhs = fun
        self._run_stages = getattr(fun, "stages", None)
        self.direction, self.h_abs = float(self.direction), float(self.h_abs)
        K = self.K
        self._solution_stages = K[:-1].T
        self._plan = [(s, K[:s].T, a[:s]) for s, a in enumerate(self.A[1:], start=1)]
        self._plan.append((self.n_stages, self._solution_stages, self.B))

    def _each_stage(self, y, K, plan, h):
        """The stage entry of a fun without one: K[s] = fun(t + c h, y +
        rows.dot(a) * h) for each (s, rows, a) of plan, c = 1 for the
        last, at the step's start t."""
        t, rhs = self.t, self._rhs
        for (s, rows, a), c in zip(plan, self._FRACTIONS):
            K[s] = rhs(t + c * h, y + rows.dot(a) * h)

    def _estimate_error_norm(self, K, h, scale):
        """scipy's DOP853 error norm, with each np.linalg.norm(e) ** 2 taken
        as np.linalg.norm takes it for a 1-D array, sqrt(e . e), squared."""
        err5 = K.T.dot(self.E5)
        err5 /= scale
        err3 = K.T.dot(self.E3)
        err3 /= scale
        err5_norm_2 = math.sqrt(err5.dot(err5)) ** 2
        err3_norm_2 = math.sqrt(err3.dot(err3)) ** 2
        if err5_norm_2 == 0 and err3_norm_2 == 0:
            return 0.0
        denom = err5_norm_2 + 0.01 * err3_norm_2
        if denom == 0:  # 0.01 err3_norm_2 underflowed: numpy's 0 / 0
            return math.nan
        return abs(h) * err5_norm_2 / math.sqrt(denom * len(scale))

    def _step_impl(self):
        t, y, K = self.t, self.y, self.K
        run_stages = self._run_stages or self._each_stage
        direction = self.direction
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
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
            h = h_abs * direction
            t_new = t + h
            if direction * (t_new - self.t_bound) > 0:
                t_new = self.t_bound
            h = t_new - t
            h_abs = abs(h)

            run_stages(y, K, self._plan, h)
            y_new = y + h * self._solution_stages.dot(self.B)
            f_new = K[-1].copy()
            self.nfev += self.n_stages
            scale = np.abs(y)  # atol + max(|y|, |y_new|) * rtol, in place
            np.maximum(scale, np.abs(y_new), out=scale)
            scale *= self.rtol
            scale += self.atol
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


class _BatchDOP853(_DOP853):
    """_DOP853 on B states stacked as one (dim, B) array, flattened.

    The error norm of a step is the largest of the B points' own DOP853
    norms, so a step is accepted only when every point would accept it
    alone and the step size follows the hardest point: a point whose
    norm is _DOP853's NaN (its 0 / 0) makes the step's norm NaN, which
    rejects it.  Its stages are run as _DOP853 runs them, by fun.stages
    when fun has it.
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
        zero = denom == 0.0  # so err5_norm_2 is 0 too
        if zero.any():
            if err3_norm_2[zero].any():  # 0.01 err3_norm_2 underflowed: _DOP853's NaN
                return math.nan
            denom[zero] = 1.0  # both errors 0: the point's norm is 0
        norms = err5_norm_2 / np.sqrt(denom * len(err5))
        return np.abs(h) * float(norms.max())
