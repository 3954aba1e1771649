"""Pointwise numeric rank of bracket matrices and observation codistributions.

Three matrix builders feed one rank routine: iterated feedback-modified
brackets of the input columns, iterated standard brackets along the open
drift, and the gradient tower of iterated output derivatives.  Rank is
counted from LAPACK singular values with a tolerance DEFAULT_RANK_TOL
relative to the largest singular value, so a reported value means "rank
at least this at the tested depth"; deeper towers can only raise it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .calculus import (VectorField, ad_closed_loop_field, ad_standard_field,
                       jacobian_scalars, lie_scalar)
from .jacobi import numeric_rank
from .systems import SystemModel

DEFAULT_RANK_TOL = 1e-8


@dataclass
class RankMatrix:
    """A stacked matrix with its singular values and counted rank."""

    matrix: np.ndarray
    singular_values: np.ndarray
    rank: int
    tol_used: float
    depth: int
    meta: dict = field(default_factory=dict)

    def sigma_extremes(self) -> tuple[float, float]:
        """Largest singular value and the smallest structurally meaningful one."""
        count = min(self.matrix.shape)
        if count == 0 or self.singular_values.size == 0:
            return 0.0, 0.0
        return float(self.singular_values[0]), float(self.singular_values[count - 1])


def _result(matrix: np.ndarray, depth: int, kind: str) -> RankMatrix:
    rank, sigma = numeric_rank(matrix, DEFAULT_RANK_TOL)
    return RankMatrix(matrix=matrix, singular_values=sigma, rank=rank,
                      tol_used=DEFAULT_RANK_TOL, depth=depth, meta={"kind": kind})


def _default_depth(system: SystemModel, depth: int | None) -> int:
    if depth is None:
        depth = 2 * system.n - 1
    depth = int(depth)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return depth


def _bracket_columns(system: SystemModel, x, depth: int,
                     bracket: Callable[[VectorField], VectorField]) -> np.ndarray:
    """Columns g, bracket(g), ..., bracket^depth(g) at x, input by input
    within a level."""
    xs = [float(v) for v in x]
    level = [system.g.column(j) for j in range(system.m)]
    cols = [np.asarray(v(xs), dtype=float) for v in level]
    for _ in range(depth):
        level = [bracket(v) for v in level]
        cols.extend(np.asarray(v(xs), dtype=float) for v in level)
    return np.column_stack(cols)


def ctrl_bracket_matrix(system: SystemModel, x, depth: int | None = None) -> RankMatrix:
    """Columns g, ad g, ..., ad^depth g with the feedback-modified bracket.

    The bracket recursion differentiates along f + g k but freezes the
    input when the state Jacobian is taken, matching the dual variational
    dynamics rather than the plain closed-loop linearization.
    """
    depth = _default_depth(system, depth)
    system.require_k()
    matrix = _bracket_columns(system, x, depth, lambda v: ad_closed_loop_field(system, v))
    return _result(matrix, depth, "ctrl_bracket")


def strong_access_matrix(system: SystemModel, x, depth: int | None = None) -> RankMatrix:
    """Columns g, ad_f g, ..., ad_f^depth g with the standard Lie bracket."""
    depth = _default_depth(system, depth)
    matrix = _bracket_columns(system, x, depth, lambda v: ad_standard_field(system.f, v))
    return _result(matrix, depth, "strong_access")


def _lie_tower(system: SystemModel, j: int, depth: int) -> list[Callable]:
    """Scalar functions h_j, L_f h_j, ..., L_f^depth h_j, generic over duals."""
    n = system.n
    h_func = system.h.func
    f_func = system.f.func

    def base(xs, j=j):
        return h_func(xs)[j]

    tower = [base]
    for _ in range(depth):
        prev = tower[-1]
        tower.append(lambda xs, prev=prev: lie_scalar(f_func, prev, xs, n))
    return tower


def obs_codistribution(system: SystemModel, x, depth: int | None = None) -> RankMatrix:
    """Rows grad(L_f^i h_j) for i = 0..depth, outputs grouped within a level."""
    depth = _default_depth(system, depth)
    xs = [float(v) for v in x]
    towers = [_lie_tower(system, j, depth) for j in range(system.p)]
    rows = []
    for i in range(depth + 1):
        for j in range(system.p):
            func = towers[j][i]
            _, grad_rows = jacobian_scalars(lambda vs, func=func: [func(vs)], xs, 1)
            rows.append([float(v) for v in grad_rows[0]])
    matrix = np.asarray(rows, dtype=float)
    return _result(matrix, depth, "obs_codistribution")


def rank_sweep(builder: Callable[..., RankMatrix], system: SystemModel,
               points: Sequence, depth: int | None = None) -> list[RankMatrix]:
    """Apply one matrix builder at each point, preserving point order."""
    return [builder(system, row, depth=depth) for row in points]
