"""Singular values and eigenvalues of the small dense matrices vargram ranks
and scans, from LAPACK through numpy.linalg."""

from __future__ import annotations

import numpy as np


def numeric_rank(matrix, rel_tol: float = 1e-8):
    """(rank, singular values) with rank counted against rel_tol * sigma_max.

    There is one singular value per column, in descending order, so a wide
    matrix carries trailing zeros.
    """
    b = np.asarray(matrix, dtype=float)
    if b.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    sigma = np.zeros(b.shape[1])
    if b.size:
        values = np.linalg.svd(b, compute_uv=False)
        sigma[:values.size] = values
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0, sigma
    return int(np.sum(sigma > rel_tol * sigma[0])), sigma


def determinant_and_min_eigenvalue(matrix):
    """(det, smallest eigenvalue) of the symmetric part of a square matrix."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    eigs = np.linalg.eigvalsh(0.5 * (a + a.T))
    return float(np.prod(eigs)), float(eigs[0])
