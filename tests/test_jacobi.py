"""Rank and definiteness helpers: the shape of their output and their thresholds."""

import numpy as np
import pytest

from vargram.jacobi import determinant_and_min_eigenvalue, numeric_rank


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 5), (5, 3), (4, 4)])
def test_singular_values_match_numpy(shape):
    rng = np.random.default_rng(sum(shape))
    for _ in range(10):
        m = rng.standard_normal(shape)
        _, got = numeric_rank(m)
        want = np.linalg.svd(m, compute_uv=False)
        # one value per column: wide matrices carry trailing zeros
        assert len(got) == shape[1]
        padded = np.concatenate([want, np.zeros(max(0, shape[1] - len(want)))])
        assert np.allclose(got, padded, atol=1e-11 * max(1.0, want[0]))
        assert np.all(np.diff(got) <= 0)  # descending


def test_numeric_rank_detects_deficiency():
    rank, sigma = numeric_rank(np.array([[1.0, 2.0], [2.0, 4.0]]))
    assert rank == 1
    assert sigma[1] < 1e-12 * sigma[0]

    # outer-product construction: rank exactly 2 in a 4x4 matrix
    rng = np.random.default_rng(7)
    u = rng.standard_normal((4, 2))
    v = rng.standard_normal((2, 4))
    rank, _ = numeric_rank(u @ v)
    assert rank == 2


def test_numeric_rank_zero_matrix():
    rank, sigma = numeric_rank(np.zeros((2, 3)))
    assert rank == 0
    assert np.allclose(sigma, 0.0)


def test_numeric_rank_relative_threshold():
    m = np.diag([1.0, 1e-6])
    assert numeric_rank(m)[0] == 2          # 1e-6 > 1e-8 * 1
    assert numeric_rank(m, rel_tol=1e-3)[0] == 1


def test_determinant_and_min_eigenvalue():
    m = np.array([[2.0, 0.5], [0.5, 1.0]])
    det, min_eig = determinant_and_min_eigenvalue(m)
    assert abs(det - 1.75) < 1e-12
    assert abs(min_eig - np.linalg.eigvalsh(m)[0]) < 1e-12

    indef = np.diag([-1.0, 3.0])
    det, min_eig = determinant_and_min_eigenvalue(indef)
    assert det < 0 and min_eig == -1.0
