"""Tests for centering/standardization, thin SVD, cross-covariances, and
subspace distance."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from egreg import (
    ContractError,
    Dataset,
    DegenerateColumnError,
    DimensionError,
    RankZeroError,
    center_standardize,
    cross_cov,
    subspace_distance,
    thin_svd,
)
from egreg.matrixcore import numerical_rank


def _raw(seed=0, n=40, p=6, q=2, x_shift=5.0, y_shift=-3.0):
    rng = np.random.default_rng(seed)
    X = x_shift + 2.0 * rng.standard_normal((n, p))
    Y = y_shift + rng.standard_normal((n, q))
    return Dataset(X, Y)


# ---------------------------------------------------------------------------
# center_standardize
# ---------------------------------------------------------------------------

def test_center_zeroes_column_means():
    data = center_standardize(_raw())
    assert data.centered and not data.standardized
    assert np.max(np.abs(data.X.mean(axis=0))) <= 1e-10
    assert np.max(np.abs(data.Y.mean(axis=0))) <= 1e-10


def test_standardize_gives_unit_sample_variance():
    data = center_standardize(_raw(), mode="standardize")
    assert data.standardized
    assert_allclose(data.X.std(axis=0, ddof=1), 1.0, atol=1e-12)
    assert_allclose(data.Y.std(axis=0, ddof=1), 1.0, atol=1e-12)


def test_center_is_idempotent_on_values():
    once = center_standardize(_raw())
    twice = center_standardize(Dataset(once.X, once.Y))
    assert_allclose(twice.X, once.X, atol=1e-12)


def test_constant_column_is_rejected_by_name():
    raw = _raw()
    X = raw.X.copy()
    X[:, 3] = 7.5
    with pytest.raises(DegenerateColumnError, match="column 3"):
        center_standardize(Dataset(X, raw.Y), mode="standardize")


def test_transform_replays_on_new_rows():
    raw = _raw(seed=3)
    data = center_standardize(raw, mode="standardize")
    tr = data.transform
    replay = (raw.X - tr.x_mean) / tr.x_scale
    assert_allclose(replay, data.X, atol=1e-12)
    back = data.Y * tr.y_scale + tr.y_mean
    assert_allclose(back, raw.Y, atol=1e-12)


def test_large_offset_still_centers_within_tolerance():
    # A mean of 1e6 leaves subtraction residue well above eps unless the
    # mean is removed twice.
    data = center_standardize(_raw(seed=9, x_shift=1e6))
    assert np.max(np.abs(data.X.mean(axis=0))) <= 1e-10


# ---------------------------------------------------------------------------
# Dataset contracts
# ---------------------------------------------------------------------------

def test_dataset_row_mismatch_rejected():
    rng = np.random.default_rng(1)
    with pytest.raises(DimensionError):
        Dataset(rng.standard_normal((10, 3)), rng.standard_normal((9, 1)))


def test_dataset_needs_two_rows():
    with pytest.raises(DimensionError):
        Dataset(np.ones((1, 3)), np.ones((1, 1)))


def test_dataset_centered_flag_is_verified():
    rng = np.random.default_rng(2)
    with pytest.raises(ContractError):
        Dataset(5.0 + rng.standard_normal((20, 3)),
                rng.standard_normal((20, 1)), centered=True)


def test_dataset_promotes_vector_response():
    rng = np.random.default_rng(3)
    data = Dataset(rng.standard_normal((15, 4)), rng.standard_normal(15))
    assert data.Y.shape == (15, 1)
    assert data.q == 1


# ---------------------------------------------------------------------------
# thin_svd
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,p", [(30, 8), (8, 8), (8, 30)])
def test_thin_svd_reconstructs(n, p):
    rng = np.random.default_rng(n * 100 + p)
    X = rng.standard_normal((n, p))
    X = X - X.mean(axis=0)
    f = thin_svd(X)
    assert f.r == min(n - 1, p) or f.r == min(n, p)
    assert_allclose(f.U @ (f.D[:, None] * f.V.T), X, atol=1e-10)
    assert_allclose(f.U.T @ f.U, np.eye(f.r), atol=1e-12)
    assert_allclose(f.V.T @ f.V, np.eye(f.r), atol=1e-12)
    assert np.all(np.diff(f.D) <= 0) and np.all(f.D > 0)


def test_thin_svd_sign_convention():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((25, 7))
    f = thin_svd(X)
    for j in range(f.r):
        col = f.V[:, j]
        assert col[np.argmax(np.abs(col))] > 0


def test_thin_svd_truncates_exact_rank_deficiency():
    rng = np.random.default_rng(12)
    B = rng.standard_normal((20, 3))
    X = B @ rng.standard_normal((3, 9))  # rank 3 inside 9 columns
    f = thin_svd(X)
    assert f.r == 3
    assert_allclose(f.U @ (f.D[:, None] * f.V.T), X, atol=1e-10)


def test_thin_svd_zero_matrix_raises():
    with pytest.raises(RankZeroError):
        thin_svd(np.zeros((10, 4)))
    with pytest.raises(RankZeroError):
        numerical_rank(np.zeros((10, 4)))


def test_thin_svd_relative_cutoff():
    # A direction at 1e-12 of the top singular value falls below the
    # default relative tolerance and is dropped.
    U0 = np.linalg.qr(np.random.default_rng(13).standard_normal((12, 2)))[0]
    X = np.outer(U0[:, 0], [1.0, 0, 0]) + 1e-12 * np.outer(U0[:, 1], [0, 1.0, 0])
    assert thin_svd(X).r == 1
    assert thin_svd(X, rel_tol=1e-14).r == 2
    # numerical_rank applies the same rule without computing U and V
    assert numerical_rank(X) == 1
    assert numerical_rank(X, rel_tol=1e-14) == 2


# ---------------------------------------------------------------------------
# cross_cov
# ---------------------------------------------------------------------------

def test_cross_cov_matches_definitions():
    data = center_standardize(_raw(seed=4))
    cov = cross_cov(data)
    n = data.n
    assert_allclose(cov.Sx, data.X.T @ data.X / n, atol=1e-12)
    assert_allclose(cov.Sxy, data.X.T @ data.Y / n, atol=1e-12)
    assert_allclose(cov.Sx, cov.Sx.T, atol=0)


def test_cross_cov_requires_centered_data():
    with pytest.raises(ContractError):
        cross_cov(_raw(seed=5))


# ---------------------------------------------------------------------------
# subspace_distance
# ---------------------------------------------------------------------------

def test_subspace_distance_same_basis_is_exactly_zero():
    Q = np.linalg.qr(np.random.default_rng(6).standard_normal((9, 3)))[0]
    assert subspace_distance(Q, Q) == 0.0


def test_subspace_distance_rotation_invariant():
    rng = np.random.default_rng(7)
    Q = np.linalg.qr(rng.standard_normal((9, 3)))[0]
    R = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    assert subspace_distance(Q, Q @ R) <= 1e-12


def test_subspace_distance_orthogonal_lines():
    e1 = np.eye(4)[:, :1]
    e2 = np.eye(4)[:, 1:2]
    assert_allclose(subspace_distance(e1, e2), np.sqrt(2.0), atol=1e-12)


def test_subspace_distance_rejects_nonorthonormal():
    with pytest.raises(ContractError):
        subspace_distance(np.ones((4, 2)), np.eye(4)[:, :2])
