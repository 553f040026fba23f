"""Tests for envelope scores: definition, ranking, tie-breaks, and the
population basis construction.

The defining property under test: a PC carrying the response association
outranks every higher-variance PC, no matter how small its variance.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from egreg import (
    ContractError,
    Dataset,
    DegeneracyWarning,
    DimensionError,
    envelope_scores,
    population_niece,
    subspace_distance,
    thin_svd,
    top_ranked,
)
from egreg.envscore import _rank_scores


def _designed_data(seed=0, n=40, p=10, sigmas=None, beta_pc=9, noise=1e-4):
    """X with known PC structure (V = I) and Y loading on one chosen PC."""
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((n, p)))[0]
    if sigmas is None:
        sigmas = np.linspace(10.0, 1.0, p)
    X = U * sigmas
    beta = np.zeros((p, 1))
    beta[beta_pc, 0] = 1.0
    Y = X @ beta + noise * rng.standard_normal((n, 1))
    X = X - X.mean(axis=0)
    Y = Y - Y.mean(axis=0)
    return Dataset(X, Y, centered=False)  # means are near zero but not exact


def test_scores_match_definition():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((30, 6))
    X -= X.mean(axis=0)
    Y = rng.standard_normal((30, 2))
    Y -= Y.mean(axis=0)
    svd = thin_svd(X)
    Sxy = X.T @ Y / 30
    scores = envelope_scores(svd, Sxy, svd.r)
    for j in range(svd.r):
        manual = float(np.sum((svd.V[:, j] @ Sxy) ** 2))
        assert_allclose(scores.phi[j], manual, rtol=1e-12)
    assert np.all(scores.phi >= 0)


def test_order_sorts_scores_descending():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((50, 8))
    X -= X.mean(axis=0)
    Y = rng.standard_normal((50, 1))
    Y -= Y.mean(axis=0)
    svd = thin_svd(X)
    scores = envelope_scores(svd, X.T @ Y / 50, svd.r)
    ranked = scores.phi[scores.order]
    assert np.all(np.diff(ranked) <= 0)
    assert sorted(scores.order.tolist()) == list(range(svd.r))


def test_low_variance_pc_with_signal_ranks_first():
    # Ten PCs with variance decreasing left to right; all of the response
    # association sits on the last (weakest) PC, which must rank first.
    data = _designed_data()
    svd = thin_svd(data.X)
    scores = envelope_scores(svd, data.X.T @ data.Y / data.n, svd.r)
    assert scores.order[0] == 9


def test_rank_ties_prefer_larger_singular_value_then_smaller_index():
    phi = np.array([1.0, 3.0, 3.0, 0.5])
    strength = np.array([5.0, 2.0, 4.0, 1.0])
    order, groups = _rank_scores(phi, strength)
    # scores 3.0 tie: index 2 has the larger strength
    assert order.tolist() == [2, 1, 0, 3]
    assert groups == ((2, 1),)
    strength_eq = np.array([5.0, 2.0, 2.0, 1.0])
    order2, _ = _rank_scores(phi, strength_eq)
    assert order2.tolist() == [1, 2, 0, 3]  # equal strength: smaller index


def test_tie_breaks_group_exactly_equal_scores():
    phi = np.array([2.0, 2.0, 2.0, 7.0, 1.0])
    strength = np.arange(5, 0, -1).astype(float)
    _, groups = _rank_scores(phi, strength)
    assert groups == ((0, 1, 2),)


def test_top_ranked_pool_restriction():
    from egreg import EnvelopeScores

    phi = np.array([0.1, 5.0, 0.2, 9.0, 0.3])
    order, _ = _rank_scores(phi, np.arange(5, 0, -1).astype(float))
    scores = EnvelopeScores(phi=phi, order=order, tie_breaks=())
    # full pool: best two are PCs 3 and 1
    assert top_ranked(scores, 2).tolist() == [3, 1]
    # restricted to the first 3 PCs: PC 3 is no longer a candidate
    assert top_ranked(scores, 2, d=3).tolist() == [1, 2]
    with pytest.raises(DimensionError):
        top_ranked(scores, 4, d=3)


def test_envelope_scores_validates_d():
    data = _designed_data(seed=5)
    svd = thin_svd(data.X)
    with pytest.raises(DimensionError):
        envelope_scores(svd, data.X.T @ data.Y / data.n, svd.r + 1)


# ---------------------------------------------------------------------------
# population construction
# ---------------------------------------------------------------------------

def _population(seed, p=12, picks=(2, 5, 9), decay=0.3, q=2):
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((p, p)))[0]
    sig = 10.0 * np.exp(-decay * np.arange(p))
    Sigma_x = (Q * sig) @ Q.T
    Gamma = Q[:, list(picks)]
    alpha = rng.standard_normal((len(picks), q))
    beta = Gamma @ alpha
    Sxy = Sigma_x @ beta
    return Sigma_x, Sxy, Gamma


def test_population_niece_recovers_planted_span():
    Sigma_x, Sxy, Gamma = _population(seed=8)
    basis = population_niece(Sigma_x, Sxy @ Sxy.T, d=12, u_star=3)
    assert not basis.non_unique
    assert subspace_distance(basis.basis, Gamma) < 1e-8


def test_population_niece_scores_only_planted_directions():
    Sigma_x, Sxy, Gamma = _population(seed=9, picks=(1, 4))
    B = Sxy @ Sxy.T
    basis = population_niece(Sigma_x, B, d=12, u_star=2)
    # every direction orthogonal to the planted span has score ~ 0
    comp = basis.basis
    proj = comp @ (comp.T @ Gamma)
    assert_allclose(proj, Gamma, atol=1e-8)


def test_population_niece_flags_repeated_eigenvalues():
    p = 6
    B = np.zeros((p, p))
    B[0, 0] = 1.0
    with pytest.warns(DegeneracyWarning):
        basis = population_niece(np.eye(p), B, d=p, u_star=1)
    assert basis.non_unique


def test_population_niece_rejects_asymmetric_input():
    M = np.eye(4)
    M[0, 1] = 1e-3
    with pytest.raises(ContractError):
        population_niece(M, np.eye(4), d=4, u_star=1)


def test_population_niece_rejects_indefinite_m():
    M = np.diag([1.0, -0.5, 0.2, 0.1])
    with pytest.raises(ContractError):
        population_niece(M, np.eye(4), d=4, u_star=1)
