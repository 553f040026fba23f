"""Tests for the exact conditional risk formulas.

Each formula is checked against an independent dense-matrix computation of
the same expectation, and the EgReg-beats-NIECE guarantee is fuzzed below
its lambda threshold.
"""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from egreg import (
    ContractError,
    Dataset,
    DegeneracyWarning,
    DimensionError,
    ParameterError,
    TruthSpec,
    cross_cov,
    empirical_risk,
    empirical_risk_terms,
    envelope_scores,
    irreducible_risk,
    lambda_guarantee_threshold,
    reducible_risk_egreg,
    reducible_risk_niece,
    thin_svd,
    top_ranked,
)


def _instance(seed, n=35, p=7, q=2, d=None):
    """Centered data plus a TruthSpec with a dense SPD Sigma_x."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    X -= X.mean(axis=0)
    beta = rng.standard_normal((p, q))
    Y = X @ beta + rng.standard_normal((n, q))
    Y -= Y.mean(axis=0)
    A = rng.standard_normal((p, p))
    Sigma_x = A @ A.T / p + np.eye(p)
    G = rng.standard_normal((q, q))
    Sigma_eps = G @ G.T / q + 0.5 * np.eye(q)
    truth = TruthSpec(beta, Sigma_x, Sigma_eps)
    svd = thin_svd(X)
    data = Dataset(X, Y, centered=True)
    scores = envelope_scores(svd, cross_cov(data).Sxy, d or svd.r)
    return svd, scores, truth


def _dense_egreg_moments(svd, scores, truth, d, lam):
    """Bias/variance of EgReg by brute-force matrix algebra.

    beta_hat = M Y with M = V_d diag(phi/(D(phi+lam))) U_d'; against the
    projected target V_d V_d' beta*, the variance is tr{Sigma_eps} tr{M' Sigma_x M}
    and the bias is the quadratic form of the mean shift.
    """
    idx = top_ranked(scores, d, d)
    phi = scores.phi[idx]
    Dd = svd.D[idx]
    Vd = svd.V[:, idx]
    M = Vd * (phi / (Dd * (phi + lam)))
    variance = float(np.trace(truth.Sigma_eps)) * float(
        np.trace(M.T @ truth.Sigma_x @ M)
    )
    # E beta_hat = V_d diag(phi/(phi+lam)) V_d' beta*
    mean = Vd @ ((phi / (phi + lam))[:, None] * (Vd.T @ truth.beta_star))
    target = Vd @ (Vd.T @ truth.beta_star)
    shift = mean - target
    bias = float(np.trace(shift.T @ truth.Sigma_x @ shift))
    return bias, variance


def test_egreg_risk_matches_dense_computation():
    svd, scores, truth = _instance(seed=1)
    for lam in (0.05, 0.8, 12.0):
        rep = reducible_risk_egreg(svd, scores, truth, d=5, lam=lam)
        bias, var = _dense_egreg_moments(svd, scores, truth, 5, lam)
        assert_allclose(rep.bias_sq, bias, rtol=1e-10)
        assert_allclose(rep.variance, var, rtol=1e-10)
        assert_allclose(rep.reducible, bias + var, rtol=1e-12)


def test_niece_risk_matches_dense_computation():
    svd, scores, truth = _instance(seed=2)
    d, u = 6, 3
    rep = reducible_risk_niece(svd, scores, truth, u=u, d=d)
    idx = top_ranked(scores, u, d)
    Vu = svd.V[:, idx]
    M = Vu / svd.D[idx]
    var = float(np.trace(truth.Sigma_eps)) * float(np.trace(M.T @ truth.Sigma_x @ M))
    Vd = svd.V[:, :d]
    shift = Vu @ (Vu.T @ truth.beta_star) - Vd @ (Vd.T @ truth.beta_star)
    bias = float(np.trace(shift.T @ truth.Sigma_x @ shift))
    assert_allclose(rep.variance, var, rtol=1e-10)
    assert_allclose(rep.bias_sq, bias, rtol=1e-10)


def test_niece_full_selection_bias_is_exactly_zero():
    svd, scores, truth = _instance(seed=3)
    rep = reducible_risk_niece(svd, scores, truth, u=5, d=5)
    assert rep.bias_sq == 0.0


def test_egreg_risk_is_continuous_at_lambda_zero():
    svd, scores, truth = _instance(seed=4)
    rep0 = reducible_risk_niece(svd, scores, truth, u=6, d=6)
    rep = reducible_risk_egreg(svd, scores, truth, d=6, lam=1e-9)
    assert_allclose(rep.reducible, rep0.reducible, rtol=1e-6)


def test_egreg_risk_rejects_nonpositive_lambda():
    svd, scores, truth = _instance(seed=5)
    with pytest.raises(ParameterError):
        reducible_risk_egreg(svd, scores, truth, d=4, lam=0.0)


def test_egreg_risk_rejects_nonfinite_lambda():
    svd, scores, truth = _instance(seed=5)
    for lam in (math.inf, math.nan):
        with pytest.raises(ParameterError):
            reducible_risk_egreg(svd, scores, truth, d=4, lam=lam)


def test_irreducible_risk_projector_identity():
    svd, scores, truth = _instance(seed=6)
    d = 4
    Vd = svd.V[:, :d]
    Qb = truth.beta_star - Vd @ (Vd.T @ truth.beta_star)
    manual = float(np.trace(Qb.T @ truth.Sigma_x @ Qb))
    assert_allclose(irreducible_risk(svd, truth, d), manual, rtol=1e-12)


def test_irreducible_risk_vanishes_inside_span():
    svd, scores, truth = _instance(seed=7)
    inside = TruthSpec(svd.V[:, :3] @ np.ones((3, 1)), truth.Sigma_x,
                       truth.Sigma_eps[:1, :1])
    assert irreducible_risk(svd, inside, d=3) < 1e-20


# ---------------------------------------------------------------------------
# lambda guarantee threshold
# ---------------------------------------------------------------------------

def test_threshold_formula_and_linearity_in_noise():
    svd, scores, truth = _instance(seed=8)
    d = 5
    thr = lambda_guarantee_threshold(svd, scores, truth, d)
    idx = top_ranked(scores, d, d)
    ratio = np.max(svd.D[idx] ** 2 / scores.phi[idx])
    manual = np.trace(truth.Sigma_eps) / (
        np.linalg.norm(truth.beta_star, 2) ** 2 * ratio
    )
    assert_allclose(thr, manual, rtol=1e-12)
    doubled = TruthSpec(truth.beta_star, truth.Sigma_x, 2.0 * truth.Sigma_eps)
    assert_allclose(lambda_guarantee_threshold(svd, scores, doubled, d),
                    2.0 * thr, rtol=1e-12)


def test_threshold_zero_beta_degenerates_to_inf():
    svd, scores, truth = _instance(seed=9)
    degenerate = TruthSpec(np.zeros_like(truth.beta_star), truth.Sigma_x,
                           truth.Sigma_eps)
    with pytest.warns(DegeneracyWarning):
        assert lambda_guarantee_threshold(svd, scores, degenerate, 4) == math.inf


def test_threshold_excludes_zero_scores_with_warning():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((25, 5))
    X -= X.mean(axis=0)
    data = Dataset(X, np.zeros((25, 1)), centered=True)
    svd = thin_svd(X)
    scores = envelope_scores(svd, cross_cov(data).Sxy, svd.r)
    truth = TruthSpec(np.ones((5, 1)), np.eye(5), np.eye(1))
    with pytest.warns(DegeneracyWarning):
        thr = lambda_guarantee_threshold(svd, scores, truth, 4)
    assert thr == math.inf  # every score is zero


def test_egreg_beats_niece_below_threshold_fuzz():
    wins = 0
    for seed in range(60):
        svd, scores, truth = _instance(seed=1000 + seed,
                                       n=20 + seed % 25,
                                       p=4 + seed % 9,
                                       q=1 + seed % 3)
        d = min(4, svd.r)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegeneracyWarning)
            thr = lambda_guarantee_threshold(svd, scores, truth, d)
        if not np.isfinite(thr):
            continue
        egreg = reducible_risk_egreg(svd, scores, truth, d, thr / 2.0)
        niece = reducible_risk_niece(svd, scores, truth, u=d, d=d)
        assert egreg.reducible < niece.reducible
        wins += 1
    assert wins >= 50  # the degenerate skips must stay rare


# ---------------------------------------------------------------------------
# empirical risk
# ---------------------------------------------------------------------------

def test_empirical_risk_zero_at_truth():
    _, _, truth = _instance(seed=11)
    assert empirical_risk([truth.beta_star.copy()], truth) == 0.0


def test_empirical_risk_hand_value_and_mean():
    truth = TruthSpec(np.zeros((2, 1)), np.diag([2.0, 3.0]), np.eye(1))
    b1 = np.array([[1.0], [0.0]])   # term = 2
    b2 = np.array([[0.0], [2.0]])   # term = 12
    terms = empirical_risk_terms([b1, b2], truth)
    assert_allclose(terms, [2.0, 12.0], rtol=1e-15)
    assert_allclose(empirical_risk([b1, b2], truth), 7.0, rtol=1e-15)


def test_empirical_risk_shape_mismatch():
    _, _, truth = _instance(seed=12)
    with pytest.raises(Exception):
        empirical_risk_terms([np.zeros((2, 2))], truth)


def test_empirical_risk_terms_nonnegative_on_a_vanishing_spectrum():
    # Eigenvalues down to 1e-42 and errors of norm ~1e8 along the smallest
    # ones: a quadratic form in the rounded Sigma_x goes negative, a sum of
    # squares in its factor cannot.
    rng = np.random.default_rng(21)
    p = 40
    V = np.linalg.qr(rng.standard_normal((p, p)))[0]
    sig = np.geomspace(10.0, 1e-42, p)
    Sigma_x = (V * sig) @ V.T
    Sigma_x = (Sigma_x + Sigma_x.T) / 2.0
    beta = rng.standard_normal((p, 1))
    hats = [beta + 1e8 * V[:, -6:] @ rng.standard_normal((6, 1)) / math.sqrt(6)
            for _ in range(50)]
    # Factored from Sigma_x alone, the rounding-level eigenvalues are
    # clipped at 0, which keeps every term nonnegative.
    assert np.all(empirical_risk_terms(hats, TruthSpec(beta, Sigma_x, np.eye(1))) >= 0.0)
    # The exact factor also keeps the value small: it is below 1e-25, plus
    # about 1e-15 from rounding in V'V = I.
    exact = TruthSpec(beta, Sigma_x, np.eye(1), V * np.sqrt(sig))
    terms = empirical_risk_terms(hats, exact)
    assert np.all(terms >= 0.0) and np.all(terms < 1e-12)


def test_theory_risks_nonnegative_on_a_vanishing_spectrum():
    # beta* of norm ~1e8 along Sigma_x eigenvalues down to 1e-42, and PCs
    # aligned with Sigma_x: the part of beta* outside any PC span carries
    # only rounding-level risk, which a quadratic form in Sigma_x turns
    # negative (and RiskReport then rejects).
    rng = np.random.default_rng(0)
    n, p = 50, 40
    V = np.linalg.qr(rng.standard_normal((p, p)))[0]
    sig = np.geomspace(10.0, 1e-42, p)
    Sigma_x = (V * sig) @ V.T
    Sigma_x = (Sigma_x + Sigma_x.T) / 2.0
    beta = 1e8 * V[:, -6:] @ rng.standard_normal((6, 1))
    truth = TruthSpec(beta, Sigma_x, np.eye(1))
    Z = rng.standard_normal((n, p))
    X = (np.linalg.qr(Z - Z.mean(axis=0))[0] * np.geomspace(10.0, 1.0, p)) @ V.T
    Y = X @ rng.standard_normal((p, 1)) + rng.standard_normal((n, 1))
    svd = thin_svd(X)
    scores = envelope_scores(svd, cross_cov(Dataset(X, Y - Y.mean(), centered=True)).Sxy, svd.r)
    for d in (1, 5, 20):
        assert irreducible_risk(svd, truth, d) >= 0.0
        report = reducible_risk_niece(svd, scores, truth, u=max(1, d // 2), d=d)
        assert report.bias_sq >= 0.0 and report.irreducible >= 0.0
        assert reducible_risk_egreg(svd, scores, truth, d, lam=1.0).bias_sq >= 0.0


def test_truth_spec_factors_sigma_x_and_checks_a_given_factor():
    _, _, truth = _instance(seed=13)
    L = truth.Sigma_x_root
    assert_allclose(L @ L.T, truth.Sigma_x, atol=1e-12)
    chol = np.linalg.cholesky(truth.Sigma_x)
    given = TruthSpec(truth.beta_star, truth.Sigma_x, truth.Sigma_eps, chol)
    assert given.Sigma_x_root is not None and np.array_equal(given.Sigma_x_root, chol)
    with pytest.raises(ContractError):
        TruthSpec(truth.beta_star, truth.Sigma_x, truth.Sigma_eps, 2.0 * chol)
    # A factor of Sigma_x + y y' agrees with Sigma_x on every vector orthogonal
    # to y, so only a check of the full product rejects it.
    x = np.cos(np.arange(truth.p))
    y = np.ones(truth.p) - (x.sum() / (x @ x)) * x
    off = np.linalg.cholesky(truth.Sigma_x + np.outer(y, y))
    assert_allclose(off @ (off.T @ x), truth.Sigma_x @ x, atol=1e-10)
    with pytest.raises(ContractError):
        TruthSpec(truth.beta_star, truth.Sigma_x, truth.Sigma_eps, off)
    with pytest.raises(DimensionError):
        TruthSpec(truth.beta_star, truth.Sigma_x, truth.Sigma_eps, chol[:-1])
    # Given the factor alone, Sigma_x is its symmetrized product, to the bit.
    root_only = TruthSpec(truth.beta_star, None, truth.Sigma_eps, chol)
    product = chol @ chol.T
    product += product.T
    product *= 0.5
    assert np.array_equal(root_only.Sigma_x, product)
    assert root_only.Sigma_x is root_only.Sigma_x
    with pytest.raises(DimensionError):
        TruthSpec(truth.beta_star, None, truth.Sigma_eps, chol[:-1])
    with pytest.raises(ContractError, match="non-finite"):
        TruthSpec(truth.beta_star, None, truth.Sigma_eps, np.where(chol > 0.5, np.inf, chol))
    with pytest.raises(ContractError, match="Sigma_eps is not symmetric"):
        TruthSpec(truth.beta_star, None, np.array([[1.0, 0.5], [0.0, 1.0]]), chol)
    with pytest.raises(ContractError, match="needs Sigma_x"):
        TruthSpec(truth.beta_star, None, truth.Sigma_eps)
    with pytest.raises(AttributeError):
        root_only.Sigma_x_root = chol
