"""Tests for the data generators, cross-validation, and study drivers.

The CV fast paths (fold factors cut from the design's SVD, the stacked
residual- and Gram-form kernels) are validated against a brute-force oracle
that refits each fold from scratch through the public coefficient functions,
and against the per-fold residual-form kernel kept here as a reference.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from egreg import matrixcore, simharness
from egreg import (
    ConfigError,
    Dataset,
    EnvelopeSimConfig,
    ParameterError,
    RankZeroError,
    envelope_scores,
    gen_baseline,
    gen_envelope_model,
    kfold_cv,
    population_niece,
    run_study,
    subspace_distance,
    thin_svd,
    TruthSpec,
)
from egreg.envscore import _rank_scores
from egreg.estimators import (
    egreg_coefficients,
    fit_method,
    niece_coefficients,
    pcr_coefficients,
    ridge_coefficients,
    simpls_coefficients,
)
from egreg.simharness import (
    _cv_sse,
    _fold_caches,
    _fold_indices,
    _Grid,
    _known_basis_fits,
    _lift,
    _model_frame,
    _pick_best,
    _point_frame,
    _responses,
    _sample_fits,
    _tune,
)
from egreg.matrixcore import SvdFactors, _svd
from egreg.riskanalytics import empirical_risk_terms


def _cfg(seed=0, n=80, p=8, q=1, decay=1.0, picks=(1, 2), amp=2.0, sig=4.0):
    u = len(picks)
    alpha = amp * np.array([[(-1.0) ** (i + j) for j in range(q)] for i in range(u)])
    return EnvelopeSimConfig(
        n=n, p=p, q=q, decay_gamma=decay, P=picks, alpha=alpha,
        Sigma_eps=sig * np.eye(q), seed=seed,
    )


# ---------------------------------------------------------------------------
# configuration and generators
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        _cfg(picks=(2, 2))          # not strictly increasing
    with pytest.raises(ConfigError):
        _cfg(picks=(0, 1))          # 1-based indices
    with pytest.raises(ConfigError):
        _cfg(picks=(1, 9), p=8)     # out of range
    with pytest.raises(ConfigError):
        EnvelopeSimConfig(n=50, p=4, q=1, decay_gamma=1.0, P=(1,),
                          alpha=np.ones((2, 1)), Sigma_eps=[[1.0]], seed=0)
    with pytest.raises(ConfigError):
        EnvelopeSimConfig(n=50, p=4, q=1, decay_gamma=1.0, P=(1,),
                          alpha=np.ones((1, 1)), Sigma_eps=[[1.0]], seed=0,
                          eigenvalues=np.array([1.0, 2.0, 3.0, 4.0]))
    cfg = _cfg()
    assert cfg.u_star == 2


@pytest.mark.parametrize("Sigma_eps", [[[0.0]], [[-1.0]], [[1.0, 2.0], [2.0, 1.0]]],
                         ids=["zero", "negative", "indefinite"])
def test_config_rejects_a_noise_covariance_that_is_not_positive_definite(Sigma_eps):
    # The noise draws use the Cholesky factor of Sigma_eps, so a singular or
    # indefinite one is a config error, not a LinAlgError at draw time.
    q = len(Sigma_eps)
    with pytest.raises(ConfigError, match="Sigma_eps must be positive definite"):
        EnvelopeSimConfig(n=20, p=10, q=q, decay_gamma=1.0, P=(1, 2),
                          alpha=np.ones((2, q)), Sigma_eps=Sigma_eps, seed=0)


def test_spectrum_decay_values():
    cfg = _cfg(decay=1.0, p=8)
    sig = cfg.spectrum()
    assert sig[0] == pytest.approx(10.0)
    assert sig[1] == pytest.approx(10.0 / np.e)
    flat = EnvelopeSimConfig(n=50, p=4, q=1, decay_gamma=1.0, P=(1,),
                             alpha=np.ones((1, 1)), Sigma_eps=[[1.0]], seed=0,
                             eigenvalues=np.ones(4))
    assert_allclose(flat.spectrum(), 1.0)


def _haar_orthogonal(p, rng):
    """Uniform random orthogonal matrix: QR of a Gaussian with sign correction."""
    Z = rng.standard_normal((p, p))
    Q, R = np.linalg.qr(Z)
    return Q * np.where(np.diag(R) < 0, -1.0, 1.0)


def test_haar_matrix_is_orthogonal():
    rng = np.random.default_rng(3)
    Q = _haar_orthogonal(7, rng)
    assert_allclose(Q @ Q.T, np.eye(7), atol=1e-12)


def test_generated_dataset_and_truth():
    cfg = _cfg(seed=5)
    data, truth, Gamma = gen_envelope_model(cfg)
    assert data.X.shape == (80, 8) and data.Y.shape == (80, 1)
    assert data.centered
    assert Gamma.shape == (8, 2)
    assert_allclose(Gamma.T @ Gamma, np.eye(2), atol=1e-12)
    assert_allclose(truth.beta_star, Gamma @ cfg.alpha, atol=1e-12)


def test_replications_share_design():
    cfg = _cfg(seed=6)
    d0, t0, _ = gen_envelope_model(cfg, rep=0)
    d1, t1, _ = gen_envelope_model(cfg, rep=1)
    assert_allclose(d0.X, d1.X)
    assert np.max(np.abs(d0.Y - d1.Y)) > 1e-3
    assert_allclose(t0.beta_star, t1.beta_star)


def test_planted_population_scores():
    # phi_j = sigma_j^2 ||alpha_row||^2 on the planted indices, 0 elsewhere
    cfg = _cfg(seed=7, p=10, picks=(2, 5), q=2)
    _, truth, Gamma = gen_envelope_model(cfg)
    sig = cfg.spectrum()
    Sxy = truth.Sigma_x @ truth.beta_star
    V = np.linalg.eigh(truth.Sigma_x)[1][:, ::-1]
    phi = np.sum((V.T @ Sxy) ** 2, axis=1)
    expect = np.zeros(10)
    for row, j in enumerate(cfg.P):
        expect[j - 1] = sig[j - 1] ** 2 * np.sum(cfg.alpha[row] ** 2)
    assert_allclose(phi, expect, atol=1e-10 * expect.max())


def test_population_niece_recovers_generated_span():
    cfg = _cfg(seed=8, p=12, picks=(1, 4, 7), q=2, decay=0.3)
    _, truth, Gamma = gen_envelope_model(cfg)
    Sxy = truth.Sigma_x @ truth.beta_star
    basis = population_niece(truth.Sigma_x, Sxy @ Sxy.T, d=12, u_star=3)
    assert subspace_distance(basis.basis, Gamma) < 1e-8


def test_sample_covariance_matches_sigma_x():
    cfg = EnvelopeSimConfig(n=200_000, p=5, q=1, decay_gamma=0.4, P=(1,),
                            alpha=np.ones((1, 1)), Sigma_eps=[[1.0]], seed=11)
    X, truth, _ = _model_frame(cfg)
    Sigma_x = truth.Sigma_x
    S = X.T @ X / cfg.n
    # Gaussian fourth-moment SE per covariance entry
    se = np.sqrt(
        (np.outer(np.diag(Sigma_x), np.diag(Sigma_x)) + Sigma_x**2) / cfg.n
    )
    assert np.all(np.abs(S - Sigma_x) <= 3.0 * se)


@pytest.mark.parametrize("stream", [0, 3])
@pytest.mark.parametrize("study,ratio", [("P1", 2.0), ("double_descent", 1.0)])
def test_model_frame_is_drawn_in_natural_form(study, ratio, stream):
    # The frame is Sigma_x's eigenbasis: X = Z sqrt(sig) with Z the design
    # stream's first n x p draw, the factor the vector sqrt(sig), and the
    # planted basis the coordinate columns P0.  Its link to a rotated frame is
    # test_sample_fits_are_invariant_to_rotating_the_predictors.
    sim = _point_frame(study, dict(simharness._STUDY_DEFAULTS[study]), 100, 4, ratio).args[0]
    X, truth, planted = _model_frame(sim, stream)
    sig = sim.spectrum()
    Z = np.random.default_rng([sim.seed, stream, 0]).standard_normal((sim.n, sim.p))
    P0 = np.array(sim.P) - 1
    assert np.array_equal(X, Z * np.sqrt(sig))
    assert np.array_equal(truth.beta_star, simharness._lift(P0, sim.alpha, sim.p))
    assert np.array_equal(truth.Sigma_x_root, np.sqrt(sig))    # the length-p vector
    assert np.array_equal(planted, P0)


@pytest.mark.parametrize("n,p", [(60, 8), (40, 60)], ids=["tall", "wide"])
def test_sample_fits_are_invariant_to_rotating_the_predictors(monkeypatch, n, p):
    # The eigenbasis frame rests on this: on X Q' every study method makes the
    # same CV picks, its beta-hat is Q beta-hat, and the risk under (Q beta*,
    # Q L) is unchanged.  The designs are well conditioned and the signal sits
    # in a few directions, so every SIMPLS pick lies far below the numerical
    # rank; near it, SIMPLS CV scores are rounding noise and picks there could
    # move with the basis.
    rng = np.random.default_rng([17, n, p])
    scale = np.sqrt(np.linspace(4.0, 1.0, p))
    Xc = rng.standard_normal((n, p)) * scale
    Xc -= Xc.mean(axis=0)
    beta = np.zeros((p, 1))
    beta[:3, 0] = (1.0, -1.0, 0.5)
    Y = Xc[:, None] @ beta + rng.standard_normal((n, 3, 1))
    Y -= Y.mean(axis=0)
    Q = _haar_orthogonal(p, rng)
    folds = _fold_indices(n, 5, 3)
    picks, tune = [], simharness._tune

    def spy(caches, Yl, grids):
        picks.append(tune(caches, Yl, grids))
        return picks[-1]

    monkeypatch.setattr(simharness, "_tune", spy)
    methods = list(simharness._SAMPLE_METHODS)
    fits = _sample_fits(Xc, thin_svd(Xc), Y, folds, methods)
    Xr = Xc @ Q.T
    fits_r = _sample_fits(Xr, thin_svd(Xr), Y, folds, methods)
    assert len(picks) == 2
    assert [a.tolist() for a in picks[0]] == [a.tolist() for a in picks[1]]
    truth = TruthSpec(beta, None, [[1.0]], np.diag(scale))
    truth_r = TruthSpec(Q @ beta, None, [[1.0]], Q * scale)
    for m in methods:
        for b, b_r in zip(fits[m], fits_r[m]):
            assert_allclose(b_r, Q @ b, rtol=0, atol=1e-9 * np.abs(b).max())
        assert_allclose(empirical_risk_terms(fits_r[m], truth_r),
                        empirical_risk_terms(fits[m], truth), rtol=1e-9)


def test_gen_baseline_covariances_and_beta():
    data, truth = gen_baseline("CS", 60, 8, 0.3, seed=1)
    assert_allclose(np.diag(truth.Sigma_x), 1.0)
    assert_allclose(truth.Sigma_x[0, 1], 0.3)
    assert_allclose(truth.beta_star[:6, 0], [2, -2, 1, -1, 0.5, -0.5])
    assert_allclose(truth.beta_star[6:, 0], 0.0)
    data2, truth2 = gen_baseline("AR1", 60, 6, 0.5, seed=1)
    assert_allclose(truth2.Sigma_x[0, 2], 0.25)
    with pytest.raises(ParameterError):
        gen_baseline("CS", 60, 8, 1.0, seed=1)
    with pytest.raises(ParameterError):
        gen_baseline("CS", 60, 4, 0.3, seed=1)  # default beta needs p >= 6


@pytest.mark.parametrize("call,error,match", [
    pytest.param(lambda: gen_baseline("CS", 30, 3, 0.5), ParameterError,
                 "beta_star has 6 entries but p = 3", id="default-beta-p-3"),
    pytest.param(lambda: gen_baseline("CS", 30, 8, 0.5, beta_star="ab"), ParameterError,
                 "beta_star must be a list", id="beta-string"),
    pytest.param(lambda: gen_baseline("CS", 30, 8, 0.5, beta_star=["a"]), ParameterError,
                 "beta_star", id="beta-cell-string"),
    pytest.param(lambda: gen_baseline("CS", 30, 2, 0.5, beta_star=[1.0, 2.0, 3.0]),
                 ParameterError, "beta_star has 3 entries but p = 2", id="beta-longer-than-p"),
    pytest.param(lambda: run_study("baseline", {"beta_star": "ab"}), ConfigError,
                 "beta_star must be a list", id="study-beta-string"),
    pytest.param(lambda: run_study("baseline", {"p_over_n": [0.02]}), ConfigError,
                 "beta_star has 6 entries but p = 2", id="study-default-beta-p-2"),
])
def test_bad_beta_star_raises_the_callers_error(call, error, match):
    # gen_baseline's bad inputs are bad arguments (ParameterError), a study
    # config's are bad config (ConfigError): the same check, two classes.
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("p", [1, 2, 7, 60, 400])
@pytest.mark.parametrize("rho", [0.0, 0.5, 0.95])
@pytest.mark.parametrize("kind", ["CS", "AR1"])
def test_baseline_factor_reproduces_sigma_x(kind, rho, p):
    # The baseline truth holds Sigma_x's Cholesky factor L alone, so the
    # check TruthSpec makes when it is handed both runs here, once: L L'
    # reproduces Sigma_x entrywise within 1e-10 of max(1, its largest entry).
    _, truth, _ = simharness._baseline_frame(kind, 3, np.zeros((p, 1)), rho, 1.0, 0)
    L = truth.Sigma_x_root
    Sigma_x = simharness._baseline_sigma(kind, p, rho)
    assert L.shape == (p, p)
    assert np.max(np.abs(L @ L.T - Sigma_x)) <= 1e-10 * max(1.0, np.max(np.abs(Sigma_x)))


def test_gen_baseline_rep_changes_noise_only():
    d0, _ = gen_baseline("AR1", 40, 6, 0.4, seed=2, rep=0)
    d1, _ = gen_baseline("AR1", 40, 6, 0.4, seed=2, rep=1)
    assert_allclose(d0.X, d1.X)
    assert np.max(np.abs(d0.Y - d1.Y)) > 1e-3


@pytest.fixture
def study_points(monkeypatch):
    """Per grid point, the centered design, responses and truth run_study draws."""
    points = []
    fits, risk = simharness._sample_fits, simharness.empirical_risk_terms

    def spy_fits(Xc, svd, Y, folds, methods):
        points.append([Xc, Y])
        return fits(Xc, svd, Y, folds, methods)

    def spy_risk(beta_hats, truth):
        points[-1].append(truth)
        return risk(beta_hats, truth)

    monkeypatch.setattr(simharness, "_sample_fits", spy_fits)
    monkeypatch.setattr(simharness, "empirical_risk_terms", spy_risk)
    return points


def test_gen_baseline_draws_the_baseline_study_points(study_points):
    # gen_baseline(seed=s, rep=k, stream=g) is replication k of grid point g.
    ratios = [0.25, 1.5]
    run_study("baseline", {"n": 30, "replications": 3, "seed": 8, "kind": "AR1",
                           "rho": 0.4, "p_over_n": ratios, "beta_star": [1.0, -2.0],
                           "sigma_eps_sq": 4.0, "folds": 5, "methods": ["pcr"]})
    assert len(study_points) == len(ratios)
    for g, (ratio, (Xc, Y, truth)) in enumerate(zip(ratios, study_points)):
        for k in range(3):
            data, t = gen_baseline("AR1", 30, round(ratio * 30), 0.4, beta_star=[1.0, -2.0],
                                   sigma_eps_sq=4.0, seed=8, rep=k, stream=g)
            assert np.array_equal(data.X, Xc)
            assert np.array_equal(data.Y, Y[:, k])
            assert np.array_equal(t.beta_star, truth.beta_star)
            assert np.array_equal(t.Sigma_x, truth.Sigma_x)


def test_gen_envelope_model_draws_the_p1_study_points(study_points):
    ratios = [0.5, 2.0]
    run_study("P1", {"n": 40, "replications": 2, "seed": 6, "p1": 3, "p_over_n": ratios,
                     "decay_gamma": 0.5, "sigma_eps_sq": 2.0, "folds": 4,
                     "methods": ["pcr"]})
    assert len(study_points) == len(ratios)
    for g, (ratio, (Xc, Y, truth)) in enumerate(zip(ratios, study_points)):
        sim = EnvelopeSimConfig(n=40, p=round(ratio * 40), q=1, decay_gamma=0.5,
                                P=range(3, 13), alpha=((-1.0) ** np.arange(10))[:, None],
                                Sigma_eps=[[2.0]], seed=6)
        for k in range(2):
            data, t, _ = gen_envelope_model(sim, rep=k, stream=g)
            assert np.array_equal(data.X, Xc)
            assert np.array_equal(data.Y, Y[:, k])
            assert np.array_equal(t.beta_star, truth.beta_star)
            assert np.array_equal(t.Sigma_x, truth.Sigma_x)


# ---------------------------------------------------------------------------
# cross-validation
# ---------------------------------------------------------------------------

def test_folds_partition_rows():
    folds = _fold_indices(53, 10, seed=4)
    combined = np.concatenate(folds)
    assert len(folds) == 10
    assert sorted(combined.tolist()) == list(range(53))


@pytest.mark.parametrize("n,p,k,dup", [
    pytest.param(23, 40, 5, 0, id="wide"),
    pytest.param(24, 24, 5, 0, id="square"),
    pytest.param(37, 9, 4, 0, id="tall"),
    pytest.param(30, 12, 7, 6, id="duplicated-columns"),    # rank 6 on every fold
    pytest.param(20, 30, 3, 15, id="wide-duplicated"),
])
def test_fold_factors_from_the_design_svd_match_fresh_fold_svds(n, p, k, dup):
    # Each fold is factored from its rows of U D; U, D, rank and the held-out
    # rows in whitened PC coordinates must be those of a fresh SVD of X[tr].
    # Every case has n % k != 0, so the folds are unequal.
    rng = np.random.default_rng(n * p)
    X = rng.standard_normal((n, p))
    X[:, dup:2 * dup] = X[:, :dup]
    X -= X.mean(axis=0)
    folds = _fold_indices(n, k, 1)
    stack = _fold_caches(thin_svd(X), folds)
    for f, va in enumerate(folds):
        tr = np.setdiff1d(np.arange(n), va)
        n_tr, r = stack.n_tr[f], stack.r[f]
        assert np.array_equal(stack.tr[f, :n_tr], tr) and np.array_equal(stack.va[f, :va.size], va)
        fresh = thin_svd(X[tr])
        assert r == fresh.r
        assert_allclose(stack.D[f, :r], fresh.D, rtol=1e-10)
        U = stack.U[f, :n_tr, :r]
        sign = np.sign(np.sum(U * fresh.U, axis=0))    # one per column pair
        assert_allclose(U * sign, fresh.U, rtol=0, atol=1e-9)
        assert_allclose(stack.A[f, :va.size, :r] * sign, X[va] @ fresh.V / fresh.D,
                        rtol=0, atol=1e-9)


@pytest.mark.parametrize("n,p,k,dup_fold,graded", [
    pytest.param(20, 6, 4, None, False, id="equal-folds-tall"),
    pytest.param(14, 5, 4, None, False, id="unequal-folds-tall"),      # folds of 4+4+3+3 rows
    pytest.param(12, 30, 4, 0, False, id="low-rank-fold-in-stack"),
    pytest.param(14, 30, 4, None, True, id="unequal-folds-wide-graded"),
    pytest.param(40, 36, 10, None, False, id="square-folds"),     # n_tr = rank = 36
])
def test_batched_fold_factors_are_bitwise_thin_svd(n, p, k, dup_fold, graded, monkeypatch):
    # Folds of one training size that the kernel path does not take are
    # factored by one stacked LAPACK SVD call: tall folds, a wide stack with
    # a rank-deficient fold (it fails the per-fold eigenvalue check), wide
    # folds of a design with graded columns, whose (sigma_r / sigma_1)^2 is
    # below GRAM_TAU (so no kernel block is factored), and square folds
    # (n_tr = rank) of a well-conditioned design whose four held-out rows
    # leave the check uncertain, so they take the SVD at once.
    # Each must carry exactly the rank, D and U of thin_svd's SVD branch
    # (_svd) on its rows, U up to the sign of each column (a fold PC's sign
    # cancels in every CV score, so the stack keeps LAPACK's), and zeros in
    # all its padding.
    rng = np.random.default_rng(n + p)
    X = rng.standard_normal((n, p))
    folds = _fold_indices(n, k, 3)
    if dup_fold is not None:
        # Two equal rows held out by different folds: the training folds
        # that keep both lose a rank against those that hold one out.
        X[folds[dup_fold + 1][0]] = X[folds[dup_fold][0]]
    if graded:
        X *= np.exp(-0.5 * np.arange(p))
    X -= X.mean(axis=0)
    svd = thin_svd(X)
    assert graded == (svd.D[-1] ** 2 < matrixcore.GRAM_TAU * svd.D[0] ** 2)
    Z = svd.U * svd.D
    eighs, linalg_eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(a) or linalg_eigh(a))
    stack = _fold_caches(svd, folds)
    monkeypatch.undo()
    assert bool(eighs) == (dup_fold is not None)    # only that stack is wide and checked
    for f, va in enumerate(folds):
        n_tr, r = stack.n_tr[f], stack.r[f]
        fresh = _svd(Z[stack.tr[f, :n_tr]])
        U = stack.U[f, :n_tr, :r]
        sign = np.where(np.sum(U * fresh.U, axis=0) < 0, -1.0, 1.0)
        assert r == fresh.r and stack.D[f, :r].tobytes() == fresh.D.tobytes()
        assert (U * sign).tobytes() == fresh.U.tobytes()
        assert not (stack.U[f, n_tr:].any() or stack.U[f, :, r:].any() or stack.D[f, r:].any()
                    or stack.A[f, va.size:].any() or stack.A[f, :, r:].any())
        assert np.all(stack.tr[f, n_tr:] == n) and np.all(stack.va[f, va.size:] == n)
    sizes = set(stack.n_tr.tolist())
    assert len(sizes) == (1 if n % k == 0 else 2)
    if dup_fold is not None:
        assert len(set(stack.r.tolist())) == 2 and len(sizes) == 1


def _batched_svds(monkeypatch):
    """Spy on ``np.linalg.svd``: the list it returns collects the number of
    dimensions of each argument, so a 3 marks a batched fold SVD."""
    ndims, linalg_svd = [], np.linalg.svd

    def spy(a, *args, **kwargs):
        ndims.append(np.ndim(a))
        return linalg_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return ndims


@pytest.mark.parametrize("n,p,k", [
    pytest.param(20, 45, 5, id="equal-folds-wide"),
    pytest.param(14, 30, 4, id="unequal-folds-wide"),
    pytest.param(20, 45, 20, id="leave-one-out-square"),    # n_tr = rank = 19
])
def test_kernel_fold_factors_match_thin_svd(n, p, k, monkeypatch):
    # Wide folds of a well-conditioned design are factored by one batched
    # eigh of their blocks of K = Z Z', with no batched SVD.  So are its
    # leave-one-out folds, though square: a held-out row's leverage is
    # 1 - 1/n, so each block's eigenvalues are at least D_r^2 / n, which
    # passes the check when (D_r / D_1)^2 / n >= GRAM_TAU.  That gives up
    # bitwise equality with thin_svd: each fold must carry its rank, D within
    # 1e-12 relative, U and A within 1e-10 of their scale up to the sign of
    # each column, and exact zeros in all its padding.
    rng = np.random.default_rng(n + p)
    X = rng.standard_normal((n, p))
    folds = _fold_indices(n, k, 3)
    X -= X.mean(axis=0)
    svd = thin_svd(X)
    Z = svd.U * svd.D
    ndims = _batched_svds(monkeypatch)
    stack = _fold_caches(svd, folds)
    assert 3 not in ndims
    for f, va in enumerate(folds):
        n_tr, r = stack.n_tr[f], stack.r[f]
        fresh = thin_svd(Z[stack.tr[f, :n_tr]])
        U = stack.U[f, :n_tr, :r]
        sign = np.where(np.sum(U * fresh.U, axis=0) < 0, -1.0, 1.0)
        assert r == fresh.r == n_tr
        assert_allclose(stack.D[f, :r], fresh.D, rtol=1e-12, atol=0)
        assert_allclose(U * sign, fresh.U, rtol=0, atol=1e-10)    # unit columns
        A = Z[va] @ fresh.V / fresh.D
        assert_allclose(stack.A[f, :va.size, :r] * sign, A, rtol=0, atol=1e-10 * np.abs(A).max())
        assert not (stack.U[f, n_tr:].any() or stack.U[f, :, r:].any() or stack.D[f, r:].any()
                    or stack.A[f, va.size:].any() or stack.A[f, :, r:].any())
        assert np.all(stack.tr[f, n_tr:] == n) and np.all(stack.va[f, va.size:] == n)


def test_kernel_path_falls_back_to_the_svd_on_a_zero_wide_fold():
    # Z = U D is zero on rows 0-2 and the identity on rows 3-5: a
    # well-conditioned design whose folds are wide, but fold 1 trains on the
    # zero rows.  Its eigenvalues are all 0, so the stack fails the check
    # and thin_svd's error is raised, not a factor of 1 / 0.
    svd = SvdFactors(U=np.eye(6)[:, 3:], D=np.ones(3), V=np.eye(3), r=3)
    with pytest.raises(RankZeroError, match="identically zero"):
        _fold_caches(svd, [np.arange(3), np.arange(3, 6)])


def _filter_grids(svd, r_cap):
    """The filter grids :func:`_sample_fits` tunes on a design (all but
    SIMPLS, which reads no fold factor): PCR, ridge, NIECE, EgReg d x lambda
    and EgReg(r)."""
    lam = simharness._lambda_grid(svd.D[0] ** 2)
    ds = np.arange(1, r_cap + 1)
    return [_Grid("pcr", d=ds), _Grid("ridge", lam=lam), _Grid("niece", u=ds),
            _Grid("egreg", d=np.repeat(ds, lam.size), lam=np.tile(lam, r_cap)),
            _Grid("egreg", lam=lam)]


def _study_point(study, ratio, R=3):
    """A study grid point's centered design and R centered response lanes."""
    frame = _point_frame(study, simharness._STUDY_DEFAULTS[study], 100, 4, ratio)
    X, truth, _ = frame(stream=0)
    Y = np.stack([simharness._recenter(Y) for Y in _responses(X, truth, 4, 0, range(R))], axis=1)
    return simharness._recenter(X), Y


@pytest.mark.parametrize("study,ratio", [("double_descent", 0.75), ("baseline", 2.0)])
def test_kernel_and_svd_fold_paths_score_and_pick_alike(study, ratio, monkeypatch):
    # A wide study point's CV scores on the kernel-factored folds are those
    # on the SVD-factored ones (forced by a GRAM_TAU no design meets):
    # within 1e-12 relative, or for the Gram-form grids (PCR, EgReg d x
    # lambda) within its absolute bound eps k ||y||^2, and every pick is the
    # same.  double_descent at u*/n = 0.75 (p = 112) is its worst-conditioned
    # wide point; the baseline design at p/n = 2 has one spiked eigenvalue.
    X, Y = _study_point(study, ratio)
    svd = thin_svd(X)
    folds = _fold_indices(100, 10, 1)
    ndims = _batched_svds(monkeypatch)
    kernel = _fold_caches(svd, folds)
    assert 3 not in ndims
    monkeypatch.setattr(matrixcore, "GRAM_TAU", np.inf)
    stack = _fold_caches(svd, folds)
    assert 3 in ndims and kernel.r.tolist() == stack.r.tolist()
    grids = _filter_grids(svd, min(svd.r, int(stack.r.min())))
    bound = np.finfo(float).eps * stack.D.shape[1] * np.einsum("nlq,nlq->l", Y, Y)
    for grid, got, want in zip(grids, _cv_sse(kernel, Y, grids), _cv_sse(stack, Y, grids)):
        gram = grid.method == "pcr" or np.any(grid.d > 0)
        assert_allclose(got, want, rtol=1e-12, atol=bound.max() if gram else 0, err_msg=grid.method)
    for got, want in zip(_tune(kernel, Y, grids), _tune(stack, Y, grids)):
        assert got.tolist() == want.tolist()


def test_kfold_cv_scores_and_picks_alike_on_both_fold_paths(monkeypatch):
    # kfold_cv shares the fold factors: on a wide design every grid's table
    # and pick match the SVD path's, as the study points above do.
    data = _cv_data(seed=5, n=48, p=60)
    ndims = _batched_svds(monkeypatch)
    runs = []
    for tau in (matrixcore.GRAM_TAU, np.inf):
        monkeypatch.setattr(matrixcore, "GRAM_TAU", tau)
        ndims.clear()
        runs.append([kfold_cv(data, method, grid, k=6, seed=13)
                     for method, grid in _accuracy_grids(40)])
        assert (3 in ndims) == (tau == np.inf)
    bound = np.finfo(float).eps * 40 * np.sum(data.Y**2) / data.n
    for (method, grid), (best, table), (best_svd, table_svd) in zip(_accuracy_grids(40), *runs):
        gram = method == "pcr" or any("d" in e for e in grid)
        assert_allclose([row["cv_score"] for row in table], [row["cv_score"] for row in table_svd],
                        rtol=1e-12, atol=bound if gram else 0, err_msg=method)
        assert best == best_svd, method


def test_batched_fold_factors_raise_thin_svds_error_on_a_zero_fold():
    # Only row 0 of Z = U D is nonzero, so the training rows of fold 0 are
    # all zero while fold 1's are not.
    n = 6
    svd = SvdFactors(U=np.eye(n)[:, :1], D=np.ones(1), V=np.ones((1, 1)), r=1)
    folds = [np.arange(3), np.arange(3, 6)]
    with pytest.raises(RankZeroError, match="identically zero") as fresh:
        thin_svd(np.zeros((3, 1)))
    with pytest.raises(RankZeroError) as batched:
        _fold_caches(svd, folds)
    assert str(batched.value) == str(fresh.value)


def _dd_point(n, ratio, R=3, seed=4):
    frame = _point_frame("double_descent", {}, n, seed, ratio)
    X, truth, planted = frame(stream=0)
    Xc = simharness._recenter(X)
    Y = np.stack([simharness._recenter(Y) for Y in _responses(X, truth, seed, 0, range(R))],
                 axis=1)
    return Xc, planted, Y, _fold_indices(n, 4, 1)


@pytest.mark.parametrize("ratio", [0.5, 1.0, 1.5])
def test_known_basis_niece_is_the_min_norm_least_squares_fit(ratio, monkeypatch):
    # NIECE is full-rank PCR on the reduced design's SVD: the pinv fit on
    # the kept planted directions (the first n-1 at u* = n).
    n = 24
    Xc, planted, Y, folds = _dd_point(n, ratio)
    u_star = planted.size
    shapes = []

    def counted(M, *args, **kwargs):
        shapes.append(np.shape(M))
        return thin_svd(M, *args, **kwargs)

    monkeypatch.setattr(simharness, "thin_svd", counted)
    fits = _known_basis_fits(Xc, planted, Y, folds, ("NIECE", "EgReg"))
    G_keep = np.eye(Xc.shape[1])[:, planted[:n - 1 if u_star == n else u_star]]
    piv = np.linalg.pinv(Xc @ G_keep)
    for beta, Yc in zip(fits["NIECE"], Y.transpose(1, 0, 2)):
        assert_allclose(beta, G_keep @ (piv @ Yc), rtol=1e-12, atol=0)
    if u_star == n:
        assert shapes == [(n, u_star), (n, n - 1)]
    else:
        assert shapes == [(n, u_star)]    # one factorization feeds NIECE and EgReg


def test_sample_fits_scores_replications_only_for_score_ranked_methods(monkeypatch):
    # Ridge needs no envelope scores, so a ridge-only call (double_descent's
    # reduced design) makes none; NIECE scores each replication once.
    Xc, _, Y, folds = _dd_point(24, 0.5)
    calls = []

    def counted(*args):
        calls.append(args)
        return envelope_scores(*args)

    monkeypatch.setattr(simharness, "envelope_scores", counted)
    svd = thin_svd(Xc)
    simharness._sample_fits(Xc, svd, Y, folds, ["Ridge"])
    assert calls == []
    simharness._sample_fits(Xc, svd, Y, folds, ["Ridge", "NIECE"])
    assert len(calls) == Y.shape[1]


def test_ridge_only_fits_past_the_work_rule_factor_no_fold(monkeypatch):
    # A ridge-only call scores CV by the block-deletion identity once its
    # work is below the fold factorization's: at double_descent's n = 100 and
    # 10 folds that is u*/n >= 0.75, where the known-basis EgReg makes no
    # batched fold SVD (np.linalg.svd of a 3-D stack) and builds no fold
    # stack.  u*/n = 0.2, and every call that tunes a second method, keep the
    # fold stack; the picks, so the ridge fits, are the same either way.
    svd_ndims, stacks = _batched_svds(monkeypatch), []
    fold_caches = simharness._fold_caches

    def caches_spy(*args):
        stacks.append(fold_caches(*args))
        return stacks[-1]

    monkeypatch.setattr(simharness, "_fold_caches", caches_spy)
    for ratio, identity in ((0.75, True), (1.5, True), (0.2, False)):
        Xc, planted, Y, _ = _dd_point(100, ratio)
        folds = _fold_indices(100, 10, 1)
        svd_ndims.clear()
        stacks.clear()
        ridge = _known_basis_fits(Xc, planted, Y, folds, ("EgReg",))["EgReg"]
        assert (3 in svd_ndims, len(stacks)) == ((False, 0) if identity else (True, 1)), ratio
        XG = Xc[:, planted]
        for second in ("PCR", "EgReg(r)"):
            stacks.clear()
            fits = _sample_fits(XG, thin_svd(XG), Y, folds, ["Ridge", second])
            assert len(stacks) == 1
            for got, want in zip(fits["Ridge"], ridge):
                assert np.array_equal(_lift(planted, got, Xc.shape[1]), want)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(10, 30), shape=st.sampled_from(["square", "wide", "tall"]),
       decay=st.booleans(), k=st.integers(2, 6), lanes=st.integers(1, 5), q=st.integers(1, 2),
       seed=st.integers(0, 2**16))
@example(n=14, shape="square", decay=False, k=4, lanes=5, q=2, seed=1)   # folds 4+4+3+3
@example(n=14, shape="wide", decay=True, k=4, lanes=1, q=1, seed=2)
@example(n=14, shape="tall", decay=True, k=4, lanes=3, q=2, seed=3)
def test_ridge_block_deletion_scores_match_the_fold_stack(n, shape, decay, k, lanes, q, seed):
    # The block-deletion identity scores ridge on the studies' lambda grid
    # as the fold-stack kernel does, to rtol 1e-12, and picks the same
    # entries.  Square (p = n - 1) and wide designs have rank n - 1 once
    # centered, so W, the complement of U, is one column; a decaying
    # spectrum spreads D^2 / lambda over many orders.
    p = {"square": n - 1, "wide": 2 * n, "tall": max(2, n // 3)}[shape]
    X, Y = _lane_data(n, p, lanes, q, seed)
    if decay:
        X *= np.exp(-0.2 * np.arange(p))
    svd = thin_svd(X)
    assert svd.r == (max(2, n // 3) if shape == "tall" else n - 1)
    folds = _fold_indices(n, k, seed)
    grid = _Grid("ridge", lam=simharness._lambda_grid(svd.D[0] ** 2))
    score = simharness._ridge_deletion(svd, folds, grid.lam)
    stack = _fold_caches(svd, folds)
    assert_allclose(score(Y)[0], _cv_sse(stack, Y, [grid])[0], rtol=1e-12, atol=0)
    assert (simharness._pick_blocks(score, Y, [grid])[0].tolist()
            == _tune(stack, Y, [grid])[0].tolist())


def _cv_data(seed=9, n=48, p=6, q=2):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    X -= X.mean(axis=0)
    beta = rng.standard_normal((p, q))
    Y = X @ beta + 0.7 * rng.standard_normal((n, q))
    Y -= Y.mean(axis=0)
    return Dataset(X, Y, centered=True)


def _brute_force_cv(data, method, grid, k, seed):
    """Refit every fold from scratch; returns pooled SSE / n per entry."""
    folds = _fold_indices(data.n, k, seed)
    out = np.zeros(len(grid))
    for va in folds:
        tr = np.setdiff1d(np.arange(data.n), va)
        Xt, Yt = data.X[tr], data.Y[tr]
        Xv, Yv = data.X[va], data.Y[va]
        svd = thin_svd(Xt)
        for i, e in enumerate(grid):
            if method == "pcr":
                beta = pcr_coefficients(svd, Yt, e["d"])
            elif method == "ridge":
                beta = ridge_coefficients(svd, Yt, e["lambda"])
            elif method == "niece":
                scores = envelope_scores(svd, Xt.T @ Yt / len(tr), svd.r)
                beta = niece_coefficients(svd, scores, Yt, e["u"], e.get("d", svd.r))
            elif method == "egreg":
                d = e.get("d", svd.r)
                scores = envelope_scores(svd, Xt.T @ Yt / len(tr), svd.r)
                beta = egreg_coefficients(svd, scores, Yt, d, e["lambda"])
            else:
                beta = simpls_coefficients(svd, Yt, e["d"])[0]
            out[i] += float(np.sum((Xv @ beta - Yv) ** 2))
    return out / data.n


@pytest.mark.parametrize("method,grid,p", [
    pytest.param("pcr", [{"d": d} for d in (1, 2, 4, 5)], 6, id="pcr-grid0"),
    pytest.param("ridge", [{"lambda": l} for l in (0.01, 0.5, 3.0)], 6, id="ridge-grid1"),
    pytest.param("niece", [{"u": u} for u in (1, 3, 5)], 6, id="niece-grid2"),
    pytest.param("egreg", [{"d": d, "lambda": l} for d in (2, 4) for l in (0.1, 2.0)], 6,
                 id="egreg-grid3"),
    pytest.param("simpls", [{"d": d} for d in (1, 2, 3)], 6, id="simpls-grid4"),
    pytest.param("niece", [{"u": 2, "d": 3}, {"u": 3, "d": 3}, {"u": 2, "d": 5}, {"u": 4}], 6,
                 id="niece-pools"),
    pytest.param("egreg", [{"lambda": 0.1}, {"d": 3, "lambda": 0.1}, {"lambda": 2.0}], 6,
                 id="egreg-full-rank"),
    # wide: p = 60 exceeds the training-fold rank 40
    pytest.param("pcr", [{"d": d} for d in (1, 7, 40)], 60, id="pcr-wide"),
    pytest.param("niece", [{"u": 2}, {"u": 5, "d": 12}, {"u": 30}], 60, id="niece-wide"),
    pytest.param("egreg", [{"lambda": 0.5}, {"d": 10, "lambda": 0.0}, {"d": 25, "lambda": 4.0}],
                 60, id="egreg-wide"),
    pytest.param("simpls", [{"d": d} for d in (1, 2, 3, 5)], 60, id="simpls-wide"),
])
def test_cv_scores_match_brute_force(method, grid, p):
    data = _cv_data(p=p)
    _, table = kfold_cv(data, method, grid, k=6, seed=13)
    oracle = _brute_force_cv(data, method, grid, k=6, seed=13)
    got = np.array([row["cv_score"] for row in table])
    assert_allclose(got, oracle, rtol=1e-9)


def test_cv_single_point_grid_returned():
    data = _cv_data(seed=10)
    best, table = kfold_cv(data, "pcr", [{"d": 3}], k=5, seed=0)
    assert best == {"d": 3}
    assert len(table) == 1


def test_cv_duplicate_entries_tie_deterministically():
    data = _cv_data(seed=11)
    grid = [{"lambda": 1.0}, {"lambda": 1.0}]
    best, table = kfold_cv(data, "ridge", grid, k=4, seed=2)
    assert table[0]["cv_score"] == table[1]["cv_score"]
    assert best == {"lambda": 1.0}


def test_cv_validation_errors():
    data = _cv_data(seed=12)
    with pytest.raises(ParameterError):
        kfold_cv(data, "pcr", [], k=5, seed=0)
    with pytest.raises(ParameterError):
        kfold_cv(data, "pcr", [{"d": 2}], k=1, seed=0)
    with pytest.raises(ParameterError):
        kfold_cv(data, "pcr", [{"d": 2}], k=data.n + 1, seed=0)
    for k in (2.5, "3", True):                     # k is an integer
        with pytest.raises(ParameterError, match="k must be an integer"):
            kfold_cv(data, "pcr", [{"d": 2}], k=k, seed=0)
    with pytest.raises(ParameterError):
        kfold_cv(data, "newton", [{"d": 2}], k=5, seed=0)
    with pytest.raises(ParameterError, match="exceeds a training-fold rank"):
        kfold_cv(data, "pcr", [{"d": 40}], k=5, seed=0)
    bad_grids = [
        ("ridge", [{"lambda": 1.0}, {}]),          # a required key is missing
        ("pcr", [{}]),
        ("simpls", [{"u": 2}]),
        ("niece", [{"d": 3}]),
        ("pcr", [{"d": 0}]),                       # d and u are integers >= 1
        ("pcr", [{"d": 2.5}]),
        ("niece", [{"u": True}]),
        ("niece", [{"u": 4, "d": 2}]),             # u exceeds its candidate pool
        ("ridge", [{"lambda": float("nan")}]),     # lambda is finite and >= 0
        ("ridge", [{"lambda": 0.0}]),              # ... and > 0 for ridge, as in fit_method
        ("egreg", [{"lambda": float("inf")}]),
        ("egreg", [{"d": 2, "lambda": -1.0}]),
        ("egreg", [{"lambda": "0.1"}]),
        ("pcr", [{"d": 2, "lambda": 1.0}]),        # a key the method does not use
    ]
    for method, grid in bad_grids:
        with pytest.raises(ParameterError):
            kfold_cv(data, method, grid, k=5, seed=0)


@pytest.mark.parametrize("method,grid", [
    ("pcr", [{"d": 2.0}, {"d": 3.0}]),              # integral floats, as JSON may give them
    ("ridge", [{"lambda": 0.1}, {"lambda": 10.0}]),
    ("niece", [{"u": 1}, {"u": 2, "d": 4.0}]),
    ("egreg", [{"d": 3, "lambda": 0.0}, {"lambda": 1.0}]),
    ("simpls", [{"d": 1}, {"d": 2.0}]),
])
def test_cv_pick_fits_as_it_is(method, grid):
    # CV grids and fits follow one parameter rule, so every pick can be fitted.
    data = _cv_data(seed=16)
    best, _ = kfold_cv(data, method, grid, k=4, seed=0)
    model = fit_method(data, method, best)
    assert model.method.lower() == method
    assert all(model.params[key] == value for key, value in best.items())


def test_cv_ties_go_to_smaller_d_then_larger_lambda():
    # Y = 0: SIMPLS stops at once and every EgReg score is 0, so all entries tie.
    data = _cv_data(seed=15)
    zero = Dataset(data.X, np.zeros_like(data.Y), centered=True)
    best, table = kfold_cv(zero, "simpls", [{"d": 3}, {"d": 1}, {"d": 2}], k=4, seed=1)
    assert [row["cv_score"] for row in table] == [0.0, 0.0, 0.0]
    assert best == {"d": 1}
    grid = [{"d": 3, "lambda": 5.0}, {"d": 2, "lambda": 0.5}, {"d": 2, "lambda": 1.0},
            {"d": 2, "lambda": 1.0}]
    best, table = kfold_cv(zero, "egreg", grid, k=4, seed=1)
    assert all(row["cv_score"] == 0.0 for row in table)
    assert best == {"d": 2, "lambda": 1.0}


_LANE_GRIDS = (
    _Grid("pcr", d=[1, 2, 3]),
    _Grid("ridge", lam=[0.0, 0.05, 1.0, 20.0]),
    _Grid("niece", u=[1, 2, 3, 2], d=[0, 0, 3, 2]),
    _Grid("simpls", d=[1, 2, 3]),
    _Grid("egreg", d=[2, 3, 3, 0], lam=[0.0, 0.1, 2.0, 0.5]),
)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(10, 23), shape=st.sampled_from(["wide", "square", "tall"]),
       k=st.integers(2, 5), lanes=st.integers(2, 11), q=st.integers(1, 2),
       zero_lane=st.booleans(), seed=st.integers(0, 2**16))
@example(n=14, shape="wide", k=4, lanes=3, q=1, zero_lane=True, seed=1)   # 14 = 4+4+3+3
@example(n=13, shape="tall", k=5, lanes=2, q=2, zero_lane=True, seed=2)
@example(n=16, shape="square", k=3, lanes=11, q=1, zero_lane=False, seed=3)  # > one pick block
def test_cv_lanes_match_single_lane_runs(n, shape, k, lanes, q, zero_lane, seed):
    # Stacked lanes score and pick exactly as one lane at a time, for every
    # method, including a Y = 0 lane (SIMPLS stops at 0 components there).
    p = {"wide": n + 6, "square": n, "tall": max(4, n // 2)}[shape]
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    X -= X.mean(axis=0)
    Y = np.einsum("np,plq->nlq", X, rng.standard_normal((p, lanes, q)))
    Y += rng.standard_normal(Y.shape)
    Y -= Y.mean(axis=0)
    if zero_lane:
        Y[:, 0] = 0.0
    caches = _fold_caches(thin_svd(X), _fold_indices(n, k, seed))
    for grid in _LANE_GRIDS:
        both = _cv_sse(caches, Y, [grid])[0]
        each = np.column_stack([_cv_sse(caches, Y[:, [l]], [grid])[0][:, 0]
                                for l in range(lanes)])
        assert_allclose(both, each, rtol=1e-12, err_msg=grid.method)
        picks = [_pick_best(grid, each[:, [l]] / n)[0] for l in range(lanes)]
        assert _tune(caches, Y, [grid])[0].tolist() == picks
        if zero_lane:
            assert np.all(both[:, 0] == 0.0)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(10, 23), wide=st.booleans(), k=st.integers(2, 5), lanes=st.integers(1, 5),
       q=st.integers(1, 2), zero_lane=st.booleans(), seed=st.integers(0, 2**16))
@example(n=14, wide=True, k=4, lanes=4, q=1, zero_lane=True, seed=1)   # training ranks 10 and 11
def test_cv_grids_scored_together_match_each_grid_alone(n, wide, k, lanes, q, zero_lane, seed):
    # One call scores every grid of a lane block, the filters of each kernel
    # form stacked in one pass: ridge, NIECE (with candidate pools) and
    # full-rank EgReg in the residual form, PCR and EgReg d x lambda in the
    # Gram form, and a one-entry PCR grid in a residual pass of its own.
    # Stacking can move a product's last bit, so the scores match each grid
    # scored alone to rtol 1e-12, and the picks are equal.
    X, Y = _lane_data(n, n + 6 if wide else max(4, n // 2), lanes, q, seed)
    if zero_lane:
        Y[:, 0] = 0.0
    caches = _fold_caches(thin_svd(X), _fold_indices(n, k, seed))
    grids = (*_LANE_GRIDS, _Grid("egreg", lam=[0.0, 0.5, 3.0]), _Grid("pcr", d=[2]))
    together = _cv_sse(caches, Y, grids)
    picks = _tune(caches, Y, grids)
    for grid, got, pick in zip(grids, together, picks):
        assert_allclose(got, _cv_sse(caches, Y, [grid])[0], rtol=1e-12, err_msg=grid.method)
        assert pick.tolist() == _tune(caches, Y, [grid])[0].tolist(), grid.method


def _lexsort_pick(grid, scores):
    """The CV tie rule as one stable sort of each lane's whole score column:
    lowest score (NaN last), then smaller d/u, then larger lambda, then the
    first entry.  The reference for :func:`_pick_best`."""
    size = np.where(grid.u > 0, grid.u, np.where(grid.d > 0, grid.d, np.inf))
    return np.lexsort(np.broadcast_arrays(-grid.lam, size, scores.T))[:, 0]


@settings(max_examples=80, deadline=None)
@given(method=st.sampled_from(["pcr", "ridge", "niece", "egreg", "egreg_r", "simpls"]),
       entries=st.integers(1, 40), lanes=st.integers(1, 6),
       nan_share=st.sampled_from([0.0, 0.3, 1.0]), seed=st.integers(0, 2**16))
def test_pick_best_follows_the_lexsort_tie_rule(method, entries, lanes, nan_share, seed):
    # Scores, d, u and lambda take few distinct values, so exact ties across
    # d/u and lambda are common; signed zeros tie, and NaN ranks last.
    rng = np.random.default_rng(seed)
    d = rng.integers(1, 5, entries)
    lam = rng.choice([0.0, 0.1, 1.0, 10.0], entries)
    pool = d * rng.integers(0, 2, entries)    # NIECE: 0 is the full-rank pool
    grid = {"pcr": _Grid("pcr", d=d), "simpls": _Grid("simpls", d=d),
            "ridge": _Grid("ridge", lam=lam), "egreg_r": _Grid("egreg", lam=lam),
            "egreg": _Grid("egreg", d=d, lam=lam),
            "niece": _Grid("niece", u=rng.integers(1, 4, entries), d=pool)}[method]
    scores = rng.choice([-0.0, 0.0, 0.5, 1.0, np.inf], (entries, lanes))
    scores[rng.random(scores.shape) < nan_share] = np.nan
    assert _pick_best(grid, scores).tolist() == _lexsort_pick(grid, scores).tolist()


def _filtered_sse(A, B, Yva, F, terms):
    """Held-out SSE of every filter and lane after its first c terms, c in
    ``terms``, in residual form: the reference for the CV kernel.

    ``A`` (m x k x lanes) holds the held-out rows and ``B`` (k x lanes x q)
    the training response in the same k coordinates; under filter l (row of
    the L x k x lanes ``F``) coordinate j adds ``A[:, j] F[l, j] B[j]`` to a
    lane's prediction.  A lane axis of length 1 in ``A`` or ``F`` is shared
    by all lanes.  ``terms`` is ascending (c = 0 predicts zero).  Returns an
    L x terms.size x lanes array.
    """
    k = int(terms[-1])
    L, lanes, q, m = F.shape[0], B.shape[1], B.shape[2], A.shape[0]
    H = (F[:, :k, :, None] * B[:k]).transpose(0, 2, 3, 1)    # L x lanes x q x k
    if terms.size == 1 and A.shape[2] == 1:
        # Only full sums are read: one matrix product instead of building
        # every partial prediction.
        R = (H.reshape(-1, k) @ A[:, :k, 0].T).reshape(L, lanes, q, m)
        R -= Yva.transpose(1, 2, 0)
        return np.einsum("lrqm,lrqm->lr", R, R)[:, None]
    # Residuals of the cumulative predictions, term axis last; column 0
    # predicts zero.
    T = np.empty((L, lanes, q, m, k + 1))
    T[..., 0] = -Yva.transpose(1, 2, 0)
    np.multiply(A[:, :k].transpose(2, 0, 1)[None, :, None], H[:, :, :, None], out=T[..., 1:])
    np.cumsum(T, axis=-1, out=T)
    T *= T
    return T.sum(axis=(2, 3))[..., terms].transpose(0, 2, 1)


def _per_fold_cv_sse(stack, Y, grid):
    """The filter methods' CV scores fold by fold, each fold cut from the
    stack's padding, in residual form with every cell gathered by index
    arrays: the reference the stacked kernel must match."""
    n = Y.shape[0]
    lane = np.arange(Y.shape[1])
    sse = np.zeros((grid.d.size, lane.size))
    for f in range(stack.r.size):
        n_tr, r, m = stack.n_tr[f], stack.r[f], np.count_nonzero(stack.va[f] < n)
        d = simharness._entry_sizes(grid, r)
        D, A = stack.D[f, :r], stack.A[f, :m, :r]
        Ytr = Y[stack.tr[f, :n_tr]]
        B = (stack.U[f, :n_tr, :r].T @ Ytr.reshape(n_tr, -1)).reshape(r, *Y.shape[1:])
        phi = (D**2)[:, None] * np.einsum("jlq,jlq->jl", B, B) / float(n_tr) ** 2
        A3, rows, cols = A[:, :, None], 0, d[:, None]
        if grid.method == "pcr":
            F = np.ones((1, r, 1))
        elif grid.method in ("ridge", "egreg"):
            s = (D**2)[:, None] if grid.method == "ridge" else phi
            lam, rows = np.unique(grid.lam, return_inverse=True)
            denom = s + lam[:, None, None]
            F = np.divide(s, denom, out=np.zeros_like(denom), where=denom > 0)
            rows = rows[:, None]
        else:
            order = simharness._score_order(phi.T, D).T
            A3, B = A[:, order], B[order, lane]
            pools, rows = np.unique(d, return_inverse=True)
            F = (order < pools[:, None, None]).astype(float)
            kept = np.cumsum(F, axis=1)[rows]
            cols = 1 + np.count_nonzero(kept < grid.u[:, None, None], axis=1)
            rows = rows[:, None]
        terms, at = np.unique(cols, return_inverse=True)
        sse += _filtered_sse(A3, B, Y[stack.va[f, :m]], F, terms)[rows, at.reshape(cols.shape),
                                                                   lane]
    return sse


def _lane_data(n, p, lanes, q, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    X -= X.mean(axis=0)
    Y = np.einsum("np,plq->nlq", X, rng.standard_normal((p, lanes, q)))
    Y += rng.standard_normal(Y.shape)
    Y -= Y.mean(axis=0)
    return X, Y


@pytest.mark.parametrize("n,p,k", [
    pytest.param(14, 20, 4, id="wide"),     # folds 4+4+3+3: training ranks 10 and 11
    pytest.param(23, 5, 3, id="tall"),
])
@pytest.mark.parametrize("lanes,q", [(1, 1), (3, 1), (1, 2), (3, 2)])
def test_planned_cv_scores_are_bit_identical_to_per_fold_lookups(n, p, k, lanes, q):
    # The stacked kernel scores every fold at once, and grids that read
    # partial sums (PCR, EgReg d x lambda) take the Gram form, so its
    # rounding differs from the per-fold residual form.  NIECE is a full sum
    # of a 0/1 filter there and a prefix of its pool-first order here.  The
    # two agree to rtol 1e-12.
    X, Y = _lane_data(n, p, lanes, q, n * lanes + q)
    stack = _fold_caches(thin_svd(X), _fold_indices(n, k, 5))
    ranks = set(stack.r.tolist())
    assert len(ranks) == (2 if p > n else 1)
    ds = np.arange(1, min(ranks) + 1)
    lam = np.array([0.0, 0.02, 0.3, 0.3, 5.0, 80.0])
    for grid in (
        _Grid("pcr", d=ds[::-1]),
        _Grid("ridge", lam=lam),
        _Grid("niece", u=[1, 3, 2, 2, 4], d=[0, 0, 3, 2, 4]),
        _Grid("egreg", d=np.repeat(ds, lam.size), lam=np.tile(lam, ds.size)),
        _Grid("egreg", lam=lam[::-1]),
    ):
        got = _cv_sse(stack, Y, [grid])[0]
        assert_allclose(got, _per_fold_cv_sse(stack, Y, grid), rtol=1e-12, err_msg=grid.method)


def test_full_sum_path_matches_the_cumulative_sum():
    # Grids that read only the full sum take a one-GEMM path; asking for one
    # more term count sends the same cell through the cumulative sum.  This
    # holds for the reference kernel and for the stacked one, whose full-rank
    # EgReg grid takes the residual form until an entry with a d sends it
    # through the Gram form.  The stacked kernel picks its form from the
    # term counts alone, so NIECE, whose 0/1 filters all read the full sum,
    # never takes the Gram form.
    rng = np.random.default_rng(4)
    m, k, lanes, q, L = 7, 9, 3, 2, 5
    A = rng.standard_normal((m, k, 1))
    B = rng.standard_normal((k, lanes, q))
    Yva = rng.standard_normal((m, lanes, q))
    F = rng.uniform(size=(L, k, lanes))
    full = _filtered_sse(A, B, Yva, F, np.array([k]))
    both = _filtered_sse(A, B, Yva, F, np.array([k - 1, k]))
    assert_allclose(full[:, 0], both[:, 1], rtol=1e-12)
    X, Y = _lane_data(14, 20, lanes, q, 4)
    svd = thin_svd(X)
    stack = _fold_caches(svd, _fold_indices(14, 4, 5))
    lam = np.array([0.0, 0.1, 2.0, 30.0])
    full = _cv_sse(stack, Y, [_Grid("egreg", lam=lam)])[0]
    both = _cv_sse(stack, Y, [_Grid("egreg", d=[0, 0, 0, 0, 2], lam=[*lam, 1.0])])[0]
    assert_allclose(full, both[:4], rtol=1e-12)
    fresh = _fold_caches(svd, _fold_indices(14, 4, 5))
    _cv_sse(fresh, Y, [_Grid("niece", u=[1, 3, 2, 2], d=[0, 0, 3, 2])])
    assert "M" not in vars(fresh)           # the Gram form's matrix was never formed


@pytest.mark.parametrize("p", [6, 20], ids=["tall", "wide"])
def test_cv_scores_are_bit_identical_under_fold_pc_sign_flips(p):
    # A fold PC keeps the sign LAPACK gave it.  Flipping it flips its U
    # column, so B_j = U_j'Y, together with its A column; the sign cancels
    # in every score of every method (SIMPLS reads only the fold masks).
    X, Y = _lane_data(14, p, 3, 2, 8)
    stack = _fold_caches(thin_svd(X), _fold_indices(14, 4, 5))
    flip = np.where(np.random.default_rng(p).random(stack.D.shape) < 0.5, -1.0, 1.0)
    assert (flip < 0).any()
    flipped = dataclasses.replace(stack, U=stack.U * flip[:, None], A=stack.A * flip[:, None])
    for grid in (*_LANE_GRIDS, _Grid("egreg", lam=[0.0, 0.5, 3.0])):
        got = _cv_sse(flipped, Y, [grid])[0]
        assert got.tobytes() == _cv_sse(stack, Y, [grid])[0].tobytes(), grid.method


def _accuracy_grids(r):
    """Grids of every filter method on training folds of rank r, each with
    an entry that uses all r PCs (a zero held-out error at sigma = 0 on a
    tall design)."""
    mid = r // 2
    return [
        ("pcr", [{"d": d} for d in (1, 2, mid, r)]),
        ("ridge", [{"lambda": lam} for lam in (1e-3, 0.5, 3.0)]),
        ("niece", [{"u": 2, "d": 3}, {"u": 3, "d": 3}, {"u": 2, "d": mid}, {"u": mid}, {"u": r}]),
        ("egreg", [{"d": d, "lambda": lam} for d in (2, mid, r) for lam in (0.0, 0.1, 2.0)]),
        ("egreg", [{"lambda": 0.0}, {"lambda": 0.1}, {"lambda": 2.0}]),
    ]


@pytest.mark.parametrize("sigma", [1.0, 1e-3, 1e-6, 0.0])
@pytest.mark.parametrize("p", [6, 60], ids=["tall", "wide"])
def test_cv_scores_stay_accurate_and_nonnegative_as_the_noise_vanishes(p, sigma):
    # The Gram form expands the held-out sum of squares, so its error is
    # absolute, about eps k ||y_va||^2, rather than relative to the score.
    # Every score must stay within 1e-12 of the pooled ||y_va||^2 / n of a
    # fresh refit per fold, never fall below 0 (at sigma = 0 the full-rank
    # fits on the tall design predict the held-out rows exactly), and pick as
    # the refits do wherever their best two scores are further apart.  Where
    # an exact zero rounds to depends on the draw, so there are six.  Grids
    # whose entries all read the full sum (ridge, full-rank EgReg, NIECE) take
    # the residual form, whose error is relative: while the noise keeps the
    # scores off 0, they match the refits to rtol 1e-6 as well.
    n, k = 48, 6
    for draw in range(6):
        rng = np.random.default_rng([31, p, draw])
        X = rng.standard_normal((n, p))
        X -= X.mean(axis=0)
        Y = X @ rng.standard_normal((p, 2)) + sigma * rng.standard_normal((n, 2))
        Y -= Y.mean(axis=0)
        data = Dataset(X, Y, centered=True)
        tol = 1e-12 * np.sum(Y**2) / n
        for method, grid in _accuracy_grids(min(p, n - n // k)):
            best, table = kfold_cv(data, method, grid, k=k, seed=13)
            got = np.array([row["cv_score"] for row in table])
            oracle = _brute_force_cv(data, method, grid, k=k, seed=13)
            assert np.all(got >= 0.0), (method, draw, got.min())
            assert_allclose(got, oracle, rtol=0, atol=tol, err_msg=f"{method}, draw {draw}")
            if sigma > 0 and (method == "niece" or not any("d" in e for e in grid)):
                assert_allclose(got, oracle, rtol=1e-6, err_msg=f"{method}, draw {draw}")
            first, second = np.sort(oracle)[:2]
            if second - first > tol:
                assert best == grid[int(np.argmin(oracle))], (method, draw)


def test_cv_is_seed_deterministic():
    data = _cv_data(seed=14)
    grid = [{"u": u} for u in (1, 2, 3, 4)]
    b1, t1 = kfold_cv(data, "niece", grid, k=6, seed=21)
    b2, t2 = kfold_cv(data, "niece", grid, k=6, seed=21)
    assert b1 == b2
    assert [r["cv_score"] for r in t1] == [r["cv_score"] for r in t2]


def test_cv_recovers_planted_dimension_most_of_the_time():
    # Strong-signal planted model: the selected u must equal u* in at least
    # 80% of 50 independent draws (selection noise always overshoots, never
    # undershoots, in this regime).
    hits = 0
    for seed in range(50):
        cfg = _cfg(seed=seed, n=150, p=10, q=3, decay=1.5,
                   picks=(1, 2, 3), amp=2.0, sig=10.0)
        data, _, _ = gen_envelope_model(cfg)
        best, _ = kfold_cv(data, "niece",
                           [{"u": u} for u in range(1, 7)], k=10, seed=seed)
        hits += best["u"] == 3
    assert hits >= 40


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------

def test_run_study_rejects_unknowns(monkeypatch):
    def no_grid_point(*args, **kwargs):
        raise AssertionError("a grid point ran")

    monkeypatch.setattr(simharness, "_responses", no_grid_point)
    with pytest.raises(ConfigError):
        run_study("warp", {})
    with pytest.raises(ConfigError):
        run_study("P1", {"posterior": 1})
    with pytest.raises(ConfigError):
        run_study("double_descent", {"methods": ["pcr"]})
    with pytest.raises(ConfigError, match="u_star"):
        run_study("double_descent", {"u_star_over_n": [0.05]})
    with pytest.raises(ConfigError, match="folds"):
        run_study("P1", {"n": 20, "folds": 30, "replications": 1,
                         "p_over_n": [1.0], "methods": ["pcr"]})
    # n, replications, folds and seed are integers (not bools) in range, the
    # grid is non-empty, positive and finite, and sigma_eps_sq, decay_gamma,
    # rho and beta_star are numbers (not strings) in range, and baseline's
    # kind is CS or AR1; each is checked before any grid point runs.
    bad_configs = [
        ("baseline", {"replications": 0}, "replications"),
        ("P1", {"replications": 1.5}, "replications"),
        ("P1", {"replications": True}, "replications"),
        ("u_star", {"folds": 2.9}, "folds"),
        ("u_star", {"folds": 1}, "folds"),
        ("P1", {"n": 40.9}, "n"),
        ("baseline", {"n": 1}, "n"),
        ("double_descent", {"seed": -1}, "seed"),
        ("P1", {"seed": "3"}, "seed"),
        ("P1", {"p1": 7.5}, "p1"),
        ("u_star", {"u_star": 2.5}, "u_star"),
        ("P1", {"p_over_n": []}, "p_over_n"),
        ("P1", {"p_over_n": [float("nan")]}, "p_over_n"),
        ("baseline", {"p_over_n": [0.5, float("inf")]}, "p_over_n"),
        ("double_descent", {"u_star_over_n": []}, "u_star_over_n"),
        ("P1", {"sigma_eps_sq": 0.0}, "sigma_eps_sq"),
        ("baseline", {"sigma_eps_sq": 0.0}, "sigma_eps_sq"),
        ("P1", {"decay_gamma": "x"}, "decay_gamma"),
        ("u_star", {"p_over_n": ["a"]}, "p_over_n"),
        ("baseline", {"beta_star": ["a"]}, "beta_star"),
        ("baseline", {"rho": "0.5"}, "rho"),
        ("baseline", {"kind": "XX"}, "kind"),
        ("P1", {"methods": 5}, "methods"),
        ("P1", {"methods": "pcr"}, "methods"),
    ]
    for study, config, key in bad_configs:
        with pytest.raises(ConfigError, match=key):
            run_study(study, config)


def test_model_frame_studies_never_form_sigma_x(monkeypatch):
    # Their risks are sums of squares in the factor; Sigma_x is never read.
    def formed(self):
        raise AssertionError("Sigma_x was formed")

    monkeypatch.setattr(TruthSpec, "Sigma_x", property(formed))
    res = run_study("P1", {"n": 30, "replications": 2, "folds": 3, "p_over_n": [1.0, 2.0],
                           "methods": ["pcr", "egreg"]})
    assert np.all(np.isfinite(res.risks))
    res = run_study("double_descent", {"n": 20, "replications": 2, "folds": 3,
                                       "u_star_over_n": [0.6, 1.0, 1.5]})
    assert np.all(np.isfinite(res.risks))


@pytest.mark.parametrize("study,config,p", [
    ("P1", {"p_over_n": [20], "replications": 2, "methods": ["ridge"]}, 2000),
    ("double_descent", {"u_star_over_n": [10], "replications": 2}, 1500),
    ("double_descent", {"u_star_over_n": [10], "replications": 2, "methods": ["egreg"]}, 1500),
])
def test_eigenbasis_study_memory_is_linear_in_n_times_p(study, config, p):
    # Sigma_x's factor is a vector and the planted basis a set of indices, so
    # no p x p or p x u* array is formed: a dense factor alone would be
    # 32 MB at p = 2000, against this bound of 10 n p doubles (16 MB).
    n = simharness._STUDY_DEFAULTS[study]["n"]
    assert _second_run_peak(study, config) < 10 * n * p * 8


def test_baseline_study_memory_is_quadratic_only_in_its_factor():
    # The baseline frame forms Sigma_x and its Cholesky factor L, two p x p
    # arrays, and hands the truth L alone, so nothing else of p^2 size is
    # formed: the bound is 2 p^2 + 10 n p doubles (80 MB at p = 2000).  A
    # truth handed Sigma_x as well checked it against L L', a third p x p
    # array.
    n, p = 100, 2000
    config = {"p_over_n": [p / n], "replications": 2, "methods": ["ridge"]}
    assert _second_run_peak("baseline", config) < (2 * p * p + 10 * n * p) * 8


def _second_run_peak(study, config):
    """The tracemalloc peak of a second ``run_study`` call: the first takes
    any one-time allocations out of the measured one."""
    run_study(study, config)
    tracemalloc.start()
    try:
        run_study(study, config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_study_result_layout_and_determinism():
    config = {"replications": 2, "p_over_n": [0.25, 0.5], "seed": 7,
              "methods": ["niece", "egreg"]}
    res1 = run_study("P1", config)
    res2 = run_study("P1", config)
    assert res1.methods == ("NIECE", "EgReg")
    assert res1.grid == (0.25, 0.5)
    assert res1.risks.shape == (2, 2)
    assert np.array_equal(res1.risks, res2.risks)
    assert np.array_equal(res1.ses, res2.ses)
    rows = res1.rows()
    assert rows[0] == ["p_over_n", "NIECE_risk", "NIECE_se", "EgReg_risk", "EgReg_se"]
    assert len(rows) == 3


def test_study_risks_are_nonnegative_with_huge_niece_coefficients():
    # At p/n = 1 one NIECE replication reaches |beta_hat| ~ 2e8 against a
    # Sigma_x whose eigenvalues go down to 1e-42.
    res = run_study("P1", {"seed": 202001, "replications": 3})
    assert np.all(res.risks >= 0.0)
    assert np.all(np.isfinite(res.ses))


def test_study_seed_changes_results():
    base = {"replications": 2, "p_over_n": [0.5], "methods": ["ridge"]}
    r1 = run_study("P1", {**base, "seed": 1})
    r2 = run_study("P1", {**base, "seed": 2})
    assert not np.array_equal(r1.risks, r2.risks)


def test_u_star_study_half_rule():
    res = run_study("u_star", {"replications": 2, "p_over_n": [0.25],
                               "seed": 3, "methods": ["niece"]})
    assert np.all(np.isfinite(res.risks))
    # explicit u_star too large for smallest grid point
    with pytest.raises(ConfigError):
        run_study("u_star", {"u_star": 30, "p_over_n": [0.25], "seed": 3})


def test_baseline_study_runs_both_kinds():
    for kind in ("CS", "AR1"):
        res = run_study("baseline", {"replications": 2, "p_over_n": [0.25],
                                     "kind": kind, "seed": 4,
                                     "methods": ["ridge", "egreg"]})
        assert np.all(np.isfinite(res.risks))


def test_double_descent_niece_branches():
    res = run_study("double_descent",
                    {"replications": 3, "u_star_over_n": [0.5, 1.0, 2.0],
                     "seed": 5, "methods": ["niece", "egreg"]})
    niece = res.risks[:, 0]
    # interpolation-point spike dwarfs both flanks
    assert niece[1] > 5 * niece[0] and niece[1] > 5 * niece[2]
    assert np.all(res.risks[:, 1] <= niece)


def test_envelope_config_from_json_roundtrip_types():
    # run_study must accept plain JSON types (lists, not tuples/arrays)
    res = run_study("P1", {"replications": 2, "p_over_n": [0.25],
                           "seed": 9, "methods": ["pcr"], "p1": 3})
    assert res.config["p1"] == 3
    # JSON Schema counts 2.0 as an integer, and so does the config parse.
    same = run_study("P1", {"replications": 2.0, "p_over_n": [0.25],
                            "seed": 9.0, "methods": ["pcr"], "p1": 3})
    assert np.array_equal(same.risks, res.risks) and same.seed == 9
