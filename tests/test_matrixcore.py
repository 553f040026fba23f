"""Tests for centering/standardization, thin SVD, subspace distance, and the
input rules every module shares."""

import re
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from egreg import matrixcore
from egreg import (
    ContractError,
    Dataset,
    DegenerateColumnError,
    DimensionError,
    EgregError,
    EnvelopeSimConfig,
    FittedModel,
    LimitConfig,
    RankZeroError,
    TruthSpec,
    center_standardize,
    empirical_risk_terms,
    envelope_scores,
    fit_method,
    gen_baseline,
    gen_envelope_model,
    irreducible_risk,
    kfold_cv,
    limiting_risk_egreg,
    mp_residual,
    population_niece,
    reducible_risk_egreg,
    reducible_risk_niece,
    risk_curve,
    run_study,
    stieltjes_m,
    stieltjes_m_prime,
    subspace_distance,
    thin_svd,
    top_ranked,
)
from egreg.estimators import (egreg_coefficients, niece_coefficients, pcr_coefficients,
                              ridge_coefficients, simpls_coefficients)


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
    assert data.centered and data.transform.mode == "center"
    assert np.max(np.abs(data.X.mean(axis=0))) <= 1e-10
    assert np.max(np.abs(data.Y.mean(axis=0))) <= 1e-10


def test_standardize_gives_unit_sample_variance():
    data = center_standardize(_raw(), mode="standardize")
    assert data.transform.mode == "standardize"
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


def test_thin_svd_relative_cutoff():
    # A direction at 1e-12 of the top singular value falls below the
    # relative tolerance and is dropped.
    U0 = np.linalg.qr(np.random.default_rng(13).standard_normal((12, 2)))[0]
    X = np.outer(U0[:, 0], [1.0, 0, 0]) + 1e-12 * np.outer(U0[:, 1], [0, 1.0, 0])
    assert thin_svd(X).r == 1


def _with_spectrum(rng, n, p, s, centered=False):
    """An n x p matrix ``Q1 diag(s) Q2'`` with random orthonormal Q1 and Q2;
    ``centered`` makes Q1's columns orthogonal to the ones vector."""
    G = rng.standard_normal((n, s.size))
    Q1 = np.linalg.qr(G - G.mean(axis=0) if centered else G)[0]
    return Q1 @ (s[:, None] * np.linalg.qr(rng.standard_normal((p, s.size)))[0].T)


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from(["tall", "wide", "centered-wide"]), m=st.integers(2, 30),
       extra=st.integers(0, 40), cond_sq=st.floats(matrixcore.GRAM_TAU, 1.0),
       exponent=st.sampled_from([-150, 0, 150]), seed=st.integers(0, 2**32 - 1))
def test_thin_svd_gram_path_matches_the_svd_branch(shape, m, extra, cond_sq, exponent, seed):
    # A design whose squared condition (sigma_r / sigma_1)^2 is at least
    # GRAM_TAU is factored from its m x m cross product (X'X tall, X X' wide,
    # the ones vector deflated from a centered wide one, of rank m - 1).
    # Its rank is the SVD branch's, D within 1e-12 of sigma_1, U D V' is X
    # within 1e-12 relative and U and V are orthonormal within 1e-11, at
    # entries near 1e-150 and 1e150 too.  Above 2 GRAM_TAU no norm check or
    # rounding can send it to the SVD branch, which must then not run.
    rng = np.random.default_rng(seed)
    n, p = (m + (extra if shape == "tall" else 0), m + (0 if shape == "tall" else extra + 1))
    k = m - (shape == "centered-wide")
    X = _with_spectrum(rng, n, p, np.geomspace(1.0, np.sqrt(cond_sq), k),
                       centered=shape == "centered-wide") * 10.0**exponent
    ref = matrixcore._svd(X)
    if cond_sq >= 2 * matrixcore.GRAM_TAU:
        with mock.patch.object(matrixcore, "_svd", side_effect=AssertionError("SVD branch ran")):
            f = thin_svd(X)
    else:
        f = thin_svd(X)
    assert f.r == ref.r == k
    assert_allclose(f.D, ref.D, rtol=0, atol=1e-12 * ref.D[0])
    err = np.linalg.norm(f.U @ (f.D[:, None] * f.V.T) - X) / np.linalg.norm(X)
    assert err <= 1e-12
    assert_allclose(f.U.T @ f.U, np.eye(k), rtol=0, atol=1e-11)
    assert_allclose(f.V.T @ f.V, np.eye(k), rtol=0, atol=1e-11)


def _p1_design(rng, n, p):
    X = rng.standard_normal((n, p)) * np.sqrt(10.0 * np.exp(-np.arange(p)))
    return X - X.mean(axis=0)


@pytest.mark.parametrize("case", ["p1-tall", "p1-wide", "graded-columns-under-tau",
                                  "rotated-spectrum-under-tau", "duplicate-columns",
                                  "entries-near-1e-150-and-1e150"])
def test_thin_svd_takes_the_svd_branch_bit_for_bit(case):
    # Designs the cross product cannot serve: P1's spectrum and columns
    # graded just past GRAM_TAU (refused on their column norms, before any
    # product), a spectrum just past GRAM_TAU behind a rotation that evens
    # the column norms and duplicate columns (refused on the eigenvalues),
    # and columns of 1e-150 beside columns of 1e150.  thin_svd must return
    # exactly the SVD branch's factors.
    rng = np.random.default_rng(29)
    below = np.sqrt(0.9 * matrixcore.GRAM_TAU)
    X = {
        "p1-tall": lambda: _p1_design(rng, 100, 25),
        "p1-wide": lambda: _p1_design(rng, 100, 200),
        "graded-columns-under-tau": lambda: (np.linalg.qr(rng.standard_normal((40, 8)))[0]
                                             * np.geomspace(1.0, below, 8)),
        "rotated-spectrum-under-tau": lambda: _with_spectrum(rng, 40, 8,
                                                             np.geomspace(1.0, below, 8)),
        "duplicate-columns": lambda: rng.standard_normal((30, 6))[:, [0, 1, 2, 3, 4, 5, 2]],
        "entries-near-1e-150-and-1e150": lambda: (rng.standard_normal((30, 6))
                                                  * np.array([1e150, 1e-150] * 3)),
    }[case]()
    f, ref = thin_svd(X), matrixcore._svd(X)
    assert f.r == ref.r
    for name in ("U", "D", "V"):
        assert getattr(f, name).tobytes() == getattr(ref, name).tobytes(), name


@pytest.mark.parametrize("factor,rank", [(2.0, 20), (0.5, 19)])
def test_thin_svd_keeps_a_ones_component_above_the_rank_cut(factor, rank):
    # A centered, well-conditioned 20 x 50 design (rank 19) plus a ones
    # component whose singular value ||X'1|| / sqrt(n) is `factor` times the
    # rank cut DEFAULT_RANK_RTOL * sigma_1.  Just above the cut it is a
    # direction the SVD keeps (rank n), so the Householder deflation must not
    # drop it; just below it the SVD cuts it, and so must thin_svd.
    rng = np.random.default_rng(31)
    n, p = 20, 50
    X0 = _with_spectrum(rng, n, p, np.geomspace(1.0, 0.5, n - 1), centered=True)
    w = np.linalg.svd(X0)[2][-1]    # a unit vector off X0's row space
    X = X0 + np.outer(np.full(n, factor * matrixcore.DEFAULT_RANK_RTOL / np.sqrt(n)), w)
    assert thin_svd(X).r == matrixcore._svd(X).r == rank


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


# ---------------------------------------------------------------------------
# Input rules shared by every module
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def rule_inputs():
    rng = np.random.default_rng(8)
    data = center_standardize(Dataset(rng.standard_normal((30, 6)), rng.standard_normal((30, 2))))
    svd = thin_svd(data.X)
    Sxy = data.X.T @ data.Y / data.n
    sim = dict(n=20, p=10, q=1, decay_gamma=1.0, P=(1, 2), alpha=np.ones((2, 1)),
               Sigma_eps=[[1.0]], seed=0)
    return SimpleNamespace(
        data=data, svd=svd, Sxy=Sxy, Y=data.Y, scores=envelope_scores(svd, Sxy, svd.r),
        truth=TruthSpec(np.ones((6, 2)), np.eye(6), np.eye(2)), sim=sim,
        cfg=EnvelopeSimConfig(**sim), limit=LimitConfig(0.5, 1.0, 1.0))


# (input, call on the inputs above, argument the error must name)
_BAD_INPUTS = [
    # counts
    ("scores-d-float", lambda f: envelope_scores(f.svd, f.Sxy, 2.5), "d"),
    ("scores-d-bool", lambda f: envelope_scores(f.svd, f.Sxy, True), "d"),
    ("irreducible-d-float", lambda f: irreducible_risk(f.svd, f.truth, 2.5), "d"),
    ("top-ranked-u-float", lambda f: top_ranked(f.scores, 2.5), "u"),
    ("top-ranked-d-float", lambda f: top_ranked(f.scores, 2, 2.5), "d"),
    ("niece-d-float", lambda f: niece_coefficients(f.svd, f.scores, f.Y, 2, 2.5), "d"),
    ("niece-risk-u-float", lambda f: reducible_risk_niece(f.svd, f.scores, f.truth, 1.5), "u"),
    ("egreg-d-float", lambda f: egreg_coefficients(f.svd, f.scores, f.Y, 2.5, 1.0), "d"),
    ("population-d-float", lambda f: population_niece(np.diag([3.0, 2.0, 1.0]), np.eye(3), 2.5, 1),
     "d"),
    ("population-u-zero", lambda f: population_niece(np.diag([3.0, 2.0, 1.0]), np.eye(3), 2, 0),
     "u_star"),
    ("pcr-d-zero", lambda f: pcr_coefficients(f.svd, f.Y, 0), "d"),
    ("simpls-d-zero", lambda f: simpls_coefficients(f.svd, f.Y, 0), "d"),
    ("fit-simpls-d-float", lambda f: fit_method(f.data, "simpls", {"d": 2.5}), "d"),
    # containers
    ("fit-params-none", lambda f: fit_method(f.data, "pcr", None), "params"),
    ("fit-params-pairs", lambda f: fit_method(f.data, "pcr", [("d", 2)]), "params"),
    ("study-config-int", lambda f: run_study("P1", 5), "config"),
    ("study-config-list", lambda f: run_study("P1", [1, 2]), "config"),
    ("study-config-string", lambda f: run_study("P1", "abc"), "config"),
    ("study-config-empty-list", lambda f: run_study("P1", []), "config"),
    # arrays
    ("ridge-complex-Y", lambda f: ridge_coefficients(f.svd, f.Y * (1 + 2j), 1.0), "Y"),
    ("pcr-string-Y", lambda f: pcr_coefficients(f.svd, [["a", "b"]] * 30, 2), "Y"),
    ("simpls-complex-X", lambda f: simpls_coefficients(thin_svd(f.data.X * 1j), f.Y, 2), "X"),
    ("simpls-ragged-Y", lambda f: simpls_coefficients(f.svd, [[1.0], [1.0, 2.0]], 2), "Y"),
    ("model-complex-beta", lambda f: FittedModel(beta=[[1j]], method="PCR"), "beta"),
    ("risk-complex-replication",
     lambda f: empirical_risk_terms([np.ones((6, 2)) * (1 + 1j)], f.truth), "beta_hats"),
    ("curve-string-grid", lambda f: risk_curve(f.limit, ["a", 1.0]), "gamma_grid"),
    ("sim-string-eigenvalues",
     lambda f: EnvelopeSimConfig(**{**f.sim, "eigenvalues": ["a"] * 10}), "eigenvalues"),
    # generators
    ("sim-P-float", lambda f: EnvelopeSimConfig(**{**f.sim, "P": (1.7, 2)}), "P"),
    ("sim-P-zero", lambda f: EnvelopeSimConfig(**{**f.sim, "P": (0, 2)}), "P"),
    ("sim-P-int", lambda f: EnvelopeSimConfig(**{**f.sim, "P": 3}), "P"),
    ("sim-n-float", lambda f: EnvelopeSimConfig(**{**f.sim, "n": 20.5}), "n"),
    ("sim-q-bool", lambda f: EnvelopeSimConfig(**{**f.sim, "q": True}), "q"),
    ("sim-seed-negative", lambda f: EnvelopeSimConfig(**{**f.sim, "seed": -3}), "seed"),
    ("sim-decay-string", lambda f: EnvelopeSimConfig(**{**f.sim, "decay_gamma": "a"}),
     "decay_gamma"),
    ("model-rep-float", lambda f: gen_envelope_model(f.cfg, rep=1.5), "rep"),
    ("model-stream-negative", lambda f: gen_envelope_model(f.cfg, stream=-1), "stream"),
    ("baseline-p-float", lambda f: gen_baseline("CS", 60, 8.5, 0.3), "p"),
    ("baseline-n-float", lambda f: gen_baseline("CS", 20.5, 8, 0.3), "n"),
    ("baseline-rep-bool", lambda f: gen_baseline("CS", 60, 8, 0.3, rep=True), "rep"),
    ("baseline-stream-float", lambda f: gen_baseline("AR1", 60, 8, 0.3, stream=0.5), "stream"),
    ("baseline-seed-negative", lambda f: gen_baseline("AR1", 60, 8, 0.3, seed=-3), "seed"),
    ("baseline-kind", lambda f: gen_baseline("XX", 60, 8, 0.3), "kind"),
    ("baseline-rho-string", lambda f: gen_baseline("CS", 60, 8, "0.3"), "rho"),
    # theory scalars
    ("limit-gamma-string", lambda f: LimitConfig("a", 1.0, 1.0), "gamma"),
    ("limit-gamma-bool", lambda f: LimitConfig(True, 1.0, 1.0), "gamma"),
    ("egreg-risk-lambda-string",
     lambda f: reducible_risk_egreg(f.svd, f.scores, f.truth, 3, "a"), "lambda"),
    ("limit-lambda-string", lambda f: limiting_risk_egreg(f.limit, "a"), "lambda"),
    ("limit-lambda-inf", lambda f: limiting_risk_egreg(f.limit, np.inf), "lambda"),
    ("stieltjes-z-string", lambda f: stieltjes_m("a", 1.0), "z"),
    ("stieltjes-gamma-inf", lambda f: stieltjes_m(-1.0, np.inf), "gamma"),
    ("stieltjes-prime-gamma-string", lambda f: stieltjes_m_prime(-1.0, "a"), "gamma"),
    ("mp-residual-z-string", lambda f: mp_residual("a", 1.0), "z"),
    # CV inputs, by the rules fits follow
    ("cv-data-array", lambda f: kfold_cv(np.zeros((10, 3)), "pcr", [{"d": 1}], k=2), "data"),
    ("cv-seed-negative", lambda f: kfold_cv(f.data, "pcr", [{"d": 1}], k=3, seed=-1), "seed"),
    ("cv-seed-float", lambda f: kfold_cv(f.data, "pcr", [{"d": 1}], k=3, seed=1.5), "seed"),
    ("cv-grid-string", lambda f: kfold_cv(f.data, "pcr", "abc", k=3), "param_grid"),
    ("cv-grid-entry-int", lambda f: kfold_cv(f.data, "pcr", [1], k=3), "param_grid"),
]


@pytest.mark.parametrize("call,named", [c[1:] for c in _BAD_INPUTS],
                         ids=[c[0] for c in _BAD_INPUTS])
def test_bad_count_scalar_or_array_raises_a_typed_error_naming_it(rule_inputs, call, named):
    # Counts, scalars and arrays go through matrixcore's _count, _integer,
    # _real and _real_array in every module: never a raw TypeError or
    # ValueError, a ComplexWarning, or a silent truncation or coercion.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EgregError) as err:
            call(rule_inputs)
    assert re.search(rf"(?<![\w-]){re.escape(named)}(?![\w-])", str(err.value)), err.value
