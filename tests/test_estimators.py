"""Estimator tests: spectral solvers against normal-equation oracles, the
EgReg/NIECE identity at lambda = 0, SIMPLS against its least-squares limit,
and the prediction transform chain."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from egreg import (
    ContractError,
    Dataset,
    DimensionError,
    FittedModel,
    ParameterError,
    center_standardize,
    fit_method,
    predict,
    thin_svd,
)
from egreg.estimators import pcr_coefficients, ridge_coefficients


def _centered(seed, n, p, q=1, signal=True):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    X -= X.mean(axis=0)
    if signal:
        beta = rng.standard_normal((p, q))
        Y = X @ beta + 0.5 * rng.standard_normal((n, q))
    else:
        Y = rng.standard_normal((n, q))
    Y -= Y.mean(axis=0)
    return Dataset(X, Y, centered=True)


# ---------------------------------------------------------------------------
# ridge and PCR against direct solves
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,p", [(50, 10), (20, 20), (15, 40)])
def test_ridge_matches_normal_equations(n, p):
    data = _centered(seed=n + p, n=n, p=p, q=2)
    for lam in (0.1, 1.0, 10.0):
        model = fit_method(data, "ridge", {"lambda": lam})
        oracle = np.linalg.solve(
            data.X.T @ data.X + lam * np.eye(p), data.X.T @ data.Y
        )
        assert_allclose(model.beta, oracle, atol=1e-9)


def test_pcr_full_rank_equals_least_squares():
    data = _centered(seed=4, n=60, p=8)
    r = thin_svd(data.X).r
    model = fit_method(data, "pcr", {"d": r})
    ols = np.linalg.lstsq(data.X, data.Y, rcond=None)[0]
    assert_allclose(model.beta, ols, atol=1e-10)


# n > p, n = p and n < p; a centered design with n <= p has rank n - 1 < p.
_SHAPES = st.sampled_from([(30, 8), (16, 16), (12, 25)])


@settings(max_examples=30, deadline=None)
@given(shape=_SHAPES, q=st.integers(1, 2), seed=st.integers(0, 2**16))
def test_pcr_full_rank_is_the_minimum_norm_least_squares_fit(shape, q, seed):
    data = _centered(seed=seed, n=shape[0], p=shape[1], q=q)
    ols = np.linalg.lstsq(data.X, data.Y, rcond=None)[0]
    beta = fit_method(data, "pcr", {"d": thin_svd(data.X).r}).beta
    assert_allclose(beta, ols, rtol=1e-7, atol=1e-9 * np.abs(ols).max())


@settings(max_examples=30, deadline=None)
@given(shape=_SHAPES, q=st.integers(1, 2), seed=st.integers(0, 2**16))
def test_fits_are_invariant_to_rotating_the_predictors(shape, q, seed):
    # With X -> X Q for an orthogonal Q, every fit maps beta to Q' beta, so
    # the fitted values do not move.
    n, p = shape
    data = _centered(seed=seed, n=n, p=p, q=q)
    Q = np.linalg.qr(np.random.default_rng(seed + 1).standard_normal((p, p)))[0]
    rotated = Dataset(data.X @ Q, data.Y, centered=True)
    d = min(3, thin_svd(data.X).r)
    cases = [("pcr", {"d": d}), ("ridge", {"lambda": 1.0}), ("niece", {"u": d}),
             ("egreg", {"d": d + 1, "lambda": 0.5}), ("egreg", {"lambda": 0.5}),
             ("simpls", {"d": d})]
    for method, params in cases:
        beta = fit_method(data, method, params).beta
        turned = fit_method(rotated, method, params).beta
        assert_allclose(Q @ turned, beta, rtol=1e-7, atol=1e-9 * np.abs(beta).max())


def test_pcr_d_out_of_range():
    data = _centered(seed=5, n=30, p=6)
    with pytest.raises(ParameterError, match="d must satisfy"):
        fit_method(data, "pcr", {"d": 7})
    with pytest.raises(ParameterError):
        fit_method(data, "pcr", {"d": 0})
    # The builder itself reports a bad dimension; fit_method turns it into a bad parameter.
    with pytest.raises(DimensionError, match="d must satisfy"):
        pcr_coefficients(thin_svd(data.X), data.Y, 7)


def test_ridge_lambda_is_on_the_unscaled_gram_scale():
    # Ridge penalizes ||Y - Xb||^2, not ||Y - Xb||^2 / n, so its lambda is on
    # the X'X scale: a fit at n * lam_star is the ridge at lam_star on the
    # X'X/n scale of `egreg theory`'s lambda_star.
    data = _centered(seed=40, n=40, p=60, q=2)
    n, lam_star = data.n, 0.7
    oracle = np.linalg.solve(data.X.T @ data.X / n + lam_star * np.eye(data.p),
                             data.X.T @ data.Y / n)
    assert_allclose(ridge_coefficients(thin_svd(data.X), data.Y, n * lam_star), oracle,
                    rtol=1e-10)


def test_ridge_rejects_nonpositive_lambda():
    data = _centered(seed=6, n=30, p=6)
    with pytest.raises(ParameterError):
        fit_method(data, "ridge", {"lambda": 0.0})


def test_ridge_rejects_infinite_lambda():
    data = _centered(seed=6, n=30, p=6)
    with pytest.raises(ParameterError):
        fit_method(data, "ridge", {"lambda": float("inf")})


# ---------------------------------------------------------------------------
# NIECE / EgReg
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,p", [(40, 12), (25, 25), (12, 30)])
def test_egreg_lambda_zero_equals_niece(n, p):
    data = _centered(seed=n * 3 + p, n=n, p=p, q=2)
    d = thin_svd(data.X).r
    egreg = fit_method(data, "egreg", {"d": d, "lambda": 0.0})
    niece = fit_method(data, "niece", {"u": d, "d": d})
    assert_allclose(egreg.beta, niece.beta, atol=1e-12)


def test_egreg_matches_reduced_ridge_solve():
    # Independent route: ridge of Y on the reduced predictors X Gamma_hat
    # via the normal equations, then mapped back through Gamma_hat.
    data = _centered(seed=7, n=45, p=9, q=2)
    for lam in (0.1, 1.0, 10.0):
        model = fit_method(data, "egreg", {"d": 6, "lambda": lam})
        G = model.gamma_hat
        XG = data.X @ G
        eta = np.linalg.solve(XG.T @ XG + lam * np.eye(G.shape[1]),
                              XG.T @ data.Y)
        assert_allclose(model.beta, G @ eta, atol=1e-9)


def test_egreg_shrinks_toward_zero_in_lambda():
    data = _centered(seed=8, n=50, p=10)
    norms = []
    for lam in (0.0, 0.5, 5.0, 50.0, 5e3):
        beta = fit_method(data, "egreg", {"d": 8, "lambda": lam}).beta
        norms.append(float(np.linalg.norm(beta)))
    assert np.all(np.diff(norms) < 0)
    assert norms[-1] < 1e-2 * norms[0]


def test_egreg_zero_response_flags_zero_scores():
    n, p = 20, 5
    rng = np.random.default_rng(9)
    X = rng.standard_normal((n, p))
    X -= X.mean(axis=0)
    data = Dataset(X, np.zeros((n, 1)), centered=True)
    model = fit_method(data, "egreg", {"d": 4, "lambda": 0.0})
    assert_allclose(model.beta, 0.0)
    assert sorted(model.flags["zero_score_directions"]) == [0, 1, 2, 3]


def test_egreg_default_d_is_full_rank():
    data = _centered(seed=10, n=30, p=8)
    model = fit_method(data, "egreg", {"lambda": 1.0})
    assert model.d == thin_svd(data.X).r


def test_egreg_rejects_negative_lambda():
    data = _centered(seed=11, n=30, p=8)
    with pytest.raises(ParameterError):
        fit_method(data, "egreg", {"d": 4, "lambda": -0.5})


def test_egreg_rejects_nan_lambda():
    data = _centered(seed=11, n=30, p=8)
    with pytest.raises(ParameterError):
        fit_method(data, "egreg", {"lambda": float("nan")})


def test_niece_equals_pcr_when_rankings_agree():
    # Response loads on the top-variance PCs, so score order == variance
    # order and NIECE(u) == PCR(u).
    rng = np.random.default_rng(12)
    n, p = 80, 6
    U = np.linalg.qr(rng.standard_normal((n, p)))[0]
    X = U * np.linspace(20.0, 2.0, p)
    X -= X.mean(axis=0)
    svd = thin_svd(X)
    Y = X @ (svd.V[:, 0] + 0.5 * svd.V[:, 1])[:, None]
    Y -= Y.mean(axis=0)
    data = Dataset(X, Y, centered=True)
    for u in (1, 2):
        assert_allclose(fit_method(data, "niece", {"u": u}).beta,
                        fit_method(data, "pcr", {"d": u}).beta, atol=1e-10)


def test_niece_default_pool_is_full_rank():
    data = _centered(seed=13, n=40, p=10)
    a = fit_method(data, "niece", {"u": 3})
    b = fit_method(data, "niece", {"u": 3, "d": thin_svd(data.X).r})
    assert_allclose(a.beta, b.beta)


def test_niece_unsquared_singular_values():
    # One selected PC: beta = v (u' Y) / sigma, i.e. the singular value
    # enters linearly, not squared.
    data = _centered(seed=14, n=30, p=5)
    svd = thin_svd(data.X)
    model = fit_method(data, "niece", {"u": 1})
    from egreg import envelope_scores

    scores = envelope_scores(svd, data.X.T @ data.Y / data.n, svd.r)
    j = scores.order[0]
    manual = svd.V[:, [j]] @ (svd.U[:, [j]].T @ data.Y) / svd.D[j]
    assert_allclose(model.beta, manual, atol=1e-12)


# ---------------------------------------------------------------------------
# SIMPLS
# ---------------------------------------------------------------------------

def test_simpls_first_weight_is_cross_covariance_direction():
    data = _centered(seed=15, n=50, p=7)
    model = fit_method(data, "simpls", {"d": 1})
    s = data.X.T @ data.Y
    # one-component coefficients are proportional to X'Y
    cos = float(
        (model.beta[:, 0] @ s[:, 0])
        / (np.linalg.norm(model.beta) * np.linalg.norm(s))
    )
    assert cos > 1.0 - 1e-10


def test_simpls_full_components_equal_least_squares():
    data = _centered(seed=16, n=60, p=6)
    model = fit_method(data, "simpls", {"d": 6})
    ols = np.linalg.lstsq(data.X, data.Y, rcond=None)[0]
    assert model.flags["achieved_components"] == 6
    assert_allclose(model.beta, ols, atol=1e-8)


def test_simpls_multiresponse_runs_and_shapes():
    data = _centered(seed=17, n=40, p=9, q=3)
    model = fit_method(data, "simpls", {"d": 4})
    assert model.beta.shape == (9, 3)
    assert model.flags["achieved_components"] == 4


def test_simpls_zero_response_stops_early():
    rng = np.random.default_rng(18)
    X = rng.standard_normal((20, 5))
    X -= X.mean(axis=0)
    data = Dataset(X, np.zeros((20, 1)), centered=True)
    model = fit_method(data, "simpls", {"d": 3})
    assert model.flags["achieved_components"] == 0
    assert model.flags["early_stop"] is True
    assert_allclose(model.beta, 0.0)


def test_simpls_scores_are_orthonormal():
    from egreg.estimators import _simpls_lockstep

    data = _centered(seed=19, n=50, p=8, q=2)
    steps = _simpls_lockstep(data.X, data.Y[None], np.ones((1, data.n)), 5)
    T = np.array([t[0] for _, _, t, _ in steps]).T
    assert_allclose(T.T @ T, np.eye(T.shape[1]), atol=1e-8)


def test_simpls_d_out_of_range():
    data = _centered(seed=20, n=30, p=5)
    with pytest.raises(ParameterError, match="d must satisfy"):
        fit_method(data, "simpls", {"d": 6})


def test_fit_simpls_reads_the_rank_without_thin_svd(monkeypatch):
    from egreg import estimators

    def no_thin_svd(*args, **kwargs):
        raise AssertionError("the SIMPLS fit called thin_svd")

    monkeypatch.setattr(estimators, "thin_svd", no_thin_svd)
    data = _centered(seed=20, n=30, p=5)
    assert fit_method(data, "simpls", {"d": 5}).flags["achieved_components"] == 5
    with pytest.raises(ParameterError, match=r"r = 5, got 6"):
        fit_method(data, "simpls", {"d": 6})
    wide = _centered(seed=21, n=8, p=12)     # centered rows: rank n - 1 = 7
    with pytest.raises(ParameterError, match=r"r = 7, got 8"):
        fit_method(wide, "simpls", {"d": 8})


# ---------------------------------------------------------------------------
# dispatch, prediction, model object
# ---------------------------------------------------------------------------

def test_fit_method_dispatch_and_missing_params():
    data = _centered(seed=21, n=30, p=6)
    m = fit_method(data, "Ridge", {"lambda": 2.0})
    assert m.method == "Ridge"
    assert_allclose(m.beta, ridge_coefficients(thin_svd(data.X), data.Y, 2.0))
    with pytest.raises(ParameterError, match="lambda"):
        fit_method(data, "egreg", {"d": 3})
    with pytest.raises(ParameterError, match="lambda"):       # a key PCR does not use
        fit_method(data, "pcr", {"d": 2, "lambda": 1.0})
    with pytest.raises(ParameterError):
        fit_method(data, "huber", {})
    # Above the rank, fit_method reports a bad parameter; the builder a bad dimension.
    with pytest.raises(DimensionError, match="d must satisfy"):
        pcr_coefficients(thin_svd(data.X), data.Y, 99)
    with pytest.raises(ParameterError, match="d must satisfy"):
        fit_method(data, "pcr", {"d": 99})
    with pytest.raises(ParameterError, match="u must satisfy"):
        fit_method(data, "niece", {"u": 9})


def test_fit_requires_centered_dataset():
    rng = np.random.default_rng(22)
    raw = Dataset(5 + rng.standard_normal((25, 4)), rng.standard_normal(25))
    with pytest.raises(ContractError):
        fit_method(raw, "pcr", {"d": 2})


def test_predict_reproduces_fitted_values():
    raw = Dataset(
        np.random.default_rng(23).normal(3.0, 2.0, (40, 5)),
        np.random.default_rng(24).normal(-1.0, 1.0, (40, 2)),
    )
    data = center_standardize(raw)
    model = fit_method(data, "ridge", {"lambda": 1.0})
    fitted = data.X @ model.beta + data.transform.y_mean
    assert_allclose(predict(model, raw.X), fitted, atol=1e-10)


def test_predict_standardized_chain_round_trip():
    rng = np.random.default_rng(25)
    raw = Dataset(10 + 4 * rng.standard_normal((50, 6)),
                  rng.standard_normal((50, 1)))
    data = center_standardize(raw, mode="standardize")
    model = fit_method(data, "egreg", {"d": 4, "lambda": 0.7})
    tr = data.transform
    manual = (raw.X - tr.x_mean) / tr.x_scale @ model.beta
    manual = manual * tr.y_scale + tr.y_mean
    assert_allclose(predict(model, raw.X), manual, atol=1e-12)


@pytest.mark.parametrize("transform", [True, False], ids=["transform", "no-transform"])
def test_predict_is_bit_identical_across_input_layouts(transform):
    # BLAS rounds X @ beta by X's layout; predict takes the product on one
    # layout, so a row-major and a column-major copy of the same rows agree
    # in every bit (the CLI hands it either, by command and model names).
    rng = np.random.default_rng(28)
    raw = Dataset(3.0 + rng.standard_normal((500, 40)), rng.standard_normal((500, 2)))
    data = center_standardize(raw) if transform else _centered(seed=28, n=500, p=40, q=2)
    model = fit_method(data, "ridge", {"lambda": 0.5})
    assert (model.transform is not None) == transform
    assert np.array_equal(predict(model, np.ascontiguousarray(raw.X)),
                          predict(model, np.asfortranarray(raw.X)))


@pytest.mark.parametrize("bad,why", [
    ([["a", 1.0, 2.0]], "string"),
    ([[None, "x", 2.0]], "string"),
    ([[1.0, 2.0, 3.0], [4.0, 5.0]], "inhomogeneous"),
    ([[1.0, [2.0], 3.0]], "sequence"),
    ([[1.0 + 2.0j, 1.0, 2.0]], "complex"),
    (np.ones((2, 3), complex), "complex"),
    (np.array([[1.0, 1j, None]], dtype=object), "complex"),
], ids=["string", "string-and-none", "ragged", "nested-cell", "complex-list",
        "complex-array", "complex-object"])
@pytest.mark.parametrize("name", ["X", "Y", "Xnew"])
def test_bad_array_input_raises_contract_error_naming_the_array(bad, why, name):
    # Each bad input fails coercion to a real float array, as Dataset's X or
    # Y or as predict's Xnew; the error is typed and names the array, and
    # complex values are never silently truncated.
    model = fit_method(_centered(seed=27, n=20, p=3), "pcr", {"d": 2})
    call = {"X": lambda: Dataset(bad, np.ones((len(bad), 1))),
            "Y": lambda: Dataset(np.ones((len(bad), 2)), bad),
            "Xnew": lambda: predict(model, bad)}[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")    # no ComplexWarning either
        with pytest.raises(ContractError, match=rf"^{name} must be an array of real numbers") \
                as err:
            call()
    assert why in str(err.value)


def test_predict_single_row_and_dim_check():
    data = _centered(seed=26, n=30, p=4)
    model = fit_method(data, "pcr", {"d": 2})
    row = predict(model, np.zeros(4))
    assert row.shape == (1, 1)
    with pytest.raises(DimensionError):
        predict(model, np.zeros((3, 5)))


@pytest.mark.parametrize("model", ["model", None, {"beta": [[1.0]]}],
                         ids=["string", "none", "dict"])
def test_predict_rejects_a_model_that_is_not_a_fitted_model(model):
    # Without the check these raised a raw AttributeError on model.beta.
    with pytest.raises(ContractError, match=r"^model must be a FittedModel"):
        predict(model, np.zeros((2, 1)))


def test_fitted_model_rejects_nonfinite_beta():
    with pytest.raises(ContractError):
        FittedModel(beta=np.array([[np.nan]]), method="PCR")


def test_fitted_model_params_view():
    data = _centered(seed=27, n=30, p=5)
    model = fit_method(data, "egreg", {"d": 3, "lambda": 0.5})
    assert model.params == {"d": 3, "lambda": 0.5}
