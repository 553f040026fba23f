"""Tests for the Marchenko-Pastur Stieltjes transform and the limiting risk
formulas.

Frozen reference values come from the closed form
``m(z) = 2 / (1 - gamma - z + sqrt((1 - gamma - z)^2 - 4 gamma z))``
evaluated by hand:

    m(-1, gamma=1)   = (sqrt(5) - 1) / 2       = 0.6180339887498949
    m(-1, gamma=0.5) = 2 / (1.5 + sqrt(4.25))  = 0.5615528128088303
    m(-2, gamma=2)   = 2 / (1 + sqrt(17))      = 0.39038820320220756
    m(-0.5, 0.5)     = 2 / (1 + sqrt(2))       = 0.8284271247461903
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from egreg import (
    DomainError,
    LimitConfig,
    ParameterError,
    SingularityError,
    limiting_risk_egreg,
    limiting_risk_niece,
    mp_residual,
    optimal_lambda,
    risk_curve,
    stieltjes_m,
    stieltjes_m_prime,
)

GRID = [(g, z) for g in (0.5, 1.0, 2.0) for z in (-0.1, -1.0, -10.0)]


def test_stieltjes_frozen_values():
    assert_allclose(stieltjes_m(-1.0, 1.0), (math.sqrt(5) - 1) / 2, rtol=1e-15)
    assert_allclose(stieltjes_m(-1.0, 0.5), 0.5615528128088303, rtol=1e-15)
    assert_allclose(stieltjes_m(-2.0, 2.0), 0.39038820320220756, rtol=1e-15)
    assert_allclose(stieltjes_m(-0.5, 0.5), 0.8284271247461903, rtol=1e-15)


@pytest.mark.parametrize("gamma,z", GRID)
def test_mp_self_consistency(gamma, z):
    assert abs(mp_residual(z, gamma)) < 1e-12


@pytest.mark.parametrize("gamma,z", GRID)
def test_m_prime_against_central_differences(gamma, z):
    h = 1e-6 * abs(z)
    fd = (stieltjes_m(z + h, gamma) - stieltjes_m(z - h, gamma)) / (2 * h)
    assert_allclose(stieltjes_m_prime(z, gamma), fd, rtol=1e-6)


def test_m_prime_is_positive():
    for gamma, z in GRID:
        assert stieltjes_m_prime(z, gamma) > 0


def test_stieltjes_small_gamma_limit():
    # gamma -> 0 collapses the spectrum to a point mass at 1: m(z) -> 1/(1-z)
    assert_allclose(stieltjes_m(-1.0, 1e-9), 0.5, rtol=1e-8)


def test_stieltjes_large_penalty_decay():
    assert_allclose(stieltjes_m(-1e8, 0.5), 1e-8, rtol=1e-6)


def test_stieltjes_domain_errors():
    with pytest.raises(DomainError):
        stieltjes_m(0.0, 0.5)
    with pytest.raises(DomainError):
        stieltjes_m(1.0, 0.5)
    with pytest.raises(DomainError):
        stieltjes_m(-1.0, 0.0)
    with pytest.raises(DomainError):
        stieltjes_m_prime(-1.0, -2.0)


def test_trace_matches_stieltjes_moderate_dimension():
    # (1/u) tr{(S + I)^-1} for a u x n/gamma Wishart converges to m(-1).
    rng = np.random.default_rng(42)
    u, n = 600, 1200
    Z = rng.standard_normal((n, u))
    S = Z.T @ Z / n
    trace = float(np.trace(np.linalg.inv(S + np.eye(u)))) / u
    assert abs(trace / stieltjes_m(-1.0, 0.5) - 1.0) < 0.02


# ---------------------------------------------------------------------------
# limiting risks
# ---------------------------------------------------------------------------

def _cfg(gamma, c_sq=10.0, tr=10.0):
    return LimitConfig(gamma=gamma, c_sq=c_sq, tr_sigma_eps=tr)


def test_niece_limit_closed_forms():
    assert limiting_risk_niece(_cfg(0.5)) == pytest.approx(10.0, abs=1e-12)
    assert limiting_risk_niece(_cfg(2.0)) == pytest.approx(15.0, abs=1e-12)
    # underparameterized: tr * gamma / (1 - gamma)
    assert_allclose(limiting_risk_niece(_cfg(0.25)), 10 * 0.25 / 0.75, rtol=1e-14)


def test_niece_limit_singular_at_interpolation():
    with pytest.raises(SingularityError):
        limiting_risk_niece(_cfg(1.0))
    with pytest.raises(SingularityError):
        limiting_risk_niece(_cfg(1.0 + 1e-10))
    assert np.isfinite(limiting_risk_niece(_cfg(1.0 + 1e-6)))


def test_egreg_limit_at_optimal_lambda_frozen_value():
    cfg = _cfg(0.5)
    lam = optimal_lambda(cfg)
    assert lam == pytest.approx(0.5, abs=1e-15)
    # tr * gamma * m(-lambda*) = 5 * 2(sqrt(2)-1)
    assert_allclose(limiting_risk_egreg(cfg, lam), 10 * (math.sqrt(2) - 1),
                    rtol=1e-14)


def test_egreg_limit_reduces_to_niece_as_lambda_vanishes():
    cfg = _cfg(0.5)
    assert_allclose(limiting_risk_egreg(cfg, 1e-8),
                    limiting_risk_niece(cfg), rtol=1e-6)


def test_egreg_limit_saturates_at_signal_energy():
    cfg = _cfg(0.5, c_sq=7.0)
    assert_allclose(limiting_risk_egreg(cfg, 1e9), 7.0, rtol=1e-6)


def test_egreg_limit_requires_positive_lambda():
    with pytest.raises(DomainError):
        limiting_risk_egreg(_cfg(0.5), 0.0)


def test_optimal_lambda_is_a_minimum():
    for gamma in (0.3, 0.9, 1.0, 1.5, 4.0):
        cfg = _cfg(gamma, c_sq=6.0, tr=8.0)
        lam = optimal_lambda(cfg)
        best = limiting_risk_egreg(cfg, lam)
        assert best < limiting_risk_egreg(cfg, lam * 0.5)
        assert best < limiting_risk_egreg(cfg, lam * 2.0)


def test_egreg_limit_finite_at_gamma_one():
    # unlike NIECE, the regularized limit has no pole at gamma = 1
    assert np.isfinite(limiting_risk_egreg(_cfg(1.0), optimal_lambda(_cfg(1.0))))


def test_limit_config_validation():
    with pytest.raises(ParameterError):
        LimitConfig(gamma=0.0, c_sq=1.0, tr_sigma_eps=1.0)
    with pytest.raises(ParameterError):
        LimitConfig(gamma=1.0, c_sq=-1.0, tr_sigma_eps=1.0)


# ---------------------------------------------------------------------------
# risk_curve
# ---------------------------------------------------------------------------

def test_risk_curve_columns_and_nan_band():
    grid = np.array([0.5, 1.0, 2.0])
    curve = risk_curve(_cfg(0.5), grid)
    assert_allclose(curve.lambda_star, [0.5, 1.0, 2.0], rtol=1e-15)
    assert curve.niece_risk[0] == pytest.approx(10.0)
    assert math.isnan(curve.niece_risk[1])
    assert curve.niece_risk[2] == pytest.approx(15.0)
    assert np.all(np.isfinite(curve.egreg_risk_at_opt))


def test_risk_curve_dominance_off_band():
    grid = np.linspace(0.05, 5.0, 120)
    grid = grid[np.abs(grid - 1.0) > 1e-3]
    curve = risk_curve(_cfg(0.5), grid)
    assert np.all(curve.egreg_risk_at_opt < curve.niece_risk)


def test_risk_curve_rejects_bad_grid():
    with pytest.raises(ParameterError):
        risk_curve(_cfg(0.5), np.array([2.0, 1.0]))
    with pytest.raises(ParameterError):
        risk_curve(_cfg(0.5), np.array([-1.0, 1.0]))
    for grid in ([0.5, np.inf], [np.nan, 1.0], [0.5, 2.0, np.nan]):
        with pytest.raises(ParameterError, match="finite"):
            risk_curve(_cfg(0.5), np.array(grid))


def test_risk_curve_names_the_first_gamma_whose_risk_overflows():
    # lambda* = 10 gamma / 10 overflows at 5e307; at 1e200 only the risk does.
    with pytest.raises(DomainError, match=r"gamma = 1e\+200"):
        risk_curve(_cfg(0.5), np.array([0.5, 1.0, 1e200, 5e307]))
    with pytest.raises(DomainError, match=r"gamma = 5e\+307"):
        risk_curve(_cfg(0.5), np.array([0.5, 5e307]))
