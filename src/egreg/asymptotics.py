"""Limiting prediction risks under proportional asymptotics.

The regime: isotropic scores and spectrum on the material subspace, with the
material dimension and sample size growing together, ``u*/n -> gamma``.  The
NIECE limit has closed branches on either side of gamma = 1 and diverges at
the interpolation threshold; the EgReg limit is finite for every gamma and is
expressed through the Stieltjes transform m(z) of the Marchenko-Pastur law
evaluated on the negative real axis.

Lambda convention: here lambda lives on the scale of the spectrum of
X'X/n.  :mod:`egreg.estimators` and ``egreg fit --lambda`` penalize
``||Y - Xb||^2`` unscaled by n, so their ridge lambda is on the scale of X'X:
ridge on the known material basis X Gamma fits the limit's lambda* with
``lambda = n * lambda*``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, ParameterError, SingularityError
from .matrixcore import _real, _real_array

#: Half-width of the exclusion band around gamma = 1 for the NIECE limit.
GAMMA_ONE_BAND = 1e-9


@dataclass(frozen=True)
class LimitConfig:
    """Parameters of the limit: aspect ratio, signal energy, noise trace.

    ``gamma`` is the limiting ratio of material dimension to sample size;
    ``c_sq`` the squared signal size ``tr{Gamma' beta* beta*' Gamma}``;
    ``tr_sigma_eps`` the noise trace.
    """

    gamma: float
    c_sq: float
    tr_sigma_eps: float

    def __post_init__(self):
        for name in ("gamma", "c_sq", "tr_sigma_eps"):
            if not _real(name, getattr(self, name)) > 0:
                raise ParameterError(f"{name} must be strictly positive")


@dataclass(frozen=True)
class RiskCurve:
    """Limiting risks along a gamma grid (NIECE is NaN in the gamma=1 band)."""

    gamma_grid: np.ndarray
    niece_risk: np.ndarray
    egreg_risk_at_opt: np.ndarray
    lambda_star: np.ndarray


def _check_domain(z, gamma):
    """``z`` and ``gamma`` as floats, finite and with z < 0 < gamma, else :class:`DomainError`."""
    z, gamma = _real("z", z, DomainError), _real("gamma", gamma, DomainError)
    if not z < 0:
        raise DomainError(f"z must be negative, got {z}")
    if not gamma > 0:
        raise DomainError(f"gamma must be positive, got {gamma}")
    return z, gamma


def _sqrt_disc(z, gamma):
    a = 1.0 - gamma - z
    disc = a * a - 4.0 * gamma * z
    if disc < 0.0:
        # Cannot happen for z < 0; tolerate floating noise at the bulk edge.
        if disc < -1e-14:
            raise DomainError(f"negative discriminant {disc} at z={z}, gamma={gamma}")
        disc = 0.0
    return a, math.sqrt(disc)


def stieltjes_m(z: float, gamma: float) -> float:
    """Marchenko-Pastur Stieltjes transform m(z) on the negative real axis.

    Principal-root branch of ``gamma z m^2 + (z + gamma - 1) m + 1 = 0``,
    evaluated in the cancellation-free form ``2 / (1 - gamma - z + sqrt(disc))``
    with ``disc = (1 - gamma - z)^2 - 4 gamma z``.  Positive for every z < 0.
    """
    z, gamma = _check_domain(z, gamma)
    a, s = _sqrt_disc(z, gamma)
    return 2.0 / (a + s)


def stieltjes_m_prime(z: float, gamma: float) -> float:
    """Analytic derivative m'(z), from differentiating the fixed-point relation.

    Implicit differentiation gives ``m' = m (gamma m + 1) / sqrt(disc)``;
    strictly positive for z < 0 (m is increasing toward the bulk).
    """
    z, gamma = _check_domain(z, gamma)
    a, s = _sqrt_disc(z, gamma)
    m = 2.0 / (a + s)
    return m * (gamma * m + 1.0) / s


def mp_residual(z: float, gamma: float) -> float:
    """Self-consistency residual ``gamma z m^2 + (z + gamma - 1) m + 1``.

    A direct numerical check that the closed form solves its defining
    quadratic; useful as a test oracle and for debugging branch choices.
    """
    m = stieltjes_m(z, gamma)
    return gamma * z * m * m + (z + gamma - 1.0) * m + 1.0


def limiting_risk_niece(cfg: LimitConfig) -> float:
    """Limiting NIECE prediction risk; diverges at gamma = 1.

    ``tr{Sigma_eps} * gamma / (1 - gamma)`` for gamma < 1 (pure variance),
    ``c^2 (1 - 1/gamma) + tr{Sigma_eps} / (gamma - 1)`` for gamma > 1
    (interpolation bias plus variance).
    """
    g = cfg.gamma
    if abs(g - 1.0) <= GAMMA_ONE_BAND:
        raise SingularityError(
            "limiting NIECE risk diverges as the aspect ratio approaches 1"
        )
    if g < 1.0:
        return cfg.tr_sigma_eps * g / (1.0 - g)
    return cfg.c_sq * (1.0 - 1.0 / g) + cfg.tr_sigma_eps / (g - 1.0)


def limiting_risk_egreg(cfg: LimitConfig, lam: float) -> float:
    """Limiting EgReg risk ``c^2 lam^2 m'(-lam) + tr{Sigma_eps} gamma (m(-lam) - lam m'(-lam))``.

    Finite for every gamma > 0, including the interpolation threshold.
    """
    if not _real("lambda", lam) > 0:
        raise DomainError(f"lambda must be positive, got {lam}")
    m = stieltjes_m(-lam, cfg.gamma)
    mp = stieltjes_m_prime(-lam, cfg.gamma)
    return cfg.c_sq * lam**2 * mp + cfg.tr_sigma_eps * cfg.gamma * (m - lam * mp)


def optimal_lambda(cfg: LimitConfig) -> float:
    """Risk-minimizing penalty ``lambda* = tr{Sigma_eps} gamma / c^2``.

    At lambda* the EgReg limit simplifies to
    ``tr{Sigma_eps} gamma m(-lambda*)``, which lies strictly below the NIECE
    limit for every gamma.
    """
    return cfg.tr_sigma_eps * cfg.gamma / cfg.c_sq


def risk_curve(cfg_base: LimitConfig, gamma_grid) -> RiskCurve:
    """Evaluate both limits along a gamma grid (NIECE NaN in the gamma=1 band).

    ``cfg_base`` supplies c^2 and tr{Sigma_eps}; its gamma is ignored in
    favor of the grid values.  ``lambda_star`` is on the X'X/n scale (a
    ridge fit with n samples takes ``n * lambda_star``).  The grid must be
    finite, positive and strictly ascending.  A gamma whose lambda* or EgReg
    risk overflows the float range raises ``DomainError`` naming it.
    """
    grid = _real_array(gamma_grid, "gamma_grid")
    if grid.ndim != 1 or grid.size == 0:
        raise ParameterError("gamma_grid must be a non-empty 1-D array")
    if not np.all(np.isfinite(grid)) or np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
        raise ParameterError("gamma_grid must be finite, positive and strictly ascending")
    niece = np.empty(grid.size)
    egreg = np.empty(grid.size)
    lam_star = np.empty(grid.size)
    for i, g in enumerate(grid):
        cfg = LimitConfig(gamma=float(g), c_sq=cfg_base.c_sq, tr_sigma_eps=cfg_base.tr_sigma_eps)
        lam_star[i] = optimal_lambda(cfg)
        # An overflow is reported once, as the DomainError below, not as warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            egreg[i] = limiting_risk_egreg(cfg, lam_star[i]) if math.isfinite(lam_star[i]) \
                else math.inf
        if not (math.isfinite(lam_star[i]) and math.isfinite(egreg[i])):
            raise DomainError(f"the limiting EgReg risk or lambda* is not finite at gamma = {g}")
        if abs(g - 1.0) <= GAMMA_ONE_BAND:
            niece[i] = math.nan
        else:
            niece[i] = limiting_risk_niece(cfg)
    return RiskCurve(
        gamma_grid=grid, niece_risk=niece, egreg_risk_at_opt=egreg, lambda_star=lam_star
    )
