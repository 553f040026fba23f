"""Finite-sample prediction-risk machinery, conditional on the design.

Closed-form reducible risks (bias-variance split) for EgReg and NIECE when
the envelope scores are treated as given, the irreducible remainder shared
by every estimator living in the retained PC span, the regularization
threshold below which EgReg strictly beats NIECE, and the replication
average used by the simulation studies.

All quantities condition on X; no expectation over the design is attempted.
The score ranking is likewise held fixed: when validating against Monte
Carlo, freeze X and the scores and redraw only the noise.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .envscore import EnvelopeScores
from .estimators import _niece_filter, _shrink
from .exceptions import ContractError, DegeneracyWarning, DimensionError, ParameterError
from .matrixcore import SvdFactors, _as_matrix, _check_symmetric, _count, _real, _real_array


def _check_psd(name, w, S):
    """Raise unless the eigenvalues ``w`` (ascending) of ``S`` are >= 0.

    Steeply decaying spectra reconstruct with eigvalsh noise of order
    eps * ||S||, so "positive" is enforced only up to that.
    """
    if float(w[0]) < -1e-10 * max(1.0, float(np.max(np.abs(S)))):
        raise ContractError(f"{name} must be positive semidefinite")


def _root_product(root):
    """``root @ root.T``, symmetrized; ``diag(root**2)`` for a vector root."""
    if root.ndim == 1:
        return np.diag(root ** 2)
    S = root @ root.T
    S += S.T
    S *= 0.5
    return S


class TruthSpec:
    """Ground truth of the generating model: beta*, Sigma_x, Sigma_eps.

    ``Sigma_x_root`` is a p-by-k factor with ``root @ root.T == Sigma_x``
    (e.g. a Cholesky factor, or eigenvectors scaled by the square roots of
    the eigenvalues), or a length-p vector of finite values that stands for
    the diagonal factor ``diag(root)``, so ``Sigma_x == diag(root**2)`` (a
    design drawn in Sigma_x's eigenbasis).  Risks are sums of squares in the
    factor, so they stay nonnegative where ``Sigma_x`` has eigenvalues at
    rounding level.  Give ``Sigma_x``, its factor, or both:

    - ``TruthSpec(beta, None, Sigma_eps, root)`` defines ``Sigma_x`` as the
      symmetrized ``root @ root.T``, or ``np.diag(root**2)`` for a vector.
      It is formed on the first read of ``truth.Sigma_x``, so a truth that
      is only used for risks costs no p-by-p-by-p product, and a vector
      factor no p-by-p array at all.
    - When both are given, the factor must reproduce ``Sigma_x`` entrywise.
    - When the factor is omitted, it is computed from ``Sigma_x`` by
      ``eigh``, clipping the eigenvalues at 0.

    Instances are immutable.
    """

    __slots__ = ("beta_star", "Sigma_eps", "Sigma_x_root", "_Sigma_x")

    def __init__(self, beta_star, Sigma_x, Sigma_eps, Sigma_x_root=None):
        beta = _as_matrix(beta_star, "beta_star")
        Sx = None if Sigma_x is None else _as_matrix(Sigma_x, "Sigma_x")
        Se = _as_matrix(Sigma_eps, "Sigma_eps")
        p, q = beta.shape
        if Sx is not None and Sx.shape != (p, p):
            raise DimensionError(f"Sigma_x must be {p}x{p}, got {Sx.shape}")
        if Se.shape != (q, q):
            raise DimensionError(f"Sigma_eps must be {q}x{q}, got {Se.shape}")
        for name, S in (("Sigma_x", Sx), ("Sigma_eps", Se)):
            if S is not None:
                _check_symmetric(S, name, 1e-10)
        _check_psd("Sigma_eps", np.linalg.eigvalsh(Se), Se)
        root = Sigma_x_root
        if root is None:
            if Sx is None:
                raise ContractError("TruthSpec needs Sigma_x, Sigma_x_root or both")
            w, V = np.linalg.eigh(Sx)
            _check_psd("Sigma_x", w, Sx)
            root = V * np.sqrt(np.maximum(w, 0.0))
        else:
            # root @ root.T is positive semidefinite, so matching it in full
            # also checks Sigma_x.
            root = _real_array(root, "Sigma_x_root")
            if root.ndim == 1:
                if root.shape != (p,) or not np.all(np.isfinite(root)):
                    raise DimensionError(
                        f"a vector Sigma_x_root must hold {p} finite values, got {root.size} "
                        f"with {np.count_nonzero(~np.isfinite(root))} non-finite")
            else:
                root = _as_matrix(root, "Sigma_x_root")
                if root.shape[0] != p:
                    raise DimensionError(f"Sigma_x_root must have {p} rows, got {root.shape[0]}")
            if Sx is not None:
                err = float(np.max(np.abs(_root_product(root) - Sx)))
                if err > 1e-10 * max(1.0, float(np.max(np.abs(Sx)))):
                    raise ContractError(
                        "Sigma_x_root @ Sigma_x_root.T does not reproduce Sigma_x")
        for name, value in (("beta_star", beta), ("Sigma_eps", Se),
                            ("Sigma_x_root", root), ("_Sigma_x", Sx)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"TruthSpec is immutable; cannot set {name!r}")

    @property
    def Sigma_x(self) -> np.ndarray:
        """The p-by-p predictor covariance; from the factor on first read if not given."""
        if self._Sigma_x is None:
            object.__setattr__(self, "_Sigma_x", _root_product(self.Sigma_x_root))
        return self._Sigma_x

    @property
    def p(self) -> int:
        return self.beta_star.shape[0]

    @property
    def q(self) -> int:
        return self.beta_star.shape[1]


@dataclass(frozen=True)
class RiskReport:
    """Bias-variance split of the reducible risk, plus the irreducible part.

    ``reducible == bias_sq + variance`` by construction; the irreducible
    component depends only on the retained PC span, not on the estimator.
    """

    bias_sq: float
    variance: float
    reducible: float
    irreducible: float
    method: str

    def __post_init__(self):
        for name in ("bias_sq", "variance", "irreducible"):
            if getattr(self, name) < -1e-12:
                raise ContractError(f"{name} is negative: {getattr(self, name)}")
        if abs(self.reducible - (self.bias_sq + self.variance)) > 1e-10:
            raise ContractError("reducible must equal bias_sq + variance")


def _sigma_trace(M, truth: TruthSpec):
    """tr{M' Sigma_x M} over the last two axes of M, as ``||L' M||_F^2``
    with ``L = truth.Sigma_x_root``, so it is never negative.  A vector L
    scales M's rows: each entry of ``diag(L) M`` is one product, so this
    is bit-identical to the product with the dense diagonal (W is laid out
    in C order, as the product is, so the sum runs in the same order)."""
    L = truth.Sigma_x_root
    W = np.multiply(L[:, None], M, order="C") if L.ndim == 1 else L.T @ M
    return np.einsum("...kq,...kq->...", W, W)


def irreducible_risk(svd: SvdFactors, truth: TruthSpec, d: int) -> float:
    """Risk floor from the part of beta* outside the span of the first d PCs."""
    Vd = svd.V[:, :_count("d", d, svd.r, "r")]
    Qb = truth.beta_star - Vd @ (Vd.T @ truth.beta_star)
    return float(_sigma_trace(Qb, truth))


def _filter_report(svd: SvdFactors, truth: TruthSpec, f, miss, method) -> RiskReport:
    """Risk split of the filter ``f`` on the first d = ``f.size`` PCs against
    beta*'s projection on them.  ``miss`` is ``1 - f``, given in closed form
    so no near-equal projections are subtracted: the bias is
    ``-V_d diag(miss) V_d' beta*``."""
    d = f.size
    Vd = svd.V[:, :d]
    variance = float(np.trace(truth.Sigma_eps)) * float(_sigma_trace(Vd * (f / svd.D[:d]), truth))
    bias_sq = float(_sigma_trace(Vd @ (miss[:, None] * (Vd.T @ truth.beta_star)), truth))
    return RiskReport(bias_sq=bias_sq, variance=variance, reducible=bias_sq + variance,
                      irreducible=irreducible_risk(svd, truth, d), method=method)


def reducible_risk_egreg(
    svd: SvdFactors, scores: EnvelopeScores, truth: TruthSpec, d: int, lam: float
) -> RiskReport:
    """Exact reducible risk of EgReg, conditional on X and the scores.

    Variance: ``tr{Sigma_eps} * tr{V_d D_d^-2 Phi^2 (Phi+lam)^-2 V_d' Sigma_x}``.
    Bias: ``lam^2 * tr{beta*' A Sigma_x A beta*}`` with
    ``A = V_d (Phi+lam)^-1 V_d'``.  The target is the projection of beta*
    onto the retained span; the excluded part is reported separately as the
    irreducible component.

    ``lam`` must be positive and finite; the lambda -> 0 limit is
    :func:`reducible_risk_niece` with u = d.
    """
    if not _real("lambda", lam) > 0:
        raise ParameterError(
            f"lambda must be positive, got {lam}; for the lambda -> 0 limit use "
            "reducible_risk_niece with u = d"
        )
    phi = scores.phi[:_count("d", d, scores.d)]
    return _filter_report(svd, truth, _shrink(phi, lam), _shrink(lam, phi), "EgReg")


def reducible_risk_niece(
    svd: SvdFactors, scores: EnvelopeScores, truth: TruthSpec, u: int, d: int | None = None
) -> RiskReport:
    """Exact reducible risk of NIECE, conditional on X and the scores.

    Variance: ``tr{Sigma_eps} * tr{V_u D_u^-2 V_u' Sigma_x}`` over the u
    top-scoring PCs.  Bias: quadratic form of beta* in the projector
    difference between the retained u-span and the full d-span; with u = d
    the difference vanishes and the bias is exactly 0.
    """
    f = _niece_filter(scores, u, d)
    return _filter_report(svd, truth, f, 1.0 - f, "NIECE")


def lambda_guarantee_threshold(
    svd: SvdFactors, scores: EnvelopeScores, truth: TruthSpec, d: int
) -> float:
    """Largest lambda scale at which EgReg provably beats NIECE with u = d.

    Any lambda strictly below
    ``tr{Sigma_eps} / (sigma_1(beta* beta*') * sigma_1(Phi_d^-1 D_d^2))``
    yields a strictly smaller reducible risk than NIECE at u = d.  PCs with
    exactly zero score are excluded from the second factor (they carry no
    variance under EgReg) and flagged with a warning; a zero beta* makes the
    comparison trivial for every lambda, so the threshold degenerates to
    +inf, also with a warning.
    """
    if not np.any(truth.beta_star):
        warnings.warn(
            "beta_star is zero: any lambda > 0 improves on NIECE, threshold is +inf",
            DegeneracyWarning,
            stacklevel=2,
        )
        return math.inf
    phi = scores.phi[:_count("d", d, scores.d)]
    pos = phi > 0
    if not np.all(pos):
        warnings.warn(
            f"{int(np.count_nonzero(~pos))} zero-score direction(s) excluded "
            "from the lambda threshold",
            DegeneracyWarning,
            stacklevel=2,
        )
    if not np.any(pos):
        return math.inf
    ratio = float(np.max(svd.D[:phi.size][pos] ** 2 / phi[pos]))
    top_beta = float(np.linalg.norm(truth.beta_star, 2)) ** 2
    return float(np.trace(truth.Sigma_eps)) / (top_beta * ratio)


def empirical_risk_terms(beta_hats, truth: TruthSpec) -> np.ndarray:
    """Per-replication risks ``tr{(b - beta*)' Sigma_x (b - beta*)}``.

    Each is a sum of squares in ``truth.Sigma_x_root`` (:func:`_sigma_trace`),
    so it is never negative.
    """
    mats = list(beta_hats)
    if not mats:
        raise ParameterError("at least one replication is required")
    diffs = np.empty((len(mats), *truth.beta_star.shape))
    for i, b in enumerate(mats):
        b = _real_array(b, f"beta_hats[{i}]")
        if b.shape != truth.beta_star.shape:
            raise DimensionError(
                f"replication {i} has shape {b.shape}, expected {truth.beta_star.shape}"
            )
        diffs[i] = b - truth.beta_star
    return _sigma_trace(diffs, truth)
