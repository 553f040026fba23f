"""The five regression estimators -- PCR, ridge, NIECE, EgReg, SIMPLS -- and
prediction.

Every solver routes through the thin SVD of the centered design (never the
normal equations), so all methods behave identically whether n < p, n = p,
or n > p.  PCR, ridge, NIECE and EgReg are one diagonal filter on that SVD
(:func:`_filtered`), which the exact risks and CV use too.  The
``*_coefficients`` functions are the raw building blocks operating on
precomputed factors; the ``fit_*`` wrappers validate a centered
:class:`Dataset`, attach the ingestion transform, and return a
:class:`FittedModel`.  Fits and CV grids share one parameter rule, :data:`_PARAMS`.

Penalty convention: ridge and EgReg minimize ``||Y - X b||_F^2 + lambda * pen``
with the penalty unscaled by n.  The asymptotic risk formulas in
:mod:`egreg.asymptotics` use the n-scaled convention instead; both modules
document and test their own convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .envscore import EnvelopeScores, envelope_scores, top_ranked
from .exceptions import ContractError, DimensionError, ParameterError
from .matrixcore import (Dataset, SvdFactors, Transform, _check_finite_rows, cross_cov,
                         numerical_rank, thin_svd)

#: Deflation tolerance for the SIMPLS early-stop test.
SIMPLS_TOL = 1e-12

METHODS = ("PCR", "Ridge", "NIECE", "EgReg", "SIMPLS")

#: Per method: the parameter a fit or CV grid entry needs, the ones it may
#: add, and whether lambda must be > 0 (ridge) or >= 0 (EgReg; 0 is NIECE
#: with u = d).  d and u are integers >= 1, and lambda is finite.
_PARAMS = {
    "pcr": ("d", (), None),
    "ridge": ("lambda", (), True),
    "niece": ("u", ("d",), None),
    "egreg": ("lambda", ("d",), False),
    "simpls": ("d", (), None),
}


@dataclass(frozen=True)
class FittedModel:
    """Coefficient matrix plus the method tag and tuning parameters.

    ``gamma_hat`` (the p-by-d reduction matrix) is populated for EgReg only.
    ``transform`` carries the centering/standardization fitted at ingestion
    so :func:`predict` can accept new data in original units.  ``flags``
    records degeneracies (zero-score directions at lambda = 0, SIMPLS early
    stops).
    """

    beta: np.ndarray
    method: str
    d: int | None = None
    u: int | None = None
    lam: float | None = None
    gamma_hat: np.ndarray | None = None
    transform: Transform | None = None
    flags: dict = field(default_factory=dict)

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        if beta.ndim != 2:
            raise DimensionError("beta must be a p-by-q matrix")
        if not np.all(np.isfinite(beta)):
            raise ContractError("fitted coefficients contain non-finite entries")
        object.__setattr__(self, "beta", beta)
        if self.method not in METHODS:
            raise ParameterError(f"unknown method tag {self.method!r}")

    @property
    def params(self) -> dict:
        out = {}
        if self.d is not None:
            out["d"] = int(self.d)
        if self.u is not None:
            out["u"] = int(self.u)
        if self.lam is not None:
            out["lambda"] = float(self.lam)
        return out


def _require_centered(data: Dataset):
    if not isinstance(data, Dataset):
        raise ContractError("expected a Dataset")
    if not data.centered:
        raise ContractError(
            "estimators require centered data; run center_standardize first"
        )


def _integer(name, v, low=None, error=ParameterError):
    """``v`` as an int: an integer or integral float (a JSON config may write an
    integer as ``100.0``), >= low if given.  Anything else, bools included, raises
    ``error``."""
    whole = isinstance(v, (int, np.integer)) or isinstance(v, float) and v.is_integer()
    if isinstance(v, bool) or not whole or low is not None and v < low:
        raise error(f"{name} must be an integer{'' if low is None else f' >= {low}'}, got {v!r}")
    return int(v)


def _real(name, v, error=ParameterError):
    """``v`` as a finite float; anything else, bools and strings included, raises ``error``."""
    if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)) \
            or not math.isfinite(v):
        raise error(f"{name} must be a finite number, got {v!r}")
    return float(v)


def _lambda(method, v):
    """``v`` as a float under ``method``'s lambda rule in :data:`_PARAMS`."""
    lam, positive = _real("lambda", v), _PARAMS[method][2]
    if lam < 0 or positive and lam == 0:
        raise ParameterError(f"{method} lambda must be {'positive' if positive else 'nonnegative'}"
                             f" and finite, got {v!r}")
    return lam


def _check_params(method, params) -> dict:
    """Check a fit's or CV grid entry's parameters for the lower-case ``method``.

    A None value counts as absent.  Returns the given parameters, d and u as
    ints and lambda as a float.
    """
    if method not in _PARAMS:
        raise ParameterError(f"unknown method {method!r}; expected one of {', '.join(_PARAMS)}")
    need, optional, _ = _PARAMS[method]
    given = {k: v for k, v in params.items() if v is not None}
    if need not in given or not given.keys() <= {need, *optional}:
        raise ParameterError(f"method {method!r} needs {need!r} and may add only "
                             f"{list(optional)}, got {dict(params)}")
    return {k: _lambda(method, v) if k == "lambda" else _integer(k, v, 1) for k, v in given.items()}


# ---------------------------------------------------------------------------
# Coefficient builders on precomputed factors
# ---------------------------------------------------------------------------

def _shrink(s, lam):
    """``s / (s + lam)``, broadcast, and 0 where ``s + lam == 0``."""
    denom = s + lam
    return np.divide(s, denom, out=np.zeros_like(denom), where=denom > 0)


def _filtered(svd: SvdFactors, Y, idx, f) -> np.ndarray:
    """The spectral filter ``V_idx diag(f / D_idx) U_idx' Y``."""
    Y = np.asarray(Y, dtype=float)
    return svd.V[:, idx] @ ((f / svd.D[idx])[:, None] * (svd.U[:, idx].T @ Y))


def _egreg_filter(svd: SvdFactors, scores: EnvelopeScores, d: int, lam: float):
    """EgReg's filter: the first d PCs in score order ``idx``, their scores
    ``phi`` and weights ``f = phi / (phi + lam)``."""
    idx = top_ranked(scores, d, d)
    phi = scores.phi[idx]
    return idx, phi, _shrink(phi, lam)


def pcr_coefficients(svd: SvdFactors, Y, d: int) -> np.ndarray:
    """PCR coefficients on the d highest-variance PCs."""
    d = _integer("d", d)
    if not 1 <= d <= svd.r:
        raise DimensionError(f"d must satisfy 1 <= d <= r = {svd.r}, got {d}")
    return _filtered(svd, Y, slice(d), np.ones(d))


def ridge_coefficients(svd: SvdFactors, Y, lam: float) -> np.ndarray:
    """Ridge coefficients: PC coordinates shrunk by sigma^2/(sigma^2 + lambda)."""
    return _filtered(svd, Y, slice(None), _shrink(svd.D**2, lam))


def niece_coefficients(
    svd: SvdFactors, scores: EnvelopeScores, Y, u: int, d: int | None = None
) -> np.ndarray:
    """NIECE coefficients on the u top-scoring PCs among the first d."""
    idx = top_ranked(scores, _integer("u", u), d)
    return _filtered(svd, Y, idx, np.ones(idx.size))


def egreg_coefficients(
    svd: SvdFactors, scores: EnvelopeScores, Y, d: int, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """EgReg coefficients and the PC indices whose scores are exactly zero.

    Spectral form: the coordinate along the j-th retained PC is scaled by
    ``phi_j / (phi_j + lambda)`` and divided by the singular value.  At
    lambda = 0 a zero-score direction is a 0/0 limit, resolved to 0 by
    continuity from lambda > 0; the affected PC indices are returned so
    callers can flag them.
    """
    idx, phi, f = _egreg_filter(svd, scores, _integer("d", d), lam)
    return _filtered(svd, Y, idx, f), idx[phi == 0.0]


def _lane_norms(M):
    """2-norm of each lane (leading axis) of a contiguous array, as a BLAS dot."""
    M = M.reshape(M.shape[0], 1, -1)
    return np.sqrt(M @ M.transpose(0, 2, 1))[:, 0, 0]


def _simpls_lockstep(Z, Y, train, d: int, tol: float = SIMPLS_TOL):
    """The SIMPLS recurrence (de Jong 1993), run in lockstep over lanes.

    ``Z`` (n x k) holds the predictors in any isometric coordinates (the fit
    is invariant to rotating them), ``Y`` (lanes x n x q) one response per
    lane and ``train`` (lanes x n) a 0/1 mask of the rows each lane fits on.
    Per component this yields ``(live, r, t, zr)`` for the lanes still
    running, one row per lane: weights ``r`` (k), unit scores
    ``t = train (Z r - mean)`` centered over the training rows (zero
    elsewhere), and ``zr = Z r`` on every row.  Each component is one GEMM
    for all lanes.  A lane stops before d components when its deflated
    cross-product, its score or its orthogonalized loading collapses below
    the tolerance.
    """
    lanes, n, q = Y.shape
    k = Z.shape[1]
    n_tr = train.sum(axis=1)
    S = Z.T @ (train[:, :, None] * Y).transpose(1, 0, 2).reshape(n, -1)
    S = np.ascontiguousarray(S.reshape(k, lanes, q).transpose(1, 0, 2))
    s_tol = tol * np.maximum(1.0, _lane_norms(S))
    live = np.arange(lanes)
    basis = np.empty((lanes, d, k))   # deflation basis, one row per component
    # Per-lane reductions are BLAS dots and stacked matmuls, so a single
    # lane reproduces the unbatched recurrence bit for bit.  A lane failing
    # a test still runs through the component (its rows may turn inf/nan,
    # which touches no other lane) and is dropped at the end of it.
    for c in range(d):
        keep = _lane_norms(S) > s_tol
        if q == 1:
            r = S[:, :, 0].copy()
        else:
            G = S.transpose(0, 2, 1) @ S
            w = np.linalg.eigh((G + G.transpose(0, 2, 1)) / 2.0)[1][:, :, -1:]
            lead = np.take_along_axis(w, np.argmax(np.abs(w), axis=1)[:, None], axis=1)
            r = (S @ np.where(lead < 0, -w, w))[:, :, 0]
        zr = r @ Z.T
        mask = train[live]
        t = zr - (mask * zr).sum(axis=1, keepdims=True) / n_tr[live, None]
        t *= mask
        nt = _lane_norms(t)
        with np.errstate(divide="ignore", invalid="ignore"):
            t /= nt[:, None]
            r /= nt[:, None]
            zr /= nt[:, None]
            pl = (t @ Z)[:, :, None]
            Vb = basis[:, :c]
            v = pl - Vb.transpose(0, 2, 1) @ (Vb @ pl)
            nv = _lane_norms(v)
            v /= nv[:, None, None]
        keep &= (nt > tol) & (nv > tol * np.maximum(1.0, _lane_norms(pl)))
        if not keep.all():
            live, S, s_tol, basis = live[keep], S[keep], s_tol[keep], basis[keep]
            r, t, zr, v = r[keep], t[keep], zr[keep], v[keep]
            if not live.size:
                return
        S = S - v @ (v.transpose(0, 2, 1) @ S)
        basis[:, c] = v[:, :, 0]
        yield live, r, t, zr


def _simpls_components(X, Y, d: int, tol: float = SIMPLS_TOL):
    """SIMPLS weights R (p x k) and scores T (n x k) for k <= d components.

    The one-lane, all-rows case of :func:`_simpls_lockstep`: each column pair
    satisfies ``t = X r - mean`` with ``||t|| = 1``, and the scores are
    mutually orthogonal.
    """
    steps = list(_simpls_lockstep(X, Y[None], np.ones((1, X.shape[0])), d, tol))
    R = np.empty((X.shape[1], len(steps)))
    T = np.empty((X.shape[0], len(steps)))
    for j, (_, r, t, _) in enumerate(steps):
        R[:, j], T[:, j] = r[0], t[0]
    return R, T


def simpls_coefficients(X, Y, d: int, tol: float = SIMPLS_TOL) -> tuple[np.ndarray, int]:
    """SIMPLS coefficients with up to d components; returns (beta, achieved)."""
    d = _integer("d", d)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    R, T = _simpls_components(X, Y, d, tol)
    return R @ (T.T @ Y), R.shape[1]


# ---------------------------------------------------------------------------
# Fit wrappers
# ---------------------------------------------------------------------------

def fit_pcr(data: Dataset, d: int) -> FittedModel:
    """Principal-components regression on the d highest-variance PCs.

    Fitted values are the projection of Y onto the span of the first d left
    singular vectors of X.
    """
    _require_centered(data)
    svd = thin_svd(data.X)
    beta = pcr_coefficients(svd, data.Y, d)
    return FittedModel(beta=beta, method="PCR", d=int(d), transform=data.transform)


def fit_ridge(data: Dataset, lam: float) -> FittedModel:
    """Ridge regression minimizing ``||Y - X b||_F^2 + lambda ||b||_F^2``."""
    _require_centered(data)
    lam = _lambda("ridge", lam)
    beta = ridge_coefficients(thin_svd(data.X), data.Y, lam)
    return FittedModel(beta=beta, method="Ridge", lam=lam, transform=data.transform)


def fit_niece(data: Dataset, u: int, d: int | None = None) -> FittedModel:
    """NIECE: keep the u PCs with the largest envelope scores among the first d.

    ``d`` defaults to the numerical rank of X (the full candidate pool).
    Ranking ties are broken toward the larger singular value, then the
    smaller PC index.
    """
    _require_centered(data)
    svd = thin_svd(data.X)
    d = svd.r if d is None else _integer("d", d)
    scores = envelope_scores(svd, cross_cov(data).Sxy, d)
    beta = niece_coefficients(svd, scores, data.Y, u, d)
    return FittedModel(
        beta=beta, method="NIECE", d=d, u=int(u), transform=data.transform
    )


def fit_egreg(data: Dataset, d: int | None, lam: float) -> FittedModel:
    """Envelope-guided regularization: score-proportional shrinkage of d PCs.

    The reduction matrix ``Gamma_hat`` rescales the first d PCs by
    ``sqrt(phi_j)/sigma_j``; ridge regression of Y on the reduced predictors
    ``X Gamma_hat`` with penalty lambda then yields coefficients whose PC
    coordinates are shrunk by ``phi_j/(phi_j + lambda)``.  ``d=None`` uses
    the full rank of X (the "EgReg(r)" variant).  ``lam = 0`` reproduces
    NIECE with u = d; zero-score directions are then resolved to zero and
    flagged.
    """
    _require_centered(data)
    lam = _lambda("egreg", lam)
    svd = thin_svd(data.X)
    d = svd.r if d is None else _integer("d", d)
    idx, phi, f = _egreg_filter(svd, envelope_scores(svd, cross_cov(data).Sxy, d), d, lam)
    gamma_hat = svd.V[:, idx] * (np.sqrt(phi) / svd.D[idx])
    zero = idx[phi == 0.0]
    flags = {}
    if lam == 0 and zero.size:
        flags["zero_score_directions"] = [int(j) for j in zero]
    return FittedModel(
        beta=_filtered(svd, data.Y, idx, f),
        method="EgReg",
        d=d,
        lam=lam,
        gamma_hat=gamma_hat,
        transform=data.transform,
        flags=flags,
    )


def fit_simpls(data: Dataset, d: int) -> FittedModel:
    """SIMPLS partial least squares with up to d components.

    Stops early if the deflated cross-product collapses (e.g. Y = 0); the
    achieved component count is reported in ``flags``.
    """
    _require_centered(data)
    d = _integer("d", d)
    r = numerical_rank(data.X)
    if not 1 <= d <= r:
        raise DimensionError(f"d must satisfy 1 <= d <= r = {r}, got {d}")
    beta, achieved = simpls_coefficients(data.X, data.Y, d)
    flags = {"achieved_components": achieved}
    if achieved < d:
        flags["early_stop"] = True
    return FittedModel(
        beta=beta, method="SIMPLS", d=d, transform=data.transform, flags=flags
    )


def fit_method(data: Dataset, method: str, params: dict) -> FittedModel:
    """Dispatch a fit by method name with a {"d", "u", "lambda"} params dict.

    ``params`` follows the rule CV grids follow, so a ``kfold_cv`` pick fits as it is.
    A ``d`` above the rank of X, or a ``u`` above ``d``, is a bad parameter
    here: it raises :class:`ParameterError` with the message of the
    :class:`DimensionError` that the ``fit_*`` functions raise.
    """
    key = str(method).lower()
    params = _check_params(key, params)
    try:
        if key == "pcr":
            return fit_pcr(data, params["d"])
        if key == "ridge":
            return fit_ridge(data, params["lambda"])
        if key == "niece":
            return fit_niece(data, params["u"], params.get("d"))
        if key == "egreg":
            return fit_egreg(data, params.get("d"), params["lambda"])
        return fit_simpls(data, params["d"])
    except DimensionError as exc:
        # data is a valid Dataset, so only d or u can be out of range here.
        raise ParameterError(str(exc)) from None


def predict(model: FittedModel, Xnew) -> np.ndarray:
    """Predict responses for new observations in original (pre-transform) units.

    Applies the stored centering/standardization to ``Xnew``, multiplies by
    the coefficients, and maps the result back to the original response
    scale.  A 1-D input is treated as a single observation row; a row with
    a NaN or infinite cell raises :class:`ContractError` naming it.
    """
    X = np.asarray(Xnew, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2:
        raise DimensionError(f"Xnew must be 2-dimensional, got ndim={X.ndim}")
    p = model.beta.shape[0]
    if X.shape[1] != p:
        raise DimensionError(f"Xnew has {X.shape[1]} columns but the model expects {p}")
    _check_finite_rows(X, "predictor")
    tr = model.transform
    if tr is not None:
        X = (X - tr.x_mean) / tr.x_scale
    Yp = X @ model.beta
    if tr is not None:
        Yp = Yp * tr.y_scale + tr.y_mean
    return Yp
