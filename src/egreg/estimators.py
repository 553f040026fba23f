"""The five regression estimators -- PCR, ridge, NIECE, EgReg, SIMPLS -- and
prediction.

Every solver routes through the thin SVD of the centered design (never the
normal equations), so all methods behave identically whether n < p, n = p,
or n > p.  The ``*_coefficients`` functions are the raw building blocks
operating on precomputed factors; the ``fit_*`` wrappers validate a centered
:class:`Dataset`, attach the ingestion transform, and return a
:class:`FittedModel`.

Penalty convention: ridge and EgReg minimize ``||Y - X b||_F^2 + lambda * pen``
with the penalty unscaled by n.  The asymptotic risk formulas in
:mod:`egreg.asymptotics` use the n-scaled convention instead; both modules
document and test their own convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .envscore import EnvelopeScores, envelope_scores, top_ranked
from .exceptions import ContractError, DimensionError, ParameterError
from .matrixcore import Dataset, SvdFactors, Transform, cross_cov, numerical_rank, thin_svd

#: Deflation tolerance for the SIMPLS early-stop test.
SIMPLS_TOL = 1e-12

METHODS = ("PCR", "Ridge", "NIECE", "EgReg", "SIMPLS")

_METHOD_KEYS = {m.lower(): m for m in METHODS}


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


def _check_int(value, name):
    if not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    return int(value)


# ---------------------------------------------------------------------------
# Coefficient builders on precomputed factors
# ---------------------------------------------------------------------------

def pcr_coefficients(svd: SvdFactors, Y, d: int) -> np.ndarray:
    """PCR coefficients on the d highest-variance PCs."""
    d = _check_int(d, "d")
    if not 1 <= d <= svd.r:
        raise DimensionError(f"d must satisfy 1 <= d <= r = {svd.r}, got {d}")
    Y = np.asarray(Y, dtype=float)
    return svd.V[:, :d] @ ((svd.U[:, :d].T @ Y) / svd.D[:d, None])


def ridge_coefficients(svd: SvdFactors, Y, lam: float) -> np.ndarray:
    """Ridge coefficients: PC coordinates shrunk by sigma^2/(sigma^2 + lambda)."""
    Y = np.asarray(Y, dtype=float)
    w = svd.D / (svd.D**2 + lam)
    return svd.V @ (w[:, None] * (svd.U.T @ Y))


def niece_coefficients(
    svd: SvdFactors, scores: EnvelopeScores, Y, u: int, d: int | None = None
) -> np.ndarray:
    """NIECE coefficients on the u top-scoring PCs among the first d."""
    u = _check_int(u, "u")
    idx = top_ranked(scores, u, d)
    Y = np.asarray(Y, dtype=float)
    return svd.V[:, idx] @ ((svd.U[:, idx].T @ Y) / svd.D[idx][:, None])


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
    d = _check_int(d, "d")
    idx = top_ranked(scores, d, d)
    phi = scores.phi[idx]
    denom = svd.D[idx] * (phi + lam)
    w = np.zeros(d)
    np.divide(phi, denom, out=w, where=denom > 0)
    Y = np.asarray(Y, dtype=float)
    beta = svd.V[:, idx] @ (w[:, None] * (svd.U[:, idx].T @ Y))
    zero_idx = idx[phi == 0.0]
    return beta, zero_idx


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
    d = _check_int(d, "d")
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
    if not (np.isfinite(lam) and lam > 0):
        raise ParameterError(f"lambda must be positive and finite, got {lam}")
    svd = thin_svd(data.X)
    beta = ridge_coefficients(svd, data.Y, float(lam))
    return FittedModel(beta=beta, method="Ridge", lam=float(lam), transform=data.transform)


def fit_niece(data: Dataset, u: int, d: int | None = None) -> FittedModel:
    """NIECE: keep the u PCs with the largest envelope scores among the first d.

    ``d`` defaults to the numerical rank of X (the full candidate pool).
    Ranking ties are broken toward the larger singular value, then the
    smaller PC index.
    """
    _require_centered(data)
    svd = thin_svd(data.X)
    if d is None:
        d = svd.r
    d = _check_int(d, "d")
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
    if not (np.isfinite(lam) and lam >= 0):
        raise ParameterError(f"lambda must be nonnegative and finite, got {lam}")
    svd = thin_svd(data.X)
    if d is None:
        d = svd.r
    d = _check_int(d, "d")
    scores = envelope_scores(svd, cross_cov(data).Sxy, d)
    beta, zero_idx = egreg_coefficients(svd, scores, data.Y, d, float(lam))
    idx = top_ranked(scores, d, d)
    phi = scores.phi[idx]
    gamma_hat = svd.V[:, idx] * (np.sqrt(phi) / svd.D[idx])
    flags = {}
    if lam == 0 and zero_idx.size:
        flags["zero_score_directions"] = [int(j) for j in zero_idx]
    return FittedModel(
        beta=beta,
        method="EgReg",
        d=d,
        lam=float(lam),
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
    d = _check_int(d, "d")
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
    """Dispatch a fit by method name with a {"d", "u", "lambda"} params dict."""
    key = str(method).lower()
    if key not in _METHOD_KEYS:
        raise ParameterError(
            f"unknown method {method!r}; expected one of {', '.join(METHODS)}"
        )
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
    except KeyError as exc:
        raise ParameterError(f"method {method!r} requires parameter {exc.args[0]!r}") from None


def predict(model: FittedModel, Xnew) -> np.ndarray:
    """Predict responses for new observations in original (pre-transform) units.

    Applies the stored centering/standardization to ``Xnew``, multiplies by
    the coefficients, and maps the result back to the original response
    scale.  A 1-D input is treated as a single observation row.
    """
    X = np.asarray(Xnew, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2:
        raise DimensionError(f"Xnew must be 2-dimensional, got ndim={X.ndim}")
    p = model.beta.shape[0]
    if X.shape[1] != p:
        raise DimensionError(f"Xnew has {X.shape[1]} columns but the model expects {p}")
    tr = model.transform
    if tr is not None:
        X = (X - tr.x_mean) / tr.x_scale
    Yp = X @ model.beta
    if tr is not None:
        Yp = Yp * tr.y_scale + tr.y_mean
    return Yp
