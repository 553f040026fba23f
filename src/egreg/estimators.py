"""The five regression estimators -- PCR, ridge, NIECE, EgReg, SIMPLS -- and
prediction.

Every solver routes through the thin SVD of the centered design (never the
normal equations), so all methods behave identically whether n < p, n = p,
or n > p.  PCR, ridge, NIECE and EgReg are one diagonal filter on that SVD
(:func:`_filtered`), which the exact risks and CV use too.  The
``*_coefficients`` functions are the raw building blocks operating on
precomputed factors, and :func:`_coefficients` picks one by method name for
both :func:`fit_method` and the study refits.  :func:`fit_method`, the one
fit entry point, validates a centered :class:`Dataset`, attaches the
ingestion transform, and returns a :class:`FittedModel`.  Fits and CV grids
share one parameter rule, :data:`_PARAMS`.

Penalty convention: ridge and EgReg minimize ``||Y - X b||_F^2 + lambda * pen``
with the penalty unscaled by n.  The asymptotic risk formulas in
:mod:`egreg.asymptotics` use the n-scaled convention instead; both modules
document and test their own convention.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .envscore import EnvelopeScores, envelope_scores, top_ranked
from .exceptions import ContractError, DimensionError, ParameterError
from .matrixcore import (Dataset, SvdFactors, Transform, _as_matrix, _check_finite_rows, _count,
                         _fix_signs, _integer, _real, _real_array, thin_svd)

#: Deflation tolerance for the SIMPLS early-stop test.
SIMPLS_TOL = 1e-12

METHODS = ("PCR", "Ridge", "NIECE", "EgReg", "SIMPLS")
_TAGS = {m.lower(): m for m in METHODS}

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
        beta = _real_array(self.beta, "beta")
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
        raise ContractError(f"data must be a Dataset, got {type(data).__name__}")
    if not data.centered:
        raise ContractError(
            "estimators require centered data; run center_standardize first"
        )


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
    if not isinstance(params, Mapping):
        raise ParameterError(f"params must be a mapping of parameter names to values, "
                             f"got {params!r}")
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


def _response(svd: SvdFactors, Y) -> np.ndarray:
    """``Y`` as a float matrix with the design's n rows, or DimensionError."""
    Y = _as_matrix(Y, "Y")
    if Y.shape[0] != svd.U.shape[0]:
        raise DimensionError(f"Y has {Y.shape[0]} rows; the design has n = {svd.U.shape[0]}")
    return Y


def _filtered(svd: SvdFactors, Y, idx, f) -> np.ndarray:
    """The spectral filter ``V_idx diag(f / D_idx) U_idx' Y``."""
    return svd.V[:, idx] @ ((f / svd.D[idx])[:, None] * (svd.U[:, idx].T @ _response(svd, Y)))


def _egreg_filter(svd: SvdFactors, scores: EnvelopeScores, d: int, lam: float):
    """EgReg's filter: the first d PCs in score order ``idx``, their scores
    ``phi`` and weights ``f = phi / (phi + lam)``."""
    idx = top_ranked(scores, d, d)
    phi = scores.phi[idx]
    return idx, phi, _shrink(phi, lam)


def pcr_coefficients(svd: SvdFactors, Y, d: int) -> np.ndarray:
    """PCR coefficients on the d highest-variance PCs."""
    d = _count("d", d, svd.r, "r")
    return _filtered(svd, Y, slice(d), np.ones(d))


def ridge_coefficients(svd: SvdFactors, Y, lam: float) -> np.ndarray:
    """Ridge coefficients: PC coordinates shrunk by sigma^2/(sigma^2 + lambda)."""
    return _filtered(svd, Y, slice(None), _shrink(svd.D**2, lam))


def niece_coefficients(
    svd: SvdFactors, scores: EnvelopeScores, Y, u: int, d: int | None = None
) -> np.ndarray:
    """NIECE coefficients on the u top-scoring PCs among the first d."""
    idx = top_ranked(scores, u, d)
    return _filtered(svd, Y, idx, np.ones(idx.size))


def egreg_coefficients(
    svd: SvdFactors, scores: EnvelopeScores, Y, d: int, lam: float
) -> np.ndarray:
    """EgReg coefficients on the first d PCs.

    Spectral form: the coordinate along the j-th retained PC is scaled by
    ``phi_j / (phi_j + lambda)`` and divided by the singular value.  At
    lambda = 0 a zero-score direction is a 0/0 limit, resolved to 0 by
    continuity from lambda > 0.
    """
    idx, _, f = _egreg_filter(svd, scores, d, lam)
    return _filtered(svd, Y, idx, f)


def _lane_norms(M):
    """2-norm of each lane (leading axis) of a contiguous array, as a BLAS dot."""
    M = M.reshape(M.shape[0], 1, -1)
    return np.sqrt(M @ M.transpose(0, 2, 1))[:, 0, 0]


def _simpls_lockstep(Z, Y, train, d: int):
    """The SIMPLS recurrence (de Jong 1993), run in lockstep over lanes.

    ``Z`` (n x k) holds the predictors in the design's PC coordinates ``U D``
    (every caller passes these; weights mapped back by V fit ``X = Z V'``),
    ``Y`` (lanes x n x q) one response per lane and ``train`` (lanes x n) a
    0/1 mask of the rows each lane fits on.  Per component this yields
    ``(keep, r, t, zr)`` for the lanes still running, one row per lane:
    weights ``r`` (k), unit scores ``t = train (Z r - mean)`` centered over
    the training rows (zero elsewhere), and ``zr = Z r`` on every row.  Each
    component is one GEMM for all lanes.  A lane stops before d components
    when its deflated cross-product, its score or its orthogonalized loading
    collapses below :data:`SIMPLS_TOL`; its rows are dropped then, and
    ``keep`` is the 0/1 mask of the lanes the previous component yielded
    that are kept (None while all run), so a caller can drop the same rows
    from its own arrays.
    """
    lanes, n, q = Y.shape
    k = Z.shape[1]
    n_tr = train.sum(axis=1)
    S = Z.T @ (train[:, :, None] * Y).transpose(1, 0, 2).reshape(n, -1)
    S = np.ascontiguousarray(S.reshape(k, lanes, q).transpose(1, 0, 2))
    s_tol = SIMPLS_TOL * np.maximum(1.0, _lane_norms(S))
    basis = np.empty((lanes, d, k))   # deflation basis, one row per component
    # Per-lane reductions are BLAS dots and stacked matmuls, each reading
    # only its own lane.  A lane failing a test still runs through the
    # component (its rows may turn inf/nan, which touches no other lane) and
    # is dropped at the end of it.
    for c in range(d):
        keep = _lane_norms(S) > s_tol
        if q == 1:
            r = S[:, :, 0].copy()
        else:
            G = S.transpose(0, 2, 1) @ S
            w = np.linalg.eigh((G + G.transpose(0, 2, 1)) / 2.0)[1][:, :, -1:]
            _fix_signs(w[:, :, 0].T)    # each lane's leading eigenvector is a column
            r = (S @ w)[:, :, 0]
        zr = r @ Z.T
        t = zr - (train * zr).sum(axis=1, keepdims=True) / n_tr[:, None]
        t *= train
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
        keep &= (nt > SIMPLS_TOL) & (nv > SIMPLS_TOL * np.maximum(1.0, _lane_norms(pl)))
        if keep.all():
            keep = None
        else:
            if not keep.any():
                return
            S, s_tol, basis, train, n_tr = (a[keep] for a in (S, s_tol, basis, train, n_tr))
            r, t, zr, v = r[keep], t[keep], zr[keep], v[keep]
        S -= v * (v.transpose(0, 2, 1) @ S)    # the rank-one v (v'S): one product per entry
        basis[:, c] = v[:, :, 0]
        yield keep, r, t, zr


def simpls_coefficients(svd: SvdFactors, Y, d: int) -> tuple[np.ndarray, int]:
    """SIMPLS coefficients with up to d components; returns (beta, achieved).

    The one-lane, all-rows case of :func:`_simpls_lockstep` on ``Z = U D``,
    as in CV, so no direction past the rank enters: its k <= d components
    give weights R (r x k) and unit, mutually orthogonal scores T (n x k)
    with ``t = Z r - mean``, and ``beta = V R T'Y``.
    """
    d = _count("d", d, svd.r, "r")
    Y = _response(svd, Y)
    steps = list(_simpls_lockstep(svd.U * svd.D, Y[None], np.ones((1, Y.shape[0])), d))
    R = np.empty((svd.r, len(steps)))
    T = np.empty((Y.shape[0], len(steps)))
    for j, (_, r, t, _) in enumerate(steps):
        R[:, j], T[:, j] = r[0], t[0]
    return svd.V @ (R @ (T.T @ Y)), len(steps)


def _coefficients(method, svd, scores, Y, d, u, lam):
    """beta-hat of the lower-case ``method`` at (d, u, lambda), with its flags.

    The one dispatch from a method to its builder, shared by
    :func:`fit_method` and the study refits.  ``svd`` is the thin SVD of the
    centered design, which every builder reads, and ``scores`` its envelope
    scores (read by NIECE and EgReg only).  The flags record a SIMPLS early
    stop: ``achieved_components``, and ``early_stop`` when fewer than d.
    """
    if method == "pcr":
        return pcr_coefficients(svd, Y, d), {}
    if method == "ridge":
        return ridge_coefficients(svd, Y, lam), {}
    if method == "niece":
        return niece_coefficients(svd, scores, Y, u, d), {}
    if method == "egreg":
        return egreg_coefficients(svd, scores, Y, d, lam), {}
    beta, achieved = simpls_coefficients(svd, Y, d)
    flags = {"achieved_components": achieved}
    if achieved < d:
        flags["early_stop"] = True
    return beta, flags


def fit_method(data: Dataset, method: str, params: dict) -> FittedModel:
    """Fit ``method`` (any case of a :data:`METHODS` name) on a centered
    :class:`Dataset` with a {"d", "u", "lambda"} params dict.

    ``params`` follows the rule CV grids follow, so a ``kfold_cv`` pick fits
    as it is.  Every method is fit on one thin SVD of X.  NIECE and EgReg
    without ``d`` use the full rank of X (the "EgReg(r)" variant).  EgReg
    also returns its reduction matrix ``Gamma_hat`` (the first d PCs
    rescaled by ``sqrt(phi_j)/sigma_j``), and at lambda = 0 flags its
    zero-score directions, which are resolved to 0.  A ``d`` above the rank
    of X, or a ``u`` above ``d``, is a bad parameter: it raises
    :class:`ParameterError` with the message of the builders'
    :class:`DimensionError`.
    """
    key = str(method).lower()
    params = _check_params(key, params)
    _require_centered(data)
    d, u, lam = params.get("d"), params.get("u"), params.get("lambda")
    scores = None
    try:
        svd = thin_svd(data.X)
        if key in ("niece", "egreg"):
            scores = envelope_scores(svd, data.X.T @ data.Y / data.n, svd.r if d is None else d)
            d = scores.d
        beta, flags = _coefficients(key, svd, scores, data.Y, d, u, lam)
    except DimensionError as exc:
        # data is a valid Dataset, so only d or u can be out of range here.
        raise ParameterError(str(exc)) from None
    gamma_hat = None
    if key == "egreg":
        idx, phi, _ = _egreg_filter(svd, scores, d, lam)
        gamma_hat = svd.V[:, idx] * (np.sqrt(phi) / svd.D[idx])
        zero = idx[phi == 0.0]
        if lam == 0 and zero.size:
            flags["zero_score_directions"] = [int(j) for j in zero]
    return FittedModel(beta=beta, method=_TAGS[key], d=d, u=u, lam=lam,
                       gamma_hat=gamma_hat, transform=data.transform, flags=flags)


def predict(model: FittedModel, Xnew) -> np.ndarray:
    """Predict responses for new observations in original (pre-transform) units.

    Applies the stored centering/standardization to ``Xnew``, multiplies by
    the coefficients, and maps the result back to the original response
    scale.  A 1-D input is treated as a single observation row.  BLAS rounds
    a product by its operand's layout, so the product is taken on a
    column-major array: the same rows predict to the same bits whatever
    ``Xnew``'s layout.  A model that is not a :class:`FittedModel`, ragged,
    non-numeric or complex input, and a row with a NaN or infinite cell
    (named) raise :class:`ContractError`.
    """
    if not isinstance(model, FittedModel):
        raise ContractError(f"model must be a FittedModel, got {type(model).__name__}")
    X = _real_array(Xnew, "Xnew")
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
        X = np.subtract(X, tr.x_mean, order="F")
        X /= tr.x_scale
    else:
        X = np.asfortranarray(X)
    Yp = X @ model.beta
    if tr is not None:
        Yp = Yp * tr.y_scale + tr.y_mean
    return Yp
