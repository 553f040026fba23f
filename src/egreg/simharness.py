"""Data generators, k-fold cross-validation, and the four study drivers.

Replication protocol: the design X and true coefficients are fixed per seed,
and only the noise is redrawn across replications.  Random streams are
counter-based -- ``default_rng([seed, stream, tag, counter])`` with stream =
grid-point index and tags 0 (design), 1 (noise), 2 (fold shuffle) -- so grid
points and replications produce bitwise-identical results whether they run
serially or in parallel.

The cross-validation scorer shares one implementation between
:func:`kfold_cv` and the study drivers.  Its responses carry a lane axis
(n x lanes x q): lanes share the design and the folds, and each gets its own
held-out SSE and its own pick.  A study stacks the R noise draws of a grid
point as R lanes, so each method's CV runs once per grid point, not once per
replication; :func:`kfold_cv` is the one-lane case.  Per training fold the
SVD is factored once; PCR, ridge, NIECE and EgReg become stacks of diagonal
filters on its PCs (NIECE in each lane's score order), and one kernel,
:func:`_filtered_sse`, scores every filter, term count and lane in a single
cumulative sum.  SIMPLS runs all folds x lanes as the lanes of one lockstep
recurrence on the PC coordinates ``U D`` of the whole design, with a 0/1
training-row mask per fold.  The drivers score and pick ``_LANE_BLOCK``
lanes at a time, which bounds CV memory whatever the replication count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .envscore import _score_order, envelope_scores
from .estimators import (
    _simpls_lockstep,
    egreg_coefficients,
    niece_coefficients,
    pcr_coefficients,
    ridge_coefficients,
    simpls_coefficients,
)
from .exceptions import ConfigError, ContractError, ParameterError
from .matrixcore import Dataset, _as_matrix, _recenter, thin_svd
from .riskanalytics import TruthSpec, empirical_risk_terms

_TAG_MODEL = 0
_TAG_NOISE = 1
_TAG_FOLDS = 2

#: Number of points in the default log-spaced lambda grid.
LAMBDA_GRID_SIZE = 50


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnvelopeSimConfig:
    """Inputs of the planted-envelope generator.

    ``P`` holds 1-based eigenvector indices (strictly increasing) marking
    which eigenvectors of Sigma_x span the material subspace; ``alpha`` is
    the |P|-by-q reduced coefficient matrix.  Eigenvalues follow
    ``10 * exp(-decay_gamma * (i - 1))`` unless an explicit ``eigenvalues``
    vector (positive, nonincreasing) overrides the decay -- the flat-spectrum
    study uses that override.
    """

    n: int
    p: int
    q: int
    decay_gamma: float
    P: tuple
    alpha: np.ndarray
    Sigma_eps: np.ndarray
    seed: int
    replications: int = 100
    eigenvalues: np.ndarray | None = None

    def __post_init__(self):
        if self.n < 2 or self.p < 1 or self.q < 1:
            raise ConfigError(f"need n >= 2, p >= 1, q >= 1, got ({self.n}, {self.p}, {self.q})")
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        P = tuple(int(i) for i in self.P)
        object.__setattr__(self, "P", P)
        if not P:
            raise ConfigError("P must be a non-empty index set")
        if any(b <= a for a, b in zip(P, P[1:])):
            raise ConfigError("P must be strictly increasing")
        if P[0] < 1 or P[-1] > self.p:
            raise ConfigError(f"P contains index {P[-1] if P[-1] > self.p else P[0]} "
                              f"outside 1..p = 1..{self.p}")
        alpha = _as_matrix(self.alpha, "alpha")
        object.__setattr__(self, "alpha", alpha)
        if alpha.shape != (len(P), self.q):
            raise ConfigError(
                f"alpha must be |P| x q = {len(P)}x{self.q}, got {alpha.shape}"
            )
        Se = _as_matrix(self.Sigma_eps, "Sigma_eps")
        object.__setattr__(self, "Sigma_eps", Se)
        if Se.shape != (self.q, self.q):
            raise ConfigError(f"Sigma_eps must be {self.q}x{self.q}, got {Se.shape}")
        if self.eigenvalues is not None:
            ev = np.asarray(self.eigenvalues, dtype=float)
            if ev.shape != (self.p,) or np.any(ev <= 0) or np.any(np.diff(ev) > 0):
                raise ConfigError("eigenvalues must be p positive nonincreasing values")
            object.__setattr__(self, "eigenvalues", ev)
        elif not self.decay_gamma > 0:
            raise ConfigError("decay_gamma must be positive")

    @property
    def u_star(self) -> int:
        return len(self.P)

    def spectrum(self) -> np.ndarray:
        """Eigenvalues of Sigma_x, largest first."""
        if self.eigenvalues is not None:
            return self.eigenvalues
        return 10.0 * np.exp(-self.decay_gamma * np.arange(self.p))


def _haar_orthogonal(p, rng):
    """Uniform random orthogonal matrix: QR of a Gaussian with sign correction."""
    Z = rng.standard_normal((p, p))
    Q, R = np.linalg.qr(Z)
    return Q * np.where(np.diag(R) < 0, -1.0, 1.0)


def _model_frame(cfg: EnvelopeSimConfig, stream: int = 0):
    """Design-side draws (fixed across replications): X, planted basis, beta*, truth.

    The truth carries ``Sigma_x = root root'`` with ``root = V sqrt(sig)``.
    """
    sig = cfg.spectrum()
    rng = np.random.default_rng([cfg.seed, stream, _TAG_MODEL])
    V = _haar_orthogonal(cfg.p, rng)
    Z = rng.standard_normal((cfg.n, cfg.p))
    X = (Z * np.sqrt(sig)) @ V.T
    P0 = np.asarray(cfg.P, dtype=int) - 1
    Gamma = V[:, P0].copy()
    beta_star = Gamma @ cfg.alpha
    root = V * np.sqrt(sig)
    del V
    Sigma_x = root @ root.T
    Sigma_x += Sigma_x.T
    Sigma_x *= 0.5
    return X, Gamma, beta_star, TruthSpec(beta_star, Sigma_x, cfg.Sigma_eps, root)


def _draw_noise(cfg: EnvelopeSimConfig, rep: int, stream: int = 0):
    rng = np.random.default_rng([cfg.seed, stream, _TAG_NOISE, rep])
    Z = rng.standard_normal((cfg.n, cfg.q))
    L = np.linalg.cholesky(cfg.Sigma_eps)
    return Z @ L.T


def gen_envelope_model(cfg: EnvelopeSimConfig, rep: int = 0, stream: int = 0):
    """Draw one planted-envelope dataset.

    Returns ``(data, truth, planted_basis)``: a centered :class:`Dataset`,
    the generating :class:`TruthSpec` (beta* = Gamma alpha, Sigma_x, Sigma_eps),
    and the p-by-u* planted basis (the selected eigenvectors of Sigma_x).
    The design depends only on ``(seed, stream)``; ``rep`` indexes the noise
    draw so replications share X and beta*.
    """
    X, Gamma, beta_star, truth = _model_frame(cfg, stream)
    E = _draw_noise(cfg, rep, stream)
    Y = X @ beta_star + E
    data = Dataset(_recenter(X), _recenter(Y), centered=True)
    return data, truth, Gamma


_BASELINE_BETA = (2.0, -2.0, 1.0, -1.0, 0.5, -0.5)


def _baseline_sigma(kind: str, p: int, rho: float):
    if kind == "CS":
        return rho * np.ones((p, p)) + (1.0 - rho) * np.eye(p)
    if kind == "AR1":
        idx = np.arange(p)
        return rho ** np.abs(idx[:, None] - idx[None, :])
    raise ParameterError(f"kind must be 'CS' or 'AR1', got {kind!r}")


def _baseline_beta(p: int, stub=None):
    stub = _BASELINE_BETA if stub is None else tuple(float(v) for v in stub)
    if len(stub) > p:
        raise ConfigError(f"beta_star has {len(stub)} entries but p = {p}")
    beta = np.zeros((p, 1))
    beta[: len(stub), 0] = stub
    return beta


def gen_baseline(
    kind: str,
    n: int,
    p: int,
    rho: float,
    beta_star=None,
    sigma_eps_sq: float = 10.0,
    seed: int = 0,
    rep: int = 0,
    stream: int = 0,
):
    """Draw one dataset with no planted structure (CS or AR1 covariance).

    ``beta_star`` defaults to the sparse vector (2, -2, 1, -1, 1/2, -1/2,
    0, ..., 0); shorter vectors are zero-padded to length p.  As in
    :func:`gen_envelope_model`, the design is fixed per ``(seed, stream)``
    and ``rep`` indexes the noise draw.
    """
    if not 0.0 <= rho < 1.0:
        raise ParameterError(f"rho must lie in [0, 1), got {rho}")
    if n < 2 or p < 1:
        raise ParameterError(f"need n >= 2 and p >= 1, got n={n}, p={p}")
    if not sigma_eps_sq > 0:
        raise ParameterError("sigma_eps_sq must be positive")
    kind = str(kind).upper()
    Sigma_x = _baseline_sigma(kind, p, rho)
    beta = _baseline_beta(p, beta_star)
    L = np.linalg.cholesky(Sigma_x)
    rng = np.random.default_rng([seed, stream, _TAG_MODEL])
    X = rng.standard_normal((n, p)) @ L.T
    E = np.random.default_rng([seed, stream, _TAG_NOISE, rep]).standard_normal((n, 1))
    Y = X @ beta + math.sqrt(sigma_eps_sq) * E
    data = Dataset(_recenter(X), _recenter(Y), centered=True)
    truth = TruthSpec(beta, Sigma_x, [[sigma_eps_sq]], L)
    return data, truth


# ---------------------------------------------------------------------------
# Cross-validation
# ---------------------------------------------------------------------------

@dataclass
class _Fold:
    tr: np.ndarray
    va: np.ndarray
    svd: object
    A: np.ndarray      # X_va @ V / D: held-out rows in whitened PC coordinates


def _fold_indices(n, k, seed):
    rng = np.random.default_rng(seed)
    return np.array_split(rng.permutation(n), k)


def _fold_caches(X, folds):
    caches = []
    everything = np.arange(X.shape[0])
    for va in folds:
        tr = np.setdiff1d(everything, va)
        svd_f = thin_svd(X[tr])
        caches.append(_Fold(tr=tr, va=va, svd=svd_f, A=(X[va] @ svd_f.V) / svd_f.D))
    return caches


def _fold_phi(fold, B):
    """Envelope scores of the training fold, one column per lane.

    With B = U'Y_tr (r x lanes x q), the score of PC j is (sigma_j ||B_j|| / n_tr)^2.
    """
    n_tr = fold.tr.shape[0]
    return (fold.svd.D**2)[:, None] * np.einsum("jlq,jlq->jl", B, B) / float(n_tr) ** 2


#: Per CV method: the key every grid entry needs, and the keys it may add.
_GRID_KEYS = {
    "pcr": ("d", ()),
    "ridge": ("lambda", ()),
    "niece": ("u", ("d",)),
    "simpls": ("d", ()),
    "egreg": ("lambda", ("d",)),
}


@dataclass
class _Grid:
    """A tuning grid as parallel arrays, one position per entry.

    ``d`` and ``u`` are 0 where an entry has none; a missing ``d`` means the
    training fold's full rank.  ``lam`` is 0 for methods without a penalty.
    Scalars broadcast against the arrays given.
    """

    method: str
    d: np.ndarray = 0
    u: np.ndarray = 0
    lam: np.ndarray = 0.0

    def __post_init__(self):
        self.d, self.u, self.lam = np.broadcast_arrays(
            np.asarray(self.d, np.intp), np.asarray(self.u, np.intp), np.asarray(self.lam, float))


def _grid_value(key, v):
    """Validate one grid value: d and u are integers >= 1, lambda is finite and >= 0."""
    real = isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
    if key == "lambda" and not (real and math.isfinite(v) and v >= 0):
        raise ParameterError(f"lambda must be finite and nonnegative, got {v!r}")
    if key != "lambda" and not (real and isinstance(v, (int, np.integer)) and v >= 1):
        raise ParameterError(f"{key} must be an integer >= 1, got {v!r}")
    return v


def _parse_grid(method, entries) -> _Grid:
    """Validate a list-of-dicts grid and turn it into a :class:`_Grid`."""
    if not entries:
        raise ParameterError("parameter grid is empty")
    need, optional = _GRID_KEYS[method]
    cols = {"d": [], "u": [], "lambda": []}
    for e in entries:
        given = {key for key, v in e.items() if v is not None}
        if need not in given or not given <= {need, *optional}:
            raise ParameterError(f"a {method} grid entry needs {need!r} and may add only "
                                 f"{list(optional)}, got {e}")
        for key, col in cols.items():
            col.append(_grid_value(key, e[key]) if key in given else 0)
    return _Grid(method, cols["d"], cols["u"], cols["lambda"])


def _filtered_sse(A, B, Yva, F, terms):
    """Held-out SSE of every filter and lane after its first c terms, c in ``terms``.

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
        # Only full sums are read (ridge, full-rank EgReg): one matrix product
        # instead of building every partial prediction.  The cumulative sum
        # would give the same cells; this path makes the p1 and
        # double_descent benchmarks 1.22x and 1.38x faster end to end.
        R = (H.reshape(-1, k) @ A[:, :k, 0].T).reshape(L, lanes, q, m)
        R -= Yva.transpose(1, 2, 0)
        return np.einsum("lrqm,lrqm->lr", R, R)[:, None]
    # Residuals of the cumulative predictions, term axis last so the cumsum
    # runs over contiguous memory; column 0 predicts zero.
    T = np.empty((L, lanes, q, m, k + 1))
    T[..., 0] = -Yva.transpose(1, 2, 0)
    np.multiply(A[:, :k].transpose(2, 0, 1)[None, :, None], H[:, :, :, None], out=T[..., 1:])
    np.cumsum(T, axis=-1, out=T)
    T *= T
    return T.sum(axis=(2, 3))[..., terms].transpose(0, 2, 1)


def _entry_sizes(grid: _Grid, r_f):
    """Each entry's d on a training fold of rank r_f (a missing d is r_f), checked."""
    d = np.where(grid.d > 0, grid.d, r_f)
    if d.max() > r_f:
        raise ParameterError(f"d = {d.max()} exceeds a training-fold rank {r_f}")
    if np.any(grid.u > d):
        i = int(np.argmax(grid.u > d))
        raise ParameterError(f"u = {grid.u[i]} exceeds the candidate pool {d[i]}")
    return d


def _simpls_cv_sse(Z, caches, Y, d):
    """Held-out SSE after 0..d SIMPLS components, pooled over folds: (d+1) x lanes.

    Every fold x lane pair is one lane of :func:`_simpls_lockstep` on the
    design's coordinates ``Z`` (``X = Z Q'``); a fold is a 0/1 mask of its
    training rows.  Held-out predictions grow one component at a time, and
    a lane that stops early keeps its last fit.
    """
    n, lanes, _ = Y.shape
    train = np.ones((len(caches), n))
    for f, fold in enumerate(caches):
        train[f, fold.va] = 0.0
    train = np.repeat(train, lanes, axis=0)      # pair (fold f, lane l) is f * lanes + l
    Yp = np.tile(Y.transpose(1, 0, 2), (len(caches), 1, 1))
    held = 1.0 - train
    fit = np.zeros_like(Yp)
    sse = np.empty((d + 1, Yp.shape[0]))
    sse[:] = np.einsum("ln,lnq,lnq->l", held, Yp, Yp)
    for c, (live, _, t, zr) in enumerate(_simpls_lockstep(Z, Yp, train, d), start=1):
        Yl = Yp[live]
        fit[live] += zr[:, :, None] * np.einsum("ln,lnq->lq", t, Yl)[:, None]
        resid = Yl - fit[live]
        sse[c:, live] = np.einsum("ln,lnq,lnq->l", held[live], resid, resid)
    return sse.reshape(d + 1, len(caches), lanes).sum(axis=1)


def _cv_sse(svd, caches, Y, grid: _Grid) -> np.ndarray:
    """Pooled held-out SSE for every grid entry and lane: an entries x lanes array.

    ``Y`` is n x lanes x q; lanes share the design and the folds (a study's
    replications are its lanes).  SIMPLS runs all folds x lanes in lockstep
    on ``U D`` from ``svd``, the thin SVD of the whole design, which only
    SIMPLS reads.  Like the fold SVDs, it leaves out directions below the
    numerical rank: they carry only rounding noise, which late components
    would fit.  Every other method is a stack of filters per fold, one kernel call
    (:func:`_filtered_sse`) scoring all lanes, and every entry reads one
    (filter, term count) cell per lane.
    """
    sizes = [_entry_sizes(grid, fold.svd.r) for fold in caches]
    if grid.method == "simpls":
        return _simpls_cv_sse(svd.U * svd.D, caches, Y, int(grid.d.max()))[grid.d]
    lane = np.arange(Y.shape[1])
    sse = np.zeros((grid.d.size, lane.size))
    for fold, d in zip(caches, sizes):
        svd = fold.svd
        Ytr = Y[fold.tr]
        B = (svd.U.T @ Ytr.reshape(Ytr.shape[0], -1)).reshape(svd.r, *Y.shape[1:])
        A, rows, cols = fold.A[:, :, None], 0, d[:, None]
        if grid.method == "pcr":
            F = np.ones((1, svd.r, 1))
        elif grid.method in ("ridge", "egreg"):
            # s/(s + lambda) per lambda: ridge shrinks by s = D^2, EgReg by s = phi.
            s = (svd.D**2)[:, None] if grid.method == "ridge" else _fold_phi(fold, B)
            lam, rows = np.unique(grid.lam, return_inverse=True)
            denom = s + lam[:, None, None]
            F = np.divide(s, denom, out=np.zeros_like(denom), where=denom > 0)
            rows = rows[:, None]
        else:
            # NIECE: PCs in each lane's score order; each candidate pool is a
            # 0/1 filter and u counts the pool members kept.
            order = _score_order(_fold_phi(fold, B).T, svd.D).T
            A, B = fold.A[:, order], B[order, lane]
            pools, rows = np.unique(d, return_inverse=True)
            F = (order < pools[:, None, None]).astype(float)
            kept = np.cumsum(F, axis=1)[rows]
            cols = 1 + np.count_nonzero(kept < grid.u[:, None, None], axis=1)
            rows = rows[:, None]
        terms, at = np.unique(cols, return_inverse=True)
        sse += _filtered_sse(A, B, Y[fold.va], F, terms)[rows, at.reshape(cols.shape), lane]
    return sse


def _pick_best(grid: _Grid, scores):
    """Best entry per lane (scores: entries x lanes): lowest score, then
    smaller d/u, then larger lambda.

    ``np.lexsort`` is stable, so any tie left goes to the first entry.
    """
    size = np.where(grid.u > 0, grid.u, np.where(grid.d > 0, grid.d, np.inf))
    order = np.lexsort(np.broadcast_arrays(-grid.lam, size, scores.T))
    return order[:, 0].copy()    # a view would keep every lane's full order alive


#: Lanes scored and picked together.  It bounds CV working memory whatever
#: the number of replications: SIMPLS holds a deflation basis of folds x
#: lanes x d x rank(X) floats, and NIECE one filter per candidate pool and
#: lane.  At R = 100 (one BLAS thread) the baseline study peaks at 51.5 MB
#: RSS in blocks of 4 (11.1 s) and at 56.0 MB in blocks of 8 (9.6 s).
_LANE_BLOCK = 4


def _tune(svd, caches, Y, grid: _Grid):
    """CV pick per lane of ``Y`` (n x lanes x q), scored ``_LANE_BLOCK`` lanes
    at a time so no block's scores outlive its picks."""
    n = Y.shape[0]
    return np.concatenate([_pick_best(grid, _cv_sse(svd, caches, Y[:, i:i + _LANE_BLOCK], grid) / n)
                           for i in range(0, Y.shape[1], _LANE_BLOCK)])


def kfold_cv(data: Dataset, method: str, param_grid, k: int = 10, seed=0):
    """Select tuning parameters by k-fold cross-validation.

    Folds come from a seeded shuffle split into contiguous blocks.  The score
    of a grid entry is the mean held-out squared prediction error (summed
    over response columns, pooled over folds).  Ties break toward the smaller
    d/u and then the larger lambda.

    ``param_grid`` is a sequence of dicts with keys among {"d", "u",
    "lambda"}, e.g. ``[{"d": 2}, {"d": 3}]`` for PCR or ``[{"d": 3,
    "lambda": 0.1}, ...]`` for EgReg (omit "d" for the full-rank EgReg
    variant).  ``d`` and ``u`` are integers >= 1, ``lambda`` is finite and
    nonnegative, and a key the method does not use is an error.  Returns
    ``(best_params, cv_table)`` where the table carries a "cv_score" per
    entry.
    """
    if not data.centered:
        raise ContractError("kfold_cv requires centered data")
    method = str(method).lower()
    if method not in _GRID_KEYS:
        raise ParameterError(f"unknown method {method!r}")
    entries = [dict(e) for e in param_grid]
    grid = _parse_grid(method, entries)
    n = data.n
    if k < 2 or n < k:
        raise ParameterError(f"need 2 <= k <= n, got k={k}, n={n}")
    caches = _fold_caches(data.X, _fold_indices(n, k, seed))
    svd = thin_svd(data.X) if method == "simpls" else None
    scores = _cv_sse(svd, caches, data.Y[:, None], grid)[:, 0] / n
    best = _pick_best(grid, scores[:, None])[0]
    table = [{**e, "cv_score": float(s)} for e, s in zip(entries, scores)]
    return dict(entries[best]), table


# ---------------------------------------------------------------------------
# Study drivers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StudyResult:
    """Per-method empirical risks and standard errors over a study grid."""

    study: str
    grid_name: str
    grid: tuple
    methods: tuple
    risks: np.ndarray
    ses: np.ndarray
    config: dict
    seed: int

    def rows(self):
        """Header row plus one row per grid point, ready for CSV emission."""
        header = [self.grid_name]
        for m in self.methods:
            header += [f"{m}_risk", f"{m}_se"]
        out = [header]
        for i, gval in enumerate(self.grid):
            row = [gval]
            for j in range(len(self.methods)):
                row += [float(self.risks[i, j]), float(self.ses[i, j])]
            out.append(row)
        return out


_SAMPLE_METHODS = ("PCR", "Ridge", "NIECE", "SIMPLS", "EgReg", "EgReg(r)")
_DD_METHODS = ("NIECE", "EgReg", "EgReg(r)")

_CANON_METHOD = {
    "pcr": "PCR",
    "ridge": "Ridge",
    "niece": "NIECE",
    "simpls": "SIMPLS",
    "pls": "SIMPLS",
    "egreg": "EgReg",
    "egreg(r)": "EgReg(r)",
    "egreg_r": "EgReg(r)",
}

_P_OVER_N = (0.25, 0.5, 1.0, 2.0, 4.0)

_STUDY_DEFAULTS = {
    "P1": {
        "n": 100, "replications": 100, "seed": 0, "folds": 10,
        "p1": 7, "p_over_n": _P_OVER_N, "decay_gamma": 1.0,
        "sigma_eps_sq": 10.0, "methods": _SAMPLE_METHODS,
    },
    "u_star": {
        "n": 100, "replications": 100, "seed": 0, "folds": 10,
        "u_star": "half", "p_over_n": _P_OVER_N, "decay_gamma": 1.0,
        "sigma_eps_sq": 10.0, "methods": _SAMPLE_METHODS,
    },
    "baseline": {
        "n": 100, "replications": 100, "seed": 0, "folds": 10,
        "kind": "CS", "rho": 0.5, "p_over_n": _P_OVER_N,
        "sigma_eps_sq": 10.0, "beta_star": None, "methods": _SAMPLE_METHODS,
    },
    "double_descent": {
        "n": 100, "replications": 100, "seed": 0, "folds": 10,
        "u_star_over_n": (0.2, 0.5, 0.75, 0.9, 1.0, 1.1, 1.5, 2.0, 3.0, 5.0),
        "methods": _DD_METHODS,
    },
}


def _canon_methods(methods, allowed, study):
    out = []
    for m in methods:
        label = _CANON_METHOD.get(str(m).lower())
        if label is None or label not in allowed:
            raise ConfigError(f"method {m!r} is not available in the {study} study")
        if label not in out:
            out.append(label)
    if not out:
        raise ConfigError("methods list is empty")
    return tuple(out)


def _lambda_grid(sigma1_sq):
    return np.geomspace(1e-4 * sigma1_sq, 1e2 * sigma1_sq, LAMBDA_GRID_SIZE)


@dataclass
class _Frame:
    """One grid point: fixed design plus a replication-indexed noise drawer."""

    X: np.ndarray
    truth: TruthSpec
    draw_noise: Callable


def _final_fit(grid: _Grid, i, svd_full, scores_full, Xc, Yc):
    """Refit on the whole sample at grid entry i; a missing d is the full rank."""
    d, u, lam = int(grid.d[i]) or svd_full.r, int(grid.u[i]), float(grid.lam[i])
    if grid.method == "pcr":
        return pcr_coefficients(svd_full, Yc, d)
    if grid.method == "ridge":
        return ridge_coefficients(svd_full, Yc, lam)
    if grid.method == "niece":
        return niece_coefficients(svd_full, scores_full, Yc, u, svd_full.r)
    if grid.method == "simpls":
        return simpls_coefficients(Xc, Yc, d)[0]
    return egreg_coefficients(svd_full, scores_full, Yc, d, lam)[0]


def _run_sample_point(frame: _Frame, methods, folds_k, R, fold_seed):
    """Tune, fit, and score every method at one grid point (shared X).

    The R replications are the lanes of one CV call per method.
    """
    Xc = _recenter(frame.X)
    n = Xc.shape[0]
    svd_full = thin_svd(Xc)
    caches = _fold_caches(Xc, _fold_indices(n, folds_k, fold_seed))
    r_cap = min(svd_full.r, min(c.svd.r for c in caches))
    ds = np.arange(1, r_cap + 1)
    lam = _lambda_grid(svd_full.D[0] ** 2)
    grids = {
        "PCR": _Grid("pcr", d=ds),
        "Ridge": _Grid("ridge", lam=lam),
        "NIECE": _Grid("niece", u=ds),
        "SIMPLS": _Grid("simpls", d=ds),
        "EgReg": _Grid("egreg", d=np.repeat(ds, lam.size), lam=np.tile(lam, r_cap)),
        "EgReg(r)": _Grid("egreg", lam=lam),
    }
    signal = frame.X @ frame.truth.beta_star
    Ys = [_recenter(signal + frame.draw_noise(rep)) for rep in range(R)]
    Y = np.stack(Ys, axis=1)
    best = {label: _tune(svd_full, caches, Y, grids[label]) for label in methods}
    beta_hats = {m: [] for m in methods}
    for rep, Yc in enumerate(Ys):
        scores_full = envelope_scores(svd_full, Xc.T @ Yc / n, svd_full.r)
        for label in methods:
            beta_hats[label].append(
                _final_fit(grids[label], best[label][rep], svd_full, scores_full, Xc, Yc)
            )
    return np.vstack([empirical_risk_terms(beta_hats[m], frame.truth) for m in methods])


def _summarize(terms):
    R = terms.shape[1]
    risks = terms.mean(axis=1)
    ses = terms.std(axis=1, ddof=1) / math.sqrt(R) if R > 1 else np.zeros(terms.shape[0])
    return risks, ses


def _alternating(k):
    return (-1.0) ** np.arange(k)


def _run_envelope_study(study, cfg):
    n = int(cfg["n"])
    R = int(cfg["replications"])
    seed = int(cfg["seed"])
    folds_k = int(cfg["folds"])
    methods = _canon_methods(cfg["methods"], _SAMPLE_METHODS, study)
    grid = tuple(float(v) for v in cfg["p_over_n"])
    risks = np.empty((len(grid), len(methods)))
    ses = np.empty_like(risks)
    for g, ratio in enumerate(grid):
        p = int(round(ratio * n))
        if study == "P1":
            p1 = int(cfg["p1"])
            P = tuple(range(p1, p1 + 10))
            alpha = _alternating(10)[:, None]
        else:
            u_req = cfg["u_star"]
            u_star = min(n, p) // 2 if u_req == "half" else int(u_req)
            if u_star < 1:
                raise ConfigError(f"u_star must be >= 1, got {u_star}")
            P = tuple(range(1, 2 * u_star, 2))
            if u_star == 1:
                mag = np.array([0.1])
            else:
                j = np.arange(u_star)
                mag = 0.1 + j * 0.9 / (u_star - 1)
            alpha = (_alternating(u_star) * mag)[:, None]
        if P[-1] > p:
            raise ConfigError(
                f"p = {p} is too small for material indices up to {P[-1]} "
                f"(p/n = {ratio}, n = {n})"
            )
        sim = EnvelopeSimConfig(
            n=n, p=p, q=1, decay_gamma=float(cfg["decay_gamma"]), P=P, alpha=alpha,
            Sigma_eps=[[float(cfg["sigma_eps_sq"])]], seed=seed, replications=R,
        )
        X, _, _, truth = _model_frame(sim, stream=g)
        frame = _Frame(X=X, truth=truth,
                       draw_noise=lambda rep, _sim=sim, _g=g: _draw_noise(_sim, rep, _g))
        terms = _run_sample_point(frame, methods, folds_k, R, [seed, g, _TAG_FOLDS])
        risks[g], ses[g] = _summarize(terms)
    return StudyResult(
        study=study, grid_name="p_over_n", grid=grid, methods=methods,
        risks=risks, ses=ses, config=dict(cfg), seed=seed,
    )


def _run_baseline(cfg):
    n = int(cfg["n"])
    R = int(cfg["replications"])
    seed = int(cfg["seed"])
    folds_k = int(cfg["folds"])
    methods = _canon_methods(cfg["methods"], _SAMPLE_METHODS, "baseline")
    kind = str(cfg["kind"]).upper()
    rho = float(cfg["rho"])
    if not 0.0 <= rho < 1.0:
        raise ConfigError(f"rho must lie in [0, 1), got {rho}")
    sig_sq = float(cfg["sigma_eps_sq"])
    grid = tuple(float(v) for v in cfg["p_over_n"])
    risks = np.empty((len(grid), len(methods)))
    ses = np.empty_like(risks)
    for g, ratio in enumerate(grid):
        p = int(round(ratio * n))
        Sigma_x = _baseline_sigma(kind, p, rho)
        beta = _baseline_beta(p, cfg["beta_star"])
        L = np.linalg.cholesky(Sigma_x)
        X = np.random.default_rng([seed, g, _TAG_MODEL]).standard_normal((n, p)) @ L.T
        truth = TruthSpec(beta, Sigma_x, [[sig_sq]], L)

        def draw(rep, _g=g):
            z = np.random.default_rng([seed, _g, _TAG_NOISE, rep]).standard_normal((n, 1))
            return math.sqrt(sig_sq) * z

        frame = _Frame(X=X, truth=truth, draw_noise=draw)
        terms = _run_sample_point(frame, methods, folds_k, R, [seed, g, _TAG_FOLDS])
        risks[g], ses[g] = _summarize(terms)
    return StudyResult(
        study="baseline", grid_name="p_over_n", grid=grid, methods=methods,
        risks=risks, ses=ses, config=dict(cfg), seed=seed,
    )


def _dd_point(u_star, n):
    """Feasibility-checked (p, P, alpha) for one flat-spectrum grid point."""
    if u_star < 12:
        raise ConfigError(
            f"u_star = {u_star} is infeasible: the first material index 7 needs "
            f"p = round(1.5 u_star) >= u_star + 6, i.e. u_star >= 12"
        )
    p = int(np.rint(1.5 * u_star))
    P = tuple(range(7, 7 + u_star))
    eta = _alternating(u_star)
    alpha = (math.sqrt(10.0) * eta / np.linalg.norm(eta))[:, None]
    return p, P, alpha


def _run_double_descent(cfg):
    """Flat-spectrum study with the material basis treated as known.

    NIECE here is the known-basis estimator: ordinary least squares of Y on
    the reduced design X Gamma_P when u* <= n-1; at u* = n the stability cap
    u = n-1 keeps the first n-1 planted directions (the planted scores are
    all equal, so the tie-break keeps the lowest indices); for u* > n it is
    the minimum-norm interpolator on all u* planted directions (the
    lambda -> 0 limit of the reduced ridge problem).  EgReg is ridge on the
    reduced design with lambda tuned by CV (the planted scores are equal, so
    the score rescaling is a scalar absorbed by the lambda grid); EgReg(r)
    is the fully sample-based estimator with d = r.  The sample PC-ranked
    NIECE cannot spike at u*/n = 1 -- its reduced design is X's own singular
    frame -- which is why this study keeps the basis known.
    """
    n = int(cfg["n"])
    R = int(cfg["replications"])
    seed = int(cfg["seed"])
    folds_k = int(cfg["folds"])
    methods = _canon_methods(cfg["methods"], _DD_METHODS, "double_descent")
    ratios = tuple(float(v) for v in cfg["u_star_over_n"])
    points = [_dd_point(int(round(r * n)), n) for r in ratios]  # validate all first
    u_stars = [int(round(r * n)) for r in ratios]
    risks = np.empty((len(ratios), len(methods)))
    ses = np.empty_like(risks)
    for g, (u_star, (p, P, alpha)) in enumerate(zip(u_stars, points)):
        sim = EnvelopeSimConfig(
            n=n, p=p, q=1, decay_gamma=1.0, P=P, alpha=alpha,
            Sigma_eps=[[10.0]], seed=seed, replications=R,
            eigenvalues=np.ones(p),
        )
        X, Gamma, beta_star, truth = _model_frame(sim, stream=g)
        Xc = _recenter(X)
        folds = _fold_indices(n, folds_k, [seed, g, _TAG_FOLDS])
        Ys = [_recenter(X @ beta_star + _draw_noise(sim, rep, g)) for rep in range(R)]
        Y = np.stack(Ys, axis=1)

        beta_hats = {}
        if "NIECE" in methods:
            # u* < n: least squares on all planted directions; u* = n: the
            # stability cap u = n - 1 avoids exact singularity; u* > n:
            # minimum-norm interpolation on all u* directions (pinv of the
            # wide reduced design).
            keep = n - 1 if u_star == n else u_star
            G_keep = Gamma[:, :keep]
            piv = np.linalg.pinv(Xc @ G_keep)
            beta_hats["NIECE"] = [G_keep @ (piv @ Yc) for Yc in Ys]
        if "EgReg" in methods:
            Xg = Xc @ Gamma
            svd_g = thin_svd(Xg)
            grid_g = _Grid("ridge", lam=_lambda_grid(svd_g.D[0] ** 2))
            best = _tune(svd_g, _fold_caches(Xg, folds), Y, grid_g)
            beta_hats["EgReg"] = [Gamma @ _final_fit(grid_g, b, svd_g, None, None, Yc)
                                  for b, Yc in zip(best, Ys)]
        if "EgReg(r)" in methods:
            svd_full = thin_svd(Xc)
            grid_x = _Grid("egreg", lam=_lambda_grid(svd_full.D[0] ** 2))
            best = _tune(svd_full, _fold_caches(Xc, folds), Y, grid_x)
            beta_hats["EgReg(r)"] = [
                _final_fit(grid_x, b, svd_full,
                           envelope_scores(svd_full, Xc.T @ Yc / n, svd_full.r), Xc, Yc)
                for b, Yc in zip(best, Ys)
            ]
        terms = np.vstack([empirical_risk_terms(beta_hats[m], truth) for m in methods])
        risks[g], ses[g] = _summarize(terms)
    return StudyResult(
        study="double_descent", grid_name="u_star_over_n", grid=ratios,
        methods=methods, risks=risks, ses=ses, config=dict(cfg), seed=seed,
    )


def run_study(study: str, config: dict | None = None) -> StudyResult:
    """Run one of the four studies: P1, u_star, baseline, double_descent.

    ``config`` overrides the study defaults; unknown keys are rejected so
    typos cannot silently fall back to defaults.  See ``CONFIG_SCHEMAS`` for
    the accepted keys per study.
    """
    if study not in _STUDY_DEFAULTS:
        raise ConfigError(
            f"unknown study {study!r}; expected one of {sorted(_STUDY_DEFAULTS)}"
        )
    cfg = dict(_STUDY_DEFAULTS[study])
    if config:
        unknown = sorted(set(config) - set(cfg))
        if unknown:
            raise ConfigError(f"unknown config key(s) for {study}: {', '.join(unknown)}")
        cfg.update(config)
    n, folds = int(cfg["n"]), int(cfg["folds"])
    if not 2 <= folds <= n:
        raise ConfigError(f"need 2 <= folds <= n, got folds={folds}, n={n}")
    if study == "baseline":
        return _run_baseline(cfg)
    if study == "double_descent":
        return _run_double_descent(cfg)
    return _run_envelope_study(study, cfg)


# ---------------------------------------------------------------------------
# Config schemas (JSON)
# ---------------------------------------------------------------------------

_POS_NUM = {"type": "number", "exclusiveMinimum": 0}
_POS_NUM_ARRAY = {"type": "array", "items": _POS_NUM, "minItems": 1}


def _schema(study, extra):
    props = {
        "study": {"const": study},
        "seed": {"type": "integer"},
        "replications": {"type": "integer", "minimum": 1},
        "n": {"type": "integer", "minimum": 2},
        "folds": {"type": "integer", "minimum": 2},
        "methods": {"type": "array", "items": {"type": "string"}, "minItems": 1},
    }
    props.update(extra)
    return {
        "type": "object",
        "properties": props,
        "required": ["study", "seed"],
        "additionalProperties": False,
    }


CONFIG_SCHEMAS = {
    "P1": _schema("P1", {
        "p1": {"type": "integer", "minimum": 1},
        "p_over_n": _POS_NUM_ARRAY,
        "decay_gamma": _POS_NUM,
        "sigma_eps_sq": _POS_NUM,
    }),
    "u_star": _schema("u_star", {
        "u_star": {"oneOf": [{"type": "integer", "minimum": 1}, {"const": "half"}]},
        "p_over_n": _POS_NUM_ARRAY,
        "decay_gamma": _POS_NUM,
        "sigma_eps_sq": _POS_NUM,
    }),
    "baseline": _schema("baseline", {
        "kind": {"enum": ["CS", "AR1"]},
        "rho": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
        "p_over_n": _POS_NUM_ARRAY,
        "sigma_eps_sq": _POS_NUM,
        "beta_star": {
            "oneOf": [
                {"type": "array", "items": {"type": "number"}, "minItems": 1},
                {"type": "null"},
            ]
        },
    }),
    "double_descent": _schema("double_descent", {
        "u_star_over_n": _POS_NUM_ARRAY,
    }),
}
