"""Data generators, k-fold cross-validation, and the four study drivers.

Replication protocol: the design X and true coefficients are fixed per seed,
and only the noise is redrawn across replications.  Random streams are
counter-based -- ``default_rng([seed, stream, tag, counter])`` with stream =
grid-point index and tags 0 (design), 1 (noise), 2 (fold shuffle) -- so grid
points and replications produce bitwise-identical results whether they run
serially or in parallel.

The four studies run through one loop, :func:`run_study`.  It parses the
shared config keys once (n, replications, folds, seed, methods and the grid),
checks every grid point, then computes them in turn.  A study only supplies
the design of a grid point, its *frame*: :func:`_model_frame` for P1, u_star
and double_descent, :func:`_baseline_frame` for baseline.  The generators
draw from the same frames and noise streams, so
``gen_envelope_model(cfg, rep=k, stream=g)`` and ``gen_baseline(...,
seed=s, rep=k, stream=g)`` return replication k of a study's grid point g.

The cross-validation scorer shares one implementation between
:func:`kfold_cv` and the study drivers.  Its responses carry a lane axis
(n x lanes x q): lanes share the design and the folds, and each gets its own
held-out SSE and its own pick.  A study stacks the R noise draws of a grid
point as R lanes and scores them in *lane blocks* of ``_LANE_BLOCK`` lanes,
which keeps CV memory flat in R: :func:`_tune` makes one :func:`_cv_sse`
call per block for all methods' grids, then picks each lane's entry by
:func:`_pick_best`.  :func:`kfold_cv` is the one-lane, one-grid case.  Each
training fold is factored once, from its rows of the design's PC
coordinates ``Z = U D`` (n_tr x rank, not n_tr x p), and the folds are kept
with Z as one zero-padded stack, :class:`_FoldStack`.  Folds of one size are
factored by one batched call: wide folds of a design with
``(sigma_r / sigma_1)^2 >= GRAM_TAU`` (1e-4) by ``eigh`` of their blocks of
the kernel ``Z Z'``, within about eps / GRAM_TAU of the SVD's factors, if every
fold passes :func:`~egreg.matrixcore._gram_ok`; all others by an SVD, bit for
bit :func:`~egreg.matrixcore._svd`.  PCR, ridge, NIECE and EgReg are
diagonal filters on the fold PCs (NIECE's is 0/1, in each lane's score
order).  A call forms the fold products once (``B = U'Y_tr``, the held-out
responses, the fold scores and NIECE's score order) and stacks the filters
of all grids of one kernel form into one pass over the folds.  Grids that
read one term count (ridge, NIECE, full-rank EgReg) share a residual-form
pass; the others (PCR, EgReg d x lambda) share a Gram-form pass whose
increments are summed over folds before one cumulative sum over the terms.
The Gram form's error is absolute, about eps k ||y_va||^2, so its scores
are clamped at 0.  SIMPLS runs all folds x lanes as the lanes of one
lockstep recurrence on ``U D``, with a 0/1 training-row mask per fold, and
drops a lane's rows when it stops.  A pick is each lane's first minimum in
a tie order formed once per grid, :attr:`_Grid.ties`.

A study call that tunes ridge alone (double_descent's known-basis EgReg)
factors no fold when :func:`_deletion_pays`: :func:`_ridge_deletion` gives
ridge's held-out residuals exactly from the whole design's SVD, by the
block-deletion identity ``e_f = (I - H_ff)^-1 ((I - H) y)_f``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .envscore import _score_order, envelope_scores
from .estimators import (_check_params, _coefficients, _require_centered, _shrink, _simpls_lockstep,
                         pcr_coefficients)
from .exceptions import ConfigError, ParameterError
from .matrixcore import (Dataset, _as_matrix, _gram_ok, _integer, _rank_of, _real, _real_array,
                         _recenter, thin_svd)
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
    study uses that override.  ``n`` (>= 2), ``p``, ``q``, the indices in
    ``P`` (>= 1) and ``seed`` (>= 0) are integers; a bad field raises
    ``ConfigError``.
    """

    n: int
    p: int
    q: int
    decay_gamma: float
    P: tuple
    alpha: np.ndarray
    Sigma_eps: np.ndarray
    seed: int
    eigenvalues: np.ndarray | None = None

    def __post_init__(self):
        for key, low in (("n", 2), ("p", 1), ("q", 1), ("seed", 0)):
            object.__setattr__(self, key, _integer(key, getattr(self, key), low, ConfigError))
        if not isinstance(self.P, (Sequence, np.ndarray)):
            raise ConfigError(f"P must be a sequence of indices, got {self.P!r}")
        P = tuple(_integer("P index", i, 1, ConfigError) for i in self.P)
        object.__setattr__(self, "P", P)
        if not P:
            raise ConfigError("P must be a non-empty index set")
        if any(b <= a for a, b in zip(P, P[1:])):
            raise ConfigError("P must be strictly increasing")
        if P[-1] > self.p:
            raise ConfigError(f"P contains index {P[-1]} outside 1..p = 1..{self.p}")
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
        try:
            np.linalg.cholesky(Se)    # the noise draws use this factor
        except np.linalg.LinAlgError:
            raise ConfigError(f"Sigma_eps must be positive definite, got {Se.tolist()}") from None
        if self.eigenvalues is not None:
            ev = _real_array(self.eigenvalues, "eigenvalues")
            if ev.shape != (self.p,) or np.any(ev <= 0) or np.any(np.diff(ev) > 0):
                raise ConfigError("eigenvalues must be p positive nonincreasing values")
            object.__setattr__(self, "eigenvalues", ev)
        elif not _real("decay_gamma", self.decay_gamma, ConfigError) > 0:
            raise ConfigError("decay_gamma must be positive")

    @property
    def u_star(self) -> int:
        return len(self.P)

    def spectrum(self) -> np.ndarray:
        """Eigenvalues of Sigma_x, largest first."""
        if self.eigenvalues is not None:
            return self.eigenvalues
        return 10.0 * np.exp(-self.decay_gamma * np.arange(self.p))


def _lift(planted, B, p):
    """``Gamma @ B`` for the coordinate basis Gamma = (e_j, j in ``planted``):
    B's rows scattered into the p-row zero matrix.  Each entry of the
    product is one term, so this is bit-identical to it."""
    out = np.zeros((p, B.shape[1]))
    out[planted] = B
    return out


def _model_frame(cfg: EnvelopeSimConfig, stream: int = 0):
    """Design-side draws (fixed across replications): X, truth, planted indices.

    Drawn in Sigma_x's eigenbasis: ``X = Z sqrt(sig)``, the planted basis
    Gamma the columns e_j for j in P, and Sigma_x's factor diagonal.  So the
    truth's factor is the vector ``sqrt(sig)`` and the basis is returned as
    its 0-based column indices ``P - 1``: no p-by-p or p-by-u* array is
    formed, and ``X Gamma`` is the column selection ``X[:, planted]``.  The
    study methods see X only through its thin SVD, X'Y or SIMPLS, and a risk
    is ``||L'(b - beta*)||^2``, so in exact arithmetic the risks equal those
    of the frame rotated by any orthogonal Q (``X Q'``, ``Q beta*``, ``Q
    Gamma``).  Z is the first n-by-p draw of the design stream.
    """
    sig = cfg.spectrum()
    rng = np.random.default_rng([cfg.seed, stream, _TAG_MODEL])
    X = rng.standard_normal((cfg.n, cfg.p)) * np.sqrt(sig)
    planted = np.asarray(cfg.P) - 1
    beta = _lift(planted, cfg.alpha, cfg.p)
    return X, TruthSpec(beta, None, cfg.Sigma_eps, np.sqrt(sig)), planted


def _responses(X, truth: TruthSpec, seed, stream, reps):
    """Uncentered ``X beta* + E`` per replication in ``reps``; E's rows are N(0, Sigma_eps)."""
    signal = X @ truth.beta_star
    L = np.linalg.cholesky(truth.Sigma_eps)
    return [signal + np.random.default_rng([seed, stream, _TAG_NOISE, rep])
            .standard_normal(signal.shape) @ L.T for rep in reps]


def gen_envelope_model(cfg: EnvelopeSimConfig, rep: int = 0, stream: int = 0):
    """Draw one planted-envelope dataset.

    Returns ``(data, truth, planted_basis)``: a centered :class:`Dataset`,
    the generating :class:`TruthSpec` (beta* = Gamma alpha, Sigma_eps, and
    Sigma_x's diagonal factor as a vector), and the p-by-u* planted basis
    Gamma.  The design is drawn in Sigma_x's eigenbasis, so Gamma is the
    columns e_j, j in P, built here from the frame's indices; for a generic
    basis, rotate X, beta* and Gamma by any orthogonal Q (see
    :func:`_model_frame`).
    The design depends only on ``(seed, stream)``; ``rep`` indexes the noise
    draw so replications share X and beta*.  The studies draw the same way,
    so ``stream=g`` gives replication ``rep`` of a study's grid point g.
    ``rep`` and ``stream`` are integers >= 0.
    """
    rep, stream = _integer("rep", rep, 0), _integer("stream", stream, 0)
    X, truth, planted = _model_frame(cfg, stream)
    Y = _responses(X, truth, cfg.seed, stream, [rep])[0]
    Gamma = _lift(planted, np.eye(planted.size), cfg.p)
    return Dataset(_recenter(X), _recenter(Y), centered=True), truth, Gamma


_BASELINE_BETA = (2.0, -2.0, 1.0, -1.0, 0.5, -0.5)


def _baseline_inputs(kind, rho, sigma_eps_sq, error):
    """A CS/AR1 design's ``(KIND, rho, sigma_eps_sq)``: kind CS or AR1 in any
    case, 0 <= rho < 1 and a noise variance > 0; a bad one raises ``error``."""
    upper = str(kind).upper()
    if upper not in ("CS", "AR1"):
        raise error(f"kind must be 'CS' or 'AR1', got {kind!r}")
    rho = _real("rho", rho, error)
    if not 0.0 <= rho < 1.0:
        raise error(f"rho must lie in [0, 1), got {rho}")
    return upper, rho, _noise_variance(sigma_eps_sq, error)


def _noise_variance(sigma_eps_sq, error):
    """A finite noise variance > 0 (the noise draws take its Cholesky factor), else ``error``."""
    sigma_eps_sq = _real("sigma_eps_sq", sigma_eps_sq, error)
    if not sigma_eps_sq > 0:
        raise error(f"sigma_eps_sq must be positive, got {sigma_eps_sq}")
    return sigma_eps_sq


def _baseline_sigma(kind: str, p: int, rho: float):
    """Sigma_x of a checked (upper-case) kind: compound symmetry or AR(1)."""
    if kind == "CS":
        return rho * np.ones((p, p)) + (1.0 - rho) * np.eye(p)
    idx = np.arange(p)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def _reals(name, values, error):
    """A list of finite numbers as a tuple of floats; anything else raises ``error``."""
    if not isinstance(values, (list, tuple, np.ndarray)):
        raise error(f"{name} must be a list of numbers, got {values!r}")
    return tuple(_real(name, v, error) for v in values)


def _baseline_beta(p: int, stub, error):
    stub = _BASELINE_BETA if stub is None else _reals("beta_star", stub, error)
    if len(stub) > p:
        raise error(f"beta_star has {len(stub)} entries but p = {p}")
    beta = np.zeros((p, 1))
    beta[: len(stub), 0] = stub
    return beta


def _baseline_frame(kind, n, beta, rho, sigma_eps_sq, seed, stream=0):
    """Design-side draws of a CS/AR1 design: X, truth (Sigma_x's factor alone), no planted basis."""
    L = np.linalg.cholesky(_baseline_sigma(kind, beta.shape[0], rho))
    X = np.random.default_rng([seed, stream, _TAG_MODEL]).standard_normal((n, L.shape[0])) @ L.T
    return X, TruthSpec(beta, None, [[sigma_eps_sq]], L), None


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

    ``beta_star`` defaults to (2, -2, 1, -1, 1/2, -1/2, 0, ..., 0), which
    needs p >= 6; shorter vectors are zero-padded to length p.  As in
    :func:`gen_envelope_model`, the design is fixed per ``(seed, stream)``,
    ``rep`` indexes the noise draw, and ``stream=g`` gives replication
    ``rep`` of the baseline study's grid point g.  ``n`` (>= 2), ``p`` (>= 1),
    ``seed``, ``rep`` and ``stream`` (>= 0) are integers; a bad input raises
    ``ParameterError``.  The truth holds Sigma_x's Cholesky factor L alone;
    ``truth.Sigma_x`` is ``L L'``, formed on first read at O(p^3) cost, and
    equals the CS/AR1 Sigma_x within 1e-10 relative, not bit for bit.
    """
    kind, rho, sigma_eps_sq = _baseline_inputs(kind, rho, sigma_eps_sq, ParameterError)
    n, p, seed, rep, stream = (_integer(key, v, low) for key, v, low in (
        ("n", n, 2), ("p", p, 1), ("seed", seed, 0), ("rep", rep, 0), ("stream", stream, 0)))
    X, truth, _ = _baseline_frame(kind, n, _baseline_beta(p, beta_star, ParameterError), rho,
                                  sigma_eps_sq, seed, stream)
    Y = _responses(X, truth, seed, stream, [rep])[0]
    return Dataset(_recenter(X), _recenter(Y), centered=True), truth


# ---------------------------------------------------------------------------
# Cross-validation
# ---------------------------------------------------------------------------

def _fold_indices(n, k, seed):
    rng = np.random.default_rng(seed)
    return np.array_split(rng.permutation(n), k)


@dataclass
class _FoldStack:
    """Every training fold of one design, factored and zero-padded to one shape.

    Fold f trains on rows ``tr[f]`` and holds out rows ``va[f]`` of ``Z``,
    the design's PC coordinates ``U D``, which SIMPLS CV reads.  Its training
    rows have the thin SVD ``U[f] diag(D[f]) V_f'`` of rank ``r[f]``, and
    ``A[f] = Z[va[f]] V_f / D[f]`` holds its held-out rows in whitened fold-PC
    coordinates, factored as :func:`_fold_caches` says.  Folds are padded to
    the largest training fold, held-out fold and rank: a padded index is n
    (one row past the data), and padded rows and columns of U, D and A are
    zero, so they add exact zeros to every score.  A fold PC keeps the sign
    LAPACK gave it: flipping it flips its U and A columns together, which
    cancels in every CV score.
    """

    Z: np.ndarray       # n x rank: the design's U D
    tr: np.ndarray      # folds x n_tr row indices
    va: np.ndarray      # folds x m row indices
    n_tr: np.ndarray    # training rows per fold
    r: np.ndarray       # rank per fold
    U: np.ndarray       # folds x n_tr x k
    D: np.ndarray       # folds x k
    A: np.ndarray       # folds x m x k

    @cached_property
    def M(self):
        """``2 tril(A'A, -1) + diag(A'A)`` per fold, the Gram form's matrix.

        Formed on the first call of a grid that reads partial sums (PCR,
        EgReg d x lambda), then kept for the design's other grids and lane
        blocks.
        """
        k = self.D.shape[1]
        return (self.A.transpose(0, 2, 1) @ self.A) * (2.0 * np.tri(k, k, -1) + np.eye(k))


def _fold_caches(svd, folds) -> _FoldStack:
    """Factor each fold from its rows of ``Z = U D`` (``X = U D V'``, so ``X[tr] = Z[tr] V'``).

    The training folds of one size are stacked and factored by one batched
    LAPACK call.  A stack of wide folds (n_tr <= rank) in a design whose
    ``(sigma_r / sigma_1)^2 >= GRAM_TAU`` is factored by one
    ``np.linalg.eigh`` of its blocks ``K[tr, tr]`` of the design's kernel
    ``K = Z Z'``.  A wide fold of full row rank has ``K[tr, tr] = U D^2
    U'``, so its U is the eigenvectors (descending), D the square roots of
    the eigenvalues and its rank n_tr, and ``A = Z[va] V / D = K[va, tr] U
    / D^2``; no V is formed.  The stack keeps these factors if every fold's
    smallest eigenvalue is at least ``GRAM_TAU`` times its largest (the gate
    :func:`~egreg.matrixcore._gram_ok` of ``thin_svd`` too), and then U, D and
    A are within about eps / GRAM_TAU of the SVD's, relative to scale.  A
    square stack (n_tr = rank, as leave-one-out folds of a wide centered
    design) is tried only where its held-out rows make the check certain,
    ``D_r^2 (1 - ||U[va]||^2) >= GRAM_TAU D_1^2``.
    Every other stack (tall folds, graded spectra, rank-deficient or zero
    folds, a stack that fails the check) is factored by one
    ``np.linalg.svd`` call and cut at each fold's numerical rank, as
    :func:`~egreg.matrixcore.thin_svd` cuts: those folds equal its SVD branch
    :func:`~egreg.matrixcore._svd` of their rows bit for bit.
    """
    Z = svd.U * svd.D
    n = Z.shape[0]
    trs = []
    for va in folds:    # not np.setdiff1d, whose first call imports numpy.ma (1 MB RSS)
        train = np.ones(n, bool)
        train[va] = False
        trs.append(np.flatnonzero(train))
    n_tr = np.array([tr.size for tr in trs])
    tr, va = (np.full((len(folds), max(map(len, rows))), n) for rows in (trs, folds))
    for f, (t, v) in enumerate(zip(trs, folds)):
        tr[f, :t.size], va[f, :v.size] = t, v
    wide = n_tr.min() <= svd.r and _gram_ok(svd.D[-1] ** 2, svd.D[0] ** 2)
    K = Z @ Z.T if wide else None
    cuts = [None] * len(folds)    # per fold: U, D and A, cut at its rank
    for size in dict.fromkeys(n_tr.tolist()):
        at = np.flatnonzero(n_tr == size)
        rows = tr[at, :size]
        u2 = (np.linalg.norm(svd.U[va[at, :n - size]], 2, (1, 2)).max() ** 2
              if wide and size == svd.r else 0)
        if wide and size <= svd.r and _gram_ok(svd.D[-1] ** 2 * (1 - u2), svd.D[0] ** 2):
            lam, W = np.linalg.eigh(K[rows[:, :, None], rows[:, None]])
            if _gram_ok(lam[:, 0], lam[:, -1]):
                for j, f in enumerate(at):
                    U, s2 = W[j, :, ::-1], lam[j, ::-1]
                    cuts[f] = U, np.sqrt(s2), K[folds[f][:, None], rows[j]] @ U / s2
                continue
        U, s, Vt = np.linalg.svd(Z[rows], full_matrices=False)
        for j, f in enumerate(at):
            rf = _rank_of(s[j])
            cuts[f] = U[j, :, :rf], s[j, :rf], (Z[folds[f]] @ Vt[j, :rf].T) / s[j, :rf]
    r = np.array([cut[1].size for cut in cuts])
    k = int(r.max())
    stack = _FoldStack(Z, tr, va, n_tr, r, np.zeros((len(folds), tr.shape[1], k)),
                       np.zeros((len(folds), k)), np.zeros((len(folds), va.shape[1], k)))
    for f, (U, s, A) in enumerate(cuts):
        stack.U[f, :n_tr[f], :r[f]] = U
        stack.D[f, :r[f]] = s
        stack.A[f, :folds[f].size, :r[f]] = A
    return stack


def _fold_phi(folds: _FoldStack, B):
    """Envelope scores of every training fold, one row per lane: folds x lanes x k.

    With B = U'Y_tr (folds x lanes x q x k), the score of PC j is (sigma_j ||B_j|| / n_tr)^2.
    """
    n_tr = folds.n_tr.astype(float)[:, None, None]
    return (folds.D**2)[:, None] * np.einsum("flqj,flqj->flj", B, B) / n_tr**2


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

    @cached_property
    def ties(self):
        """The entries in tie-break order: smaller d/u, then larger lambda, then the first."""
        size = np.where(self.u > 0, self.u, np.where(self.d > 0, self.d, np.inf))
        return np.lexsort((-self.lam, size))


def _parse_grid(method, entries) -> _Grid:
    """Check a list-of-dicts grid by the rule fits follow and turn it into a :class:`_Grid`."""
    if not entries:
        raise ParameterError("parameter grid is empty")
    checked = [_check_params(method, e) for e in entries]
    d, u, lam = ([e.get(key, 0) for e in checked] for key in ("d", "u", "lambda"))
    return _Grid(method, d, u, lam)


def _entry_sizes(grid: _Grid, r_f):
    """Each entry's d on a training fold of rank r_f (a missing d is r_f), checked."""
    d = np.where(grid.d > 0, grid.d, r_f)
    if d.max() > r_f:
        raise ParameterError(f"d = {d.max()} exceeds a training-fold rank {r_f}")
    if np.any(grid.u > d):
        i = int(np.argmax(grid.u > d))
        raise ParameterError(f"u = {grid.u[i]} exceeds the candidate pool {d[i]}")
    return d


def _simpls_cv_sse(folds: _FoldStack, Y, d):
    """Held-out SSE after 0..d SIMPLS components, pooled over folds: (d+1) x lanes.

    Every fold x lane pair is one lane of :func:`_simpls_lockstep` on the
    design's coordinates ``folds.Z`` (``X = Z V'``); a fold is a 0/1 mask of its
    training rows.  Held-out predictions grow one component at a time, and
    a lane that stops early keeps its last fit: its rows are dropped from
    the running arrays when it stops.
    """
    n, lanes, _ = Y.shape
    n_folds = folds.va.shape[0]
    train = np.ones((n_folds, n + 1))            # column n takes the padded indices
    train[np.arange(n_folds)[:, None], folds.va] = 0.0
    train = np.repeat(train[:, :n], lanes, axis=0)    # pair (fold f, lane l) is f * lanes + l
    Yp = np.tile(Y.transpose(1, 0, 2), (n_folds, 1, 1))
    held = 1.0 - train
    fit = np.zeros_like(Yp)
    live = np.arange(Yp.shape[0])
    sse = np.empty((d + 1, live.size))
    sse[:] = np.einsum("ln,lnq,lnq->l", held, Yp, Yp)
    for c, (keep, _, t, zr) in enumerate(_simpls_lockstep(folds.Z, Yp, train, d), start=1):
        if keep is not None:
            live, Yp, fit, held = live[keep], Yp[keep], fit[keep], held[keep]
        fit += zr[:, :, None] * np.einsum("ln,lnq->lq", t, Yp)[:, None]
        resid = Yp - fit
        sse[c:, live] = np.einsum("ln,lnq,lnq->l", held, resid, resid)
    return sse.reshape(d + 1, n_folds, lanes).sum(axis=1)


#: Target floats in the largest working array of one chunk of folds in
#: :func:`_cv_sse` (128 KiB); a chunk holds at least one fold, and one only
#: at most study grid points.  Arrays of every fold at once run to megabytes:
#: they spill the CPU caches, and with glibc's mmap threshold pinned (as the
#: benchmark pins it) their pages go back to the kernel on every free.  At
#: P1's shapes (4 lanes, fold rank 50 and 90, one BLAS thread) this chunk
#: scored the EgReg grids up to 2x faster than all folds at once.
_CHUNK_FLOATS = 2**14


def _grid_filters(grid: _Grid, folds: _FoldStack, phi, order):
    """A filter grid's filters on the fold PCs: ``(rows, size, f)``.

    ``f(at)`` gives the ``size`` filters of the folds in slice ``at`` (chunk
    or 1 x size x lanes or 1 x k), and entry e reads filter ``rows[e]``.  Ridge
    and EgReg shrink by s/(s + lambda) per lambda, ridge with s = D^2 and
    EgReg with the fold scores ``phi``; PCR keeps every term whole.  NIECE
    keeps an entry's first u PCs in each lane's score ``order``, its
    candidate pool's members first: a 0/1 filter per entry.
    """
    if grid.method == "niece":
        pools, pool = np.unique(grid.d, return_inverse=True)
        size = np.where(pools > 0, pools, folds.r[:, None])[:, :, None, None]   # 0: full rank
        order = np.take_along_axis(order[:, None], np.argsort(order[:, None] >= size, axis=-1,
                                                              kind="stable"), axis=-1)
        place = np.argsort(order, axis=-1)                  # each PC's place in that order
        u = grid.u[:, None, None]
        return np.arange(u.size), u.size, lambda at: place[at, pool] < u
    lam, rows = np.unique(grid.lam, return_inverse=True)
    if grid.method == "pcr":
        return rows, 1, lambda at: np.ones((1, 1, 1, folds.D.shape[1]))
    s = (folds.D**2)[:, None] if grid.method == "ridge" else phi
    return rows, lam.size, lambda at: _shrink(s[at, None], lam[:, None, None])


def _cv_sse(folds: _FoldStack, Y, grids) -> list:
    """Pooled held-out SSE for every entry and lane of each grid in ``grids``:
    one entries x lanes array per grid, in order.

    ``Y`` is n x lanes x q; lanes share the design and the folds (a study's
    replications are its lanes).  ``folds`` factor each fold from the
    design's PC coordinates ``folds.Z``, on which SIMPLS runs all folds x
    lanes in lockstep.  Like the fold SVDs, Z leaves out directions below
    the numerical rank: they carry only rounding noise, which late
    components would fit.

    Every other method predicts a held-out row ``a`` as ``sum_j a_j h_j``
    with ``h = f B`` a filter on the fold's PCs (:func:`_grid_filters`),
    ``B = U'Y_tr``, and an entry reads the SSE after its first c terms;
    NIECE's entries read all terms.  ``B``, the held-out responses, the fold
    scores and NIECE's score order are formed once for all grids.  Grids
    whose entries all read one c (ridge, NIECE, full-rank EgReg) share one
    residual-form pass per c; the others (PCR, EgReg d x lambda) share one
    Gram-form pass.  A pass scores its folds a chunk at a time, the filters
    of all its grids and every lane of a chunk at once.  The residual form
    is one batched matrix product per chunk.  The Gram form is ``SSE(c) =
    ||y_va||^2 + sum_{j<c} h_j ((M h)_j - 2 g_j)`` with M of
    :attr:`_FoldStack.M` and ``g = A'y_va``: the increments are summed over
    folds, then one cumulative sum over the terms gives every c.  Its
    absolute error is about eps k ||y_va||^2, so a score that should be 0
    can round below it; it is clamped at 0.  Stacking the filters of
    several grids can move a product's last bit, not more.
    """
    for grid in grids:
        for r in dict.fromkeys(folds.r.tolist()):    # fold order: the first fold too small raises
            _entry_sizes(grid, r)
    n, lanes, q = Y.shape
    n_folds, m, k = folds.A.shape
    out = [None] * len(grids)
    passes = {}    # (Gram form?, terms read) -> (position, terms of each entry) of its grids
    for i, grid in enumerate(grids):
        if grid.method == "simpls":
            out[i] = _simpls_cv_sse(folds, Y, int(grid.d.max()))[grid.d]
            continue
        cols = np.where(grid.d > 0, grid.d, k) if grid.method != "niece" else np.array([k])
        gram = bool(np.any(cols != cols[0]))
        passes.setdefault((gram, k if gram else int(cols[0])), []).append((i, cols))
    if not passes:
        return out
    Yp = np.concatenate([Y.reshape(n, -1), np.zeros((1, lanes * q))])    # row n: the padding
    B = (folds.U.transpose(0, 2, 1) @ Yp[folds.tr]).reshape(n_folds, k, lanes, q)
    B = np.ascontiguousarray(B.transpose(0, 2, 3, 1))          # folds x lanes x q x k
    Yva = Yp[folds.va].transpose(0, 2, 1)                      # folds x lanes q x m
    methods = {grid.method for grid in grids}
    phi = _fold_phi(folds, B) if methods & {"niece", "egreg"} else None
    order = _score_order(phi, folds.D[:, None]) if "niece" in methods else None  # folds x lanes x k
    for (gram, c), members in passes.items():
        filters = [_grid_filters(grids[i], folds, phi, order) for i, _ in members]
        starts = np.cumsum([0] + [size for _, size, _ in filters])
        step = max(1, _CHUNK_FLOATS // (starts[-1] * lanes * q * c))
        total = 0.0    # summed fold by fold, so no score depends on the chunking
        for at in (slice(j, j + step) for j in range(0, n_folds, step)):
            A = folds.A[at, :, :c]
            H = np.empty((A.shape[0], starts[-1], lanes, q, c))     # chunk x L x lanes x q x c
            for (_, _, f), a, b in zip(filters, starts, starts[1:]):
                np.multiply(f(at)[:, :, :, None, :c], B[at, None, ..., :c], out=H[:, a:b])
            if not gram:
                R = H.reshape(H.shape[0], -1, c) @ A.transpose(0, 2, 1)
                R = R.reshape(H.shape[0], -1, lanes * q, m)
                R -= Yva[at, None]
                R = R.reshape(*R.shape[:2], lanes, q * m)
                for sse in np.einsum("flrm,flrm->flr", R, R):
                    total += sse
                continue
            Mh = (H.reshape(H.shape[0], -1, k) @ folds.M[at].transpose(0, 2, 1)).reshape(H.shape)
            Mh -= 2.0 * (Yva[at] @ A).reshape(-1, 1, lanes, q, k)
            H *= Mh
            for inc in H.sum(axis=3):
                total += inc
        if gram:
            total = np.cumsum(total, axis=-1)
            yy = np.einsum("nlq,nlq->l", Y, Y)
        for (i, cols), (rows, _, _), a in zip(members, filters, starts):
            if not gram:
                out[i] = total[a + rows]
                continue
            sse = total[a + rows, :, cols - 1]
            sse += yy
            out[i] = np.maximum(sse, 0.0, out=sse)
    return out


def _deletion_pays(svd, folds, n_lam) -> bool:
    """Whether :func:`_ridge_deletion` does less work than factoring the folds:
    ``L m^2 (m + r)`` against ``n_tr r^2``, summed over folds (L lambdas, m
    held-out rows, r the design's rank).  That prices the folds at the SVD's
    cost; the kernel path of :func:`_fold_caches` is cheaper, but at
    double_descent's u*/n = 0.75, 0.9 and 1.5 (n = 100, 10 folds, one BLAS
    thread) the identity still took less than half of the fold stack's
    time, so the rule stands."""
    m = np.array([va.size for va in folds])
    n = svd.U.shape[0]
    return n_lam * int(np.sum(m**2 * (m + svd.r))) < int(np.sum(n - m)) * svd.r**2


def _ridge_deletion(svd, folds, lam):
    """Ridge CV by the exact block-deletion identity, with no fold factored.

    With ``H = U diag(D^2/(D^2+lam)) U'`` the whole design's hat matrix,
    fold f's held-out residuals are ``e_f = (I - H_ff)^-1 ((I - H) y)_f``
    for every lam > 0.  ``I - H = W W' + U diag(lam/(D^2+lam)) U'`` with W
    an orthonormal complement of U; ``(W W')_ff = P'P`` for P the held-out
    unit vectors projected twice against U, so no n x n array and no
    cancelling ``I - U_f U_f'`` is formed.  ``(I - H_ff)^-1`` is formed here
    once per fold and lambda, folds of one size stacked; the returned
    scorer maps a lane block's Y (n x lanes x q) to ``[lam x lanes]`` SSE,
    as :func:`_cv_sse` does for one ridge grid.  ``(I - H) y`` is formed the
    same way, from y projected twice against U.
    """
    U = svd.U
    g = lam[:, None] / (svd.D**2 + lam[:, None])       # lam x r: the filter of I - H
    groups = []
    for size in dict.fromkeys(va.size for va in folds):
        va = np.array([rows for rows in folds if rows.size == size])
        inv = np.empty((len(va), lam.size, size, size))
        for f, rows in enumerate(va):
            P = U @ -U[rows].T
            P[rows, np.arange(size)] += 1.0
            P -= U @ (U.T @ P)
            K = (U[rows] * g[:, None]) @ U[rows].T
            K += P.T @ P
            inv[f] = np.linalg.inv(K)
        groups.append((va, inv))

    def sse(Y):
        n, lanes, q = Y.shape
        y = Y.reshape(n, -1)
        C = U.T @ y
        y = y - U @ C
        y -= U @ (U.T @ y)
        E = y + U @ (g[:, :, None] * C)                 # lam x n x lanes q: (I - H) y
        total = 0.0
        for va, inv in groups:
            e = inv @ E[:, va].transpose(1, 0, 2, 3)     # folds x lam x m x lanes q
            e = e.reshape(*e.shape[:3], lanes, q)
            total = total + np.einsum("flmjq,flmjq->lj", e, e)
        return [total]

    return sse


def _pick_best(grid: _Grid, scores):
    """Best entry per lane (scores: entries x lanes): lowest score, then
    smaller d/u, then larger lambda, then the first entry.

    Each lane's first minimum in the grid's tie order :attr:`_Grid.ties`.
    A NaN score ranks last, as ``np.lexsort`` ranks it.
    """
    s = scores.T[:, grid.ties]
    best = np.argmin(s, axis=1)
    nan = np.isnan(s[np.arange(s.shape[0]), best])    # argmin stops at a lane's first NaN
    if nan.any():
        best[nan] = np.argsort(s[nan], axis=1, kind="stable")[:, 0]
    return grid.ties[best]


#: Lanes scored and picked together.  It bounds CV working memory whatever
#: the number of replications: SIMPLS holds a deflation basis of folds x
#: lanes x d x rank(X) floats.  At R = 100 (one BLAS thread on a 2-core VM,
#: glibc mmap threshold 1 MiB) the baseline study peaks at 49.4-49.7 MB RSS
#: in blocks of 4 (5.1-5.9 s) and at 54.3 MB in blocks of 8 (4.9-5.2 s).
_LANE_BLOCK = 4


def _tune(stack, Y, grids):
    """CV picks per lane of ``Y`` (n x lanes x q), one array per grid in
    ``grids``, scored by :func:`_cv_sse` on the fold stack."""
    return _pick_blocks(partial(_cv_sse, stack, grids=grids), Y, grids)


def _pick_blocks(score, Y, grids):
    """CV picks per lane of ``Y``, one array per grid in ``grids``.  Each
    block of ``_LANE_BLOCK`` lanes is scored for all grids by one ``score``
    call (block -> one entries x lanes SSE per grid) and picked before the
    next, so no block's scores outlive its picks."""
    n = Y.shape[0]
    picks = [[] for _ in grids]
    for i in range(0, Y.shape[1], _LANE_BLOCK):
        for grid, pick, sse in zip(grids, picks, score(Y[:, i:i + _LANE_BLOCK])):
            pick.append(_pick_best(grid, sse / n))
    return [np.concatenate(pick) for pick in picks]


def kfold_cv(data: Dataset, method: str, param_grid, k: int = 10, seed=0):
    """Select tuning parameters by k-fold cross-validation.

    Folds come from a seeded shuffle split into contiguous blocks.  The score
    of a grid entry is the mean held-out squared prediction error (summed
    over response columns, pooled over folds).  Ties break toward the smaller
    d/u and then the larger lambda.

    ``param_grid`` is a list or tuple of dicts with keys among {"d", "u",
    "lambda"}, e.g. ``[{"d": 2}, {"d": 3}]`` for PCR or ``[{"d": 3,
    "lambda": 0.1}, ...]`` for EgReg (omit "d" for the full-rank EgReg
    variant).  Grid entries follow the rule fits follow, so ``best_params``
    can be passed to :func:`~egreg.estimators.fit_method` as it is: ``d``
    and ``u`` are integers >= 1 (integral floats included), ``lambda`` is
    finite, > 0 for ridge and >= 0 for EgReg, and a key the method does not
    use is an error; ``k`` is an integer with 2 <= k <= n, and ``seed`` an
    integer >= 0.  ``data`` is a centered :class:`Dataset`, as fits need.  Returns
    ``(best_params, cv_table)`` where the table carries a "cv_score" per
    entry.

    A grid whose entries read different numbers of PCs (PCR, EgReg with d)
    is scored in the Gram form of :func:`_cv_sse`: each score is within
    about eps k ||Y||^2 / n of the exact one (k the training-fold rank), not
    within a relative eps, and never below 0.  Ridge, NIECE and full-rank
    EgReg grids are scored from the residuals themselves, so their error is
    relative to the score.  The folds are factored as the studies factor
    them (:func:`_fold_caches`, a stack that carries the design's ``U D``):
    wide folds of a well-conditioned design (``GRAM_TAU``) come from the
    kernel ``X X'``, within about eps / GRAM_TAU of the SVD's factors; all others
    from one batched SVD.
    """
    _require_centered(data)
    if not isinstance(param_grid, (list, tuple)) or not all(isinstance(e, Mapping)
                                                             for e in param_grid):
        raise ParameterError(f"param_grid must be a list of dicts, got {param_grid!r}")
    entries = [dict(e) for e in param_grid]
    grid = _parse_grid(str(method).lower(), entries)
    n = data.n
    if _integer("k", k, 2) > n:
        raise ParameterError(f"need 2 <= k <= n, got k={k}, n={n}")
    seed = _integer("seed", seed, 0)
    stack = _fold_caches(thin_svd(data.X), _fold_indices(n, k, seed))
    scores = _cv_sse(stack, data.Y[:, None], [grid])[0][:, 0] / n
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
    # A string is not a list: "pcr" would otherwise read as the methods p, c and r.
    if not isinstance(methods, (list, tuple)) or not methods:
        raise ConfigError(f"methods must be a non-empty list of method names, got {methods!r}")
    out = []
    for m in methods:
        label = _CANON_METHOD.get(str(m).lower())
        if label is None or label not in allowed:
            raise ConfigError(f"methods: {m!r} is not available in the {study} study")
        if label not in out:
            out.append(label)
    return tuple(out)


def _lambda_grid(sigma1_sq):
    return np.geomspace(1e-4 * sigma1_sq, 1e2 * sigma1_sq, LAMBDA_GRID_SIZE)


def _sample_fits(X, svd, Y, folds, methods):
    """CV-tune and refit each method on every replication's response.

    ``X`` is the centered design (read for the scores' X'Y only) and ``svd``
    its thin SVD, on which all methods refit; ``Y`` holds the replications
    as the lanes (n x R x q).  One :func:`_tune` call picks for every
    method, with one :func:`_cv_sse` call per lane block; a call whose one
    method is ridge scores by :func:`_ridge_deletion` instead, with no fold
    factored, where :func:`_deletion_pays`.  Each replication's envelope
    scores are computed only if NIECE or an EgReg variant is among
    ``methods``.  Returns ``{method: [beta_hat per replication]}``.
    """
    n = X.shape[0]
    lam = _lambda_grid(svd.D[0] ** 2)
    grids = {"Ridge": _Grid("ridge", lam=lam)}
    deletion = set(methods) == {"Ridge"} and _deletion_pays(svd, folds, lam.size)
    if not deletion:
        stack = _fold_caches(svd, folds)
        r_cap = min(svd.r, int(stack.r.min()))
        ds = np.arange(1, r_cap + 1)
        grids.update({
            "PCR": _Grid("pcr", d=ds),
            "NIECE": _Grid("niece", u=ds),
            "SIMPLS": _Grid("simpls", d=ds),
            "EgReg": _Grid("egreg", d=np.repeat(ds, lam.size), lam=np.tile(lam, r_cap)),
            "EgReg(r)": _Grid("egreg", lam=lam),
        })
    tuned = [grids[label] for label in methods]
    picks = (_pick_blocks(_ridge_deletion(svd, folds, lam), Y, tuned) if deletion
             else _tune(stack, Y, tuned))
    best = dict(zip(methods, picks))
    scored = not {"NIECE", "EgReg", "EgReg(r)"}.isdisjoint(methods)
    fits = {m: [] for m in methods}
    for rep in range(Y.shape[1]):
        Yc = np.ascontiguousarray(Y[:, rep])    # BLAS rounds a strided operand differently
        scores = envelope_scores(svd, X.T @ Yc / n, svd.r) if scored else None
        for label in methods:
            grid, i = grids[label], best[label][rep]
            d = int(grid.d[i]) or svd.r    # a missing d is the full rank
            fits[label].append(_coefficients(grid.method, svd, scores, Yc, d, int(grid.u[i]),
                                             float(grid.lam[i]))[0])
    return fits


def _known_basis_fits(Xc, planted, Y, folds, methods):
    """double_descent's NIECE and EgReg, which treat the planted basis Gamma as known.

    Gamma is the coordinate columns e_j, j in ``planted`` (0-based indices,
    :func:`_model_frame`), so the reduced design X Gamma is the column
    selection ``Xc[:, planted]`` and a reduced fit b lifts to Gamma b by
    :func:`_lift`.  Both come from one thin SVD of X Gamma.  NIECE is
    full-rank PCR on it, untuned: ordinary least squares of Y on X Gamma
    when u* <= n-1, and for u* > n the minimum-norm interpolator on all u*
    planted directions (the lambda -> 0 limit of the reduced ridge problem).
    At u* = n the stability cap u = n-1 keeps the first n-1 planted
    directions (the planted scores are all equal, so the tie-break keeps the
    lowest indices), whose reduced design NIECE factors on its own.  EgReg
    is ridge on the reduced design, tuned and refit by :func:`_sample_fits`
    (the planted scores are equal, so the score rescaling is a scalar
    absorbed by the lambda grid); past the work rule of
    :func:`_deletion_pays` (u*/n >= 0.75 at n = 100 and 10 folds) its CV
    factors no fold.  The sample PC-ranked NIECE cannot spike at u*/n = 1
    -- its reduced design is X's own singular frame -- which is why this
    study keeps the basis known.
    """
    n, p = Xc.shape
    capped = planted.size == n
    XG = Xc[:, planted]
    svd_g = thin_svd(XG) if "EgReg" in methods or not capped else None
    fits = {}
    if "NIECE" in methods:
        keep = planted[:n - 1] if capped else planted
        svd_k = thin_svd(Xc[:, keep]) if capped else svd_g
        fits["NIECE"] = [_lift(keep, pcr_coefficients(svd_k, Y[:, rep], svd_k.r), p)
                         for rep in range(Y.shape[1])]
    if "EgReg" in methods:
        ridge = _sample_fits(XG, svd_g, Y, folds, ["Ridge"])["Ridge"]
        fits["EgReg"] = [_lift(planted, b, p) for b in ridge]
    return fits


def _alternating(k):
    return (-1.0) ** np.arange(k)


def _point_frame(study, cfg, n, seed, ratio):
    """Check one grid point and return its frame, ``stream -> (X, truth, planted indices)``."""
    p = int(round(ratio * n))
    if study == "baseline":
        kind, rho, sigma_eps_sq = _baseline_inputs(cfg["kind"], cfg["rho"], cfg["sigma_eps_sq"],
                                                   ConfigError)
        return partial(_baseline_frame, kind, n, _baseline_beta(p, cfg["beta_star"], ConfigError),
                       rho, sigma_eps_sq, seed)
    sigma_eps_sq = _noise_variance(cfg.get("sigma_eps_sq", 10.0), ConfigError)
    if study == "P1":
        p1 = _integer("p1", cfg["p1"], 1, ConfigError)
        P, alpha = tuple(range(p1, p1 + 10)), _alternating(10)[:, None]
    elif study == "u_star":
        u_req = cfg["u_star"]
        u_star = min(n, p) // 2 if u_req == "half" else _integer("u_star", u_req, 1, ConfigError)
        if u_star < 1:
            raise ConfigError(f"u_star must be >= 1, got {u_star}")
        P = tuple(range(1, 2 * u_star, 2))
        mag = np.array([0.1]) if u_star == 1 else 0.1 + np.arange(u_star) * 0.9 / (u_star - 1)
        alpha = (_alternating(u_star) * mag)[:, None]
    else:
        # double_descent: the grid is u*/n on a flat spectrum, p = round(1.5 u*).
        u_star = p
        if u_star < 12:
            raise ConfigError(
                f"u_star_over_n = {ratio} gives u_star = {u_star}, which is infeasible: the "
                f"first material index 7 needs p = round(1.5 u_star) >= u_star + 6, i.e. "
                f"u_star >= 12"
            )
        p = int(np.rint(1.5 * u_star))
        P = tuple(range(7, 7 + u_star))
        eta = _alternating(u_star)
        alpha = (math.sqrt(10.0) * eta / np.linalg.norm(eta))[:, None]
    if P[-1] > p:
        raise ConfigError(
            f"p = {p} is too small for material indices up to {P[-1]} "
            f"(p_over_n = {ratio}, n = {n})"
        )
    return partial(_model_frame, EnvelopeSimConfig(
        n=n, p=p, q=1, decay_gamma=_real("decay_gamma", cfg.get("decay_gamma", 1.0), ConfigError),
        P=P, alpha=alpha, Sigma_eps=[[sigma_eps_sq]], seed=seed,
        eigenvalues=np.ones(p) if study == "double_descent" else None,
    ))


def run_study(study: str, config: dict | None = None) -> StudyResult:
    """Run one of the four studies: P1, u_star, baseline, double_descent.

    ``config`` overrides the study defaults in ``_STUDY_DEFAULTS``, whose
    keys are the only ones accepted, so a typo cannot silently fall back to
    a default.  This is the one validator of a study config: every value is
    checked, and every grid point built, before any is computed, and a bad
    study name, key or value raises ``ConfigError`` naming it.  double_descent
    fits NIECE and EgReg on the known planted basis (:func:`_known_basis_fits`);
    every other method, double_descent's EgReg(r) included, is tuned and fit
    by :func:`_sample_fits`.
    """
    if not isinstance(study, str) or study not in _STUDY_DEFAULTS:
        raise ConfigError(
            f"unknown study {study!r}; expected one of {sorted(_STUDY_DEFAULTS)}"
        )
    if config is not None and not isinstance(config, Mapping):
        raise ConfigError(f"config must be a mapping of keys to values, got {config!r}")
    cfg = dict(_STUDY_DEFAULTS[study])
    if config:
        unknown = sorted(set(config) - set(cfg))
        if unknown:
            raise ConfigError(f"unknown config key(s) for {study}: {', '.join(unknown)}")
        cfg.update(config)
    n, R, seed, folds_k = (_integer(key, cfg[key], low, ConfigError) for key, low in
                           (("n", 2), ("replications", 1), ("seed", 0), ("folds", 2)))
    if folds_k > n:
        raise ConfigError(f"need 2 <= folds <= n, got folds={folds_k}, n={n}")
    dd = study == "double_descent"
    methods = _canon_methods(cfg["methods"], _DD_METHODS if dd else _SAMPLE_METHODS, study)
    grid_name = "u_star_over_n" if dd else "p_over_n"
    grid = _reals(grid_name, cfg[grid_name], ConfigError)
    if not grid or not all(v > 0 for v in grid):
        raise ConfigError(f"{grid_name} must list one or more positive values, got {list(grid)}")
    frames = [_point_frame(study, cfg, n, seed, v) for v in grid]
    terms = []
    for g, frame in enumerate(frames):
        X, truth, planted = frame(stream=g)
        Xc = _recenter(X)
        folds = _fold_indices(n, folds_k, [seed, g, _TAG_FOLDS])
        Y = np.stack([_recenter(Y) for Y in _responses(X, truth, seed, g, range(R))], axis=1)
        fits = _known_basis_fits(Xc, planted, Y, folds, methods) if dd else {}
        sampled = [m for m in methods if m not in fits]
        if sampled:
            fits.update(_sample_fits(Xc, thin_svd(Xc), Y, folds, sampled))
        terms.append([empirical_risk_terms(fits[m], truth) for m in methods])
    terms = np.array(terms)    # grid points x methods x replications
    ses = terms.std(axis=2, ddof=1) / math.sqrt(R) if R > 1 else np.zeros(terms.shape[:2])
    return StudyResult(study=study, grid_name=grid_name, grid=grid, methods=methods,
                       risks=terms.mean(axis=2), ses=ses, config=dict(cfg), seed=seed)
