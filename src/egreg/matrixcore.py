"""Dense-matrix foundation used by every estimator and risk formula.

Centering/standardization with replayable transforms, a thin SVD with a
deterministic sign convention, and a Frobenius subspace distance.  All
operations are pure functions of their inputs and safe to share read-only
across threads.  The sign convention (:func:`_fix_signs`), the symmetry
check (:func:`_check_symmetric`) and the input rules live here for every
module: :func:`_integer`, :func:`_real` and :func:`_count` for scalars,
:func:`_real_array` for arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    ContractError,
    DegenerateColumnError,
    DimensionError,
    ParameterError,
    RankZeroError,
)

# Column means of a "centered" matrix must sit within this band of zero.
CENTER_TOL = 1e-10

#: Relative cutoff for the numerical rank of a design matrix.
DEFAULT_RANK_RTOL = 1e-10

#: Smallest (sigma_min / sigma_max)^2 at which a factorization may go through a cross product
#: (X'X, X X', a fold's F F'), whose factors are within about eps / GRAM_TAU of the SVD's.
GRAM_TAU = 1e-4

#: Most bytes in one row block of the factor that :func:`_gram_svd` forms (1 MiB).
GRAM_BLOCK_BYTES = 2**20


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


def _count(name, v, high, bound=None):
    """``v`` as an int with ``1 <= v <= high`` (a count such as d or u) by
    :func:`_integer`'s rule; out of range it raises :class:`DimensionError`,
    naming ``high`` as ``bound`` if given: "d must satisfy 1 <= d <= r = 5, got 6"."""
    v = _integer(name, v)
    if not 1 <= v <= high:
        where = high if bound is None else f"{bound} = {high}"
        raise DimensionError(f"{name} must satisfy 1 <= {name} <= {where}, got {v}")
    return v


def _real_array(a, name):
    """``a`` as a float array.  Ragged nesting, cells that are not numbers
    and complex values raise :class:`ContractError` naming the array."""
    try:
        arr = np.asarray(a)
        if arr.dtype.kind == "c":
            raise TypeError("complex values are not allowed")
        return arr.astype(float, copy=False)
    except (TypeError, ValueError) as exc:
        raise ContractError(f"{name} must be an array of real numbers: {exc}") from None


def _as_matrix(a, name="array"):
    """Coerce to a 2-D float array; 1-D input becomes a single column."""
    arr = _real_array(a, name)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise DimensionError(f"{name} must be non-empty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ContractError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class Transform:
    """Column-wise affine map fitted at ingestion and replayed at prediction.

    ``mode`` is ``"center"`` or ``"standardize"``; in center mode the scale
    vectors are all ones.  Transformed values are ``(raw - mean) / scale``.
    """

    mode: str
    x_mean: np.ndarray
    x_scale: np.ndarray
    y_mean: np.ndarray
    y_scale: np.ndarray


@dataclass(frozen=True)
class Dataset:
    """Predictor/response pair with an explicit centering state.

    Parameters
    ----------
    X : (n, p) array
        Predictor matrix.
    Y : (n, q) array
        Response matrix; a 1-D vector is treated as a single column.
    centered : bool
        If set, every column mean of X and Y must be within 1e-10 of zero
        (verified at construction).
    transform : Transform or None
        The ingestion transform, retained for prediction-time reuse.
    """

    X: np.ndarray
    Y: np.ndarray
    centered: bool = False
    transform: Transform | None = None

    def __post_init__(self):
        X = _as_matrix(self.X, "X")
        Y = _as_matrix(self.Y, "Y")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        if X.shape[0] != Y.shape[0]:
            raise DimensionError(
                f"X and Y must share their row count, got {X.shape[0]} and {Y.shape[0]}"
            )
        if X.shape[0] < 2:
            raise DimensionError(f"need at least 2 rows, got {X.shape[0]}")
        if self.centered:
            for name, M in (("X", X), ("Y", Y)):
                worst = float(np.max(np.abs(M.mean(axis=0))))
                if worst > CENTER_TOL:
                    raise ContractError(
                        f"{name} is flagged centered but max |column mean| = {worst:.3e}"
                    )

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def q(self) -> int:
        return self.Y.shape[1]


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD ``X = U diag(D) V'`` truncated at the numerical rank r.

    Columns of U and V are orthonormal; D is strictly positive and
    descending.  The sign of each column pair is fixed so that the
    largest-magnitude entry of every V column is positive.
    """

    U: np.ndarray
    D: np.ndarray
    V: np.ndarray
    r: int

    def __post_init__(self):
        if self.r < 1 or self.D.shape != (self.r,):
            raise DimensionError("rank/D mismatch in SvdFactors")
        if np.any(self.D <= 0) or np.any(np.diff(self.D) > 0):
            raise ContractError("singular values must be positive and descending")


def _check_symmetric(S, name, rtol):
    """Raise :class:`ContractError` unless ``max|S - S'| <= rtol * max(1, max|S|)``."""
    asym = float(np.max(np.abs(S - S.T)))
    if asym > rtol * max(1.0, float(np.max(np.abs(S)))):
        raise ContractError(f"{name} is not symmetric (max asymmetry {asym:.3e})")


def _fix_signs(V, *paired):
    """Flip each column of V, in place, so its largest-magnitude entry is
    positive; the same columns of every ``paired`` matrix flip with it."""
    lead = np.argmax(np.abs(V), axis=0)
    sign = np.where(V[lead, np.arange(V.shape[1])] < 0, -1.0, 1.0)
    for M in (V, *paired):
        M *= sign


def _check_finite_rows(M, what):
    """Raise :class:`ContractError` naming the first row of M with a NaN or infinite cell."""
    bad = ~np.isfinite(M).all(axis=1)
    if bad.any():
        raise ContractError(f"{what} row {int(np.argmax(bad)) + 1} of {M.shape[0]} "
                            "has a non-finite value")


def _recenter(M, inplace=False):
    """Subtract column means twice (in place if ``inplace``): residual means at noise level."""
    out = np.subtract(M, M.mean(axis=0), out=M if inplace else None)
    out -= out.mean(axis=0)
    return out


def center_standardize(raw: Dataset, mode: str = "center") -> Dataset:
    """Center (and optionally scale) both matrices column-wise.

    Parameters
    ----------
    raw : Dataset
        Input data in original units.
    mode : {"center", "standardize"}
        "center" subtracts column means; "standardize" additionally divides
        by the sample standard deviation (divisor n-1).

    Returns
    -------
    Dataset
        Transformed data with the fitted :class:`Transform` attached: one
        column-major copy of each matrix, scaled and centered in place, so a
        table's columns give the same bits whether passed as a view or a copy.

    Raises
    ------
    DegenerateColumnError
        If a column is constant in standardize mode (the message names the
        matrix and column index).
    """
    if mode not in ("center", "standardize"):
        raise ParameterError(f"mode must be 'center' or 'standardize', got {mode!r}")
    X, Y = raw.X, raw.Y
    if mode == "standardize":    # before the copies: np.std forms a centered temporary
        x_scale = X.std(axis=0, ddof=1)
        y_scale = Y.std(axis=0, ddof=1)
        for name, scale in (("X", x_scale), ("Y", y_scale)):
            bad = np.flatnonzero(scale <= 0.0)
            if bad.size:
                raise DegenerateColumnError(
                    f"{name} column {int(bad[0])} is constant; cannot standardize"
                )
    else:
        x_scale = np.ones(raw.p)
        y_scale = np.ones(raw.q)
    Xt, Yt = np.array(X, order="F"), np.array(Y, order="F")
    x_mean, y_mean = Xt.mean(axis=0), Yt.mean(axis=0)
    for M, scale in ((Xt, x_scale), (Yt, y_scale)):    # dividing is exact in center mode
        _recenter(np.divide(M, scale, out=M), inplace=True)
    tr = Transform(mode=mode, x_mean=x_mean, x_scale=x_scale, y_mean=y_mean, y_scale=y_scale)
    return Dataset(Xt, Yt, centered=True, transform=tr)


def _rank_of(s):
    """Count the singular values (descending) above ``DEFAULT_RANK_RTOL * sigma_1``."""
    if not s[0] > 0:
        raise RankZeroError("X is identically zero")
    r = int(np.count_nonzero(s > DEFAULT_RANK_RTOL * s[0]))
    if r == 0:    # sigma_1 overflowed to inf
        raise RankZeroError(f"no singular value exceeds DEFAULT_RANK_RTOL * sigma_1 = "
                            f"{DEFAULT_RANK_RTOL * s[0]:.3e}")
    return r


def _gram_ok(lo, hi):
    """The one cross-product gate: each ``lo`` > 0 and >= ``GRAM_TAU`` times its finite ``hi``."""
    return bool(np.all((lo > 0) & (lo >= GRAM_TAU * hi) & (hi < np.inf)))


def thin_svd(X) -> SvdFactors:
    """Thin SVD truncated at the numerical rank, with deterministic signs.

    The rank r counts singular values above ``DEFAULT_RANK_RTOL * sigma_1``.  Each
    column of V is flipped (together with its U column) so its
    largest-magnitude entry is positive, making downstream score rankings
    reproducible across LAPACK builds.

    X is first factored by ``eigh`` of its cross product (X'X tall, X X' wide,
    less the ones vector if ``||X'1|| / sqrt(n)`` is below the rank cut, as when
    centered), kept when every eigenvalue is at least ``GRAM_TAU`` (1e-4) times
    the largest: r is then the SVD's, and U, D, V within about eps / GRAM_TAU
    of its factors (a Cholesky QR step keeps U, V orthonormal).  Any other X,
    or one whose column norms already bound (sigma_r / sigma_1)^2 below
    ``GRAM_TAU``, as P1's and u_star's do, gets :func:`_svd` (LAPACK) bit for bit.

    Raises
    ------
    RankZeroError
        If X is identically zero (or no singular value clears the cutoff).
    """
    X = _as_matrix(X, "X")
    eig = _gram_eig(X)
    return _svd(X) if eig is None else _gram_svd(X, *eig)


def _gram_eig(X):
    """:func:`thin_svd`'s eigen step, for X (n x p) or a stack (... x n x p): the descending
    singular values of ``X / scale``, the short side's vectors (V if n >= p, else U) and the power
    of two ``scale``, or None where the column norms or :func:`_gram_ok` refuse any one matrix.  A
    wide stack loses the ones vector only if each matrix's ``||X'1|| / sqrt(n)`` is under the cut."""
    n, p = X.shape[-2:]
    scale = math.ldexp(1.0, math.frexp(max(X.max(), -X.min()))[1] - 1)    # 2^k: A is exact
    A = (X if n >= p else X.swapaxes(-1, -2)) / scale    # N x m, and A'A the m x m cross product
    c = np.sort(np.einsum("...ij,...ij->...j" if n >= p else "...ij,...ij->...i", A, A))
    if not _gram_ok(c[..., :max(1, p - n + 2)].sum(-1), c[..., -1]):    # Weyl: sigma_r^2 <=
        return None                                   # the p - r + 1 least squared column norms
    G, Q = A.swapaxes(-1, -2) @ A, None
    if n < p and np.all(np.linalg.norm(A.sum(-1), axis=-1)
                        < DEFAULT_RANK_RTOL * np.sqrt(n * c[..., -1])):
        h = np.full(n, 1 / math.sqrt(n)) + np.eye(1, n)[0]    # reflector I - h h' / h[0]
        Q = np.eye(n)[:, 1:] - np.outer(h, h[1:] / h[0])    # its last n - 1 columns: 1's complement
        G = Q.T @ G @ Q
    lam, W = np.linalg.eigh(G)
    if not _gram_ok(lam[..., 0], lam[..., -1]):
        return None
    W = W[..., ::-1] if Q is None else Q @ W[..., ::-1]
    return np.sqrt(lam[..., ::-1]), np.ascontiguousarray(W), scale


def _gram_svd(X, s, W, scale):
    """:func:`thin_svd`'s factors from :func:`_gram_eig`'s: the long side ``(X / scale) W / s`` is
    built in place from row blocks of :data:`GRAM_BLOCK_BYTES` at most, Cholesky QR'd if need be."""
    n, p = X.shape
    Ws, step = W / s, max(1, GRAM_BLOCK_BYTES // (8 * min(n, p)))
    blocks = [slice(i, i + step) for i in range(0, max(n, p), step)]
    P = np.empty((max(n, p), s.size))    # the other side, orthonormal within about eps / GRAM_TAU
    for b in blocks:
        np.matmul((X[b] if n >= p else X[:, b].T) / scale, Ws, out=P[b])
    if np.abs((C := P.T @ P) - np.eye(s.size)).max() > s.size * np.finfo(float).eps:
        Rinv = np.linalg.inv(np.linalg.cholesky(C).T)    # Cholesky QR: CV assumes U'U = I
        for b in blocks:
            P[b] = P[b] @ Rinv
    U, V = (P, W) if n >= p else (W, P)
    _fix_signs(V, U)
    return SvdFactors(U=U, D=s * scale, V=V, r=s.size)


def _svd(X):
    """:func:`thin_svd`'s SVD branch, which ``simharness``'s batched fold SVDs equal bit for bit."""
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    r = _rank_of(s)
    U = U if r == U.shape[1] else U[:, :r].copy()    # a view would keep all of U alive
    V = Vt[:r].T.copy()
    _fix_signs(V, U)
    return SvdFactors(U=U, D=s[:r].copy(), V=V, r=r)


def _check_orthonormal(M, name):
    G = M.T @ M
    err = float(np.max(np.abs(G - np.eye(M.shape[1]))))
    if err > 1e-8:
        raise ContractError(f"{name} is not orthonormal (max |A'A - I| = {err:.3e})")


def subspace_distance(A, B) -> float:
    """Frobenius distance ``||AA' - BB'||_F`` between two column spaces.

    Zero iff the spaces coincide; invariant to right-multiplication of either
    basis by an orthogonal matrix.  Both inputs must be orthonormal p-by-k
    bases of the same shape.
    """
    A = _as_matrix(A, "A")
    B = _as_matrix(B, "B")
    if A.shape != B.shape:
        raise ContractError(f"bases must share shape, got {A.shape} and {B.shape}")
    _check_orthonormal(A, "A")
    _check_orthonormal(B, "B")
    return float(np.linalg.norm(A @ A.T - B @ B.T, "fro"))
