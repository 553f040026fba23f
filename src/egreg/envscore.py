"""Envelope scores and score-ranked principal-component subspaces.

The envelope score of a PC direction is the squared cross-covariance between
that direction and the response: ``phi_j = ||Sxy' v_j||^2``.  Ranking PCs by
score instead of variance is what separates the envelope estimators from PCR
and ridge.  Both the population construction (from covariance matrices) and
the sample construction (from a thin SVD) live here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import ContractError, DegeneracyWarning, DimensionError
from .matrixcore import SvdFactors, _as_matrix, _check_symmetric, _count, _fix_signs


@dataclass(frozen=True)
class EnvelopeScores:
    """Per-PC envelope scores in original PC order, plus the ranking.

    ``phi[j]`` is the score of the (j+1)-th PC; ``order`` permutes
    ``0..d-1`` so scores run descending, with ties broken toward the larger
    singular value and then the smaller PC index.  ``tie_breaks`` records the
    groups of PC indices whose scores were exactly equal.
    """

    phi: np.ndarray
    order: np.ndarray
    tie_breaks: tuple

    @property
    def d(self) -> int:
        return int(self.phi.shape[0])


@dataclass(frozen=True)
class EnvelopeBasis:
    """Orthonormal basis of a population envelope subspace.

    ``non_unique`` flags repeated eigenvalues of M (the span is then not
    identified).
    """

    basis: np.ndarray
    non_unique: bool = False


def _score_order(phi, strength):
    """Permutation sorting ``phi`` descending along its last axis; ties go to
    the larger ``strength``, then the smaller index."""
    idx = np.broadcast_to(np.arange(phi.shape[-1]), phi.shape)
    return np.lexsort((idx, np.broadcast_to(-strength, phi.shape), -phi))


def _rank_scores(phi, strength):
    """Order scores descending; ties to larger ``strength``, then smaller index.

    Returns the permutation and the groups of exactly tied indices.
    """
    d = phi.shape[0]
    order = _score_order(phi, strength)
    groups = []
    start = 0
    for i in range(1, d + 1):
        if i == d or phi[order[i]] != phi[order[start]]:
            if i - start > 1:
                groups.append(tuple(int(j) for j in order[start:i]))
            start = i
    return order, tuple(groups)


def envelope_scores(svd: SvdFactors, Sxy, d: int) -> EnvelopeScores:
    """Sample envelope scores of the first d PCs.

    Parameters
    ----------
    svd : SvdFactors
        Thin SVD of the centered predictor matrix.
    Sxy : (p, q) array
        Sample cross-covariance X'Y/n.
    d : int
        Number of leading PCs to score, ``1 <= d <= svd.r``.
    """
    Sxy = _as_matrix(Sxy, "Sxy")
    if Sxy.shape[0] != svd.V.shape[0]:
        raise DimensionError(
            f"Sxy has {Sxy.shape[0]} rows but the SVD is over {svd.V.shape[0]} predictors"
        )
    d = _count("d", d, svd.r, "r")
    W = svd.V[:, :d].T @ Sxy
    # Sum of squares per row; clamp rounding noise so ranks are well defined.
    phi = np.maximum(np.einsum("ij,ij->i", W, W), 0.0)
    order, ties = _rank_scores(phi, svd.D[:d])
    return EnvelopeScores(phi=phi, order=order, tie_breaks=ties)


def top_ranked(scores: EnvelopeScores, u: int, d: int | None = None) -> np.ndarray:
    """Indices of the top-u scoring PCs among the first d candidates.

    The returned indices are in rank order (best first).  With ``d`` equal to
    ``scores.d`` this is simply ``scores.order[:u]``; smaller ``d`` restricts
    the candidate pool while preserving the tie-break order.
    """
    d = scores.d if d is None else _count("d", d, scores.d)
    u = _count("u", u, d, "d")
    pool = scores.order[scores.order < d]
    return pool[:u]


def population_niece(M, B, d: int, u_star: int) -> EnvelopeBasis:
    """Envelope basis from population matrices: top-scoring eigenvectors of M.

    Scores the first d eigenvectors of M (descending eigenvalues) by
    ``phi_j = v_j' B v_j`` and returns the span of the u_star best.  When the
    scored directions contain the span of the cross-covariance and the
    eigenvalues of M are distinct, this recovers the smallest reducing
    subspace of M containing that span, with exactly u_star positive scores.

    Eigenvalues closer than a 1e-8 relative gap trigger a
    :class:`DegeneracyWarning` and set ``non_unique`` on the result (the
    selected span is then not identified), but the basis is still returned.
    """
    M = _as_matrix(M, "M")
    B = _as_matrix(B, "B")
    p = M.shape[0]
    if M.shape != (p, p) or B.shape != (p, p):
        raise DimensionError(f"M and B must be square of equal size, got {M.shape}, {B.shape}")
    for name, S in (("M", M), ("B", B)):
        _check_symmetric(S, name, 1e-10)
    d = _count("d", d, p, "p")
    u_star = _count("u_star", u_star, d, "d")
    w, V = np.linalg.eigh((M + M.T) / 2.0)
    w = w[::-1].copy()
    V = V[:, ::-1].copy()
    if w[-1] <= 0:
        raise ContractError("M must be positive definite")
    _fix_signs(V)
    gaps = (w[:-1] - w[1:]) / abs(w[0])
    non_unique = bool(p > 1 and np.any(gaps <= 1e-8))
    if non_unique:
        warnings.warn(
            "M has (numerically) repeated eigenvalues; the selected subspace "
            "is not unique",
            DegeneracyWarning,
            stacklevel=2,
        )
    Vd = V[:, :d]
    phi = np.maximum(np.einsum("ij,ij->j", Vd, B @ Vd), 0.0)
    order, _ = _rank_scores(phi, w[:d])
    return EnvelopeBasis(basis=V[:, order[:u_star]].copy(), non_unique=non_unique)
