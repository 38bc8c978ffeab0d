"""Randomized interpolative decomposition baseline.

Samples a modest overset of columns uniformly, and one column-pivoted QR
of that sample both picks K of them and gives the unconstrained
least-squares interpolation weights (Voronin and Martinsson, "Efficient
algorithms for CUR and interpolative matrix decompositions", Adv. Comput.
Math. 2017). Fast, but nothing bounds the weight magnitudes;
``max_magnitude_excess`` quantifies how far outside [-1, 1] they land.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConfigurationError, RankDeficiencyError
from .linalg import _as_matrix, numerical_rank


@dataclass
class RidResult:
    """Selected column set, basis C = A[:, j_set], and weights W with A ~ C @ W."""

    j_set: np.ndarray
    c: np.ndarray
    w: np.ndarray
    max_abs_w: float


def check_oversample(oversample: float) -> None:
    """Raise ConfigurationError unless 1 <= oversample < inf, which nan fails."""
    if not 1.0 <= oversample < math.inf:
        raise ConfigurationError(f"oversample must be finite and at least 1, got {oversample}")


def randomized_id(a, k: int, rng: np.random.Generator, oversample: float = 1.2) -> RidResult:
    """Interpolative decomposition with randomized column sampling.

    ``ceil(oversample * k)`` distinct columns are sampled uniformly (all of
    them when that exceeds the column count) and factored once, in place,
    by column-pivoted QR, B P = Q R. The first k pivots are the basis C,
    and since C spans the first k columns Q1 of Q, the least-squares
    weights of the full matrix on C are W = R11^-1 Q1^T A, with R11 the
    leading k x k block of R, rows put in the order of C's columns.

    Raises ValueError when a is not 2-d or holds a non-finite entry,
    ConfigurationError when k lies outside [1, n] or oversample is not
    finite and at least 1, and RankDeficiencyError (carrying the
    numerical rank) when R11 is numerically rank deficient.
    """
    a = _as_matrix(a)
    n = a.shape[1]
    if not 1 <= k <= n:
        raise ConfigurationError(f"k must lie in [1, {n}], got {k}")
    check_oversample(oversample)

    n_sample = min(math.ceil(oversample * k), n)
    sampled = np.sort(rng.choice(n, size=n_sample, replace=False))
    # the sample is a copy of its own, so LAPACK may overwrite it
    q, r, perm = scipy.linalg.qr(a[:, sampled], overwrite_a=True, mode="economic", pivoting=True)
    r11 = r[:k, :k]
    rank = numerical_rank(r11)
    if rank < k:
        raise RankDeficiencyError("the k leading pivots of the sample are rank deficient", rank)
    pivots = sampled[perm[:k]]
    order = np.argsort(pivots)
    w = q[:, :k].T @ a
    del q  # freed before the solve and the gather of C
    w = scipy.linalg.solve_triangular(r11, w)[order]
    j_set = pivots[order]
    return RidResult(j_set=j_set, c=a[:, j_set], w=w, max_abs_w=float(np.max(np.abs(w))))


def max_magnitude_excess(w) -> float:
    """How far the largest |w| entry exceeds 1; zero when all weights are bounded."""
    w = np.asarray(w, dtype=float)
    if w.size == 0:
        return 0.0
    return max(0.0, float(np.max(np.abs(w))) - 1.0)
