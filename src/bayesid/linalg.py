"""Dominant column sets from column-pivoted QR, and the numerical rank of
a pivoted R factor.

The dominant column set reads only the first K pivots, so it runs at most
K steps of a left-looking pivoted QR instead of LAPACK geqp3 on all of A:
the same max-residual-norm pivots and norm-downdate safeguard, in O(KMN)
time and O(K(M + N)) memory, with no copy of A, on every input. A step
costs one pass over A, the product that reads its row of R
(Quintana-Orti, Sun & Bischof, SIAM J. Sci. Comput. 1998). When the
leading K columns are numerically rank deficient the factorization stops
at the numerical rank, and the remaining slots hold the other columns in
descending order of their squared norms.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import ConfigurationError, NumericalError

# Weights this close above 1 come from rounding (duplicated columns give
# exactly 1), and exchanging them would not grow the volume.
_DOMINANCE_TOL = 1e-10

# dlaqp2's tol3z, sqrt(dlamch('E')): a downdated squared norm at or below
# this fraction of its last computed value is recomputed from the data.
_NORM_RECOMPUTE_TOL = np.sqrt(np.finfo(float).eps / 2)


def _as_matrix(a) -> np.ndarray:
    """a as a float array; ValueError unless it is 2-d and every entry is finite."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {a.shape}")
    # min and max meet any nan or infinity without an M x N temporary
    if a.size and not (np.isfinite(a.min()) and np.isfinite(a.max())):
        raise ValueError("matrix contains non-finite entries")
    return a


def numerical_rank(r: np.ndarray) -> int:
    """Rank estimate from the diagonal of a pivoted R factor, at max(r.shape) eps."""
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] == 0.0:
        return 0
    return int(np.count_nonzero(diag > max(r.shape) * np.finfo(float).eps * diag[0]))


def _truncated_cpqr(a: np.ndarray, k: int):
    """The first k steps of column-pivoted QR, without factoring all of a.

    Left-looking Businger-Golub pivoting: step t takes the remaining column
    of largest residual norm (argmax over perm[t:], in geqp3's swap order),
    orthogonalizes it against the directions so far with one
    reorthogonalization pass, and reads its row of R as q_t @ a, the step's
    only pass over the data. The squared norms are then downdated by that
    row; a norm that has lost too much to cancellation is recomputed from
    the data, by dlaqp2's rule (Drmac and Bujanovic, LAWN 176, 2008).
    Costs O(kmn) time and O(k(m + n)) memory beyond a.

    Stops at the first step t whose residual is numerically zero, |r_tt| <=
    n eps |r_00| (every step t >= m, and step 0 of an all-zero a): a then
    has numerical rank t, and positions t.. of perm hold the remaining
    columns by descending squared norm, ties in swap order, an order that
    residual norms of rounding size cannot change. Returns (perm, r,
    norms2): perm is the column order, r the rows of R in that order, one
    per step before the stop, so r has k rows exactly when the leading k
    columns have full numerical rank, and norms2 the squared norm of each
    column of a. Raises NumericalError when a squared column norm
    overflows.
    """
    m, n = a.shape
    norms2 = np.einsum("ij,ij->j", a, a)
    if not np.isfinite(norms2.max()):
        raise NumericalError("squared column norms overflow; rescale the data")
    resid2 = norms2.copy()  # each residual squared norm, downdated step by step
    computed2 = norms2.copy()  # each residual squared norm when last computed from the data
    perm = np.arange(n)
    steps = min(k, m)
    q = np.empty((steps, m))
    r = np.empty((steps, n))
    rank_tol = n * np.finfo(float).eps
    for t in range(steps):
        p = t + int(np.argmax(resid2[perm[t:]]))
        perm[t], perm[p] = perm[p], perm[t]
        v = a[:, perm[t]] - r[:t, perm[t]] @ q[:t]
        v -= (q[:t] @ v) @ q[:t]
        rtt = float(np.linalg.norm(v))
        if t == 0:
            r00 = rtt
        if not rtt > rank_tol * r00:
            steps = t
            break
        q[t] = v / rtt
        r[t] = q[t] @ a
        if t + 1 == steps:
            break
        rest = perm[t + 1:]
        resid2[rest] = np.maximum(resid2[rest] - r[t, rest] ** 2, 0.0)
        stale = rest[(resid2[rest] <= _NORM_RECOMPUTE_TOL * computed2[rest]) & (computed2[rest] > 0)]
        for lo in range(0, stale.size, k):
            cols = stale[lo:lo + k]
            resid = a[:, cols] - q[:t + 1].T @ r[:t + 1, cols]
            resid2[cols] = computed2[cols] = np.einsum("ij,ij->j", resid, resid)
    if steps < k:
        perm[steps:] = perm[steps:][np.argsort(-norms2[perm[steps:]], kind="stable")]
    r = r[:steps, perm]
    r[:, :steps] = np.triu(r[:, :steps])
    return perm, r, norms2


def dominant_fit(a, k: int):
    """A dominant K-column set of a, ascending, and every column's weights on it.

    Returns (columns, w): w is K x n, row p holding the weights of each
    column of a on the basis column ``columns[p]``, and the identity on
    the chosen columns; once the exchanges below have converged its
    entries lie in [-1 - 1e-10, 1 + 1e-10]. Without an exchange, or on
    data of rank K, w is the least-squares fit on the set; after an
    exchange it fits the columns' projections onto the span of the
    leading pivots. w is None when the weights are not defined.

    Starts from the first k pivots of a column-pivoted QR, found by at
    most k steps of a truncated, left-looking pivoted QR
    (``_truncated_cpqr``): O(kmn) time, O(k(m + n)) memory, and no copy of
    a, on every input. It then makes volume-increasing exchanges (Goreinov
    et al., "How to find a good submatrix", 2010): while some column needs
    a weight of magnitude above 1 on the chosen set, the largest such pair
    is swapped in. The weights W = R11^-1 R[:k] come from the k x n R
    alone, with no Q, and follow each exchange by a rank-1 update. At most
    4k exchanges are made. When k exceeds the numerical rank of a (k above
    m included, and every k on an all-zero a), w is None, and the set
    holds the pivots up to that rank and then the other columns of
    largest squared norm, ties in the QR's swap order. No random numbers are
    drawn. Raises ConfigurationError when k lies outside [1, n], and
    NumericalError when a squared column norm overflows.
    """
    return _dominant_fit(_as_matrix(a), k)[:2]


def _dominant_fit(a: np.ndarray, k: int):
    """``dominant_fit`` on a float matrix already checked by ``_as_matrix``, with its factor.

    Returns (columns, w, perm, r_top, norms2): ``dominant_fit``'s pair,
    then the truncated pivoted QR it started from (``_truncated_cpqr``'s
    triple), so the caller can read the Gram statistics of the set off R
    and ||A||^2 off the squared column norms.
    """
    n = a.shape[1]
    if not 1 <= k <= n:
        raise ConfigurationError(f"k must lie in [1, {n}], got {k}")
    perm, r_top, norms2 = _truncated_cpqr(a, k)
    chosen = perm[:k].copy()
    if r_top.shape[0] < k:
        return np.sort(chosen), None, perm, r_top, norms2

    w = np.empty((k, n))
    w[:, perm] = scipy.linalg.solve_triangular(r_top[:, :k], r_top)
    for _ in range(4 * k):
        p, q = np.unravel_index(np.argmax(np.abs(w)), w.shape)
        pivot = w[p, q]
        if abs(pivot) <= 1.0 + _DOMINANCE_TOL:
            break
        # column q replaces chosen[p]; re-express every column on the new set
        row = w[p] / pivot
        col = w[:, q].copy()
        col[p] -= 1.0
        w -= np.outer(col, row)
        chosen[p] = q
    # a chosen column's weights are the identity by definition, not by rounding
    w[:, chosen] = np.eye(k)
    order = np.argsort(chosen)
    return chosen[order], w[order], perm, r_top, norms2
