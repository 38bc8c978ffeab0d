"""Column-pivoted QR, QR-based least squares, and dominant column sets.

Thin wrappers around LAPACK (via scipy) that pin down the conventions the
rest of the package relies on: permutation as an index array, nonincreasing
|R| diagonal, and rank deficiency reported as an error instead of a silent
minimum-norm solution.

The dominant column set reads only the first K pivots, so it runs K steps
of a left-looking pivoted QR instead of LAPACK geqp3 on all of A: the same
max-residual-norm pivots and norm-downdate safeguard, in O(KMN) time and
O(K(M + N)) memory, with no copy of A. When the leading K columns are
numerically rank deficient, those pivots are set by rounding, and geqp3's
are used as before.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import RankDeficiencyError

# Weights this close above 1 come from rounding (duplicated columns give
# exactly 1), and exchanging them would not grow the volume.
_DOMINANCE_TOL = 1e-10

# dlaqp2's tol3z, sqrt(dlamch('E')): a downdated squared norm at or below
# this fraction of its last computed value is recomputed from the data.
_NORM_RECOMPUTE_TOL = np.sqrt(np.finfo(float).eps / 2)


@dataclass
class PivotedQr:
    """Economic factorization A[:, perm] = q @ r with |diag(r)| nonincreasing."""

    q: np.ndarray
    r: np.ndarray
    perm: np.ndarray


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return a


def cpqr(a) -> PivotedQr:
    """Householder QR with column pivoting (economic form)."""
    a = _as_matrix(a)
    q, r, perm = scipy.linalg.qr(a, mode="economic", pivoting=True)
    return PivotedQr(q=q, r=r, perm=perm)


def numerical_rank(r: np.ndarray, rtol: float | None = None) -> int:
    """Rank estimate from the diagonal of a pivoted R factor."""
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] == 0.0:
        return 0
    if rtol is None:
        rtol = max(r.shape) * np.finfo(float).eps
    return int(np.count_nonzero(diag > rtol * diag[0]))


def solve_least_squares(c, a) -> np.ndarray:
    """Minimize ||a - c @ w||_F over w, via pivoted QR of c.

    Raises RankDeficiencyError (carrying the numerical rank) when c does not
    have full column rank; the caller decides how to recover.
    """
    c = _as_matrix(c)
    a = _as_matrix(a)
    if c.shape[0] != a.shape[0]:
        raise ValueError(f"row counts differ: c has {c.shape[0]}, a has {a.shape[0]}")
    fac = cpqr(c)
    rank = numerical_rank(fac.r)
    if rank < c.shape[1]:
        raise RankDeficiencyError("least-squares matrix is rank deficient", rank)
    w_perm = scipy.linalg.solve_triangular(fac.r, fac.q.T @ a)
    w = np.empty_like(w_perm)
    w[fac.perm] = w_perm
    return w


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

    Returns (perm, r): perm is the column order after k swaps and r the
    k x n rows of R in that order. Returns None when k > m or some
    |r_tt| <= n eps |r_00|, where the leading k columns are numerically
    rank deficient, and when a squared column norm overflows.
    """
    m, n = a.shape
    if k > m:
        return None
    norms2 = np.einsum("ij,ij->j", a, a)
    if not np.isfinite(norms2.max()):
        return None
    computed2 = norms2.copy()  # each squared norm when last computed from the data
    perm = np.arange(n)
    q = np.empty((k, m))
    r = np.empty((k, n))
    rank_tol = n * np.finfo(float).eps
    for t in range(k):
        p = t + int(np.argmax(norms2[perm[t:]]))
        perm[t], perm[p] = perm[p], perm[t]
        v = a[:, perm[t]] - r[:t, perm[t]] @ q[:t]
        v -= (q[:t] @ v) @ q[:t]
        rtt = float(np.linalg.norm(v))
        if t == 0:
            r00 = rtt
        if not rtt > rank_tol * r00:
            return None
        q[t] = v / rtt
        r[t] = q[t] @ a
        if t + 1 == k:
            break
        rest = perm[t + 1:]
        norms2[rest] = np.maximum(norms2[rest] - r[t, rest] ** 2, 0.0)
        stale = rest[(norms2[rest] <= _NORM_RECOMPUTE_TOL * computed2[rest]) & (computed2[rest] > 0)]
        for lo in range(0, stale.size, k):
            cols = stale[lo:lo + k]
            resid = a[:, cols] - q[:t + 1].T @ r[:t + 1, cols]
            norms2[cols] = computed2[cols] = np.einsum("ij,ij->j", resid, resid)
    r = r[:, perm]
    r[:, :k] = np.triu(r[:, :k])
    return perm, r


def _geqp3_rows(a: np.ndarray, k: int):
    """Full column-pivoted QR by LAPACK geqp3: (perm, first k rows of R)."""
    # a private Fortran copy, so neither Q nor a second m x n R is formed
    fac = np.array(a, order="F")
    geqp3 = scipy.linalg.get_lapack_funcs("geqp3", (fac,))
    lwork = int(geqp3(fac, lwork=-1)[3][0])
    fac, perm, _, _, info = geqp3(fac, lwork=lwork, overwrite_a=True)
    if info != 0:
        raise ValueError(f"LAPACK geqp3 failed with info={info}")
    return perm - 1, np.triu(fac[:k])


def dominant_fit(a, k: int):
    """A dominant K-column set of a, ascending, and every column's weights on it.

    Returns (columns, w): w is K x n, row p holding the weights of each
    column of a on the basis column ``columns[p]``, and the identity on
    the chosen columns; once the exchanges below have converged its
    entries lie in [-1 - 1e-10, 1 + 1e-10]. Without an exchange, or on
    data of rank K, w is the least-squares fit on the set; after an
    exchange it fits the columns' projections onto the span of the
    leading pivots. w is None when the weights are not defined.

    Starts from the first k pivots of a column-pivoted QR, found by k
    steps of a truncated, left-looking pivoted QR (``_truncated_cpqr``):
    O(kmn) time, O(k(m + n)) memory, and no copy of a. It then makes
    volume-increasing exchanges (Goreinov et al., "How to find a good
    submatrix", 2010): while some column needs a weight of magnitude above
    1 on the chosen set, the largest such pair is swapped in. The weights
    W = R11^-1 R[:k] come from the k x n R alone, with no Q, and follow
    each exchange by a rank-1 update. At most 4k exchanges are made. When
    the leading k columns are numerically rank deficient (k above m or
    above the rank of a) the truncated pivots are not reliable, so a full
    LAPACK geqp3 runs instead; if its leading k pivots are rank deficient
    too, the weights are not defined and those pivots are returned as they
    are, with w None. No random numbers are drawn.
    """
    a = _as_matrix(a)
    n = a.shape[1]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    perm, r_top = _truncated_cpqr(a, k) or _geqp3_rows(a, k)
    chosen = perm[:k].copy()
    if numerical_rank(r_top) < k:
        return np.sort(chosen), None

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
    return chosen[order], w[order]
