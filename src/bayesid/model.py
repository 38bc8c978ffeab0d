"""Model configuration and sampler state.

The decomposition approximates a data matrix A (M x N) as A[:, J] @ Y_J
where J holds the K basis columns and Y_J (K x N) holds interpolation
weights confined to [a, b]. The state keeps J and Y_J only: the basis is
read from the data through J, so the state keeps no copy of A, and the
weights of the N - K columns outside J are not stored. Given J they do
not enter the likelihood and are independent of everything else, so a
move that needs one (the incoming row of a column swap) draws it from
its prior when it needs it. The weight prior is GTN(gtn_mu, gtn_tau) on
[a, b]: under gbt one fixed pair for every entry, held as two 0-d arrays
that broadcast against Y_J; under gbtn one pair per entry, held K x N.
State memory is O(KN). The Gram statistics the sampler keeps are not part
of the state: ``init_state`` returns them beside it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .distributions import sample_gtn_array
from .errors import ConfigurationError, NumericalError
from .linalg import _as_matrix, _dominant_fit

VARIANT_GBT = "gbt"
VARIANT_GBTN = "gbtn"

_SIGMA2_FLOOR = 1e-6

# bytes of one row block of the residual that ``residual_sums`` forms
_RESIDUAL_BLOCK_BYTES = 1 << 20

# mask bytes of one row block that ``ObservedMatrix`` checks at a time
_CHECK_BLOCK_BYTES = 1 << 14


@dataclass
class Hyperparameters:
    """Priors and run lengths for the Gibbs samplers.

    Defaults follow the uninformative settings used throughout: weight
    bounds [-1, 1], a vague inverse-Gamma prior on the noise variance, and
    for the hierarchical variant a flat normal-Gamma hyper-prior on the
    per-entry weight means and precisions.
    """

    k: int
    a: float = -1.0
    b: float = 1.0
    alpha_sigma: float = 0.1
    beta_sigma: float = 1.0
    mu_mu: float = 0.0
    tau_mu: float = 0.1
    alpha_t: float = 1.0
    beta_t: float = 1.0
    iterations: int = 500
    burn_in: int = 100
    thinning: int = 5
    variant: str = VARIANT_GBT

    def __post_init__(self):
        if self.variant not in (VARIANT_GBT, VARIANT_GBTN):
            raise ConfigurationError(f"unknown variant {self.variant!r}")
        for name in ("k", "iterations", "burn_in", "thinning"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ConfigurationError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not self.k >= 1:
            raise ConfigurationError(f"k must be at least 1, got {self.k}")
        if not self.a < self.b:
            raise ConfigurationError(f"need a < b, got a={self.a}, b={self.b}")
        for name in ("alpha_sigma", "beta_sigma", "tau_mu", "alpha_t", "beta_t"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ConfigurationError(f"{name} must be finite and positive, got {value}")
        if not np.isfinite(self.mu_mu):
            raise ConfigurationError(f"mu_mu must be finite, got {self.mu_mu}")
        if self.iterations < 1:
            raise ConfigurationError(f"iterations must be at least 1, got {self.iterations}")
        if not 0 <= self.burn_in < self.iterations:
            raise ConfigurationError(
                f"burn_in must lie in [0, iterations), got {self.burn_in} of {self.iterations}"
            )
        if self.thinning < 1:
            raise ConfigurationError(f"thinning must be at least 1, got {self.thinning}")


@dataclass
class ObservedMatrix:
    """A dense matrix plus an observation mask; unobserved entries hold 0."""

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        self.values = values = _as_matrix(self.values)
        self.mask = mask = np.asarray(self.mask, dtype=bool)
        if mask.shape != values.shape:
            raise ValueError(f"mask shape {mask.shape} does not match values shape {values.shape}")
        # the unobserved entries are read a block of rows at a time, so no
        # M x N temporary is made
        rows = max(1, _CHECK_BLOCK_BYTES // max(1, values.shape[1]))
        for lo in range(0, values.shape[0], rows):
            if np.any(values[lo:lo + rows], where=~mask[lo:lo + rows]):
                raise ValueError("unobserved entries must be stored as 0")

    @classmethod
    def fully_observed(cls, values) -> "ObservedMatrix":
        values = np.asarray(values, dtype=float)
        return cls(values=values, mask=np.ones(values.shape, dtype=bool))

    @property
    def shape(self):
        return self.values.shape


@dataclass
class IdState:
    """Current Gibbs state: basis columns, their weights, noise variance, weight priors.

    ``j`` holds the K basis column indices in slot order, and row s of
    ``y`` (K x N) holds the weights of column ``j[s]``; a column swap puts
    the incoming column and its row in the slot of the outgoing one, so
    ``j`` is not kept sorted. The basis is ``data.values[:, j]``, and
    ``residual`` forms what the state leaves of the data unexplained. The
    prior arrays ``gtn_mu`` and ``gtn_tau`` broadcast against ``y``: 0-d
    under gbt, K x N under gbtn with rows following the slots; read entry
    (s, l) through ``np.broadcast_to(gtn_mu, y.shape)``.
    """

    j: np.ndarray
    y: np.ndarray
    sigma2: float
    gtn_mu: np.ndarray
    gtn_tau: np.ndarray

    @property
    def basis_indices(self) -> np.ndarray:
        """Indices of active (kept) columns, ascending."""
        return np.sort(self.j)

    @property
    def interpolated_indices(self) -> np.ndarray:
        """Indices of inactive (reconstructed) columns, ascending."""
        inactive = np.ones(self.y.shape[1], dtype=bool)
        inactive[self.j] = False
        return np.flatnonzero(inactive)


def residual(values: np.ndarray, y: np.ndarray, j: np.ndarray) -> np.ndarray:
    """values - values[:, j] @ y, with j the basis columns in the slot order of y's rows."""
    return values - values[:, j] @ y


def residual_sums(values: np.ndarray, x: np.ndarray, y: np.ndarray,
                  mask: np.ndarray | None = None) -> tuple[float, float]:
    """Squared norms of R = values - x @ y over all entries and over the observed ones.

    R is formed a block of rows at a time, each block about
    ``_RESIDUAL_BLOCK_BYTES``, so no M x N temporary is made. Without a mask
    both sums are the sum over all entries.
    """
    m, n = values.shape
    rows = max(1, _RESIDUAL_BLOCK_BYTES // (8 * n))
    total = observed = 0.0
    for start in range(0, m, rows):
        block = x[start:start + rows] @ y
        np.subtract(values[start:start + rows], block, out=block)
        total += float(np.vdot(block, block))
        if mask is not None:
            block *= mask[start:start + rows]
            observed += float(np.vdot(block, block))
    return total, total if mask is None else observed


def gram_statistics(values: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G = C^T C (K x K) and P = C^T A (K x N) of the basis C = values[:, j], formed afresh."""
    c = values[:, j]
    return c.T @ c, c.T @ values


def _start_statistics(values: np.ndarray, j: np.ndarray, perm: np.ndarray, r_top: np.ndarray):
    """G and P of the basis values[:, j], read off the start's pivoted QR where it can be.

    ``perm`` and ``r_top`` are ``linalg._truncated_cpqr``'s: the rows of R,
    one per pivot, column i of ``r_top`` belonging to column perm[i] of
    the data. Each row of R is q_t @ A, so R = Q^T A, and a pivot column is
    a_c = Q R[:, c], so its row of P = C^T A is R[:, c]^T R, with no pass
    over the data. The other chosen columns (brought in by an exchange, or
    filling a rank-deficient start) read their rows from the data, in one
    product. G is P[:, J], symmetrized.
    """
    n = values.shape[1]
    r = np.empty_like(r_top)
    r[:, perm] = r_top
    pivot = np.zeros(n, dtype=bool)
    pivot[perm[:r.shape[0]]] = True
    from_r = pivot[j]
    proj = np.empty((j.size, n))
    proj[from_r] = r[:, j[from_r]].T @ r
    if not from_r.all():
        proj[~from_r] = values[:, j[~from_r]].T @ values
    gram = proj[:, j]
    return 0.5 * (gram + gram.T), proj


def gram_rss(a_sq: float, y: np.ndarray, gram: np.ndarray, proj: np.ndarray,
             uy: np.ndarray | None = None) -> float:
    """||A - C Y_J||^2 from the Gram statistics: ||A||^2 - 2<Y_J, P> + <Y_J, G Y_J>.

    ``a_sq`` is ||A||^2. <Y_J, G Y_J> is read as 2<Y_J, U Y_J> + sum_s
    G_ss ||Y_s||^2, with U = triu(G, 1); ``uy`` is U Y_J when the caller
    has it (the weight sweep starts from it), and is formed here otherwise.
    The terms cancel near an exact fit, leaving a rounding error of order
    eps * (||A||^2 + ||C Y_J||^2); the result is floored at 0. The error
    does not accumulate across iterations, because each evaluation reads
    the current statistics, which never drift.

    Raises NumericalError when the loss is not finite (inf or nan), as
    when entries near 1e154 overflow its terms; this is the one check
    that the noise variance, drawn from the loss, stays finite.
    """
    if uy is None:
        uy = np.triu(gram, 1) @ y
    quad = 2.0 * float(np.vdot(y, uy)) + float(gram.diagonal() @ np.einsum("ij,ij->i", y, y))
    rss = a_sq - 2.0 * float(np.vdot(y, proj)) + quad
    if not math.isfinite(rss):
        raise NumericalError(f"the loss is not finite ({rss}); rescale the data")
    return max(rss, 0.0)


def sample_prior_params(hp: Hyperparameters, count: int, n: int, rng: np.random.Generator):
    """The weight prior (gtn_mu, gtn_tau) of ``count`` rows of length n.

    Under gbt the prior is the fixed 0-d pair (0, 1) and nothing is drawn.
    Under gbtn each entry's mean and then each entry's precision is drawn
    from the normal-Gamma hyper-prior, each count x n.
    """
    if hp.variant != VARIANT_GBTN:
        return np.array(0.0), np.array(1.0)
    gtn_mu = rng.normal(hp.mu_mu, 1.0 / np.sqrt(hp.tau_mu), size=(count, n))
    gtn_tau = rng.gamma(hp.alpha_t, 1.0 / hp.beta_t, size=(count, n))
    return gtn_mu, np.maximum(gtn_tau, np.finfo(float).tiny)


def sample_prior_rows(hp: Hyperparameters, count: int, n: int, rng: np.random.Generator):
    """Draw ``count`` weight rows of length n, with their prior parameters, from the joint prior.

    Returns (y, gtn_mu, gtn_tau): the prior by ``sample_prior_params``,
    then the weights. Under gbt the 0-d prior pair goes to the GTN sampler
    as it is, so its standardized bounds are computed once.
    """
    gtn_mu, gtn_tau = sample_prior_params(hp, count, n, rng)
    y = sample_gtn_array(gtn_mu, gtn_tau, hp.a, hp.b, rng, size=(count, n))
    return y, gtn_mu, gtn_tau


def init_state(
    data: ObservedMatrix, hp: Hyperparameters, rng: np.random.Generator
) -> tuple[IdState, float, np.ndarray, np.ndarray]:
    """Build the initial state: a dominant column set and its clipped least-squares fit.

    The basis is a dominant K-column set of the zero-filled data
    (``linalg.dominant_fit``), in ascending order: the first K pivots of a
    column-pivoted QR, from at most K steps of a truncated pivoted QR in
    O(KMN) time and O(K(M + N)) memory with no copy of the data, exchanged
    until every column's least-squares weights on the set lie in [-1, 1].
    On noise-free data of rank K such a set gives an exact decomposition
    inside the default weight bounds. The choice draws no random numbers;
    K outside [1, N] raises ConfigurationError, and data whose squared
    column norms overflow raise NumericalError.

    Y_J starts at the weights W that ``dominant_fit`` forms on the set
    (the least-squares fit when no exchange was made), clipped to [a, b],
    so the chain starts at the fit instead of spending its first
    iterations on a transient from a prior draw. Under gbtn the K x N
    prior means and precisions are still drawn from the hyper-prior. Only
    where K exceeds the numerical rank, and W is not defined, is Y_J drawn
    from the joint prior (``sample_prior_rows``); the set then holds the
    pivots up to that rank and then the other columns of largest squared
    norm. The noise variance is the start fit's mean squared residual over
    all M x N entries, floored at 1e-6, computed without an M x N
    temporary from ||A||^2 and the Gram statistics G = C^T C and P = C^T A
    of the basis. ||A||^2 is the sum of the squared column norms the
    pivoted QR starts from, and G and P are read off the same pivoted QR
    (``_start_statistics``):
    P's row of a chosen pivot column c is R[:, c]^T R, and G = P[:, J].
    Only columns brought in by an exchange, or filling a rank-deficient
    start, read their rows of P from the data.

    Returns (state, a_sq, gram, proj): the state and those three, which
    ``run_gibbs`` keeps current from there.
    """
    n = data.shape[1]
    # data.values passed _as_matrix when the ObservedMatrix was made
    j, w, perm, r_top, norms2 = _dominant_fit(data.values, hp.k)
    j = j.astype(np.intp)
    if w is None:
        y, gtn_mu, gtn_tau = sample_prior_rows(hp, hp.k, n, rng)
    else:
        gtn_mu, gtn_tau = sample_prior_params(hp, hp.k, n, rng)
        y = np.clip(w, hp.a, hp.b)

    a_sq = float(norms2.sum())
    gram, proj = _start_statistics(data.values, j, perm, r_top)
    sigma2 = max(gram_rss(a_sq, y, gram, proj) / data.values.size, _SIGMA2_FLOOR)

    return IdState(j=j, y=y, sigma2=sigma2, gtn_mu=gtn_mu, gtn_tau=gtn_tau), a_sq, gram, proj


def validate_state(state: IdState, data: ObservedMatrix, hp: Hyperparameters) -> None:
    """Structural invariant check, run every iteration in debug mode."""
    n = data.shape[1]
    if state.j.shape != (hp.k,):
        raise ValueError(f"state holds {state.j.size} basis columns, expected {hp.k}")
    if state.y.shape != (hp.k, n):
        raise ValueError(f"y has shape {state.y.shape}, expected {(hp.k, n)}")
    if not np.issubdtype(state.j.dtype, np.integer):
        raise ValueError("basis indices must be integers")
    if np.any(state.j < 0) or np.any(state.j >= n) or np.unique(state.j).size != state.j.size:
        raise ValueError(f"basis indices must be distinct columns in [0, {n})")
    if np.any(state.y < hp.a) or np.any(state.y > hp.b):
        raise ValueError("y entries fall outside the weight bounds")
    if not (np.isfinite(state.sigma2) and state.sigma2 > 0):
        raise ValueError(f"sigma2 must be positive and finite, got {state.sigma2}")
    for name in ("gtn_mu", "gtn_tau"):
        prior = getattr(state, name)
        try:
            np.broadcast_to(prior, state.y.shape)
        except ValueError:
            raise ValueError(f"{name} of shape {np.shape(prior)} does not broadcast to y") from None
    if np.any(state.gtn_tau <= 0) or not np.all(np.isfinite(state.gtn_tau)):
        raise ValueError("weight precisions must be positive and finite")
    if not np.all(np.isfinite(state.gtn_mu)):
        raise ValueError("weight means must be finite")
