"""Model configuration and sampler state.

The decomposition approximates a data matrix A (M x N) as A[:, J] @ Y[J]
where J holds the K basis columns, selected by the binary state vector r,
and Y holds interpolation weights confined to [a, b]. The basis is read
from the data through r, so the state keeps no copy of A. Y is stored
full N x N; rows of Y belonging to inactive columns revert to their prior
during sampling. The weight prior is GTN(gtn_mu, gtn_tau) on [a, b]: under
gbt one fixed pair for every entry, held as two 0-d arrays that broadcast
against Y; under gbtn one pair per entry, held N x N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import GammaParams, sample_gtn_array, sample_inverse_gamma
from .errors import ConfigurationError
from .linalg import dominant_columns

VARIANT_GBT = "gbt"
VARIANT_GBTN = "gbtn"

_SIGMA2_FLOOR = 1e-6


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
        if not self.k >= 1:
            raise ConfigurationError(f"k must be at least 1, got {self.k}")
        if not self.a < self.b:
            raise ConfigurationError(f"need a < b, got a={self.a}, b={self.b}")
        for name in ("alpha_sigma", "beta_sigma", "tau_mu", "alpha_t", "beta_t"):
            if not getattr(self, name) > 0:
                raise ConfigurationError(f"{name} must be positive, got {getattr(self, name)}")
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
        self.values = np.asarray(self.values, dtype=float)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.values.ndim != 2:
            raise ValueError(f"values must be 2-d, got shape {self.values.shape}")
        if self.mask.shape != self.values.shape:
            raise ValueError(
                f"mask shape {self.mask.shape} does not match values shape {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values contain non-finite entries")
        if np.any(self.values[~self.mask] != 0.0):
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
    """Current Gibbs state: weights, state vector, noise variance, weight priors.

    The basis is data.values[:, basis_indices]; ``residual`` forms what
    the state leaves of the data unexplained. ``y`` is N x N. The prior
    arrays ``gtn_mu`` and ``gtn_tau`` broadcast against ``y``: 0-d under
    gbt, N x N under gbtn; read entry (k, l) through
    ``np.broadcast_to(gtn_mu, y.shape)``.
    """

    y: np.ndarray
    r: np.ndarray
    sigma2: float
    gtn_mu: np.ndarray
    gtn_tau: np.ndarray

    @property
    def basis_indices(self) -> np.ndarray:
        """Indices of active (kept) columns, ascending."""
        return np.flatnonzero(self.r == 1)

    @property
    def interpolated_indices(self) -> np.ndarray:
        """Indices of inactive (reconstructed) columns, ascending."""
        return np.flatnonzero(self.r == 0)


def residual(values: np.ndarray, y: np.ndarray, r: np.ndarray) -> np.ndarray:
    """values - values[:, J] @ y[J], with J the active columns of the state vector r."""
    active = np.nonzero(r == 1)[0]
    return values - values[:, active] @ y[active]


def sample_prior_rows(gtn_mu, gtn_tau, rows, n, a, b, rng: np.random.Generator) -> np.ndarray:
    """Draw the weight rows listed in ``rows`` from their prior, as one len(rows) x n block.

    A 0-d prior is passed to the GTN sampler as it is, so its standardized
    bounds are computed once; an N x N prior is cut down to ``rows``.
    """
    if np.ndim(gtn_mu) == 2:
        gtn_mu, gtn_tau = gtn_mu[rows], gtn_tau[rows]
    return sample_gtn_array(gtn_mu, gtn_tau, a, b, rng, size=(len(rows), n))


def init_state(data: ObservedMatrix, hp: Hyperparameters, rng: np.random.Generator) -> IdState:
    """Build the initial state: a dominant column set, prior-drawn weights.

    The state vector selects a dominant K-column set of the zero-filled
    data (``linalg.dominant_columns``): the first K pivots of a
    column-pivoted QR, exchanged until every column's least-squares weights
    on the set lie in [-1, 1]. On noise-free data of rank K such a set gives
    an exact decomposition inside the default weight bounds. The choice is
    deterministic and draws no random numbers. Y is drawn entrywise from its
    weight prior (no identity pattern imposed), and the noise variance is
    one draw from its prior, floored at 1e-6. Y is N x N whatever the row
    count M; the weight prior is a 0-d pair (0, 1) under gbt and is drawn
    N x N from its hyper-prior under gbtn.
    """
    n = data.shape[1]
    if hp.k > n:
        raise ConfigurationError(f"k={hp.k} exceeds the column count {n}")

    r = np.zeros(n, dtype=np.int8)
    r[dominant_columns(data.values, hp.k)] = 1

    if hp.variant == VARIANT_GBTN:
        gtn_mu = rng.normal(hp.mu_mu, 1.0 / np.sqrt(hp.tau_mu), size=(n, n))
        gtn_tau = rng.gamma(hp.alpha_t, 1.0 / hp.beta_t, size=(n, n))
        gtn_tau = np.maximum(gtn_tau, np.finfo(float).tiny)
    else:
        gtn_mu = np.array(0.0)
        gtn_tau = np.array(1.0)

    y = sample_prior_rows(gtn_mu, gtn_tau, np.arange(n), n, hp.a, hp.b, rng)

    sigma2 = sample_inverse_gamma(GammaParams(hp.alpha_sigma, hp.beta_sigma), rng)
    sigma2 = max(sigma2, _SIGMA2_FLOOR)

    return IdState(y=y, r=r, sigma2=sigma2, gtn_mu=gtn_mu, gtn_tau=gtn_tau)


def validate_state(state: IdState, data: ObservedMatrix, hp: Hyperparameters) -> None:
    """Structural invariant check, run every iteration in debug mode."""
    n = data.shape[1]
    if state.y.shape != (n, n) or state.r.shape != (n,):
        raise ValueError("state array shapes do not match the data")
    if not np.all((state.r == 0) | (state.r == 1)):
        raise ValueError("state vector entries must be 0 or 1")
    if int(state.r.sum()) != hp.k:
        raise ValueError(f"state vector has {int(state.r.sum())} active columns, expected {hp.k}")
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
