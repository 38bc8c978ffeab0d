"""Gibbs samplers for the magnitude-bounded interpolative decomposition.

Each iteration follows the same scan: a noise-variance draw, a full sweep
over the weight matrix Y (plus, for the hierarchical variant, its
per-entry prior means and precisions), and only then one swap proposal on
the binary state vector, so no swap is scored against prior-drawn weights
of the active rows.

The weight sweep works in Gram form: from the K basis columns C it forms
G = C^T C and P = C^T A, updates each active row of Y from them in O(KN)
without reading the M x N residual, and rebuilds the residual once at
the end. A sweep costs O(KMN) in two BLAS-3 products plus O(K^2 N) in the
row loop, on top of the prior redraws of the N - K inactive rows. The
loss is summed once per iteration and shared by the trace and the next
noise-variance draw.

All conditionals are evaluated in the log domain. The swap odds use an
incremental update, two matrix-vector products with the residual per
proposal; debug mode cross-checks it against a full recomputation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import (
    GammaParams,
    sample_gtn_array,
    sample_inverse_gamma,
)
from .errors import ConfigurationError, InputError, NumericalError
from .model import (
    VARIANT_GBTN,
    Hyperparameters,
    IdState,
    ObservedMatrix,
    init_state,
    residual,
    sample_prior_rows,
    validate_state,
)

LOG_ODDS_CLAMP = 700.0

_N_PROBES = 5


@dataclass
class GibbsTrace:
    """Per-iteration series recorded by a sampler run.

    ``y_entry_chains`` maps a probed (row, column) position of Y to the
    chain of values it took, one entry per iteration. ``accepted_swaps`` is
    None for a trace read back from a file, which does not record swaps.
    """

    mse_per_iter: np.ndarray
    mse_observed_per_iter: np.ndarray
    sigma2_chain: np.ndarray
    y_entry_chains: dict[tuple[int, int], np.ndarray]
    accepted_swaps: int | None


def _sigmoid(log_odds: float) -> float:
    if log_odds >= 0.0:
        return 1.0 / (1.0 + np.exp(-log_odds))
    e = np.exp(log_odds)
    return e / (1.0 + e)


# ---------------------------------------------------------------------------
# conditional posteriors, one entry at a time (reference kernels)


def weight_entry_params(state: IdState, data: ObservedMatrix, k: int, l: int) -> tuple[float, float]:
    """Posterior (mean, precision) of y[k, l] given everything else.

    When column k is inactive the likelihood contributes nothing and the
    parameters are the prior's for that entry.
    """
    prior_mu = float(np.broadcast_to(state.gtn_mu, state.y.shape)[k, l])
    prior_tau = float(np.broadcast_to(state.gtn_tau, state.y.shape)[k, l])
    if state.r[k] != 1:
        return prior_mu, prior_tau
    x_k = data.values[:, k]
    s = float(x_k @ x_k)
    # residual of column l with entry (k, l)'s own contribution removed
    partial = residual(data.values, state.y, state.r)[:, l] + x_k * state.y[k, l]
    tau_post = s / state.sigma2 + prior_tau
    mu_post = (float(x_k @ partial) / state.sigma2 + prior_tau * prior_mu) / tau_post
    return mu_post, tau_post


def sample_weight_entry(
    state: IdState, data: ObservedMatrix, k: int, l: int, hp: Hyperparameters, rng: np.random.Generator
) -> float:
    """Gibbs update of the single weight y[k, l], in place."""
    mu_post, tau_post = weight_entry_params(state, data, k, l)
    draw = float(sample_gtn_array(mu_post, tau_post, hp.a, hp.b, rng).reshape(()))
    state.y[k, l] = draw
    return draw


def noise_variance_params(state: IdState, data: ObservedMatrix, hp: Hyperparameters) -> GammaParams:
    """Inverse-Gamma posterior parameters for sigma^2 at the current factors."""
    rss = float(np.sum(residual(data.values, state.y, state.r) ** 2))
    return noise_variance_params_from_rss(rss, data.shape, hp)


def sample_noise_variance(
    state: IdState, data: ObservedMatrix, hp: Hyperparameters, rng: np.random.Generator
) -> float:
    p = noise_variance_params(state, data, hp)
    state.sigma2 = sample_inverse_gamma(p, rng)
    return state.sigma2


def weight_mean_entry_params(state: IdState, hp: Hyperparameters, k: int, l: int) -> tuple[float, float]:
    """Normal posterior (mean, precision) of the prior mean at (k, l); hierarchical variant only."""
    if hp.variant != VARIANT_GBTN:
        raise ConfigurationError("weight-mean updates exist only under the gbtn variant")
    t_post = state.gtn_tau[k, l] + hp.tau_mu
    m_post = (state.gtn_tau[k, l] * state.y[k, l] + hp.tau_mu * hp.mu_mu) / t_post
    return m_post, t_post


def sample_weight_mean_entry(
    state: IdState, hp: Hyperparameters, k: int, l: int, rng: np.random.Generator
) -> float:
    m_post, t_post = weight_mean_entry_params(state, hp, k, l)
    draw = float(rng.normal(m_post, 1.0 / np.sqrt(t_post)))
    state.gtn_mu[k, l] = draw
    return draw


def weight_precision_entry_params(state: IdState, hp: Hyperparameters, k: int, l: int) -> GammaParams:
    """Gamma posterior for the prior precision at (k, l); hierarchical variant only."""
    if hp.variant != VARIANT_GBTN:
        raise ConfigurationError("weight-precision updates exist only under the gbtn variant")
    dev = state.y[k, l] - state.gtn_mu[k, l]
    return GammaParams(shape=hp.alpha_t + 0.5, rate=hp.beta_t + 0.5 * dev * dev)


def sample_weight_precision_entry(
    state: IdState, hp: Hyperparameters, k: int, l: int, rng: np.random.Generator
) -> float:
    p = weight_precision_entry_params(state, hp, k, l)
    draw = max(float(rng.gamma(p.shape, 1.0 / p.rate)), np.finfo(float).tiny)
    state.gtn_tau[k, l] = draw
    return draw


# ---------------------------------------------------------------------------
# state-vector moves


def state_swap_log_odds(
    state: IdState,
    data: ObservedMatrix,
    j: int,
    i: int,
    resid: np.ndarray | None = None,
    full_recompute: bool = False,
) -> float:
    """Log odds of deactivating basis column j in favor of column i.

    The result is the log likelihood ratio of the swapped state to the
    current one (the uniform move prior cancels), clamped to +-700. The
    incremental path updates only the terms the swap touches; the full
    path rebuilds both residuals and exists as a cross-check.
    """
    if state.r[j] != 1 or state.r[i] != 0:
        raise ConfigurationError(f"swap requires an active j and inactive i, got r[{j}]={state.r[j]}, r[{i}]={state.r[i]}")
    if full_recompute:
        r_swap = state.r.copy()
        r_swap[j], r_swap[i] = 0, 1
        rss_now = float(np.sum(residual(data.values, state.y, state.r) ** 2))
        rss_swap = float(np.sum(residual(data.values, state.y, r_swap) ** 2))
        diff = rss_swap - rss_now
    else:
        if resid is None:
            resid = residual(data.values, state.y, state.r)
        # removing column j adds back its contribution, activating i removes
        # i's: delta = x_j y_j^T - x_i y_i^T = xs @ ys.T / 2. Written in sums
        # and differences, a swap between twin columns (x_i = +-x_j) does not
        # cancel in rounding, and delta itself is never formed.
        x_j, x_i = data.values[:, j], data.values[:, i]
        y_j, y_i = state.y[j, :], state.y[i, :]
        xs = np.stack([x_j + x_i, x_j - x_i], axis=1)
        ys = np.stack([y_j - y_i, y_j + y_i], axis=1)
        # 2 <resid, delta> + ||delta||^2
        diff = float(np.sum(xs * (resid @ ys))) + float(np.sum((xs.T @ xs) * (ys.T @ ys))) / 4.0
    log_odds = -diff / (2.0 * state.sigma2)
    return float(np.clip(log_odds, -LOG_ODDS_CLAMP, LOG_ODDS_CLAMP))


def sample_state_vector(
    state: IdState,
    data: ObservedMatrix,
    rng: np.random.Generator,
    resid: np.ndarray | None = None,
    debug_checks: bool = False,
) -> bool:
    """One uniform (j, i) swap proposal, accepted with odds/(1 + odds).

    Returns whether the swap was accepted. With K = N there is nothing to
    swap and the state is returned unchanged. When ``resid`` is passed it
    is updated in place on acceptance, so callers can keep it current.
    """
    active = np.flatnonzero(state.r == 1)
    inactive = np.flatnonzero(state.r == 0)
    if inactive.size == 0:
        return False
    j = int(active[rng.integers(active.size)])
    i = int(inactive[rng.integers(inactive.size)])
    log_odds = state_swap_log_odds(state, data, j, i, resid=resid)
    if debug_checks:
        full = state_swap_log_odds(state, data, j, i, full_recompute=True)
        if abs(log_odds - full) > 1e-8 * max(1.0, abs(full)):
            raise NumericalError(
                f"incremental swap odds {log_odds} disagree with full recomputation {full}"
            )
    accept = rng.uniform() < _sigmoid(log_odds)
    if accept:
        if resid is not None:
            resid += np.outer(data.values[:, j], state.y[j, :])
            resid -= np.outer(data.values[:, i], state.y[i, :])
        state.r[j] = 0
        state.r[i] = 1
    return accept


# ---------------------------------------------------------------------------
# full sweeps


def _sweep_weights(values, y, sigma2, gtn_mu, gtn_tau, a, b, r, rng):
    """One systematic Gibbs scan over every entry of y, in place.

    Active rows are updated one at a time in ascending column order; within
    a row the entries are conditionally independent, so each row is drawn
    in one vectorized call. The scan works in Gram form: with the basis
    C = values[:, J], G = C^T C and P = C^T values, the likelihood term of
    row k, x_k^T (resid + x_k y_k), is P[k] - G[k] @ Y_J + G[k, k] Y_J[k],
    so a row update costs O(KN) and never touches the M x N residual. Rows
    of inactive columns do not enter the likelihood and revert to their
    prior, drawn as one block by ``model.sample_prior_rows``. The prior
    arrays may be 0-d (gbt) or N x N (gbtn); rows read them through
    ``np.broadcast_to``.

    Cost: O(KMN) in two BLAS-3 products (forming P, and rebuilding the
    residual once at the end), plus O(K^2 N) in the row loop, plus O(N^2)
    GTN draws for the inactive rows; under gbt those draws compute their
    standardized bounds once, not per entry. G and P are formed afresh
    every sweep, so a column swap invalidates nothing.

    Returns the residual of the updated y, as ``model.residual`` forms it.
    """
    active = np.flatnonzero(r == 1)
    prior_mu = np.broadcast_to(gtn_mu, y.shape)
    prior_tau = np.broadcast_to(gtn_tau, y.shape)
    c = values[:, active]
    gram = c.T @ c
    proj = c.T @ values
    y_active = y[active]
    for row, k in enumerate(active):
        s = gram[row, row]
        like = proj[row] - gram[row] @ y_active + s * y_active[row]
        tau_post = s / sigma2 + prior_tau[k]
        mu_post = (like / sigma2 + prior_tau[k] * prior_mu[k]) / tau_post
        y_active[row] = sample_gtn_array(mu_post, tau_post, a, b, rng)
        y[k, :] = y_active[row]
    inactive = np.flatnonzero(r == 0)
    if inactive.size:
        y[inactive] = sample_prior_rows(gtn_mu, gtn_tau, inactive, y.shape[1], a, b, rng)
    return values - c @ y_active


def _update_weight_priors(state: IdState, hp: Hyperparameters, rng: np.random.Generator) -> None:
    """Vectorized hierarchical updates of the per-entry prior means and precisions.

    These conditionals couple only to their own (k, l) entry, so running
    them after the weight sweep reproduces the interleaved per-entry order
    exactly: y used the old (mu, tau), the new mu uses the new y and old
    tau, the new tau uses the new y and new mu.
    """
    t_post = state.gtn_tau + hp.tau_mu
    m_post = (state.gtn_tau * state.y + hp.tau_mu * hp.mu_mu) / t_post
    state.gtn_mu = rng.normal(m_post, 1.0 / np.sqrt(t_post))
    rate = hp.beta_t + 0.5 * (state.y - state.gtn_mu) ** 2
    state.gtn_tau = np.maximum(rng.gamma(hp.alpha_t + 0.5, 1.0 / rate), np.finfo(float).tiny)


def _choose_probes(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    count = min(_N_PROBES, n * n)
    flat = rng.choice(n * n, size=count, replace=False)
    return [(int(f) // n, int(f) % n) for f in flat]


def _check_data(data: ObservedMatrix) -> None:
    if not data.mask.any():
        raise InputError("matrix has no observed entries")


class _TraceRecorder:
    def __init__(self, iterations: int, probes: list[tuple[int, int]], mask: np.ndarray):
        self.mse = np.empty(iterations)
        self.mse_obs = np.empty(iterations)
        self.sigma2 = np.empty(iterations)
        self.probes = probes
        self.probe_vals = np.empty((len(probes), iterations))
        # a fully observed mask changes no residual, so the observed loss is the loss
        self.mask = None if mask.all() else mask
        self.obs_count = int(mask.sum())
        self.swaps = 0
        self.count = 0

    def record(self, resid: np.ndarray, rss: float, state: IdState) -> None:
        """Record one iteration; ``rss`` is ``np.sum(resid**2)``, shared with the next sigma^2 draw."""
        t = self.count
        self.mse[t] = rss / resid.size
        rss_obs = rss if self.mask is None else float(np.sum((resid * self.mask) ** 2))
        self.mse_obs[t] = rss_obs / self.obs_count
        self.sigma2[t] = state.sigma2
        for p, (k, l) in enumerate(self.probes):
            self.probe_vals[p, t] = state.y[k, l]
        self.count += 1

    def finish(self) -> GibbsTrace:
        chains = {pos: self.probe_vals[p] for p, pos in enumerate(self.probes)}
        return GibbsTrace(
            mse_per_iter=self.mse,
            mse_observed_per_iter=self.mse_obs,
            sigma2_chain=self.sigma2,
            y_entry_chains=chains,
            accepted_swaps=self.swaps,
        )


def run_gibbs(
    data: ObservedMatrix,
    hp: Hyperparameters,
    rng: np.random.Generator,
    probe_positions: list[tuple[int, int]] | None = None,
    debug_checks: bool = False,
) -> tuple[IdState, GibbsTrace]:
    """Run the sampler of ``hp.variant`` and return the final state plus its trace."""
    _check_data(data)
    state = init_state(data, hp, rng)
    n = data.shape[1]
    probes = probe_positions if probe_positions is not None else _choose_probes(n, rng)
    rec = _TraceRecorder(hp.iterations, probes, data.mask)

    resid = residual(data.values, state.y, state.r)
    rss = float(np.sum(resid**2))
    for _ in range(hp.iterations):
        p = noise_variance_params_from_rss(rss, data.shape, hp)
        state.sigma2 = sample_inverse_gamma(p, rng)
        resid = _sweep_weights(
            data.values, state.y, state.sigma2,
            state.gtn_mu, state.gtn_tau, hp.a, hp.b, state.r, rng,
        )
        if hp.variant == VARIANT_GBTN:
            _update_weight_priors(state, hp, rng)
        if sample_state_vector(state, data, rng, resid=resid, debug_checks=debug_checks):
            rec.swaps += 1
        rss = float(np.sum(resid**2))
        rec.record(resid, rss, state)
        if debug_checks:
            validate_state(state, data, hp)
            fresh = residual(data.values, state.y, state.r)
            if not np.allclose(resid, fresh, atol=1e-8):
                raise NumericalError("maintained residual drifted from recomputation")
    return state, rec.finish()


def noise_variance_params_from_rss(rss: float, shape: tuple[int, int], hp: Hyperparameters) -> GammaParams:
    m, n = shape
    return GammaParams(shape=m * n / 2.0 + hp.alpha_sigma, rate=0.5 * rss + hp.beta_sigma)

