"""Gibbs samplers for the magnitude-bounded interpolative decomposition.

Each iteration follows the same scan: a noise-variance draw, a full sweep
over the weights Y_J of the K basis columns (plus, for the hierarchical
variant, their per-entry prior means and precisions), and only then one
swap proposal on the basis, so no swap is scored against prior-drawn
weights of the basis rows.

The loop never forms the M x N residual on fully observed input. It keeps
the sufficient statistics G = C^T C and P = C^T A of the basis C = A[:, J]
for the whole run (as in Schmidt, Winther & Hansen's Bayesian NMF sampler,
ICA 2009):

* a weight row update reads ``P[s] - G[s] @ Y_J``, O(KN);
* the loss is ||A||^2 - 2<Y_J, P> + <Y_J, G Y_J>, O(K^2 N);
* a swap proposal reads x^T R as ``x^T A - (x^T C) @ Y_J``, O(MN);
* an accepted swap recomputes one row and column of G and one row of P
  from the data, O(MN), so the statistics never drift.

An iteration therefore costs O(K^2 N + MN), plus O(KMN) on masked input,
where ``C @ Y_J`` is formed once for the observed-entry loss. The rows of
the N - K columns outside the basis are not stored: the swap draws the
incoming row from its prior when it proposes it.

The chain starts at the dominant column set's clipped least-squares fit
(``model.init_state``), and the sweep draws each row normal-first: one
plain normal per entry, with only the entries that fall outside [a, b]
redrawn from their truncated normal (exact; see ``_sweep_weights``). Once
the chain is near its posterior few entries fall outside, so a row costs
about one normal draw per entry rather than an inverse-CDF evaluation.

All conditionals are evaluated in the log domain. The entrywise kernels
(``weight_entry_params`` and the like) read the residual directly and
serve as reference oracles; debug mode cross-checks the kept statistics,
the loss and the swap odds against full recomputations every iteration.
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
    gram_rss,
    gram_statistics,
    init_state,
    residual,
    sample_prior_rows,
    validate_state,
)

LOG_ODDS_CLAMP = 700.0

# Relative tolerance of the debug cross-checks of G, P and the Gram loss.
_GRAM_RTOL = 1e-9

_N_PROBES = 5


@dataclass
class GibbsTrace:
    """Per-iteration series recorded by a sampler run.

    ``y_entry_chains`` maps a probed (slot, column) position of Y_J to the
    chain of values it took, one entry per iteration; the slot's column
    changes when a swap is accepted. ``accepted_swaps`` is
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


def weight_entry_params(state: IdState, data: ObservedMatrix, s: int, l: int) -> tuple[float, float]:
    """Posterior (mean, precision) of y[s, l], the weight of basis slot s on column l."""
    prior_mu = float(np.broadcast_to(state.gtn_mu, state.y.shape)[s, l])
    prior_tau = float(np.broadcast_to(state.gtn_tau, state.y.shape)[s, l])
    x_s = data.values[:, state.j[s]]
    ss = float(x_s @ x_s)
    # residual of column l with entry (s, l)'s own contribution removed
    partial = residual(data.values, state.y, state.j)[:, l] + x_s * state.y[s, l]
    tau_post = ss / state.sigma2 + prior_tau
    mu_post = (float(x_s @ partial) / state.sigma2 + prior_tau * prior_mu) / tau_post
    return mu_post, tau_post


def sample_weight_entry(
    state: IdState, data: ObservedMatrix, s: int, l: int, hp: Hyperparameters, rng: np.random.Generator
) -> float:
    """Gibbs update of the single weight y[s, l], in place."""
    mu_post, tau_post = weight_entry_params(state, data, s, l)
    draw = float(sample_gtn_array(mu_post, tau_post, hp.a, hp.b, rng).reshape(()))
    state.y[s, l] = draw
    return draw


def noise_variance_params(state: IdState, data: ObservedMatrix, hp: Hyperparameters) -> GammaParams:
    """Inverse-Gamma posterior parameters for sigma^2 at the current factors."""
    rss = float(np.sum(residual(data.values, state.y, state.j) ** 2))
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
# Gram statistics


def _refresh_gram_slot(values, j, s, gram, proj) -> None:
    """Recompute slot s of G (row and column) and of P from the data, in place: O(MN)."""
    proj[s] = values[:, j[s]] @ values
    gram[s] = proj[s, j]
    gram[:, s] = gram[s]


def _check_gram_statistics(values, state: IdState, gram, proj, a_sq: float, rss: float) -> None:
    """Debug cross-check of the kept G, P and Gram loss against fresh recomputations."""
    fresh_gram, fresh_proj = gram_statistics(values, state.j)
    for name, kept, fresh in (("G", gram, fresh_gram), ("P", proj, fresh_proj)):
        if not np.allclose(kept, fresh, rtol=_GRAM_RTOL, atol=_GRAM_RTOL * a_sq):
            raise NumericalError(f"kept Gram statistic {name} disagrees with its recomputation")
    fresh_rss = float(np.sum(residual(values, state.y, state.j) ** 2))
    scale = a_sq + float(np.vdot(state.y, fresh_gram @ state.y))
    if abs(rss - fresh_rss) > _GRAM_RTOL * scale:
        raise NumericalError(f"Gram loss {rss} disagrees with the residual's {fresh_rss}")


# ---------------------------------------------------------------------------
# state-vector moves


def state_swap_log_odds(
    state: IdState,
    data: ObservedMatrix,
    s: int,
    i: int,
    y_in: np.ndarray,
    full_recompute: bool = False,
) -> float:
    """Log odds of replacing basis column j[s] and its weights by column i with weights y_in.

    The result is the log likelihood ratio of the swapped state to the
    current one (the uniform move prior cancels), clamped to +-700. The
    incremental path reads only the terms the swap touches, in O(MN) and
    without the residual; the full path rebuilds both residuals and exists
    as a cross-check.
    """
    k, n = state.y.shape
    if not (0 <= s < k and 0 <= i < n) or np.any(state.j == i):
        raise ConfigurationError(
            f"swap requires a basis slot in [0, {k}) and a column outside the basis, "
            f"got slot {s}, column {i}"
        )
    values = data.values
    y_in = np.asarray(y_in, dtype=float)
    if full_recompute:
        j_swap, y_swap = state.j.copy(), state.y.copy()
        j_swap[s], y_swap[s] = i, y_in
        rss_now = float(np.sum(residual(values, state.y, state.j) ** 2))
        rss_swap = float(np.sum(residual(values, y_swap, j_swap) ** 2))
        diff = rss_swap - rss_now
    else:
        # removing column j[s] adds back its contribution, activating i removes
        # i's: delta = x_out y_out^T - x_i y_in^T = xs @ ys / 2. Written in sums
        # and differences, a swap between twin columns (x_i = +-x_out) does not
        # cancel in rounding, and delta itself is never formed.
        x_out, x_i = values[:, state.j[s]], values[:, i]
        y_out = state.y[s]
        xs = np.stack([x_out + x_i, x_out - x_i], axis=1)
        ys = np.stack([y_out - y_in, y_out + y_in])
        # xs^T R = xs^T A - (xs^T C) Y_J, and xs^T C is a column subset of xs^T A
        xa = xs.T @ values
        xr = xa - xa[:, state.j] @ state.y
        # 2 <resid, delta> + ||delta||^2
        diff = float(np.sum(xr * ys)) + float(np.sum((xs.T @ xs) * (ys @ ys.T))) / 4.0
    log_odds = -diff / (2.0 * state.sigma2)
    return float(np.clip(log_odds, -LOG_ODDS_CLAMP, LOG_ODDS_CLAMP))


def sample_state_vector(
    state: IdState,
    data: ObservedMatrix,
    hp: Hyperparameters,
    rng: np.random.Generator,
    gram: np.ndarray | None = None,
    proj: np.ndarray | None = None,
    debug_checks: bool = False,
) -> bool:
    """One uniform (slot, column) swap proposal, accepted with odds/(1 + odds).

    The outgoing column sits in a uniform basis slot s, the incoming one is
    a uniform column outside the basis. The incoming row (under gbtn with
    its prior means and precisions) is drawn from the joint prior now, when
    the swap is proposed: given the basis, the rows of the other columns are
    independent of everything else and distributed as their prior, so this
    is the same law as redrawing every such row each sweep. On acceptance
    the incoming column and its row take slot s; the outgoing row and, under
    gbtn, its (mu, tau) are discarded, since a column that re-enters later
    draws a fresh row. When ``gram`` and ``proj`` are passed, slot s of them
    is recomputed on acceptance, so callers can keep them current.

    Returns whether the swap was accepted. With K = N there is nothing to
    swap, no random number is drawn and the state is returned unchanged.
    """
    inactive = state.interpolated_indices
    if inactive.size == 0:
        return False
    s = int(rng.integers(state.j.size))
    i = int(inactive[rng.integers(inactive.size)])
    y_in, mu_in, tau_in = sample_prior_rows(hp, 1, state.y.shape[1], rng)
    log_odds = state_swap_log_odds(state, data, s, i, y_in[0])
    if debug_checks:
        full = state_swap_log_odds(state, data, s, i, y_in[0], full_recompute=True)
        if abs(log_odds - full) > 1e-8 * max(1.0, abs(full)):
            raise NumericalError(
                f"incremental swap odds {log_odds} disagree with full recomputation {full}"
            )
    accept = rng.uniform() < _sigmoid(log_odds)
    if accept:
        state.j[s] = i
        state.y[s] = y_in[0]
        if np.ndim(state.gtn_mu):
            state.gtn_mu[s] = mu_in
            state.gtn_tau[s] = tau_in
        if gram is not None:
            _refresh_gram_slot(data.values, state.j, s, gram, proj)
    return accept


# ---------------------------------------------------------------------------
# full sweeps


def _weight_row_params(y, gram, proj, sigma2, gtn_mu, gtn_tau, s):
    """Posterior (mean, precision) of row s of Y_J given the other rows, from G and P.

    The likelihood term of row s, x_s^T (resid + x_s y_s), is P[s] -
    G[s] @ Y_J + G[s, s] Y_J[s], so this costs O(KN) and reads neither the
    data nor the residual. The prior arrays may be 0-d (gbt), which leaves
    the precision 0-d, or K x N (gbtn).
    """
    if np.ndim(gtn_mu):
        gtn_mu, gtn_tau = gtn_mu[s], gtn_tau[s]
    g = gram[s, s]
    like = proj[s] - gram[s] @ y + g * y[s]
    tau_post = g / sigma2 + gtn_tau
    mu_post = (like / sigma2 + gtn_tau * gtn_mu) / tau_post
    return mu_post, tau_post


def _sweep_weights(y, gram, proj, sigma2, gtn_mu, gtn_tau, a, b, rng) -> None:
    """One systematic Gibbs scan over every entry of Y_J, in place.

    Rows are updated one at a time in slot order; within a row the entries
    are conditionally independent, so each row is drawn at once, from the
    parameters ``_weight_row_params`` gives in O(KN); the sweep costs
    O(K^2 N).

    A row is drawn normal-first: one plain normal N(mu, 1/tau) per entry,
    then only the entries that fall outside [a, b] are redrawn from their
    truncated normal by ``sample_gtn_array``. This is exact. With phi the
    parent density and P(in), P(out) its mass inside and outside [a, b],
    an entry lands at x in [a, b] with density phi(x) from the first draw
    plus P(out) phi(x) / P(in) from the redraw, which is phi(x) / P(in),
    the truncated density. Where the mean sits deep beyond a bound, most
    entries are redrawn, and the redraw takes ``sample_gtn_array``'s
    rejection sampler there. A row with no entry out of bounds consumes
    exactly N standard normals.
    """
    for s in range(y.shape[0]):
        mu_post, tau_post = _weight_row_params(y, gram, proj, sigma2, gtn_mu, gtn_tau, s)
        row = rng.standard_normal(mu_post.shape)
        row /= np.sqrt(tau_post)
        row += mu_post
        out = (row < a) | (row > b)
        if out.any():
            tau_out = np.broadcast_to(tau_post, row.shape)[out]
            row[out] = sample_gtn_array(mu_post[out], tau_out, a, b, rng)
        y[s] = row


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


def _choose_probes(k: int, n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Up to five distinct (slot, column) positions of Y_J, uniform over K x N."""
    count = min(_N_PROBES, k * n)
    flat = rng.choice(k * n, size=count, replace=False)
    return [(int(f) // n, int(f) % n) for f in flat]


def _check_probes(probes, k: int, n: int) -> None:
    for s, l in probes:
        if not (0 <= s < k and 0 <= l < n):
            raise ConfigurationError(f"probe position ({s}, {l}) lies outside the {k} x {n} weights Y_J")


def _check_data(data: ObservedMatrix) -> None:
    if not data.mask.any():
        raise InputError("matrix has no observed entries")


class _TraceRecorder:
    def __init__(self, iterations: int, probes: list[tuple[int, int]], data: ObservedMatrix):
        self.mse = np.empty(iterations)
        self.mse_obs = np.empty(iterations)
        self.sigma2 = np.empty(iterations)
        self.probes = probes
        self.probe_vals = np.empty((len(probes), iterations))
        self.values = data.values
        # a fully observed mask changes no residual, so the observed loss is the loss
        self.mask = None if data.mask.all() else data.mask
        self.obs_count = int(data.mask.sum())
        self.swaps = 0
        self.count = 0

    def record(self, state: IdState, rss: float) -> None:
        """Record one iteration; ``rss`` is the Gram loss, shared with the next sigma^2 draw.

        Only masked input forms the residual, once, for the observed-entry loss.
        """
        t = self.count
        self.mse[t] = rss / self.values.size
        if self.mask is None:
            rss_obs = rss
        else:
            resid = residual(self.values, state.y, state.j)
            resid *= self.mask
            rss_obs = float(np.vdot(resid, resid))
        self.mse_obs[t] = rss_obs / self.obs_count
        self.sigma2[t] = state.sigma2
        for p, (s, l) in enumerate(self.probes):
            self.probe_vals[p, t] = state.y[s, l]
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
    """Run the sampler of ``hp.variant`` and return the final state plus its trace.

    ``probe_positions`` are (slot, column) positions of Y_J, in [0, K) x
    [0, N); by default five distinct ones are drawn uniformly. An entry
    outside that range raises ConfigurationError before sampling.
    """
    _check_data(data)
    n = data.shape[1]
    if probe_positions is not None:
        _check_probes(probe_positions, hp.k, n)
    state = init_state(data, hp, rng)
    probes = probe_positions if probe_positions is not None else _choose_probes(hp.k, n, rng)
    rec = _TraceRecorder(hp.iterations, probes, data)

    values = data.values
    a_sq, gram, proj = _take_start_statistics(state, values)
    rss = gram_rss(a_sq, state.y, gram, proj)
    for _ in range(hp.iterations):
        p = noise_variance_params_from_rss(rss, data.shape, hp)
        state.sigma2 = sample_inverse_gamma(p, rng)
        _sweep_weights(
            state.y, gram, proj, state.sigma2,
            state.gtn_mu, state.gtn_tau, hp.a, hp.b, rng,
        )
        if hp.variant == VARIANT_GBTN:
            _update_weight_priors(state, hp, rng)
        if sample_state_vector(state, data, hp, rng, gram=gram, proj=proj, debug_checks=debug_checks):
            rec.swaps += 1
        rss = gram_rss(a_sq, state.y, gram, proj)
        rec.record(state, rss)
        if debug_checks:
            validate_state(state, data, hp)
            _check_gram_statistics(values, state, gram, proj, a_sq, rss)
    return state, rec.finish()


def _take_start_statistics(state: IdState, values: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """||A||^2, G and P of the state's basis, and the state lets go of them.

    They are the ones ``init_state`` formed when it made this state from
    ``values`` and J is unchanged since, else they are formed afresh.
    """
    saved, state._start_statistics = state._start_statistics, None
    if saved is not None and saved[0] is values and np.array_equal(saved[1], state.j):
        return saved[2:]
    return float(np.einsum("ij,ij->", values, values)), *gram_statistics(values, state.j)


def noise_variance_params_from_rss(rss: float, shape: tuple[int, int], hp: Hyperparameters) -> GammaParams:
    m, n = shape
    return GammaParams(shape=m * n / 2.0 + hp.alpha_sigma, rate=0.5 * rss + hp.beta_sigma)
