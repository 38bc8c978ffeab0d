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

* a weight sweep solves lower-triangular K x K systems whose right-hand
  sides start from ``P - U @ Y_J``, with U = triu(G, 1), O(K^2 N);
* the loss is ||A||^2 - 2<Y_J, P> + <Y_J, G Y_J>, O(K^2 N), read through
  the same U Y_J, which the next sweep then starts from, so an iteration
  forms one K x K x N product beside the sweep's solve;
* a swap proposal first bounds its log odds from ||R||^2 (the loss) and
  ||D||^2 (read from G, P and one column), O(M + N), and rejects at once
  when the bound already decides (early rejection; Solonen et al.,
  Bayesian Analysis 2012);
* only a proposal the bound leaves open reads x^T R as
  ``x^T A - (x^T C) @ Y_J``, O(MN);
* an accepted swap recomputes one row and column of G and one row of P
  from the data, O(MN), so the statistics never drift.

The bound decides when ||D|| is well above 2 ||R||, as on low-noise fits,
where a proposal then costs O(M + N). Noisy or masked input (the zero
fill counts as residual) leaves it open and keeps the O(MN) product. An
iteration therefore costs O(K^2 N + M + N) on such low-noise fits and
O(K^2 N + MN) otherwise, plus O(KMN) on masked input, where ``C @ Y_J``
is formed once for the observed-entry loss, a block of rows at a time, so
the loop makes no M x N temporary. The rows of the N - K columns outside
the basis are not stored: the swap draws the incoming row from its prior
when it proposes it.

The chain starts at the dominant column set's clipped least-squares fit
(``model.init_state``), and the sweep draws each entry normal-first: one
plain normal per entry, with only the entries that fall outside [a, b]
redrawn from their truncated normal (exact; see ``_sweep_weights``). Once
the chain is near its posterior few entries fall outside, so an entry
costs about one normal draw rather than an inverse-CDF evaluation.

Both variants' scans are one Gauss-Seidel system (``_sweep_weights``):
the proposals of the K rows in column l solve tril(G, -1) + diag(D_l),
with D_l the column's conditional precisions times sigma^2, on a
right-hand side built once per sweep, for all N columns, from one
pre-drawn K x N block of normals. It stays exact because an
out-of-bounds entry is redrawn only once the rows above it in its column
are final, from its conditional mean given them. Under gbt every column
shares each row's conditional precision, so the system is solved through
one triangular inverse, and the repairs run in rounds, one
``sample_gtn_array`` call each, over every column at once, each carrying
its change into the rows below. Under gbtn the prior precisions differ
along a row, and the rows are solved by forward substitution, one row and
its redraws at a time.

All conditionals are evaluated in the log domain. Each conditional has one
sampler, the vectorised one the loop runs. The entrywise functions
(``weight_entry_params`` and the like) give a conditional's parameters
only, read from the residual directly; they are the references the
acceptance tests check the run's draws against. Debug mode cross-checks
the kept statistics, the loss, the swap odds and every early rejection
against full recomputations every iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtrtri as _dtrtri

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
    residual_sums,
    sample_prior_rows,
    validate_state,
)

LOG_ODDS_CLAMP = 700.0

# Relative tolerance of the debug cross-checks of G, P and the Gram loss.
_GRAM_RTOL = 1e-9

# Rounding slack of the early-rejection bound, in units of (M + N) eps:
# the dimension factor of the dot-product error bounds behind G, P, the
# Gram loss and the incremental swap odds.
_BOUND_ULPS = 16.0

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
# conditional parameters, one entry at a time (references for the draws
# of _sweep_weights, the sigma^2 draw in run_gibbs and _update_weight_priors)


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


def noise_variance_params(state: IdState, data: ObservedMatrix, hp: Hyperparameters) -> GammaParams:
    """Inverse-Gamma posterior parameters for sigma^2 at the current factors."""
    rss = float(np.sum(residual(data.values, state.y, state.j) ** 2))
    return noise_variance_params_from_rss(rss, data.shape, hp)


def weight_mean_entry_params(state: IdState, hp: Hyperparameters, k: int, l: int) -> tuple[float, float]:
    """Normal posterior (mean, precision) of the prior mean at (k, l); hierarchical variant only."""
    if hp.variant != VARIANT_GBTN:
        raise ConfigurationError("weight-mean updates exist only under the gbtn variant")
    t_post = state.gtn_tau[k, l] + hp.tau_mu
    m_post = (state.gtn_tau[k, l] * state.y[k, l] + hp.tau_mu * hp.mu_mu) / t_post
    return m_post, t_post


def weight_precision_entry_params(state: IdState, hp: Hyperparameters, k: int, l: int) -> GammaParams:
    """Gamma posterior for the prior precision at (k, l); hierarchical variant only.

    k and l may be index arrays, which give an array rate, one per entry.
    """
    if hp.variant != VARIANT_GBTN:
        raise ConfigurationError("weight-precision updates exist only under the gbtn variant")
    dev = state.y[k, l] - state.gtn_mu[k, l]
    return GammaParams(shape=hp.alpha_t + 0.5, rate=hp.beta_t + 0.5 * dev * dev)


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


def _swap_log_odds_bound(state, data, gram, proj, s, i, y_in, a_sq: float, rss: float) -> float:
    """An upper bound on ``state_swap_log_odds(state, data, s, i, y_in)``, in O(M + N).

    The swap turns the residual R into R + D, with D = x_out y_out^T - x_i
    y_in^T, so its loss grows by ||R + D||^2 - ||R||^2 >= ||D|| (||D|| - 2
    ||R||). ``rss`` is ||R||^2, the Gram loss of the current state, and
    ||D||^2 = G[s, s] ||y_out||^2 + ||x_i||^2 ||y_in||^2 - 2 P[s, i]
    <y_out, y_in> reads the kept G and P and column i alone. ||D||^2 and
    the bound on the loss change are lowered, and ||R||^2 raised, by a
    slack of ``_BOUND_ULPS`` (M + N) eps times the magnitudes involved
    (``a_sq`` is ||A||^2). It covers the rounding of G, P, the Gram loss
    and the incremental odds, so the bound stays above the odds
    ``state_swap_log_odds`` computes, also where R = -t D (t < 1/2) makes
    the inequality an equality. Where ||D|| <= 2 ||R|| the bound says
    nothing and is the clamp, +700.
    """
    m, n = data.shape
    y_out = state.y[s]
    x_i = data.values[:, i]
    g_out, g_in = float(gram[s, s]), float(x_i @ x_i)
    yy_out, yy_in = float(y_out @ y_out), float(y_in @ y_in)
    d_sq = g_out * yy_out + g_in * yy_in - 2.0 * float(proj[s, i]) * float(y_out @ y_in)
    slack = _BOUND_ULPS * (m + n) * np.finfo(float).eps * (a_sq + rss + (g_out + g_in) * (yy_out + yy_in))
    d = np.sqrt(max(d_sq - slack, 0.0))
    r = np.sqrt(rss + slack)
    if d <= 2.0 * r:
        return LOG_ODDS_CLAMP
    log_odds = -(d * (d - 2.0 * r) - slack) / (2.0 * state.sigma2)
    return float(np.clip(log_odds, -LOG_ODDS_CLAMP, LOG_ODDS_CLAMP))


def sample_state_vector(
    state: IdState,
    data: ObservedMatrix,
    hp: Hyperparameters,
    rng: np.random.Generator,
    gram: np.ndarray,
    proj: np.ndarray,
    a_sq: float,
    rss: float,
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
    draws a fresh row, and slot s of the caller's G (``gram``) and P
    (``proj``) is recomputed from the data, so they stay current.

    The draws come in one order: s, i, the incoming row (with its prior
    under gbtn), then the uniform u; the swap is accepted when u <
    sigmoid(log odds). From ``a_sq`` = ||A||^2 and ``rss`` = ||R||^2, the
    Gram loss of the current state, the move first reads an upper bound
    on the log odds in O(M + N) (``_swap_log_odds_bound``): with D = x_out
    y_out^T - x_i y_in^T the loss grows by at least ||D|| (||D|| - 2
    ||R||). When u >= sigmoid(bound) the swap is rejected without the
    O(MN) product of ``state_swap_log_odds``; otherwise the odds are
    computed in full. Either way the draws, the decision and the state are
    those of the full computation. Debug mode recomputes the odds from both
    residuals for every early rejection and raises NumericalError if u
    would have accepted.

    Returns whether the swap was accepted. With K = N there is nothing to
    swap, no random number is drawn and the state is returned unchanged.
    """
    inactive = state.interpolated_indices
    if inactive.size == 0:
        return False
    s = int(rng.integers(state.j.size))
    i = int(inactive[rng.integers(inactive.size)])
    y_in, mu_in, tau_in = sample_prior_rows(hp, 1, state.y.shape[1], rng)
    u = rng.uniform()
    if u >= _sigmoid(_swap_log_odds_bound(state, data, gram, proj, s, i, y_in[0], a_sq, rss)):
        if debug_checks:
            full = state_swap_log_odds(state, data, s, i, y_in[0], full_recompute=True)
            if u < _sigmoid(full):
                raise NumericalError(
                    f"early rejection at u = {u} of a swap whose recomputed log odds {full} accept it"
                )
        return False
    log_odds = state_swap_log_odds(state, data, s, i, y_in[0])
    if debug_checks:
        full = state_swap_log_odds(state, data, s, i, y_in[0], full_recompute=True)
        if abs(log_odds - full) > 1e-8 * max(1.0, abs(full)):
            raise NumericalError(
                f"incremental swap odds {log_odds} disagree with full recomputation {full}"
            )
    accept = u < _sigmoid(log_odds)
    if accept:
        state.j[s] = i
        state.y[s] = y_in[0]
        if np.ndim(state.gtn_mu):
            state.gtn_mu[s] = mu_in
            state.gtn_tau[s] = tau_in
        _refresh_gram_slot(data.values, state.j, s, gram, proj)
    return accept


# ---------------------------------------------------------------------------
# full sweeps


def _sweep_weights(y, gram, proj, sigma2, gtn_mu, gtn_tau, a, b, rng, uy) -> None:
    """One systematic Gibbs scan over every entry of Y_J, in place, in slot order.

    Each entry is drawn normal-first: a plain normal N(mu, 1/tau) from its
    conditional given the rows before it (already updated) and after it
    (not yet), and only if that lands outside [a, b] a redraw from the
    truncated normal by ``sample_gtn_array``. This is exact. With phi the
    parent density and P(in), P(out) its mass inside and outside [a, b], an
    entry lands at x in [a, b] with density phi(x) from the first draw plus
    P(out) phi(x) / P(in) from the redraw, which is phi(x) / P(in), the
    truncated density. Within a row the entries are conditionally
    independent.

    With D = diag(G) + sigma^2 tau_0 (K x 1 under gbt, K x N under gbtn's
    per-entry precisions) and sd = sigma / sqrt(D), row s's proposal, given
    the final rows before it, solves

        sum_{t<s} G_st y_t + D_s y_s = P_s - sum_{t>s} G_st y_t^old
                                       + sigma^2 tau_0 mu_0 + D_s sd_s z_s,

    so the K proposals of column l solve the lower-triangular system
    tril(G, -1) + diag(D_l) on that column of one right-hand side R: the
    Gauss-Seidel solve with a noise term (Goodman & Sokal, Phys. Rev. D
    1989; Fox & Parker, Bernoulli 2017). R is built once, for either
    variant, from ``uy`` = triu(G, 1) @ Y_J, which it overwrites, and from
    one K x N block of normals z. Every entry ends as the sequential scan
    would leave it on the same normals: an entry outside [a, b] is redrawn
    only once the rows above it in its column are final, when its
    conditional mean is the proposal minus its own noise sd_s z_s.

    When every column shares D (gbt, or a K x N prior constant along rows),
    all N columns are one system M Y = R, M = tril(G, -1) + diag(D), solved
    as M^-1 R, and the repairs run in rounds, one ``sample_gtn_array`` call
    each, over every column at once: each round redraws every column's
    first entry out of bounds, and the change d of entry (s, l) moves the
    rows below it by d M_ss M^-1[s+1:, s], the proposals they would have
    made given the new y_s on the same normals; only those columns are
    checked again. Otherwise the rows are solved by forward substitution,
    O(KN) each, and since the rows above are final, a row's entries
    outside [a, b] are redrawn at once.
    """
    k = y.shape[0]
    prior_tau = np.asarray(gtn_tau)
    shared = prior_tau.ndim == 0 or np.all(prior_tau == prior_tau[:, :1])
    if shared and prior_tau.ndim:
        prior_tau = prior_tau[:, :1]
    diag = gram.diagonal()[:, None] + sigma2 * prior_tau
    tau_post = diag / sigma2
    sd = 1.0 / np.sqrt(tau_post)
    z = rng.standard_normal(y.shape)
    rhs = np.subtract(proj, uy, out=uy)
    rhs += (sigma2 * prior_tau) * gtn_mu
    rhs += (diag * sd) * z
    if not shared:
        for s in range(k):
            row = y[s]
            np.subtract(rhs[s], gram[s, :s] @ y[:s], out=row)
            row /= diag[s]
            out = (row < a) | (row > b)
            if out.any():
                row[out] = sample_gtn_array(row[out] - sd[s, out] * z[s, out], tau_post[s, out], a, b, rng)
        return
    diag, tau_post, sd = diag[:, 0], tau_post[:, 0], sd[:, 0]
    lower = np.tril(gram, -1)
    lower.flat[:: k + 1] = diag
    # M^T is Fortran-ordered and upper triangular, so LAPACK inverts it in place
    inv = _dtrtri(lower.T, lower=0, overwrite_c=1)[0].T
    np.matmul(inv, rhs, out=y)
    out = (y < a) | (y > b)
    cols = np.flatnonzero(out.any(axis=0))
    out = out[:, cols]
    below = np.arange(k)[:, None]
    while cols.size:
        s = out.argmax(axis=0)
        proposal = y[s, cols]
        new = sample_gtn_array(proposal - sd[s] * z[s, cols], tau_post[s], a, b, rng)
        block = y[:, cols]
        # inv is lower triangular, so the step is zero above row s
        block += inv[:, s] * (diag[s] * (new - proposal))
        block[s, np.arange(cols.size)] = new
        y[:, cols] = block
        # rows down to s are final; looking only below s also bounds the rounds by K
        out = ((block < a) | (block > b)) & (below > s)
        again = out.any(axis=0)
        cols, out = cols[again], out[:, again]


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
        self.obs_count = int(np.count_nonzero(data.mask))
        # a fully observed mask changes no residual, so the observed loss is the loss
        self.mask = None if self.obs_count == data.mask.size else data.mask
        self.swaps = 0
        self.count = 0

    def record(self, state: IdState, rss: float) -> None:
        """Record one iteration; ``rss`` is the Gram loss, shared with the next sigma^2 draw.

        Only masked input forms the residual, a block of rows at a time, for
        the observed-entry loss.
        """
        t = self.count
        self.mse[t] = rss / self.values.size
        if self.mask is None:
            rss_obs = rss
        else:
            rss_obs = residual_sums(self.values, self.values[:, state.j], state.y, self.mask)[1]
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
    debug_checks: bool = False,
) -> tuple[IdState, GibbsTrace]:
    """Run the sampler of ``hp.variant`` and return the final state plus its trace.

    The trace probes five distinct (slot, column) positions of Y_J, drawn
    uniformly over K x N after the start (every position when Y_J has fewer
    than five entries).
    """
    _check_data(data)
    state, a_sq, gram, proj = init_state(data, hp, rng)
    rec = _TraceRecorder(hp.iterations, _choose_probes(hp.k, data.shape[1], rng), data)

    values = data.values
    # U Y_J with U = triu(G, 1): the loss reads it and the next sweep starts from it
    uy = np.triu(gram, 1) @ state.y
    rss = gram_rss(a_sq, state.y, gram, proj, uy)
    for _ in range(hp.iterations):
        p = noise_variance_params_from_rss(rss, data.shape, hp)
        state.sigma2 = sample_inverse_gamma(p, rng)
        _sweep_weights(
            state.y, gram, proj, state.sigma2,
            state.gtn_mu, state.gtn_tau, hp.a, hp.b, rng, uy,
        )
        if hp.variant == VARIANT_GBTN:
            _update_weight_priors(state, hp, rng)
        # the post-sweep loss: the column move's bound reads it, and a
        # rejected swap leaves it the iteration's loss
        uy = np.triu(gram, 1) @ state.y
        rss = gram_rss(a_sq, state.y, gram, proj, uy)
        if sample_state_vector(state, data, hp, rng, gram, proj, a_sq, rss, debug_checks=debug_checks):
            rec.swaps += 1
            uy = np.triu(gram, 1) @ state.y
            rss = gram_rss(a_sq, state.y, gram, proj, uy)
        rec.record(state, rss)
        if debug_checks:
            validate_state(state, data, hp)
            _check_gram_statistics(values, state, gram, proj, a_sq, rss)
    return state, rec.finish()


def noise_variance_params_from_rss(rss: float, shape: tuple[int, int], hp: Hyperparameters) -> GammaParams:
    m, n = shape
    return GammaParams(shape=m * n / 2.0 + hp.alpha_sigma, rate=0.5 * rss + hp.beta_sigma)
