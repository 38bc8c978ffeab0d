"""Gibbs kernels and the sampling loop.

Closed-form conditional parameters are checked against independent
double-loop oracles; the kept Gram statistics against fresh
recomputations; the loop itself is checked for determinism, bound
preservation, memory and recovery behavior on constructed instances, and
at K = 1 against the exact posterior computed by quadrature.
"""

import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest
import scipy.stats
from scipy.special import expit, logsumexp

from bayesid import model, sampler
from bayesid.distributions import _log_interval_mass
from bayesid.errors import ConfigurationError, InputError, NumericalError
from bayesid.model import (
    Hyperparameters,
    IdState,
    ObservedMatrix,
    init_state,
    residual,
    sample_prior_rows,
    validate_state,
)
from bayesid.sampler import (
    _sweep_weights,
    gram_rss,
    gram_statistics,
    noise_variance_params,
    run_gibbs,
    sample_state_vector,
    state_swap_log_odds,
    weight_entry_params,
    weight_mean_entry_params,
    weight_precision_entry_params,
)

from _instances import duplicated_id_matrix, frozen_state, overflowing_loss_matrix


def _x(state, data, i, s):
    """Entry i of the basis column in slot s."""
    return data.values[i, state.j[s]]


def _entry_params_oracle(state, data, s, l):
    """Posterior (mean, precision) of y[s, l] by direct index-by-index sums."""
    m = data.shape[0]
    k = state.j.size
    ss = 0.0
    for i in range(m):
        ss += _x(state, data, i, s) ** 2
    tau = ss / state.sigma2 + state.gtn_tau[s, l]
    acc = 0.0
    for i in range(m):
        partial = data.values[i, l]
        for t in range(k):
            if t != s:
                partial -= _x(state, data, i, t) * state.y[t, l]
        acc += _x(state, data, i, s) * partial
    mu = (acc / state.sigma2 + state.gtn_tau[s, l] * state.gtn_mu[s, l]) / tau
    return mu, tau


def _rss_oracle(state, data):
    m, n = data.shape
    total = 0.0
    for i in range(m):
        for j in range(n):
            pred = 0.0
            for t in range(state.j.size):
                pred += _x(state, data, i, t) * state.y[t, j]
            total += (data.values[i, j] - pred) ** 2
    return total


def _force_accept(monkeypatch):
    """Make every swap proposal accept, whatever its odds."""
    monkeypatch.setattr(sampler, "_sigmoid", lambda log_odds: 1.0)


class TestWeightEntryParams:
    def test_single_row_worked_case(self):
        # one row, one active column with value 2, target entry 1, unit noise
        data = ObservedMatrix.fully_observed(np.array([[2.0, 1.0]]))
        state = IdState(
            j=np.array([0]),
            y=np.zeros((1, 2)),
            sigma2=1.0,
            gtn_mu=np.zeros((1, 2)),
            gtn_tau=np.ones((1, 2)),
        )
        mu, tau = weight_entry_params(state, data, 0, 1)
        npt.assert_allclose(tau, 5.0, rtol=1e-12)
        npt.assert_allclose(mu, 0.4, rtol=1e-12)

    def test_incoming_row_is_drawn_from_the_joint_prior(self, monkeypatch):
        # the rows of columns outside the basis are not stored: a swap draws
        # the incoming row, with its gbtn (mu, tau), from the joint prior, and
        # an accepted swap puts exactly those draws into the outgoing slot
        rng = np.random.default_rng(101)
        data, hp, state = frozen_state(5, 4, 2, rng, variant="gbtn")
        drawn = []

        def spy(hp_, count, n, gen):
            out = sample_prior_rows(hp_, count, n, gen)
            drawn.append(out)
            return out

        monkeypatch.setattr(sampler, "sample_prior_rows", spy)
        _force_accept(monkeypatch)
        before = state.j.copy()
        gram, proj = gram_statistics(data.values, state.j)
        a_sq = float(np.sum(data.values**2))
        assert sample_state_vector(state, data, hp, rng, gram, proj, a_sq, gram_rss(a_sq, state.y, gram, proj))
        s = int(np.flatnonzero(state.j != before)[0])
        (y_in, mu_in, tau_in), = drawn
        assert y_in.shape == mu_in.shape == tau_in.shape == (1, 4)
        npt.assert_array_equal(state.y[s], y_in[0])
        npt.assert_array_equal(state.gtn_mu[s], mu_in[0])
        npt.assert_array_equal(state.gtn_tau[s], tau_in[0])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(103)
        for _ in range(15):
            m = int(rng.integers(2, 8))
            n = int(rng.integers(2, 7))
            k_active = int(rng.integers(1, n + 1))
            data, hp, state = frozen_state(m, n, k_active, rng, variant="gbtn")
            s = int(rng.integers(k_active))
            l = int(rng.integers(n))
            got = weight_entry_params(state, data, s, l)
            want = _entry_params_oracle(state, data, s, l)
            npt.assert_allclose(got, want, rtol=1e-10)


class TestNoiseVariance:
    def test_zero_residual_worked_case(self):
        values = np.array([[0.3, -0.2], [0.1, 0.4]])
        data = ObservedMatrix.fully_observed(values)
        state = IdState(
            j=np.array([0, 1]),
            y=np.eye(2),
            sigma2=1.0,
            gtn_mu=np.zeros((2, 2)),
            gtn_tau=np.ones((2, 2)),
        )
        shape, rate = noise_variance_params(state, data, Hyperparameters(k=2))
        npt.assert_allclose(shape, 2.1, rtol=1e-12)
        npt.assert_allclose(rate, 1.0, rtol=1e-12)

    def test_rate_is_half_rss_plus_prior(self):
        rng = np.random.default_rng(109)
        data, hp, state = frozen_state(4, 3, 2, rng)
        shape, rate = noise_variance_params(state, data, hp)
        npt.assert_allclose(rate, 0.5 * _rss_oracle(state, data) + hp.beta_sigma, rtol=1e-10)
        npt.assert_allclose(shape, 4 * 3 / 2 + hp.alpha_sigma, rtol=1e-12)


class TestHierarchicalKernels:
    def _gbtn_state(self, seed=127):
        rng = np.random.default_rng(seed)
        return frozen_state(5, 4, 2, rng, variant="gbtn") + (rng,)

    def test_mean_update_worked_case(self):
        data, hp, state, rng = self._gbtn_state()
        state.gtn_tau[1, 2] = 1.0
        state.y[1, 2] = 0.5
        m_post, t_post = weight_mean_entry_params(state, hp, 1, 2)
        npt.assert_allclose(t_post, 1.1, rtol=1e-12)
        npt.assert_allclose(m_post, 0.5 / 1.1, rtol=1e-12)

    def test_mean_update_prior_domination(self):
        data, hp_base, state, rng = self._gbtn_state()
        hp = Hyperparameters(k=2, variant="gbtn", tau_mu=1e12, mu_mu=0.25)
        m_post, _ = weight_mean_entry_params(state, hp, 0, 0)
        assert abs(m_post - 0.25) < 1e-6

    def test_precision_update_worked_case(self):
        data, hp, state, rng = self._gbtn_state()
        state.y[1, 1] = 0.3
        state.gtn_mu[1, 1] = 0.3
        shape, rate = weight_precision_entry_params(state, hp, 1, 1)
        npt.assert_allclose(shape, 1.5, rtol=1e-12)
        npt.assert_allclose(rate, 1.0, rtol=1e-12)

    def test_precision_rate_structure(self):
        data, hp, state, rng = self._gbtn_state()
        state.y[0, 3] = 0.9
        state.gtn_mu[0, 3] = 0.9 - np.sqrt(2.0)
        _, rate = weight_precision_entry_params(state, hp, 0, 3)
        npt.assert_allclose(rate, hp.beta_t + 1.0, rtol=1e-12)

    def test_rejected_under_plain_variant(self):
        rng = np.random.default_rng(131)
        data, hp, state = frozen_state(4, 3, 2, rng, variant="gbt")
        with pytest.raises(ConfigurationError):
            weight_mean_entry_params(state, hp, 0, 0)
        with pytest.raises(ConfigurationError):
            weight_precision_entry_params(state, hp, 0, 0)


def _symmetric_state(m=6, n=4, k=2, seed=137):
    """All data columns identical and all weight rows identical; with the
    incoming row equal to the others too, every possible swap leaves the
    residual unchanged. Returns the data, the state and that shared row."""
    rng = np.random.default_rng(seed)
    col = rng.normal(size=m)
    values = np.tile(col[:, None], (1, n))
    row = rng.uniform(-0.5, 0.5, size=n)
    y = np.tile(row, (k, 1))
    data = ObservedMatrix.fully_observed(values)
    state = IdState(j=np.arange(k), y=y, sigma2=1.0, gtn_mu=np.zeros((k, n)), gtn_tau=np.ones((k, n)))
    return data, state, row


def _exact_state(seed=139):
    """Noise-free four-column instance, basis {0, 2} in slot order (one true
    basis column missing). Returns the data, the state and ``rows``, the
    exact interpolation weights of each column as a basis row (zeros for
    the two combination columns); the state's y holds rows 0 and 2."""
    rng = np.random.default_rng(seed)
    b0, b1 = rng.normal(size=10), rng.normal(size=10)
    values = np.stack([b0, b1, 0.6 * b0 - 0.3 * b1, -0.5 * b0 + 0.8 * b1], axis=1)
    rows = np.zeros((4, 4))
    rows[0, :] = [1.0, 0.0, 0.6, -0.5]
    rows[1, :] = [0.0, 1.0, -0.3, 0.8]
    j = np.array([0, 2])
    data = ObservedMatrix.fully_observed(values)
    state = IdState(j=j, y=rows[j], sigma2=1.0, gtn_mu=np.zeros((2, 4)), gtn_tau=np.ones((2, 4)))
    return data, state, rows


def _use_basis(state, rows, j):
    state.j = np.array(j)
    state.y = rows[state.j]


class TestStateSwap:
    def test_symmetric_swap_has_zero_log_odds(self):
        data, state, row = _symmetric_state()
        assert state_swap_log_odds(state, data, 0, 2, row) == 0.0

    def test_symmetric_acceptance_rate_half(self, monkeypatch):
        data, state, row = _symmetric_state()
        hp = Hyperparameters(k=2)
        # the incoming row is the shared row, so no swap changes the residual
        monkeypatch.setattr(
            sampler, "sample_prior_rows",
            lambda hp_, count, n, gen: (row[None, :].copy(), np.array(0.0), np.array(1.0)),
        )
        rng = np.random.default_rng(149)
        gram, proj = gram_statistics(data.values, state.j)
        a_sq = float(np.sum(data.values**2))
        accepted = 0
        trials = 10_000
        for _ in range(trials):
            if sample_state_vector(state, data, hp, rng, gram, proj, a_sq, gram_rss(a_sq, state.y, gram, proj)):
                accepted += 1
            assert np.unique(state.j).size == 2
        assert abs(accepted / trials - 0.5) <= 0.02

    def test_activating_missing_basis_column_favored(self):
        data, state, rows = _exact_state()
        log_odds = state_swap_log_odds(state, data, 1, 1, rows[1])
        assert log_odds > 5.0

    def test_deactivating_needed_basis_column_disfavored(self):
        data, state, rows = _exact_state()
        # move to the exact configuration first, then propose breaking it
        _use_basis(state, rows, [0, 1])
        assert state_swap_log_odds(state, data, 1, 2, rows[2]) < -5.0

    def test_log_odds_clamped_at_saturation(self):
        data, state, rows = _exact_state()
        state.sigma2 = 1e-9
        assert state_swap_log_odds(state, data, 1, 1, rows[1]) == 700.0
        _use_basis(state, rows, [0, 1])
        assert state_swap_log_odds(state, data, 1, 2, rows[2]) == -700.0

    def test_incremental_agrees_with_full_recompute(self):
        rng = np.random.default_rng(151)
        for _ in range(40):
            m = int(rng.integers(2, 10))
            n = int(rng.integers(2, 8))
            k = int(rng.integers(1, n))
            data, hp, state = frozen_state(m, n, k, rng)
            s = int(rng.integers(k))
            i = int(state.interpolated_indices[rng.integers(n - k)])
            y_in = sample_prior_rows(hp, 1, n, rng)[0][0]
            fast = state_swap_log_odds(state, data, s, i, y_in)
            slow = state_swap_log_odds(state, data, s, i, y_in, full_recompute=True)
            npt.assert_allclose(fast, slow, rtol=1e-8, atol=1e-10)
        # wide (N > M) and masked
        for _ in range(20):
            m = int(rng.integers(2, 6))
            n = int(rng.integers(m + 1, 14))
            k = int(rng.integers(1, n))
            mask = rng.uniform(size=(m, n)) > 0.3
            data = ObservedMatrix(values=np.where(mask, rng.normal(size=(m, n)), 0.0), mask=mask)
            hp = Hyperparameters(k=k, iterations=10, burn_in=0, thinning=1)
            state = init_state(data, hp, rng)[0]
            state.sigma2 = float(rng.uniform(0.05, 2.0))
            s = int(rng.integers(k))
            i = int(state.interpolated_indices[rng.integers(n - k)])
            y_in = sample_prior_rows(hp, 1, n, rng)[0][0]
            fast = state_swap_log_odds(state, data, s, i, y_in)
            slow = state_swap_log_odds(state, data, s, i, y_in, full_recompute=True)
            npt.assert_allclose(fast, slow, rtol=1e-8, atol=1e-10)
        # near an exact fit, swapping a basis column for its twin (x_i ~ +-x_j,
        # y_i ~ +-y_j): the two rank-1 terms nearly cancel, and sigma2 is set
        # so that the tiny change in loss still gives log odds of -1
        n_pre, rank = 8, 3
        for sign in (1.0, -1.0, 1.0, -1.0):
            values = duplicated_id_matrix(20, n_pre, rank, rng, noise=1e-7)
            values[:, n_pre:] *= sign
            data = ObservedMatrix.fully_observed(values)
            n = values.shape[1]
            y = rng.uniform(-1.0, 1.0, size=(n, n))
            y[:rank] = np.linalg.lstsq(values[:, :rank], values, rcond=None)[0]
            j = int(rng.integers(rank))
            i = j + n_pre
            y[i] = sign * y[j] + 1e-7 * rng.normal(size=n)
            # basis: the first `rank` columns, in slot order, so slot j holds column j
            state = IdState(
                j=np.arange(rank), y=y[:rank].copy(), sigma2=0.5,
                gtn_mu=np.zeros((rank, n)), gtn_tau=np.ones((rank, n)),
            )
            state.sigma2 = abs(state_swap_log_odds(state, data, j, i, y[i], full_recompute=True)) / 2.0
            fast = state_swap_log_odds(state, data, j, i, y[i])
            slow = state_swap_log_odds(state, data, j, i, y[i], full_recompute=True)
            npt.assert_allclose(fast, slow, rtol=1e-8, atol=1e-10)

    def test_debug_checks_cross_validate(self):
        rng = np.random.default_rng(157)
        data, hp, state = frozen_state(6, 5, 2, rng)
        gram, proj = gram_statistics(data.values, state.j)
        a_sq = float(np.sum(data.values**2))
        for _ in range(30):
            sample_state_vector(state, data, hp, rng, gram, proj, a_sq, gram_rss(a_sq, state.y, gram, proj),
                                debug_checks=True)

    def test_swap_requires_valid_pair(self):
        data, state, rows = _exact_state()
        with pytest.raises(ConfigurationError):
            state_swap_log_odds(state, data, 0, 2, rows[2])  # column 2 is already in the basis
        with pytest.raises(ConfigurationError):
            state_swap_log_odds(state, data, 2, 1, rows[1])  # there is no slot 2

    def test_no_move_when_everything_active(self):
        rng = np.random.default_rng(163)
        data, hp, state = frozen_state(4, 3, 3, rng)
        j_before = state.j.copy()
        gram, proj = gram_statistics(data.values, state.j)
        a_sq = float(np.sum(data.values**2))
        rss = gram_rss(a_sq, state.y, gram, proj)
        assert sample_state_vector(state, data, hp, rng, gram, proj, a_sq, rss) is False
        npt.assert_array_equal(state.j, j_before)

    def test_maintained_gram_statistics_stay_current(self):
        rng = np.random.default_rng(167)
        data, hp, state = frozen_state(6, 5, 2, rng)
        gram, proj = gram_statistics(data.values, state.j)
        a_sq = float(np.sum(data.values**2))
        accepted = 0
        for _ in range(60):
            rss = gram_rss(a_sq, state.y, gram, proj)
            accepted += sample_state_vector(state, data, hp, rng, gram, proj, a_sq, rss)
        assert accepted > 0
        fresh_gram, fresh_proj = gram_statistics(data.values, state.j)
        npt.assert_allclose(gram, fresh_gram, atol=1e-10)
        npt.assert_allclose(proj, fresh_proj, atol=1e-10)


class TestGramStatistics:
    """G = C^T C and P = C^T A are kept across the run; the loss is read
    from them, and debug mode cross-checks all three every iteration."""

    def test_gram_rss_matches_residual(self):
        rng = np.random.default_rng(171)
        for _ in range(20):
            m = int(rng.integers(2, 12))
            n = int(rng.integers(2, 10))
            k = int(rng.integers(1, n + 1))
            data, hp, state = frozen_state(m, n, k, rng)
            gram, proj = gram_statistics(data.values, state.j)
            a_sq = float(np.sum(data.values**2))
            want = float(np.sum(residual(data.values, state.y, state.j) ** 2))
            npt.assert_allclose(gram_rss(a_sq, state.y, gram, proj), want, rtol=1e-10, atol=1e-12 * a_sq)

    @pytest.mark.parametrize("a_sq", [np.inf, np.nan])
    def test_gram_rss_refuses_a_non_finite_loss(self, a_sq):
        rng = np.random.default_rng(171)
        data, hp, state = frozen_state(4, 3, 2, rng)
        gram, proj = gram_statistics(data.values, state.j)
        with pytest.raises(NumericalError, match=f"the loss is not finite \\({a_sq}\\)"):
            gram_rss(a_sq, state.y, gram, proj)

    @pytest.mark.parametrize("stale", ["gram", "proj"])
    def test_stale_statistic_after_accepted_swap_is_caught(self, monkeypatch, stale):
        # every swap is accepted, but the loop's own G (or P) is left as it
        # was: the sampler updates a copy
        _force_accept(monkeypatch)
        move = sampler.sample_state_vector

        def stale_move(state, data, hp, rng, gram, proj, a_sq, rss, debug_checks=False):
            stats = {"gram": gram, "proj": proj}
            stats[stale] = stats[stale].copy()
            return move(state, data, hp, rng, a_sq=a_sq, rss=rss, debug_checks=debug_checks, **stats)

        monkeypatch.setattr(sampler, "sample_state_vector", stale_move)
        rng = np.random.default_rng(173)
        data = ObservedMatrix.fully_observed(rng.normal(size=(12, 8)))
        hp = Hyperparameters(k=3, iterations=5, burn_in=0, thinning=1)
        name = {"gram": "G", "proj": "P"}[stale]
        with pytest.raises(NumericalError, match=f"statistic {name} "):
            run_gibbs(data, hp, rng, debug_checks=True)

    def test_forced_swaps_keep_debug_checks_green(self, monkeypatch):
        _force_accept(monkeypatch)
        rng = np.random.default_rng(175)
        for variant in ("gbt", "gbtn"):
            data = ObservedMatrix.fully_observed(rng.normal(size=(12, 8)))
            hp = Hyperparameters(k=3, variant=variant, iterations=20, burn_in=0, thinning=1)
            _, trace = run_gibbs(data, hp, rng, debug_checks=True)
            assert trace.accepted_swaps == 20

    @pytest.mark.parametrize("variant", ["gbt", "gbtn"])
    @pytest.mark.parametrize("force", [False, True], ids=["plain", "every-swap-accepted"])
    def test_handed_upper_product_is_the_sweeps_own(self, monkeypatch, variant, force):
        # the loss's triu(G, 1) @ Y_J starts the next sweep; a sweep handed one
        # formed afresh from G and Y_J gives the same bytes, also after accepted swaps
        data = ObservedMatrix.fully_observed(duplicated_id_matrix(20, 8, 3, np.random.default_rng(177), noise=0.1))
        hp = Hyperparameters(k=3, variant=variant, iterations=20, burn_in=0, thinning=1)
        if force:
            _force_accept(monkeypatch)
        _, handed = run_gibbs(data, hp, np.random.default_rng(3))
        sweep = sampler._sweep_weights
        monkeypatch.setattr(sampler, "_sweep_weights",
                            lambda y, gram, *args: sweep(y, gram, *args[:7], np.triu(gram, 1) @ y))
        _, own = run_gibbs(data, hp, np.random.default_rng(3))
        assert handed.accepted_swaps == own.accepted_swaps == (20 if force else 0)
        npt.assert_array_equal(handed.mse_per_iter, own.mse_per_iter)
        npt.assert_array_equal(handed.sigma2_chain, own.sigma2_chain)

    def test_loop_allocates_no_m_by_n_array(self, monkeypatch):
        start = sampler.init_state

        def init_then_reset(data, hp, rng):
            start_out = start(data, hp, rng)
            tracemalloc.reset_peak()
            return start_out

        monkeypatch.setattr(sampler, "init_state", init_then_reset)
        rng = np.random.default_rng(177)
        # fully observed, then masked: the observed-entry loss is formed in row
        # blocks, so the masked input is made at least four blocks large
        for m, n, observed in ((400, 300, 1.0), (1200, 500, 0.9)):
            values = rng.normal(size=(m, n))
            mask = rng.uniform(size=(m, n)) < observed
            data = ObservedMatrix(values=np.where(mask, values, 0.0), mask=mask)
            assert observed == 1.0 or m * n * 8 >= 4 * model._RESIDUAL_BLOCK_BYTES
            hp = Hyperparameters(k=10, iterations=20, burn_in=5, thinning=1)
            tracemalloc.start()
            try:
                run_gibbs(data, hp, rng)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < m * n * 8, (
                f"peak {peak} bytes during the loop at {m} x {n} (observed {observed}), "
                f"an M x N array is {m * n * 8}"
            )

    @pytest.mark.parametrize("variant", ["gbt", "gbtn"])
    def test_state_holds_o_kn_bytes(self, variant):
        m, n, k = 60, 200, 5
        data = ObservedMatrix.fully_observed(np.random.default_rng(179).normal(size=(m, n)))
        hp = Hyperparameters(k=k, variant=variant, iterations=3, burn_in=0, thinning=1)
        state, _ = run_gibbs(data, hp, np.random.default_rng(0))
        arrays = {name: v for name, v in vars(state).items() if isinstance(v, np.ndarray)}
        assert all(v.size <= k * n for v in arrays.values())
        weights = 3 if variant == "gbtn" else 1
        assert sum(v.nbytes for v in arrays.values()) <= 8 * (weights * k * n + k + 2)


def _redraw_stub(mu, tau, a, b, rng):
    """A deterministic stand-in for ``sample_gtn_array``: a point of (a, b)
    that moves with both the mean and the precision, and no random number."""
    return a + (b - a) * expit(np.asarray(mu) * np.sqrt(tau))


def _stub_redraws(monkeypatch):
    """Replace the sweep's truncated-normal redraw by ``_redraw_stub``; the
    returned list gets one entry (the batch size) per redraw call."""
    calls = []

    def redraw(mu, tau, a, b, rng):
        calls.append(np.size(mu))
        return _redraw_stub(mu, tau, a, b, rng)

    monkeypatch.setattr(sampler, "sample_gtn_array", redraw)
    return calls


def _sequential_scan(state, data, z, a, b):
    """The Gibbs scan entry by entry, on the normals z: row s proposes
    mu + z / sqrt(tau) from ``weight_entry_params`` given the rows already
    updated, and an entry outside [a, b] takes ``_redraw_stub``'s value."""
    k, n = state.y.shape
    for s in range(k):
        params = np.array([weight_entry_params(state, data, s, l) for l in range(n)])
        mu, tau = params[:, 0], params[:, 1]
        row = mu + z[s] / np.sqrt(tau)
        out = (row < a) | (row > b)
        row[out] = _redraw_stub(mu[out], tau[out], a, b, None)
        state.y[s] = row
    return state.y


_SWEEP_SHAPES = pytest.mark.parametrize("shape, k, masked", [
    ((12, 8), 3, False),
    ((12, 8), 3, True),
    ((6, 5), 5, False),
    ((3, 7), 5, True),
], ids=["tall", "masked", "k-equals-n", "k-exceeds-m"])


class TestGramSweep:
    """The Gram-form sweep leaves Y_J where the sequential Gibbs scan from
    the entrywise reference kernel ``weight_entry_params`` leaves it, on the
    same normals and with the truncated-normal redraw made deterministic.
    gbt takes the triangular inverse with its repair rounds, gbtn the
    forward substitution."""

    @staticmethod
    def _compare(monkeypatch, shape, k, masked, variant, sigma2, seed):
        rng = np.random.default_rng(seed)
        mask = rng.uniform(size=shape) > 0.3 if masked else np.ones(shape, dtype=bool)
        data = ObservedMatrix(values=np.where(mask, rng.normal(size=shape), 0.0), mask=mask)
        hp = Hyperparameters(k=k, variant=variant, iterations=10, burn_in=0, thinning=1)
        state = init_state(data, hp, rng)[0]
        state.sigma2 = sigma2
        gram, proj = gram_statistics(data.values, state.j)
        calls = _stub_redraws(monkeypatch)
        y = state.y.copy()
        _sweep_weights(y, gram, proj, sigma2, state.gtn_mu, state.gtn_tau, hp.a, hp.b,
                       np.random.default_rng(seed + 1), np.triu(gram, 1) @ y)
        # with the redraw consuming no random number, either path draws
        # exactly one K x N block of normals
        z = np.random.default_rng(seed + 1).standard_normal(y.shape)
        want = _sequential_scan(state, data, z, hp.a, hp.b)
        # the weights lie in [-1, 1]; the atol only admits rounding at entries
        # that are exactly 0 in one of the two
        npt.assert_allclose(y, want, rtol=1e-10, atol=1e-14)
        return calls

    @pytest.mark.parametrize("variant", ["gbt", "gbtn"])
    @_SWEEP_SHAPES
    def test_row_params_match_entry_kernel(self, monkeypatch, variant, shape, k, masked):
        self._compare(monkeypatch, shape, k, masked, variant, 0.3, 241)

    @pytest.mark.parametrize("variant", ["gbt", "gbtn"])
    @_SWEEP_SHAPES
    def test_repair_rounds_match_the_sequential_scan(self, monkeypatch, variant, shape, k, masked):
        # at sigma^2 = 10 a proposal's sd is near 1, so several entries of a
        # column fall outside [-1, 1]; under gbt a second redraw call means
        # some column was repaired in two rounds, under gbtn that two rows
        # were redrawn after the rows above them were final
        calls = self._compare(monkeypatch, shape, k, masked, variant, 10.0, 241)
        assert len(calls) >= 2


class TestNormalFirstRows:
    """The sweep draws each entry as a plain normal and redraws only the
    entries outside [a, b] from their truncated normal; the kept law must be
    the truncated normal in every regime. Each entry's conditional is set
    through the sweep's real inputs: sigma^2 = 1, prior mean 0 and a
    diagonal G, so the rows do not couple, and P = mu * tau."""

    @staticmethod
    def _sweep(mu, tau, a, b, rng):
        """Run one sweep whose entry (s, l) has mean mu[s, l] and precision tau (or tau[s, l])."""
        mu = np.asarray(mu, dtype=float)
        tau = np.asarray(tau, dtype=float)
        if tau.ndim:
            # gbtn's per-entry prior precision: the forward substitution
            gram_diag = 0.5 * tau.min(axis=1)
            prior_mu, prior_tau = np.zeros(mu.shape), tau - gram_diag[:, None]
        else:
            # gbt's 0-d prior: the triangular inverse
            gram_diag = np.full(mu.shape[0], tau - 1.0)
            prior_mu, prior_tau = np.float64(0.0), np.float64(1.0)
        y = np.zeros(mu.shape)
        # a diagonal G leaves triu(G, 1) @ Y_J zero
        _sweep_weights(y, np.diag(gram_diag), mu * tau, 1.0, prior_mu, prior_tau, a, b, rng, np.zeros(mu.shape))
        return y

    @pytest.mark.parametrize("mu", [0.3, 1.0, 1.0 + 8.0 / 3.0],
                             ids=["central", "mean-on-b", "8-sd-beyond-b"])
    def test_rows_follow_the_truncated_normal(self, mu):
        a, b, tau = -1.0, 1.0, 9.0
        y = self._sweep(np.full((20, 1000), mu), tau, a, b, np.random.default_rng(263))
        assert np.all((y >= a) & (y <= b))
        sd = 1.0 / np.sqrt(tau)
        dist = scipy.stats.truncnorm((a - mu) / sd, (b - mu) / sd, loc=mu, scale=sd)
        assert scipy.stats.kstest(y.ravel(), dist.cdf).pvalue > 0.01

    @pytest.mark.parametrize("per_entry_tau", [False, True], ids=["scalar-tau", "k-by-n-tau"])
    def test_every_draw_within_bounds(self, per_entry_tau):
        rng = np.random.default_rng(269)
        a, b = -0.5, 2.0
        mu = rng.choice([-40.0, a, 0.7, b, 40.0], size=(30, 400)) + rng.normal(0.0, 0.1, size=(30, 400))
        tau = np.exp(rng.uniform(-4.0, 8.0, size=mu.shape)) if per_entry_tau else np.float64(25.0)
        y = self._sweep(mu, tau, a, b, rng)
        assert np.all((y >= a) & (y <= b))

    @pytest.mark.parametrize("per_entry_tau", [False, True], ids=["scalar-tau", "k-by-n-tau"])
    def test_sweep_inside_bounds_consumes_one_normal_block(self, per_entry_tau):
        k, n = 3, 500
        rng, ref = np.random.default_rng(271), np.random.default_rng(271)
        mu = np.tile(np.linspace(-0.5, 0.5, n), (k, 1))
        tau = np.geomspace(1e6, 4e6, k * n).reshape(k, n) if per_entry_tau else np.float64(1e6)
        y = self._sweep(mu, tau, -1.0, 1.0, rng)
        z = ref.standard_normal((k, n))
        npt.assert_allclose(y, z / np.sqrt(tau) + mu, rtol=1e-12, atol=1e-15)
        assert rng.bit_generator.state == ref.bit_generator.state


class TestScalarPrior:
    """Under gbt the weight prior is one 0-d (mean, precision) pair that
    broadcasts against y; it must act exactly as N x N zeros and ones."""

    @pytest.mark.parametrize("runner", [run_gibbs])
    @pytest.mark.parametrize("shape, k, masked", [
        ((30, 12), 4, False),
        ((20, 15), 5, True),
        ((6, 14), 4, False),
    ], ids=["tall", "masked", "wide"])
    def test_runs_equal_full_prior_arrays(self, monkeypatch, runner, shape, k, masked):
        rng = np.random.default_rng(251)
        mask = rng.uniform(size=shape) > 0.3 if masked else np.ones(shape, dtype=bool)
        data = ObservedMatrix(values=np.where(mask, rng.normal(size=shape), 0.0), mask=mask)
        hp = Hyperparameters(k=k, iterations=30, burn_in=5, thinning=1)
        s_scalar, t_scalar = runner(data, hp, np.random.default_rng(7))
        assert s_scalar.gtn_mu.ndim == 0 and s_scalar.gtn_tau.ndim == 0

        def full_prior_init(data, hp, rng):
            state, *stats = init_state(data, hp, rng)
            state.gtn_mu, state.gtn_tau = np.zeros(state.y.shape), np.ones(state.y.shape)
            return state, *stats

        monkeypatch.setattr(sampler, "init_state", full_prior_init)
        s_full, t_full = runner(data, hp, np.random.default_rng(7))
        assert s_full.gtn_mu.shape == (k, shape[1])
        npt.assert_array_equal(s_scalar.y, s_full.y)
        npt.assert_array_equal(s_scalar.j, s_full.j)
        assert s_scalar.sigma2 == s_full.sigma2
        npt.assert_array_equal(t_scalar.mse_per_iter, t_full.mse_per_iter)
        npt.assert_array_equal(t_scalar.mse_observed_per_iter, t_full.mse_observed_per_iter)
        npt.assert_array_equal(t_scalar.sigma2_chain, t_full.sigma2_chain)
        assert t_scalar.accepted_swaps == t_full.accepted_swaps
        for pos in t_scalar.y_entry_chains:
            npt.assert_array_equal(t_scalar.y_entry_chains[pos], t_full.y_entry_chains[pos])

    def test_entry_params_read_the_scalar_prior_as_full_arrays(self):
        rng = np.random.default_rng(257)
        data, hp, state = frozen_state(5, 4, 2, rng)
        assert state.gtn_mu.ndim == 0
        scalar = [weight_entry_params(state, data, s, l) for s in range(2) for l in range(4)]
        state.gtn_mu, state.gtn_tau = np.zeros((2, 4)), np.ones((2, 4))
        full = [weight_entry_params(state, data, s, l) for s in range(2) for l in range(4)]
        assert scalar == full

    def test_validate_state_checks_prior_shape(self):
        rng = np.random.default_rng(263)
        data, hp, state = frozen_state(5, 4, 2, rng)
        validate_state(state, data, hp)
        state.gtn_mu = np.zeros((5, 4))
        with pytest.raises(ValueError, match="gtn_mu"):
            validate_state(state, data, hp)
        state.gtn_mu = np.array(0.0)
        state.gtn_tau = np.ones(3)
        with pytest.raises(ValueError, match="gtn_tau"):
            validate_state(state, data, hp)


class TestRunGibbs:
    def test_trace_shapes(self):
        rng = np.random.default_rng(173)
        data = ObservedMatrix.fully_observed(rng.normal(size=(8, 6)))
        hp = Hyperparameters(k=2, iterations=25, burn_in=5, thinning=2)
        state, trace = run_gibbs(data, hp, rng)
        assert trace.mse_per_iter.shape == (25,)
        assert trace.mse_observed_per_iter.shape == (25,)
        assert trace.sigma2_chain.shape == (25,)
        assert len(trace.y_entry_chains) == 5
        # default probes are (slot, column) positions of the 2 x 6 weights Y_J
        assert all(0 <= s < 2 and 0 <= l < 6 for s, l in trace.y_entry_chains)
        for chain in trace.y_entry_chains.values():
            assert chain.shape == (25,)
            assert np.all(chain >= -1.0) and np.all(chain <= 1.0)
        assert np.all(trace.mse_per_iter >= 0.0)
        assert trace.accepted_swaps >= 0

    @pytest.mark.parametrize("variant", ["gbt", "gbtn"])
    def test_overflowing_input_raises_before_any_warning(self, variant):
        # G = C^T C would overflow on such input; the start refuses it first
        huge = np.random.default_rng(53).normal(size=(12, 9)) * 2.0**700
        hp = Hyperparameters(k=4, iterations=10, burn_in=2, variant=variant)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="squared column norms overflow"):
                run_gibbs(ObservedMatrix.fully_observed(huge), hp, np.random.default_rng(0))

    # under gbtn the rank-1 start draws Y_J from the prior, and numpy warns
    # of the overflow in the loss's G_ss ||Y_s||^2 term before the guard raises
    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
    @pytest.mark.parametrize("variant", ["gbt", "gbtn"])
    def test_overflowing_loss_raises_at_the_start(self, variant):
        # the loss, not the sigma^2 draw made from it, is what refuses the run
        data = ObservedMatrix.fully_observed(overflowing_loss_matrix())
        hp = Hyperparameters(k=2, iterations=10, burn_in=2, variant=variant)
        with pytest.raises(NumericalError, match="loss"):
            run_gibbs(data, hp, np.random.default_rng(0))

    def test_deterministic_given_seed(self):
        data = ObservedMatrix.fully_observed(np.random.default_rng(179).normal(size=(10, 7)))
        hp = Hyperparameters(k=3, iterations=30, burn_in=5, thinning=2)
        s1, t1 = run_gibbs(data, hp, np.random.default_rng(4))
        s2, t2 = run_gibbs(data, hp, np.random.default_rng(4))
        npt.assert_array_equal(t1.mse_per_iter, t2.mse_per_iter)
        npt.assert_array_equal(t1.sigma2_chain, t2.sigma2_chain)
        npt.assert_array_equal(s1.y, s2.y)
        npt.assert_array_equal(s1.j, s2.j)
        for pos in t1.y_entry_chains:
            npt.assert_array_equal(t1.y_entry_chains[pos], t2.y_entry_chains[pos])

    def test_full_basis_reaches_near_zero_mse(self):
        rng = np.random.default_rng(181)
        data = ObservedMatrix.fully_observed(rng.normal(size=(8, 6)))
        hp = Hyperparameters(k=6, iterations=200, burn_in=50, thinning=5, beta_sigma=1e-9)
        state, trace = run_gibbs(data, hp, rng)
        assert trace.mse_per_iter.min() <= 1e-6

    @pytest.mark.parametrize("runner", [run_gibbs])
    def test_debug_mode_validates_every_iteration(self, runner):
        rng = np.random.default_rng(197)
        a = duplicated_id_matrix(12, 5, 2, rng)
        data = ObservedMatrix.fully_observed(a)
        hp = Hyperparameters(k=3, iterations=40, burn_in=10, thinning=2)
        state, trace = runner(data, hp, rng, debug_checks=True)
        assert np.all(state.y >= -1.0) and np.all(state.y <= 1.0)

    def test_missing_entries_tracked_separately(self):
        rng = np.random.default_rng(199)
        values = rng.normal(size=(10, 8))
        mask = rng.uniform(size=values.shape) > 0.2
        values = np.where(mask, values, 0.0)
        data = ObservedMatrix(values=values, mask=mask)
        hp = Hyperparameters(k=3, iterations=30, burn_in=5, thinning=2)
        state, trace = run_gibbs(data, hp, rng)
        assert np.all(np.isfinite(trace.mse_observed_per_iter))
        assert not np.array_equal(trace.mse_per_iter, trace.mse_observed_per_iter)

    def test_no_observed_entries_rejected(self):
        data = ObservedMatrix(values=np.zeros((3, 3)), mask=np.zeros((3, 3), dtype=bool))
        with pytest.raises(InputError):
            run_gibbs(data, Hyperparameters(k=1, iterations=5, burn_in=0), np.random.default_rng(0))

    @pytest.mark.parametrize("variant", ["gbt", "gbtn"])
    def test_start_gram_statistics_formed_once(self, monkeypatch, variant):
        rng = np.random.default_rng(229)
        data = ObservedMatrix.fully_observed(duplicated_id_matrix(30, 10, 3, rng, noise=0.1))
        hp = Hyperparameters(k=3, variant=variant, iterations=15, burn_in=5, thinning=1)
        calls, kept = [], []

        def counted(values, j):
            calls.append(j.copy())
            return gram_statistics(values, j)

        start = sampler.init_state
        monkeypatch.setattr(sampler, "init_state", lambda *args: kept.append(start(*args)) or kept[0])
        monkeypatch.setattr(model, "gram_statistics", counted)
        monkeypatch.setattr(sampler, "gram_statistics", counted)
        state, trace = run_gibbs(data, hp, np.random.default_rng(5))
        # the start reads G and P off its pivoted QR, and the loop keeps them
        assert calls == []
        gram, proj = kept[0][2:]
        fresh_gram, fresh_proj = gram_statistics(data.values, state.j)
        for got, want in ((gram, fresh_gram), (proj, fresh_proj)):
            npt.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("shape, k", [((3, 3), 1), ((4, 2), 2), ((6, 5), 1)])
    def test_default_probes_cover_small_weights(self, shape, k):
        # K N <= 5: every position of Y_J is probed, once
        data = ObservedMatrix.fully_observed(np.random.default_rng(211).normal(size=shape))
        hp = Hyperparameters(k=k, iterations=10, burn_in=2, thinning=1)
        _, trace = run_gibbs(data, hp, np.random.default_rng(0))
        assert sorted(trace.y_entry_chains) == [(s, l) for s in range(k) for l in range(shape[1])]

    @pytest.mark.parametrize("shape, k", [((6, 3), 2), ((8, 6), 2), ((5, 40), 3), ((30, 20), 20)])
    def test_default_probes_are_five_distinct_positions_of_y(self, shape, k):
        data = ObservedMatrix.fully_observed(np.random.default_rng(213).normal(size=shape))
        hp = Hyperparameters(k=k, iterations=10, burn_in=2, thinning=1)
        _, trace = run_gibbs(data, hp, np.random.default_rng(0))
        probes = list(trace.y_entry_chains)
        assert len(set(probes)) == len(probes) == 5
        assert all(0 <= s < k and 0 <= l < shape[1] for s, l in probes)

    def test_loss_trend_downward_on_noisy_instance(self, monkeypatch):
        rng = np.random.default_rng(223)
        a = duplicated_id_matrix(20, 8, 3, rng, noise=0.3)
        data = ObservedMatrix.fully_observed(a)
        hp = Hyperparameters(k=3, iterations=120, burn_in=40, thinning=2)

        def prior_start_init(data, hp, rng):
            # a chain started at the fit has no downward transient to check
            state, *stats = init_state(data, hp, rng)
            state.y = sample_prior_rows(hp, hp.k, data.shape[1], rng)[0]
            return state, *stats

        monkeypatch.setattr(sampler, "init_state", prior_start_init)
        state, trace = run_gibbs(data, hp, rng)
        assert np.median(trace.mse_per_iter[40:]) <= np.median(trace.mse_per_iter[:10])

    def test_start_at_the_fit_needs_no_burn_in_on_correlated_basis(self):
        # burn-in: iterations until the loss first comes within 5% of its
        # median over iterations 1,000-2,000. Prior-drawn start weights took
        # 448-1,128 on such instances; the fit starts about 6% below the
        # stationary loss, at the mode, and is within 5% after 1-2.
        rng = np.random.default_rng(229)
        a = duplicated_id_matrix(200, 50, 20, rng, noise=0.1, correlation=0.9)
        data = ObservedMatrix.fully_observed(a)
        hp = Hyperparameters(k=20, iterations=2_000, burn_in=1_000, thinning=1)
        _, trace = run_gibbs(data, hp, rng)
        stationary = np.median(trace.mse_per_iter[1_000:])
        within = np.abs(trace.mse_per_iter - stationary) <= 0.05 * stationary
        burn_in = int(np.argmax(within))
        assert within.any() and burn_in <= 5, (
            f"burn-in {burn_in}; first-iteration loss {trace.mse_per_iter[0]:.4f}, "
            f"stationary median {stationary:.4f}"
        )

    def test_gbtn_variant_runs_and_respects_bounds(self):
        rng = np.random.default_rng(227)
        data = ObservedMatrix.fully_observed(rng.normal(size=(8, 6)))
        hp = Hyperparameters(k=2, variant="gbtn", iterations=30, burn_in=5, thinning=2)
        state, trace = run_gibbs(data, hp, rng, debug_checks=True)
        assert np.all(state.y >= -1.0) and np.all(state.y <= 1.0)
        assert np.all(state.gtn_tau > 0.0)


def _swap_case(kind, variant, rng):
    """A random small state and one swap proposal (s, i, y_in), with ||A||^2 and the Gram loss.

    ``tall``, ``wide`` and ``masked`` hold rank-K data plus noise of a
    random scale; ``twins`` and ``near-exact`` a duplicated instance at
    noise 1e-3 and 1e-7, where half the incoming rows on ``twins`` copy the
    outgoing one; ``tight`` is noise-free rank-K data on which the
    residual is anti-parallel to the swap's change, R = -t D with t < 1/2,
    so the bound equals the loss change up to rounding.
    """
    if kind == "tight":
        return _tight_swap_case(variant, rng)
    m, n = {"tall": (int(rng.integers(8, 30)), int(rng.integers(3, 8))),
            "wide": (int(rng.integers(2, 6)), int(rng.integers(8, 20)))}.get(
        kind, (int(rng.integers(10, 30)), 12))
    k = int(rng.integers(1, min(n - 1, 4) + 1))
    if kind in ("twins", "near-exact"):
        values = duplicated_id_matrix(m, n // 2, k, rng, noise=1e-3 if kind == "twins" else 1e-7)
    else:
        values = rng.normal(size=(m, k)) @ rng.uniform(-1.0, 1.0, size=(k, n))
        values += 10.0 ** rng.uniform(-3.0, 0.0) * rng.normal(size=(m, n))
    mask = rng.uniform(size=values.shape) > (0.3 if kind == "masked" else -1.0)
    data = ObservedMatrix(values=np.where(mask, values, 0.0), mask=mask)
    hp = Hyperparameters(k=k, variant=variant, iterations=2, burn_in=0, thinning=1)
    state, a_sq, gram, proj = init_state(data, hp, rng)
    state.sigma2 = float(10.0 ** rng.uniform(-8.0, 1.0))
    s = int(rng.integers(k))
    i = int(state.interpolated_indices[rng.integers(n - k)])
    y_in = sample_prior_rows(hp, 1, n, rng)[0][0]
    if kind == "twins" and rng.uniform() < 0.5:
        y_in = np.clip(state.y[s] + 1e-3 * rng.normal(size=n), hp.a, hp.b)
    return data, state, gram, proj, a_sq, gram_rss(a_sq, state.y, gram, proj), s, i, y_in


def _tight_swap_case(variant, rng):
    m, n, k = int(rng.integers(3, 20)), int(rng.integers(6, 40)), int(rng.integers(1, 4))
    hp = Hyperparameters(k=k, a=-2.0, b=2.0, variant=variant, iterations=2, burn_in=0, thinning=1)
    s, i, t = int(rng.integers(k)), k, rng.uniform(0.0, 0.45)
    # basis: columns 0..k-1; column k is C w; slot s's row is scaled so that
    # A = C (Y - t e_s y_out^T + t w y_in^T) reads A[:, :k] = C, A[:, k] = C w
    w = rng.uniform(-1.0, 1.0, size=k)
    y = rng.uniform(-1.0, 1.0, size=(k, n))
    y[:, :k] = np.eye(k)
    y[:, i] = w
    y[s, :k + 1] /= 1.0 - t
    y_in = sample_prior_rows(hp, 1, n, rng)[0][0]
    y_in[:k + 1] = 0.0
    values = rng.normal(size=(m, k)) @ (y - t * np.outer(np.eye(k)[s], y[s]) + t * np.outer(w, y_in))
    data = ObservedMatrix.fully_observed(values)
    gtn_mu, gtn_tau = model.sample_prior_params(hp, k, n, rng)
    state = IdState(j=np.arange(k), y=y, sigma2=1.0, gtn_mu=gtn_mu, gtn_tau=gtn_tau)
    gram, proj = gram_statistics(values, state.j)
    a_sq = float(np.sum(values**2))
    rss = gram_rss(a_sq, y, gram, proj)
    # sigma2 puts the bound at -c, c in [0.5, 30], away from the clamp
    bound = sampler._swap_log_odds_bound(state, data, gram, proj, s, i, y_in, a_sq, rss)
    if bound < sampler.LOG_ODDS_CLAMP:
        state.sigma2 = -bound / rng.uniform(0.5, 30.0)
    return data, state, gram, proj, a_sq, rss, s, i, y_in


def _spy_full_odds(monkeypatch):
    """Count the calls of ``state_swap_log_odds`` the column move makes."""
    calls = []
    full = sampler.state_swap_log_odds

    def spy(*args, **kwargs):
        calls.append(1)
        return full(*args, **kwargs)

    monkeypatch.setattr(sampler, "state_swap_log_odds", spy)
    return calls


class TestEarlyRejection:
    """The column move rejects without its O(MN) product when the bound
    ||D|| (||D|| - 2 ||R||) on the loss change already decides, and every
    draw, decision and state stays that of the full computation."""

    @pytest.mark.parametrize("variant", ["gbt", "gbtn"])
    @pytest.mark.parametrize("kind", ["tall", "wide", "masked", "twins", "near-exact", "tight"])
    def test_a_bound_rejection_is_a_full_rejection(self, kind, variant):
        # whenever u >= sigmoid(bound), the full recompute and the incremental
        # odds reject the same u: sigmoid(odds) <= sigmoid(bound), at the
        # tightest u = sigmoid(bound) too
        rng = np.random.default_rng(191)
        decided = 0
        for _ in range(100):
            data, state, gram, proj, a_sq, rss, s, i, y_in = _swap_case(kind, variant, rng)
            bound = sampler._swap_log_odds_bound(state, data, gram, proj, s, i, y_in, a_sq, rss)
            u = sampler._sigmoid(bound)
            for full_recompute in (True, False):
                odds = state_swap_log_odds(state, data, s, i, y_in, full_recompute=full_recompute)
                assert sampler._sigmoid(odds) <= u, (kind, bound, odds)
            decided += bound < sampler.LOG_ODDS_CLAMP
        assert decided >= 5

    @pytest.mark.parametrize("case", ["low-noise-gbt", "noisy-masked-gbtn"])
    def test_runs_equal_the_runs_without_the_bound(self, monkeypatch, case):
        rng = np.random.default_rng(193)
        if case == "low-noise-gbt":
            data = ObservedMatrix.fully_observed(duplicated_id_matrix(60, 20, 5, rng, noise=0.01))
            hp = Hyperparameters(k=5, iterations=40, burn_in=0, thinning=1)
        else:
            values = duplicated_id_matrix(40, 15, 4, rng, noise=0.5)
            mask = rng.uniform(size=values.shape) > 0.3
            data = ObservedMatrix(values=np.where(mask, values, 0.0), mask=mask)
            hp = Hyperparameters(k=4, variant="gbtn", iterations=40, burn_in=0, thinning=1)
        calls = _spy_full_odds(monkeypatch)
        state, trace = run_gibbs(data, hp, np.random.default_rng(7))
        bounded_calls = len(calls)
        monkeypatch.setattr(sampler, "_swap_log_odds_bound", lambda *args: sampler.LOG_ODDS_CLAMP)
        calls.clear()
        state_full, trace_full = run_gibbs(data, hp, np.random.default_rng(7))
        assert len(calls) == hp.iterations
        if case == "low-noise-gbt":
            assert bounded_calls == 0
        for name in ("j", "y", "sigma2", "gtn_mu", "gtn_tau"):
            npt.assert_array_equal(getattr(state, name), getattr(state_full, name))
        for name in ("mse_per_iter", "mse_observed_per_iter", "sigma2_chain"):
            npt.assert_array_equal(getattr(trace, name), getattr(trace_full, name))
        assert trace.y_entry_chains.keys() == trace_full.y_entry_chains.keys()
        for pos, chain in trace.y_entry_chains.items():
            npt.assert_array_equal(chain, trace_full.y_entry_chains[pos])
        assert trace.accepted_swaps == trace_full.accepted_swaps

    @pytest.mark.parametrize("variant", ["gbt", "gbtn"])
    @pytest.mark.parametrize("noise", [0.01, 1.0])
    def test_draws_come_in_one_order(self, variant, noise):
        # s, i, the incoming row (its gbtn prior first), then u, whether the
        # bound rejects (low noise) or leaves the proposal open (noise 1)
        rng = np.random.default_rng(199)
        values = duplicated_id_matrix(30, 10, 2, rng, noise=noise)
        data = ObservedMatrix.fully_observed(values)
        hp = Hyperparameters(k=2, variant=variant, iterations=2, burn_in=0, thinning=1)
        state, a_sq, gram, proj = init_state(data, hp, rng)
        state.sigma2 = noise**2
        calls = []

        class Recording:
            def __getattr__(self, name):
                def draw(*args, **kwargs):
                    calls.append((name, kwargs.get("size")))
                    return getattr(rng, name)(*args, **kwargs)
                return draw

        rss = gram_rss(a_sq, state.y, gram, proj)
        sample_state_vector(state, data, hp, Recording(), gram, proj, a_sq, rss)
        prior = [("normal", (1, 20)), ("gamma", (1, 20))] if variant == "gbtn" else []
        assert calls == [("integers", None), ("integers", None), *prior, ("uniform", (1, 20)), ("uniform", None)]

    @staticmethod
    def _propose(monkeypatch, data, sigma2, proposals):
        """Debug-checked proposals on a fixed start; returns the calls of the full odds."""
        rng = np.random.default_rng(181)
        hp = Hyperparameters(k=2, iterations=2, burn_in=0, thinning=1)
        state, a_sq, gram, proj = init_state(data, hp, rng)
        state.sigma2 = sigma2
        calls = _spy_full_odds(monkeypatch)
        for _ in range(proposals):
            rss = gram_rss(a_sq, state.y, gram, proj)
            sample_state_vector(state, data, hp, rng, gram, proj, a_sq, rss, debug_checks=True)
        return calls

    def test_debug_checks_pass_every_rejection_of_the_bound(self, monkeypatch):
        values = duplicated_id_matrix(30, 10, 2, np.random.default_rng(183), noise=0.01)
        calls = self._propose(monkeypatch, ObservedMatrix.fully_observed(values), 1e-4, 100)
        # an early rejection makes one call (the debug recompute), any other
        # proposal two, so every proposal here was rejected early
        assert len(calls) == 100

    def test_debug_checks_catch_a_loosened_bound(self, monkeypatch):
        # the bound without its 2 ||R|| term, -||D||^2 / (2 sigma^2), is too low
        # wherever the swap moves D against the residual; on random data at a
        # noise variance of 5 the swap odds are moderate
        bound = sampler._swap_log_odds_bound
        monkeypatch.setattr(sampler, "_swap_log_odds_bound", lambda *args: bound(*args[:-1], 0.0))
        data = ObservedMatrix.fully_observed(np.random.default_rng(181).normal(size=(10, 8)))
        with pytest.raises(NumericalError, match="early rejection"):
            self._propose(monkeypatch, data, 5.0, 100)


def _k1_exact_posterior(a, hp, log_s2):
    """Exact p(j | A) and E[sigma^2 | A] of the gbt model at K = 1, by quadrature.

    Given the basis column j and sigma^2, the weight of column l is
    GTN(0, 1) on [a, b] a priori and enters only the likelihood of A[:, l].
    Integrated out, it leaves a Gaussian term times the interval mass of
    its conditional, at precision ||a_j||^2 / sigma^2 + 1. sigma^2 is then
    integrated against its InvGamma prior on the uniform grid ``log_s2``.
    """
    m, n = a.shape
    s2 = np.exp(log_s2)
    log_mass = np.vectorize(_log_interval_mass)
    # InvGamma log density up to a constant, plus log sigma^2 for the grid's Jacobian
    log_prior = -(hp.alpha_sigma + 1.0) * log_s2 - hp.beta_sigma / s2 + log_s2
    log_joint = np.empty((n, log_s2.size))
    for j in range(n):
        tau = a[:, j] @ a[:, j] / s2 + 1.0
        total = log_prior.copy()
        for l in range(n):
            mu = (a[:, j] @ a[:, l]) / s2 / tau
            total += (
                -0.5 * m * np.log(2.0 * np.pi * s2) - (a[:, l] @ a[:, l]) / (2.0 * s2)
                + 0.5 * tau * mu * mu - 0.5 * np.log(tau)
                + log_mass(np.sqrt(tau) * (hp.a - mu), np.sqrt(tau) * (hp.b - mu))
                - _log_interval_mass(hp.a, hp.b)
            )
        log_joint[j] = total
    weights = np.exp(log_joint - logsumexp(log_joint))
    # the grid must hold the whole posterior
    assert weights[:, [0, -1]].max() < 1e-12
    return weights.sum(axis=1), float(np.sum(weights * s2))


def _batch_means_se(chain, batches=20):
    """Standard error of a chain's mean from the spread of its batch means."""
    means = chain[: chain.size // batches * batches].reshape(batches, -1).mean(axis=1)
    return means.std(ddof=1) / np.sqrt(batches)


class TestExactPosterior:
    def test_k1_column_and_noise_posterior_match_quadrature(self, monkeypatch):
        a = np.random.default_rng(0).normal(size=(4, 3))
        hp = Hyperparameters(k=1, iterations=12_000, burn_in=1_000, thinning=1)
        p_col, mean_s2 = _k1_exact_posterior(a, hp, np.linspace(np.log(1e-4), np.log(1e3), 4001))

        columns = []
        record = sampler._TraceRecorder.record

        def spy(self, state, rss):
            columns.append(int(state.j[0]))
            return record(self, state, rss)

        monkeypatch.setattr(sampler._TraceRecorder, "record", spy)
        _, trace = run_gibbs(ObservedMatrix.fully_observed(a), hp, np.random.default_rng(0))
        kept = np.array(columns[hp.burn_in:])
        s2 = trace.sigma2_chain[hp.burn_in:]
        checks = [((kept == j).astype(float), p_col[j], f"p(j={j})") for j in range(3)]
        checks.append((s2, mean_s2, "E[sigma2]"))
        for chain, exact, name in checks:
            se = _batch_means_se(chain)
            assert abs(chain.mean() - exact) <= 4.0 * se, (
                f"{name}: sampled {chain.mean():.4f}, exact {exact:.4f}, batch-means SE {se:.4f}"
            )


class TestExactRecovery:
    """Noise-free instances built from 5 basis columns, interpolations with
    weights in [-1, 1], and duplicated columns (30 x 20 overall)."""

    def _instance(self):
        a = duplicated_id_matrix(30, 10, 5, np.random.default_rng(1000))
        return ObservedMatrix.fully_observed(a)

    @pytest.mark.parametrize("runner", [run_gibbs])
    def test_reaches_low_mse_within_200_iterations_at_true_rank(self, runner):
        data = self._instance()
        hp = Hyperparameters(k=5, iterations=200, burn_in=50, thinning=5)
        state, trace = runner(data, hp, np.random.default_rng(0))
        assert trace.mse_per_iter.min() <= 1e-3, (
            f"best mse {trace.mse_per_iter.min():.3e}, "
            f"accepted swaps {trace.accepted_swaps}"
        )

    @pytest.mark.parametrize("runner", [run_gibbs])
    def test_reaches_low_mse_with_slack_in_run_rank(self, runner):
        data = self._instance()
        hp = Hyperparameters(k=10, iterations=200, burn_in=50, thinning=5)
        state, trace = runner(data, hp, np.random.default_rng(0))
        assert trace.mse_per_iter.min() <= 1e-3
