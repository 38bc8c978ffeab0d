"""Reconstruction-error metrics, chain statistics, and run reports."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from bayesid.diagnostics import (
    RunReport,
    autocorrelation,
    build_run_report,
    iterations_to_plateau,
    kept_iterations,
    mixing_verdict,
    mse,
    mse_observed,
    posterior_mean_mse,
)
from bayesid.errors import DegenerateChainError, InputError
from bayesid import model
from bayesid.model import Hyperparameters, ObservedMatrix, residual_sums
from bayesid.sampler import GibbsTrace, run_gibbs


class TestMse:
    def test_exact_factorization_gives_zero(self):
        rng = np.random.default_rng(61)
        x = rng.normal(size=(6, 3))
        y = rng.normal(size=(3, 5))
        assert mse(x @ y, x, y) == 0.0

    def test_double_loop_oracle(self):
        rng = np.random.default_rng(67)
        a = rng.normal(size=(5, 4))
        x = rng.normal(size=(5, 4))
        y = rng.normal(size=(4, 4))
        total = 0.0
        for i in range(5):
            for j in range(4):
                pred = sum(x[i, k] * y[k, j] for k in range(4))
                total += (a[i, j] - pred) ** 2
        npt.assert_allclose(mse(a, x, y), total / 20.0, rtol=1e-12)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(71)
        a = rng.normal(size=(7, 4))
        x = rng.normal(size=(7, 4))
        y = rng.normal(size=(4, 4))
        perm = rng.permutation(7)
        npt.assert_allclose(mse(a, x, y), mse(a[perm], x[perm], y), rtol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mse(np.ones((3, 3)), np.ones((3, 2)), np.ones((3, 3)))


class TestMseObserved:
    def test_full_mask_equals_plain_mse(self):
        rng = np.random.default_rng(73)
        a = rng.normal(size=(6, 4))
        x = rng.normal(size=(6, 4))
        y = rng.normal(size=(4, 4))
        data = ObservedMatrix.fully_observed(a)
        npt.assert_allclose(mse_observed(data, x, y), mse(a, x, y), rtol=1e-12)

    def test_single_observed_entry(self):
        mask = np.zeros((2, 2), dtype=bool)
        mask[0, 1] = True
        values = np.zeros((2, 2))
        values[0, 1] = 3.0
        data = ObservedMatrix(values=values, mask=mask)
        x = np.zeros((2, 2))
        y = np.zeros((2, 2))
        npt.assert_allclose(mse_observed(data, x, y), 9.0, rtol=1e-12)

    def test_masked_loop_oracle(self):
        rng = np.random.default_rng(79)
        mask = rng.uniform(size=(5, 4)) > 0.4
        mask[0, 0] = True
        values = np.where(mask, rng.normal(size=(5, 4)), 0.0)
        data = ObservedMatrix(values=values, mask=mask)
        x = rng.normal(size=(5, 4))
        y = rng.normal(size=(4, 4))
        total, count = 0.0, 0
        recon = x @ y
        for i in range(5):
            for j in range(4):
                if mask[i, j]:
                    total += (values[i, j] - recon[i, j]) ** 2
                    count += 1
        npt.assert_allclose(mse_observed(data, x, y), total / count, rtol=1e-12)

    def test_empty_mask_rejected(self):
        data = ObservedMatrix(values=np.zeros((2, 2)), mask=np.zeros((2, 2), dtype=bool))
        with pytest.raises(InputError):
            mse_observed(data, np.zeros((2, 2)), np.zeros((2, 2)))


def _masked_fit(m, n, seed, k=10):
    rng = np.random.default_rng(seed)
    mask = rng.uniform(size=(m, n)) < 0.9
    data = ObservedMatrix(values=np.where(mask, rng.normal(size=(m, n)), 0.0), mask=mask)
    return data, rng.normal(size=(m, k)), rng.normal(size=(k, n))


class TestBlockedLosses:
    """Both losses form the residual a block of rows at a time (``model.residual_sums``)."""

    # (1200, 500): several blocks of many rows; (3, 140_000): one row per block
    @pytest.mark.parametrize("m, n", [(1200, 500), (3, 140_000)])
    def test_match_the_whole_residual(self, m, n):
        data, x, y = _masked_fit(m, n, seed=83)
        resid = data.values - x @ y
        npt.assert_allclose(mse(data.values, x, y), np.mean(resid**2), rtol=1e-12)
        npt.assert_allclose(mse_observed(data, x, y), np.mean(resid[data.mask] ** 2), rtol=1e-12)
        total, observed = residual_sums(data.values, x, y, data.mask)
        npt.assert_allclose(observed, np.sum(resid[data.mask] ** 2), rtol=1e-12)
        assert residual_sums(data.values, x, y) == (total, total)

    @pytest.mark.parametrize("loss", [mse, mse_observed], ids=["mse", "mse_observed"])
    def test_peak_below_one_array(self, loss):
        m, n = 1200, 500
        assert m * n * 8 >= 4 * model._RESIDUAL_BLOCK_BYTES
        data, x, y = _masked_fit(m, n, seed=89)
        args = (data, x, y) if loss is mse_observed else (data.values, x, y)
        tracemalloc.start()
        try:
            loss(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m * n * 8, f"peak {peak / (m * n * 8):.2f} M x N float arrays"


class TestAutocorrelation:
    def test_lag_zero_is_one(self):
        chain = np.random.default_rng(83).normal(size=100)
        rho = autocorrelation(chain, 5)
        assert rho[0] == 1.0
        assert rho.shape == (6,)

    def test_alternating_chain_exact_lag_one(self):
        n = 50
        chain = np.array([1.0, -1.0] * (n // 2))
        rho = autocorrelation(chain, 1)
        npt.assert_allclose(rho[1], -(n - 1) / n, rtol=1e-12)

    def test_iid_noise_decorrelates(self):
        chain = np.random.default_rng(89).normal(size=10_000)
        rho = autocorrelation(chain, 20)
        assert np.max(np.abs(rho[1:])) < 0.05

    def test_ar1_matches_theory(self):
        rng = np.random.default_rng(97)
        phi = 0.6
        n = 200_000
        eps = rng.normal(size=n)
        chain = np.empty(n)
        chain[0] = eps[0]
        for t in range(1, n):
            chain[t] = phi * chain[t - 1] + eps[t]
        rho = autocorrelation(chain, 5)
        npt.assert_allclose(rho[1:], phi ** np.arange(1, 6), atol=0.03)

    def test_constant_chain_degenerate(self):
        with pytest.raises(DegenerateChainError):
            autocorrelation(np.full(50, 0.7), 5)

    def test_chain_shorter_than_lag_rejected(self):
        with pytest.raises(ValueError):
            autocorrelation(np.arange(4.0), 10)

    def test_nonpositive_max_lag_rejected(self):
        with pytest.raises(ValueError):
            autocorrelation(np.arange(50.0), 0)


class TestKeptIterations:
    def test_default_schedule(self):
        npt.assert_array_equal(kept_iterations(500, 100, 5), np.arange(100, 500, 5))

    def test_no_burn_in(self):
        npt.assert_array_equal(kept_iterations(10, 0, 1), np.arange(10))


class TestPosteriorSummaries:
    def test_posterior_mean_mse_averages_kept_iterations(self):
        chain = np.arange(10.0)
        # kept indices are 4 and 7
        npt.assert_allclose(posterior_mean_mse(chain, 4, 3), 5.5, rtol=1e-12)


class TestIterationsToPlateau:
    def test_settles_after_transient(self):
        series = np.concatenate([2.0 ** -np.arange(30), np.full(40, 2.0 ** -29)])
        assert iterations_to_plateau(series) == 30

    def test_never_settles(self):
        series = 2.0 ** -np.arange(60)
        assert iterations_to_plateau(series) is None

    def test_too_short_for_window(self):
        assert iterations_to_plateau(np.ones(5)) is None

    def test_flat_from_the_start(self):
        assert iterations_to_plateau(np.ones(50)) == 1


class TestMixingVerdict:
    def test_good_when_tails_small(self):
        rho = np.zeros(21)
        rho[0] = 1.0
        rho[1:11] = 0.5
        assert mixing_verdict({(0, 0): rho}) == "good"

    def test_poor_when_tail_large(self):
        rho = np.zeros(21)
        rho[0] = 1.0
        rho[15] = 0.2
        assert mixing_verdict({(0, 0): rho, (1, 1): np.zeros(21)}) == "poor"

    def test_degenerate_probe_dominates(self):
        assert mixing_verdict({(0, 0): None, (1, 1): np.zeros(21)}) == "degenerate"


class TestBuildRunReport:
    def _trace(self, seed=3):
        rng = np.random.default_rng(seed)
        data = ObservedMatrix.fully_observed(rng.normal(size=(8, 6)))
        hp = Hyperparameters(k=2, iterations=60, burn_in=20, thinning=2)
        _, trace = run_gibbs(data, hp, rng)
        return trace, hp

    def test_fields_match_trace(self):
        trace, hp = self._trace()
        report = build_run_report(trace, hp.burn_in, hp.thinning)
        assert isinstance(report, RunReport)
        assert report.iterations == 60
        assert report.mse_final == trace.mse_per_iter[-1]
        assert report.sigma2_final == trace.sigma2_chain[-1]
        assert report.accepted_swaps == trace.accepted_swaps
        kept = kept_iterations(60, 20, 2)
        npt.assert_allclose(report.mse_posterior_mean, trace.mse_per_iter[kept].mean(), rtol=1e-12)
        assert report.mixing in ("good", "poor", "degenerate")

    def test_constant_probe_marks_degenerate(self):
        trace, hp = self._trace(seed=5)
        frozen = dict(trace.y_entry_chains)
        key = next(iter(frozen))
        frozen[key] = np.full_like(frozen[key], 0.25)
        forged = GibbsTrace(
            mse_per_iter=trace.mse_per_iter,
            mse_observed_per_iter=trace.mse_observed_per_iter,
            sigma2_chain=trace.sigma2_chain,
            y_entry_chains=frozen,
            accepted_swaps=trace.accepted_swaps,
        )
        report = build_run_report(forged, hp.burn_in, hp.thinning)
        assert report.autocorrelations[key] is None
        assert report.mixing == "degenerate"

    def test_early_stopped_run_shorter_than_burn_in(self):
        # a hand-built trace of 12 iterations read against a burn-in of 250
        mse_chain, obs, sigma2, p0, p1 = np.random.default_rng(7).uniform(0.1, 1.0, size=(5, 12))
        trace = GibbsTrace(
            mse_per_iter=mse_chain,
            mse_observed_per_iter=obs,
            sigma2_chain=sigma2,
            y_entry_chains={(0, 0): p0, (1, 2): p1},
            accepted_swaps=0,
        )
        report = build_run_report(trace, 250, 5)
        assert report.iterations == 12
        assert report.mse_posterior_mean == trace.mse_per_iter[-1]
        assert all(rho is None for rho in report.autocorrelations.values())
