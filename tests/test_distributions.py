"""Distribution kernels checked against scipy.stats and scipy.special
reference implementations.
"""

import warnings

import numpy as np
import numpy.testing as npt
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from bayesid.distributions import (
    GammaParams,
    _log_interval_mass,
    sample_gtn_array,
    sample_inverse_gamma,
)
from bayesid.errors import InvalidParameterError

# 1% critical value of the Kolmogorov-Smirnov statistic, asymptotic form
_KS_CRIT = 1.628


def _ks_stat(draws, cdf):
    draws = np.sort(draws)
    n = draws.size
    grid = cdf(draws)
    upper = np.max(np.arange(1, n + 1) / n - grid)
    lower = np.max(grid - np.arange(0, n) / n)
    return max(upper, lower)


class TestGtnParamsValidation:
    def test_gamma_params_validation(self):
        with pytest.raises(InvalidParameterError):
            GammaParams(shape=0.0, rate=1.0)
        with pytest.raises(InvalidParameterError):
            GammaParams(shape=1.0, rate=-2.0)


def _reference_log_mass(alpha, beta):
    """log(Phi(beta) - Phi(alpha)) as a signed log-sum of normal survival
    functions. An interval left of zero is mirrored first, so that neither
    term is close to 1 and their difference keeps its digits."""
    if beta <= 0.0:
        alpha, beta = -beta, -alpha  # the standard normal is symmetric
    return logsumexp([scipy.stats.norm.logsf(alpha), scipy.stats.norm.logsf(beta)], b=[1.0, -1.0])


class TestLogIntervalMass:
    @pytest.mark.parametrize("alpha, beta", [
        (-1.0, 1.0),
        (6.0, 6.5),
        (-6.5, -6.0),
        (30.0, 31.0),
        (0.0, np.inf),
    ], ids=["central", "right-tail", "left-tail", "far-right-tail", "one-sided"])
    def test_matches_reference(self, alpha, beta):
        npt.assert_allclose(_log_interval_mass(alpha, beta), _reference_log_mass(alpha, beta), rtol=1e-10)

    def test_numerically_coincident_bounds_have_no_mass(self):
        assert _log_interval_mass(1e155, 2e155) == -np.inf


class TestSampleGtn:
    def test_support_simple(self):
        rng = np.random.default_rng(7)
        draws = sample_gtn_array(0.0, 1.0, -1.0, 1.0, rng, size=1000)
        assert np.all(draws >= -1.0) and np.all(draws <= 1.0)

    def test_far_parent_mean_matches_truncated_moment(self):
        rng = np.random.default_rng(11)
        draws = sample_gtn_array(10.0, 1.0, -1.0, 1.0, rng, size=10_000)
        ref = scipy.stats.truncnorm.mean(-11.0, -9.0, loc=10.0, scale=1.0)
        assert abs(draws.mean() - ref) <= 0.01

    def test_rectified_case_ks(self):
        rng = np.random.default_rng(13)
        draws = sample_gtn_array(0.0, 4.0, 0.0, np.inf, rng, size=10_000)
        dist = scipy.stats.truncnorm(0.0, np.inf, loc=0.0, scale=0.5)
        assert _ks_stat(draws, dist.cdf) < _KS_CRIT / np.sqrt(draws.size)

    @pytest.mark.parametrize(
        "a,b",
        [
            (6.0, 6.5),  # wide right-tail interval
            (6.0, 6.001),  # narrow right-tail interval
            (-6.5, -6.0),  # left-tail interval
        ],
    )
    def test_tail_regimes_ks(self, a, b):
        rng = np.random.default_rng(17)
        draws = sample_gtn_array(0.0, 1.0, a, b, rng, size=20_000)
        assert np.all(draws >= a) and np.all(draws <= b)
        dist = scipy.stats.truncnorm(a, b, loc=0.0, scale=1.0)
        assert _ks_stat(draws, dist.cdf) < _KS_CRIT / np.sqrt(draws.size)

    def test_unbounded_interval_reduces_to_normal(self):
        rng = np.random.default_rng(19)
        draws = sample_gtn_array(2.0, 4.0, -np.inf, np.inf, rng, size=20_000)
        dist = scipy.stats.norm(loc=2.0, scale=0.5)
        assert _ks_stat(draws, dist.cdf) < _KS_CRIT / np.sqrt(draws.size)

    def test_size_handling(self):
        rng = np.random.default_rng(23)
        assert sample_gtn_array(0.0, 1.0, -1.0, 1.0, rng, size=7).shape == (7,)
        assert sample_gtn_array(0.0, 1.0, -1.0, 1.0, rng, size=(2, 3)).shape == (2, 3)

    def test_array_broadcasting(self):
        rng = np.random.default_rng(29)
        mu = np.array([[0.0], [5.0]])
        tau = np.array([1.0, 100.0, 0.01])
        out = sample_gtn_array(mu, tau, -1.0, 1.0, rng)
        assert out.shape == (2, 3)
        assert np.all(out >= -1.0) and np.all(out <= 1.0)

    def test_deterministic_given_seed(self):
        a = sample_gtn_array(0.3, 2.0, -1.0, 1.0, np.random.default_rng(31), size=100)
        b = sample_gtn_array(0.3, 2.0, -1.0, 1.0, np.random.default_rng(31), size=100)
        npt.assert_array_equal(a, b)

    @given(
        mu=st.floats(-50.0, 50.0),
        tau=st.floats(1e-4, 1e6),
        lo=st.floats(-100.0, 99.0),
        width=st.floats(1e-6, 50.0),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_draws_never_leave_interval(self, mu, tau, lo, width, seed):
        draws = sample_gtn_array(mu, tau, lo, lo + width, np.random.default_rng(seed), size=8)
        assert np.all(draws >= lo) and np.all(draws <= lo + width)


class _ConstantUniforms:
    """A generator stand-in whose every uniform is ``value``."""

    def __init__(self, value):
        self.value = value

    def uniform(self, size=None):
        return np.full(size, self.value)


class TestOneUniformPerEntry:
    """Every entry is the inverse CDF of its own uniform, taken row-major,
    whichever regime its interval lies in."""

    @pytest.mark.parametrize("mu, a, b, size", [
        (0.0, -1.0, 1.0, (3, 4)),
        (0.0, 6.0, 8.0, (3, 4)),
        (0.0, -8.0, -6.0, (3, 4)),
        (np.array([0.0, 9.0, -9.0, 0.5]), -1.0, 1.0, None),
        (np.array([[0.0], [9.0], [-30.0]]), -1.0, 1.0, (3, 4)),
    ], ids=["central", "right-tail", "left-tail", "mixed-row", "size-broadcast"])
    def test_one_uniform_per_output_entry(self, mu, a, b, size):
        rng, ref = np.random.default_rng(97), np.random.default_rng(97)
        out = sample_gtn_array(mu, 1.0, a, b, rng, size=size)
        ref.uniform(size=out.shape)
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("a, b", [
        (5.5, 8.0), (10.0, 10.5), (40.0, 45.0), (200.0, 200.001), (6.0, np.inf), (-np.inf, -30.0),
    ])
    def test_tail_draws_are_the_inverse_cdf_of_their_uniform(self, a, b):
        draws = sample_gtn_array(0.0, 1.0, a, b, np.random.default_rng(101), size=500)
        u = np.random.default_rng(101).uniform(size=500)
        # a right tail is drawn mirrored onto the left, so its uniform enters as 1 - u
        want = scipy.stats.truncnorm(a, b).ppf(u if b < 0 else 1.0 - u)
        npt.assert_allclose(draws, want, rtol=1e-12)

    def test_tail_draw_keeps_its_digits_near_the_far_bound(self):
        # a small u on a wide interval puts the draw near a, where the CDF ratio
        # written as 1 - (1 - u)(1 - r) would cancel to a few digits
        draw = sample_gtn_array(0.0, 1.0, -8.0, -5.5, _ConstantUniforms(1e-6), size=1)
        npt.assert_allclose(draw, scipy.stats.truncnorm(-8.0, -5.5).ppf(1e-6), rtol=1e-14)

    @pytest.mark.parametrize("u", [0.0, np.nextafter(1.0, 0.0)], ids=["u-zero", "u-below-one"])
    @pytest.mark.parametrize("a, b", [
        (-1.0, 1.0), (0.0, np.inf), (-np.inf, np.inf), (6.0, np.inf), (-np.inf, -30.0),
        (40.0, 45.0), (-np.inf, -1e200), (1e160, np.inf),
    ])
    def test_extreme_uniforms_give_finite_draws_without_warnings(self, a, b, u):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = sample_gtn_array(0.0, 1.0, a, b, _ConstantUniforms(u), size=3)
        assert np.all(np.isfinite(draws))
        assert np.all(draws >= a) and np.all(draws <= b)


class TestSizeContract:
    """Parameters broadcast by ``size`` give the same draws, and leave the
    generator in the same state, as the same parameters passed full-size."""

    @pytest.mark.parametrize("mu, tau, a, b", [
        (0.0, 1.0, -1.0, 1.0),
        (0.0, 1.0, 6.0, 8.0),
        (0.0, 1.0, -8.0, -6.0),
        (np.array([0.0, 9.0, -9.0, 0.5]), np.array([1.0, 1.0, 1.0, 4.0]), -1.0, 1.0),
    ], ids=["central", "right-tail", "left-tail", "mixed-row"])
    def test_broadcast_params_match_full_arrays(self, mu, tau, a, b):
        size = (5, 4)
        full = [np.broadcast_to(np.asarray(v, dtype=float), size).copy() for v in (mu, tau, a, b)]
        rng_small, rng_full = np.random.default_rng(71), np.random.default_rng(71)
        small = sample_gtn_array(mu, tau, a, b, rng_small, size=size)
        want = sample_gtn_array(*full, rng_full)
        assert small.shape == size
        npt.assert_array_equal(small, want)
        assert rng_small.bit_generator.state == rng_full.bit_generator.state
        assert np.all(small >= full[2]) and np.all(small <= full[3])

    def test_central_block_draws_in_row_major_order(self):
        # one uniform per entry, in the order that scalar draws one by one take them
        rng_block, rng_one = np.random.default_rng(89), np.random.default_rng(89)
        block = sample_gtn_array(0.2, 3.0, -1.0, 1.0, rng_block, size=(3, 4))
        one_by_one = [sample_gtn_array(0.2, 3.0, -1.0, 1.0, rng_one) for _ in range(12)]
        npt.assert_array_equal(block.ravel(), one_by_one)
        assert rng_block.bit_generator.state == rng_one.bit_generator.state

    def test_size_is_the_output_shape(self):
        rng = np.random.default_rng(79)
        assert sample_gtn_array(0.0, 1.0, -1.0, 1.0, rng, size=()).shape == ()
        assert sample_gtn_array(0.0, 1.0, -1.0, 1.0, rng, size=6).shape == (6,)
        assert sample_gtn_array(np.zeros(3), 1.0, -1.0, 1.0, rng, size=(2, 3)).shape == (2, 3)

    @pytest.mark.parametrize("mu, size", [
        (np.zeros(3), (2,)),
        (np.zeros((2, 3)), (3,)),
        (np.zeros((2, 1)), (3,)),
    ], ids=["mismatch", "params-larger", "would-grow"])
    def test_params_that_do_not_broadcast_to_size_rejected(self, mu, size):
        rng = np.random.default_rng(83)
        before = rng.bit_generator.state
        with pytest.raises(ValueError):
            sample_gtn_array(mu, 1.0, -1.0, 1.0, rng, size=size)
        # rejected before any draw, as numpy's Generator does
        assert rng.bit_generator.state == before


class TestGamma:
    """numpy's Gamma sampler, which sample_inverse_gamma draws through, takes
    the scale, the reciprocal of GammaParams' rate."""

    def test_exponential_special_case_mean(self):
        rng = np.random.default_rng(37)
        draws = rng.gamma(1.0, scale=1.0, size=100_000)
        assert abs(draws.mean() - 1.0) <= 0.02

    def test_mean_shape_over_rate(self):
        rng = np.random.default_rng(41)
        draws = rng.gamma(2.1, scale=1.0, size=100_000)
        assert abs(draws.mean() - 2.1) <= 0.03

    def test_positive_support(self):
        rng = np.random.default_rng(43)
        draws = rng.gamma(0.5, scale=1.0 / 2.0, size=10_000)
        assert np.all(draws > 0)

    def test_ks_against_reference(self):
        rng = np.random.default_rng(47)
        draws = rng.gamma(2.5, scale=1.0 / 3.0, size=10_000)
        dist = scipy.stats.gamma(a=2.5, scale=1.0 / 3.0)
        assert _ks_stat(draws, dist.cdf) < _KS_CRIT / np.sqrt(draws.size)


class TestInverseGamma:
    def test_mean_rate_over_shape_minus_one(self):
        rng = np.random.default_rng(53)
        draws = sample_inverse_gamma(GammaParams(3.0, 2.0), rng, size=100_000)
        assert abs(draws.mean() - 1.0) <= 0.02

    def test_reciprocal_of_gamma_identity(self):
        p = GammaParams(2.0, 3.0)
        inv = sample_inverse_gamma(p, np.random.default_rng(59), size=1000)
        fwd = np.random.default_rng(59).gamma(p.shape, scale=1.0 / p.rate, size=1000)
        npt.assert_array_equal(inv, 1.0 / fwd)

    def test_ks_against_reference(self):
        rng = np.random.default_rng(61)
        draws = sample_inverse_gamma(GammaParams(3.0, 2.0), rng, size=10_000)
        dist = scipy.stats.invgamma(a=3.0, scale=2.0)
        assert _ks_stat(draws, dist.cdf) < _KS_CRIT / np.sqrt(draws.size)

    def test_small_shape_stays_finite(self):
        rng = np.random.default_rng(67)
        draws = sample_inverse_gamma(GammaParams(0.1, 1.0), rng, size=100_000)
        assert np.all(draws > 0) and np.all(np.isfinite(draws))

    def test_scalar_return(self):
        assert isinstance(sample_inverse_gamma(GammaParams(1.0, 1.0), np.random.default_rng(0)), float)
