"""Distribution kernels checked against scipy.stats reference implementations
and direct numerical integration.
"""

import numpy as np
import numpy.testing as npt
import pytest
import scipy.integrate
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from bayesid.distributions import (
    GammaParams,
    GtnParams,
    gtn_log_pdf,
    normal_cdf,
    sample_gamma,
    sample_gtn,
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


class TestNormalCdf:
    def test_zero_is_half(self):
        assert normal_cdf(0.0) == 0.5

    def test_upper_975_quantile(self):
        assert abs(normal_cdf(1.959964) - 0.975) <= 1e-6

    def test_deep_left_tail_positive_and_tiny(self):
        v = normal_cdf(-8.0)
        assert 0.0 < v < 1e-14

    def test_matches_quadrature_of_density(self):
        # independent oracle: adaptive integration of the standard normal pdf
        pdf = lambda t: np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi)
        for x in (-3.0, -1.0, 0.5, 2.0):
            ref, _ = scipy.integrate.quad(pdf, -np.inf, x)
            assert abs(normal_cdf(x) - ref) <= 1e-12

    def test_complement_identity(self):
        xs = np.linspace(-10.0, 10.0, 401)
        for x in xs:
            assert abs(normal_cdf(x) + normal_cdf(-x) - 1.0) <= 1e-14


class TestGtnParamsValidation:
    def test_rejects_nonpositive_tau(self):
        with pytest.raises(InvalidParameterError):
            GtnParams(mu=0.0, tau=0.0, a=-1.0, b=1.0)

    def test_rejects_reversed_bounds(self):
        with pytest.raises(InvalidParameterError):
            GtnParams(mu=0.0, tau=1.0, a=1.0, b=-1.0)

    def test_rejects_nonfinite_mu(self):
        with pytest.raises(InvalidParameterError):
            GtnParams(mu=np.inf, tau=1.0, a=-1.0, b=1.0)

    def test_gamma_params_validation(self):
        with pytest.raises(InvalidParameterError):
            GammaParams(shape=0.0, rate=1.0)
        with pytest.raises(InvalidParameterError):
            GammaParams(shape=1.0, rate=-2.0)


class TestGtnLogPdf:
    def test_outside_support_is_minus_inf(self):
        p = GtnParams(mu=0.0, tau=1.0, a=-1.0, b=1.0)
        assert gtn_log_pdf(2.0, p) == -np.inf
        assert gtn_log_pdf(-1.0001, p) == -np.inf

    def test_center_value_against_direct_formula(self):
        p = GtnParams(mu=0.0, tau=1.0, a=-1.0, b=1.0)
        phi0 = 1.0 / np.sqrt(2.0 * np.pi)
        z = scipy.stats.norm.cdf(1.0) - scipy.stats.norm.cdf(-1.0)
        npt.assert_allclose(gtn_log_pdf(0.0, p), np.log(phi0 / z), rtol=1e-12)

    def test_reduces_to_one_sided_truncated_normal(self):
        # a=0, b=inf is the rectified special case
        p = GtnParams(mu=0.0, tau=1.0, a=0.0, b=np.inf)
        ref = scipy.stats.truncnorm.logpdf(0.5, 0.0, np.inf, loc=0.0, scale=1.0)
        npt.assert_allclose(gtn_log_pdf(0.5, p), ref, rtol=1e-10)

    @pytest.mark.parametrize(
        "p",
        [
            GtnParams(mu=0.0, tau=1.0, a=-1.0, b=1.0),
            GtnParams(mu=3.0, tau=0.25, a=-1.0, b=1.0),
            GtnParams(mu=-0.5, tau=40.0, a=-1.0, b=1.0),
            GtnParams(mu=0.0, tau=1.0, a=6.0, b=6.5),
            GtnParams(mu=2.0, tau=9.0, a=0.0, b=np.inf),
        ],
    )
    def test_integrates_to_one(self, p):
        hi = p.b if np.isfinite(p.b) else p.mu + 20.0 / np.sqrt(p.tau)
        val, _ = scipy.integrate.quad(lambda x: np.exp(gtn_log_pdf(x, p)), p.a, hi)
        npt.assert_allclose(val, 1.0, atol=1e-8)

    def test_zero_mass_interval_raises(self):
        # bounds so extreme that even the log-domain normalizer degenerates
        p = GtnParams(mu=0.0, tau=1.0, a=1e155, b=2e155)
        with pytest.raises(InvalidParameterError):
            gtn_log_pdf(1.5e155, p)

    def test_array_input(self):
        p = GtnParams(mu=0.0, tau=1.0, a=-1.0, b=1.0)
        out = gtn_log_pdf(np.array([-2.0, 0.0, 0.5, 3.0]), p)
        assert out.shape == (4,)
        assert out[0] == -np.inf and out[3] == -np.inf
        assert np.isfinite(out[1]) and np.isfinite(out[2])


class TestSampleGtn:
    def test_support_simple(self):
        rng = np.random.default_rng(7)
        p = GtnParams(mu=0.0, tau=1.0, a=-1.0, b=1.0)
        draws = sample_gtn(p, rng, size=1000)
        assert np.all(draws >= -1.0) and np.all(draws <= 1.0)

    def test_far_parent_mean_matches_truncated_moment(self):
        rng = np.random.default_rng(11)
        p = GtnParams(mu=10.0, tau=1.0, a=-1.0, b=1.0)
        draws = sample_gtn(p, rng, size=10_000)
        ref = scipy.stats.truncnorm.mean(-11.0, -9.0, loc=10.0, scale=1.0)
        assert abs(draws.mean() - ref) <= 0.01

    def test_rectified_case_ks(self):
        rng = np.random.default_rng(13)
        p = GtnParams(mu=0.0, tau=4.0, a=0.0, b=np.inf)
        draws = sample_gtn(p, rng, size=10_000)
        dist = scipy.stats.truncnorm(0.0, np.inf, loc=0.0, scale=0.5)
        assert _ks_stat(draws, dist.cdf) < _KS_CRIT / np.sqrt(draws.size)

    @pytest.mark.parametrize(
        "a,b",
        [
            (6.0, 6.5),  # wide right-tail interval, shifted-exponential proposal
            (6.0, 6.001),  # narrow right-tail interval, uniform proposal
            (-6.5, -6.0),  # left tail via reflection
        ],
    )
    def test_tail_regimes_ks(self, a, b):
        rng = np.random.default_rng(17)
        p = GtnParams(mu=0.0, tau=1.0, a=a, b=b)
        draws = sample_gtn(p, rng, size=20_000)
        assert np.all(draws >= a) and np.all(draws <= b)
        dist = scipy.stats.truncnorm(a, b, loc=0.0, scale=1.0)
        assert _ks_stat(draws, dist.cdf) < _KS_CRIT / np.sqrt(draws.size)

    def test_unbounded_interval_reduces_to_normal(self):
        rng = np.random.default_rng(19)
        p = GtnParams(mu=2.0, tau=4.0, a=-np.inf, b=np.inf)
        draws = sample_gtn(p, rng, size=20_000)
        dist = scipy.stats.norm(loc=2.0, scale=0.5)
        assert _ks_stat(draws, dist.cdf) < _KS_CRIT / np.sqrt(draws.size)

    def test_size_handling(self):
        rng = np.random.default_rng(23)
        p = GtnParams(mu=0.0, tau=1.0, a=-1.0, b=1.0)
        assert isinstance(sample_gtn(p, rng), float)
        assert sample_gtn(p, rng, size=7).shape == (7,)
        assert sample_gtn(p, rng, size=(2, 3)).shape == (2, 3)

    def test_array_broadcasting(self):
        rng = np.random.default_rng(29)
        mu = np.array([[0.0], [5.0]])
        tau = np.array([1.0, 100.0, 0.01])
        out = sample_gtn_array(mu, tau, -1.0, 1.0, rng)
        assert out.shape == (2, 3)
        assert np.all(out >= -1.0) and np.all(out <= 1.0)

    def test_deterministic_given_seed(self):
        p = GtnParams(mu=0.3, tau=2.0, a=-1.0, b=1.0)
        a = sample_gtn(p, np.random.default_rng(31), size=100)
        b = sample_gtn(p, np.random.default_rng(31), size=100)
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
        p = GtnParams(mu=mu, tau=tau, a=lo, b=lo + width)
        draws = sample_gtn(p, np.random.default_rng(seed), size=8)
        assert np.all(draws >= p.a) and np.all(draws <= p.b)


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

    def test_sample_gtn_matches_full_arrays(self):
        p = GtnParams(mu=0.3, tau=2.0, a=-1.0, b=1.0)
        rng_p, rng_full = np.random.default_rng(73), np.random.default_rng(73)
        got = sample_gtn(p, rng_p, size=(3, 2))
        want = sample_gtn_array(*(np.full((3, 2), v) for v in (p.mu, p.tau, p.a, p.b)), rng_full)
        npt.assert_array_equal(got, want)
        assert rng_p.bit_generator.state == rng_full.bit_generator.state

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
    def test_exponential_special_case_mean(self):
        rng = np.random.default_rng(37)
        draws = sample_gamma(GammaParams(1.0, 1.0), rng, size=100_000)
        assert abs(draws.mean() - 1.0) <= 0.02

    def test_mean_shape_over_rate(self):
        rng = np.random.default_rng(41)
        draws = sample_gamma(GammaParams(2.1, 1.0), rng, size=100_000)
        assert abs(draws.mean() - 2.1) <= 0.03

    def test_positive_support(self):
        rng = np.random.default_rng(43)
        draws = sample_gamma(GammaParams(0.5, 2.0), rng, size=10_000)
        assert np.all(draws > 0)

    def test_ks_against_reference(self):
        rng = np.random.default_rng(47)
        draws = sample_gamma(GammaParams(2.5, 3.0), rng, size=10_000)
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
        fwd = sample_gamma(p, np.random.default_rng(59), size=1000)
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
