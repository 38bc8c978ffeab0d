"""Randomized interpolative decomposition baseline."""

import numpy as np
import numpy.testing as npt
import pytest

from bayesid.errors import ConfigurationError, RankDeficiencyError
from bayesid.rid import max_magnitude_excess, randomized_id

from _instances import duplicated_id_matrix


def _adversarial_matrix():
    """Two orthogonal columns plus a combination with a weight of 1.5."""
    a1 = np.array([3.0, 1.0, -2.0, 0.5])
    v = np.array([1.0, -1.0, 2.0, 4.0])
    a2 = v - (v @ a1) / (a1 @ a1) * a1
    a3 = 1.5 * a1 - 0.2 * a2
    return np.stack([a1, a2, a3], axis=1)


class TestRandomizedId:
    def test_exact_rank_recovery(self):
        rng = np.random.default_rng(23)
        a = duplicated_id_matrix(20, 8, 3, rng)
        res = randomized_id(a, 3, rng, oversample=a.shape[1] / 3)
        mse = np.mean((a - res.c @ res.w) ** 2)
        assert mse <= 1e-10
        npt.assert_allclose(res.w[:, res.j_set], np.eye(3), atol=1e-8)

    def test_weights_match_least_squares_oracle(self):
        rng = np.random.default_rng(29)
        a = rng.normal(size=(15, 10))
        res = randomized_id(a, 4, rng)
        ref, *_ = np.linalg.lstsq(res.c, a, rcond=None)
        npt.assert_allclose(res.w, ref, atol=1e-8)

    def test_consistent_system_recovers_weights(self):
        # A = C0 [I, W0] has rank 4, so whichever four columns the pivots
        # pick, C = C0 M with M = [I, W0][:, j_set] and W = M^-1 [I, W0]
        rng = np.random.default_rng(13)
        c0 = rng.normal(size=(12, 4))
        coeffs = np.concatenate([np.eye(4), rng.uniform(-1.0, 1.0, size=(4, 7))], axis=1)
        res = randomized_id(c0 @ coeffs, 4, rng, oversample=11 / 4)
        npt.assert_allclose(res.w, np.linalg.solve(coeffs[:, res.j_set], coeffs), atol=1e-10)

    def test_matches_lstsq_oracle(self):
        # a sample of exactly k columns: the pivots only reorder it
        rng = np.random.default_rng(19)
        a = rng.normal(size=(25, 10))
        res = randomized_id(a, 6, rng, oversample=1.0)
        ref = np.linalg.lstsq(res.c, a, rcond=None)[0]
        npt.assert_allclose(res.w, ref, atol=1e-8)

    def test_unbounded_weights_on_adversarial_columns(self):
        # seed 1 makes the uniform draw pick the two orthogonal columns, so
        # the third column needs a weight of exactly 1.5
        a = _adversarial_matrix()
        res = randomized_id(a, 2, np.random.default_rng(1), oversample=1.0)
        npt.assert_array_equal(res.j_set, [0, 1])
        npt.assert_allclose(res.max_abs_w, 1.5, atol=1e-9)
        npt.assert_allclose(max_magnitude_excess(res.w), 0.5, atol=1e-9)

    def test_selected_columns_copied_verbatim(self):
        rng = np.random.default_rng(31)
        a = rng.normal(size=(9, 7))
        res = randomized_id(a, 3, rng)
        assert res.j_set.size == 3
        assert np.all(np.diff(res.j_set) > 0)
        assert np.all((res.j_set >= 0) & (res.j_set < 7))
        npt.assert_array_equal(res.c, a[:, res.j_set])

    def test_deterministic_given_seed(self):
        a = np.random.default_rng(37).normal(size=(12, 9))
        r1 = randomized_id(a, 4, np.random.default_rng(5))
        r2 = randomized_id(a, 4, np.random.default_rng(5))
        npt.assert_array_equal(r1.j_set, r2.j_set)
        npt.assert_array_equal(r1.w, r2.w)

    def test_duplicate_columns_rejected_as_rank_deficient(self):
        col = np.arange(1.0, 6.0)
        a = np.stack([col, col], axis=1)
        with pytest.raises(RankDeficiencyError) as exc:
            randomized_id(a, 2, np.random.default_rng(0), oversample=1.0)
        assert exc.value.rank == 1

    def test_residual_orthogonal_to_basis_span(self):
        rng = np.random.default_rng(17)
        a = rng.normal(size=(30, 12))
        res = randomized_id(a, 5, rng)
        npt.assert_allclose(res.c.T @ (a - res.c @ res.w), 0.0, atol=1e-8)

    def test_weights_locally_optimal(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(15, 9))
        res = randomized_id(a, 4, rng)
        best = np.sum((a - res.c @ res.w) ** 2)
        for _ in range(100):
            perturbed = res.w + rng.normal(0.0, 1e-3, size=res.w.shape)
            assert np.sum((a - res.c @ perturbed) ** 2) >= best - 1e-12

    def test_rank_deficient_sample_reports_its_rank(self):
        # six columns spanning a plane; the whole sample is rank 2 below k = 3
        rng = np.random.default_rng(29)
        a = rng.normal(size=(10, 2)) @ rng.normal(size=(2, 6))
        with pytest.raises(RankDeficiencyError) as exc:
            randomized_id(a, 3, np.random.default_rng(0), oversample=2.0)
        assert exc.value.rank == 2

    def test_nan_outside_the_sample_rejected(self):
        a = np.random.default_rng(41).normal(size=(8, 10))
        sampled = np.random.default_rng(3).choice(10, size=2, replace=False)
        a[4, np.setdiff1d(np.arange(10), sampled)[0]] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            randomized_id(a, 2, np.random.default_rng(3), oversample=1.0)

    @pytest.mark.parametrize("k", [0, 8])
    def test_k_out_of_range(self, k):
        a = np.ones((4, 7))
        with pytest.raises(ConfigurationError):
            randomized_id(a, k, np.random.default_rng(0))

    def test_oversample_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            randomized_id(np.ones((4, 4)), 2, np.random.default_rng(0), oversample=0.5)

    @pytest.mark.parametrize("oversample", [np.nan, np.inf, 0.5])
    def test_oversample_must_be_finite_and_at_least_one(self, oversample):
        with pytest.raises(ConfigurationError, match="oversample must be finite and at least 1"):
            randomized_id(np.ones((4, 4)), 2, np.random.default_rng(0), oversample=oversample)

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ValueError):
            randomized_id(np.ones(5), 1, np.random.default_rng(0))


class TestMaxMagnitudeExcess:
    def test_bounded_weights_have_zero_excess(self):
        assert max_magnitude_excess(np.array([[1.0, -0.5], [0.25, -1.0]])) == 0.0

    def test_small_excess(self):
        npt.assert_allclose(max_magnitude_excess(np.array([0.3, 1.0269])), 0.0269, atol=1e-12)

    def test_negative_entry_counts(self):
        npt.assert_allclose(max_magnitude_excess(np.array([-1.5, 0.2])), 0.5, atol=1e-12)

    def test_empty_input(self):
        assert max_magnitude_excess(np.empty((0, 3))) == 0.0
