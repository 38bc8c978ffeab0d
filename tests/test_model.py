"""Hyperparameter validation, observed-matrix invariants, and state setup."""

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

from bayesid.errors import ConfigurationError
from bayesid.linalg import dominant_columns
from bayesid.model import (
    Hyperparameters,
    ObservedMatrix,
    init_state,
    validate_state,
)


class TestHyperparameters:
    def test_defaults(self):
        hp = Hyperparameters(k=3)
        assert (hp.a, hp.b) == (-1.0, 1.0)
        assert (hp.alpha_sigma, hp.beta_sigma) == (0.1, 1.0)
        assert (hp.mu_mu, hp.tau_mu) == (0.0, 0.1)
        assert (hp.alpha_t, hp.beta_t) == (1.0, 1.0)
        assert (hp.iterations, hp.burn_in, hp.thinning) == (500, 100, 5)
        assert hp.variant == "gbt"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0},
            {"k": 2, "a": 1.0, "b": -1.0},
            {"k": 2, "a": 1.0, "b": 1.0},
            {"k": 2, "alpha_sigma": 0.0},
            {"k": 2, "beta_sigma": -1.0},
            {"k": 2, "tau_mu": 0.0},
            {"k": 2, "alpha_t": -0.5},
            {"k": 2, "beta_t": 0.0},
            {"k": 2, "mu_mu": np.nan},
            {"k": 2, "iterations": 0},
            {"k": 2, "iterations": 10, "burn_in": 10},
            {"k": 2, "burn_in": -1},
            {"k": 2, "thinning": 0},
            {"k": 2, "variant": "other"},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            Hyperparameters(**kwargs)

    def test_gbtn_plain_is_valid(self):
        Hyperparameters(k=2, variant="gbtn")

    def test_burn_in_zero_is_valid(self):
        Hyperparameters(k=2, burn_in=0, iterations=1)


class TestObservedMatrix:
    def test_fully_observed(self):
        data = ObservedMatrix.fully_observed([[1.0, 2.0], [3.0, 4.0]])
        assert data.mask.all()
        assert data.shape == (2, 2)

    def test_mask_shape_mismatch(self):
        with pytest.raises(ValueError):
            ObservedMatrix(values=np.ones((2, 2)), mask=np.ones((2, 3), dtype=bool))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ObservedMatrix.fully_observed([[1.0, np.inf]])

    def test_rejects_nonzero_unobserved(self):
        mask = np.array([[True, False]])
        with pytest.raises(ValueError):
            ObservedMatrix(values=np.array([[1.0, 5.0]]), mask=mask)

    def test_rejects_one_dimensional(self):
        with pytest.raises(ValueError):
            ObservedMatrix.fully_observed([1.0, 2.0])


class TestInitState:
    def test_k_equals_n_keeps_everything(self):
        rng = np.random.default_rng(0)
        data = ObservedMatrix.fully_observed(rng.normal(size=(5, 4)))
        state = init_state(data, Hyperparameters(k=4), rng)
        assert state.j.size == 4
        npt.assert_array_equal(state.basis_indices, np.arange(4))
        assert state.interpolated_indices.size == 0

    def test_k_one_of_three(self):
        rng = np.random.default_rng(1)
        data = ObservedMatrix.fully_observed(rng.normal(size=(4, 3)))
        state = init_state(data, Hyperparameters(k=1), rng)
        assert state.j.size == 1
        assert state.interpolated_indices.size == 2

    def test_k_exceeding_columns_raises(self):
        data = ObservedMatrix.fully_observed(np.ones((3, 2)))
        with pytest.raises(ConfigurationError):
            init_state(data, Hyperparameters(k=3), np.random.default_rng(0))

    def test_deterministic_given_seed(self):
        data = ObservedMatrix.fully_observed(np.random.default_rng(5).normal(size=(6, 5)))
        hp = Hyperparameters(k=2, variant="gbtn")
        s1 = init_state(data, hp, np.random.default_rng(42))
        s2 = init_state(data, hp, np.random.default_rng(42))
        npt.assert_array_equal(s1.j, s2.j)
        npt.assert_array_equal(s1.y, s2.y)
        npt.assert_array_equal(s1.gtn_mu, s2.gtn_mu)
        npt.assert_array_equal(s1.gtn_tau, s2.gtn_tau)
        assert s1.sigma2 == s2.sigma2

    def test_weights_start_inside_bounds(self):
        rng = np.random.default_rng(9)
        data = ObservedMatrix.fully_observed(rng.normal(size=(8, 6)))
        state = init_state(data, Hyperparameters(k=3), rng)
        assert np.all(state.y >= -1.0) and np.all(state.y <= 1.0)

    def test_gbt_prior_arrays_fixed(self):
        rng = np.random.default_rng(10)
        data = ObservedMatrix.fully_observed(rng.normal(size=(4, 4)))
        state = init_state(data, Hyperparameters(k=2), rng)
        npt.assert_array_equal(state.gtn_mu, np.zeros((4, 4)))
        npt.assert_array_equal(state.gtn_tau, np.ones((4, 4)))

    def test_gbtn_prior_arrays_drawn(self):
        rng = np.random.default_rng(11)
        data = ObservedMatrix.fully_observed(rng.normal(size=(4, 4)))
        state = init_state(data, Hyperparameters(k=2, variant="gbtn"), rng)
        assert not np.all(state.gtn_mu == 0.0)
        assert np.all(state.gtn_tau > 0.0)
        assert state.gtn_mu.std() > 0

    def test_sigma2_floor(self):
        rng = np.random.default_rng(12)
        data = ObservedMatrix.fully_observed(rng.normal(size=(3, 3)))
        for _ in range(50):
            state = init_state(data, Hyperparameters(k=1), rng)
            assert state.sigma2 >= 1e-6

    def test_state_size_does_not_grow_with_rows(self):
        def state_bytes(m):
            rng = np.random.default_rng(14)
            data = ObservedMatrix.fully_observed(rng.normal(size=(m, 6)))
            state = init_state(data, Hyperparameters(k=3), rng)
            return sum(v.nbytes for v in vars(state).values() if isinstance(v, np.ndarray))

        assert state_bytes(10) == state_bytes(1000)

    def test_index_properties_partition(self):
        rng = np.random.default_rng(13)
        data = ObservedMatrix.fully_observed(rng.normal(size=(5, 7)))
        state = init_state(data, Hyperparameters(k=3), rng)
        merged = np.sort(np.concatenate([state.basis_indices, state.interpolated_indices]))
        npt.assert_array_equal(merged, np.arange(7))


class TestDominantStart:
    """The start column set: pivoted QR, then volume-increasing exchanges."""

    @staticmethod
    def _rank_k(seed, m=12, n=15, k=4):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(m, k)) @ rng.normal(size=(k, n))

    @staticmethod
    def _max_lstsq_weight(a, cols):
        return float(np.abs(np.linalg.lstsq(a[:, cols], a, rcond=None)[0]).max())

    def test_weights_on_start_set_are_bounded_at_true_rank(self):
        a = self._rank_k(0)
        perm = scipy.linalg.qr(a, pivoting=True)[2]
        # the leading pivots alone need a weight above 1 here, so the exchanges matter
        assert self._max_lstsq_weight(a, perm[:4]) > 1.1
        state = init_state(ObservedMatrix.fully_observed(a), Hyperparameters(k=4), np.random.default_rng(0))
        assert self._max_lstsq_weight(a, state.basis_indices) <= 1.0 + 1e-8

    def test_choice_does_not_depend_on_rng(self):
        data = ObservedMatrix.fully_observed(self._rank_k(3))
        hp = Hyperparameters(k=4, variant="gbtn")
        chosen = [init_state(data, hp, np.random.default_rng(s)).basis_indices for s in range(5)]
        for c in chosen[1:]:
            npt.assert_array_equal(c, chosen[0])

    def test_pivots_unchanged_when_k_exceeds_rank(self):
        a = self._rank_k(5, k=3)
        perm = scipy.linalg.qr(a, pivoting=True)[2]
        npt.assert_array_equal(dominant_columns(a, 6), np.sort(perm[:6]))
        state = init_state(ObservedMatrix.fully_observed(a), Hyperparameters(k=6), np.random.default_rng(1))
        npt.assert_array_equal(state.basis_indices, np.sort(perm[:6]))

    def test_pivots_unchanged_when_trailing_pivots_are_exactly_zero(self):
        a = np.zeros((8, 7))
        a[:, [1, 4]] = np.random.default_rng(7).normal(size=(8, 2))
        perm = scipy.linalg.qr(a, pivoting=True)[2]
        npt.assert_array_equal(dominant_columns(a, 4), np.sort(perm[:4]))


class TestRebuildAndValidate:
    def _valid(self):
        rng = np.random.default_rng(21)
        data = ObservedMatrix.fully_observed(rng.normal(size=(4, 3)))
        hp = Hyperparameters(k=2)
        return data, hp, init_state(data, hp, rng)

    def test_validate_accepts_fresh_state(self):
        data, hp, state = self._valid()
        validate_state(state, data, hp)

    def test_validate_catches_wrong_count(self):
        data, hp, state = self._valid()
        state.j = np.arange(3)
        with pytest.raises(ValueError):
            validate_state(state, data, hp)

    def test_validate_catches_repeated_basis_column(self):
        data, hp, state = self._valid()
        state.j[:] = state.j[0]
        with pytest.raises(ValueError, match="distinct"):
            validate_state(state, data, hp)

    def test_validate_catches_out_of_bounds_y(self):
        data, hp, state = self._valid()
        state.y[0, 0] = 1.5
        with pytest.raises(ValueError):
            validate_state(state, data, hp)

    def test_validate_catches_bad_sigma2(self):
        data, hp, state = self._valid()
        state.sigma2 = -1.0
        with pytest.raises(ValueError):
            validate_state(state, data, hp)
