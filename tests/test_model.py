"""Hyperparameter validation, observed-matrix invariants, and state setup."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

from bayesid import linalg
from bayesid.errors import ConfigurationError, NumericalError
from bayesid.linalg import dominant_fit, numerical_rank
from bayesid.model import (
    Hyperparameters,
    ObservedMatrix,
    gram_statistics,
    init_state,
    sample_prior_rows,
    validate_state,
)

from _instances import duplicated_id_matrix


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

    @pytest.mark.parametrize("row", [0, 150, 299])
    def test_rejects_nonzero_unobserved_in_any_row_block(self, row):
        # 300 rows of 200 span several of the blocks the check reads at a time
        mask = np.ones((300, 200), dtype=bool)
        mask[row, 7] = False
        values = np.ones((300, 200))
        with pytest.raises(ValueError, match="stored as 0"):
            ObservedMatrix(values=values, mask=mask)
        values[row, 7] = -0.0
        ObservedMatrix(values=values, mask=mask)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_rejects_nan_and_infinity_anywhere(self, bad):
        values = np.zeros((300, 200))
        values[299, 199] = bad
        with pytest.raises(ValueError, match="non-finite"):
            ObservedMatrix(values=values, mask=np.zeros((300, 200), dtype=bool))


class TestInitState:
    def test_k_equals_n_keeps_everything(self):
        rng = np.random.default_rng(0)
        data = ObservedMatrix.fully_observed(rng.normal(size=(5, 4)))
        state = init_state(data, Hyperparameters(k=4), rng)[0]
        assert state.j.size == 4
        npt.assert_array_equal(state.basis_indices, np.arange(4))
        assert state.interpolated_indices.size == 0

    def test_k_one_of_three(self):
        rng = np.random.default_rng(1)
        data = ObservedMatrix.fully_observed(rng.normal(size=(4, 3)))
        state = init_state(data, Hyperparameters(k=1), rng)[0]
        assert state.j.size == 1
        assert state.interpolated_indices.size == 2

    def test_k_exceeding_columns_raises(self):
        data = ObservedMatrix.fully_observed(np.ones((3, 2)))
        with pytest.raises(ConfigurationError):
            init_state(data, Hyperparameters(k=3), np.random.default_rng(0))

    def test_deterministic_given_seed(self):
        data = ObservedMatrix.fully_observed(np.random.default_rng(5).normal(size=(6, 5)))
        hp = Hyperparameters(k=2, variant="gbtn")
        s1 = init_state(data, hp, np.random.default_rng(42))[0]
        s2 = init_state(data, hp, np.random.default_rng(42))[0]
        npt.assert_array_equal(s1.j, s2.j)
        npt.assert_array_equal(s1.y, s2.y)
        npt.assert_array_equal(s1.gtn_mu, s2.gtn_mu)
        npt.assert_array_equal(s1.gtn_tau, s2.gtn_tau)
        assert s1.sigma2 == s2.sigma2

    def test_weights_start_inside_bounds(self):
        rng = np.random.default_rng(9)
        data = ObservedMatrix.fully_observed(rng.normal(size=(8, 6)))
        state = init_state(data, Hyperparameters(k=3), rng)[0]
        assert np.all(state.y >= -1.0) and np.all(state.y <= 1.0)

    def test_gbt_prior_arrays_fixed(self):
        rng = np.random.default_rng(10)
        data = ObservedMatrix.fully_observed(rng.normal(size=(4, 4)))
        state = init_state(data, Hyperparameters(k=2), rng)[0]
        npt.assert_array_equal(state.gtn_mu, np.zeros((4, 4)))
        npt.assert_array_equal(state.gtn_tau, np.ones((4, 4)))

    def test_gbtn_prior_arrays_drawn(self):
        rng = np.random.default_rng(11)
        data = ObservedMatrix.fully_observed(rng.normal(size=(4, 4)))
        state = init_state(data, Hyperparameters(k=2, variant="gbtn"), rng)[0]
        assert not np.all(state.gtn_mu == 0.0)
        assert np.all(state.gtn_tau > 0.0)
        assert state.gtn_mu.std() > 0

    def test_sigma2_floor(self):
        rng = np.random.default_rng(12)
        data = ObservedMatrix.fully_observed(rng.normal(size=(3, 3)))
        for _ in range(50):
            state = init_state(data, Hyperparameters(k=1), rng)[0]
            assert state.sigma2 >= 1e-6

    def test_state_size_does_not_grow_with_rows(self):
        def state_bytes(m):
            rng = np.random.default_rng(14)
            data = ObservedMatrix.fully_observed(rng.normal(size=(m, 6)))
            state = init_state(data, Hyperparameters(k=3), rng)[0]
            return sum(v.nbytes for v in vars(state).values() if isinstance(v, np.ndarray))

        assert state_bytes(10) == state_bytes(1000)

    @pytest.mark.parametrize("variant", ["gbt", "gbtn"])
    def test_weights_start_at_the_clipped_fit(self, variant):
        rng = np.random.default_rng(15)
        data = ObservedMatrix.fully_observed(rng.normal(size=(12, 9)))
        hp = Hyperparameters(k=3, variant=variant, a=-0.5, b=0.5)
        state = init_state(data, hp, np.random.default_rng(0))[0]
        columns, w = dominant_fit(data.values, 3)
        npt.assert_array_equal(state.j, columns)
        npt.assert_array_equal(state.y, np.clip(w, -0.5, 0.5))
        npt.assert_array_equal(state.y[:, state.j], 0.5 * np.eye(3))
        # no exchange is made here, so the unclipped weights are the
        # least-squares fit on the set
        lstsq = np.linalg.lstsq(data.values[:, columns], data.values, rcond=None)[0]
        npt.assert_allclose(w, lstsq, atol=1e-10)
        assert (state.gtn_mu.ndim == 2) == (variant == "gbtn")

    def test_noise_variance_starts_at_the_fit_mean_square(self):
        rng = np.random.default_rng(16)
        data = ObservedMatrix.fully_observed(rng.normal(size=(10, 8)))
        state = init_state(data, Hyperparameters(k=3), rng)[0]
        resid = data.values - data.values[:, state.j] @ state.y
        npt.assert_allclose(state.sigma2, np.mean(resid**2), rtol=1e-10)
        exact = init_state(ObservedMatrix.fully_observed(data.values[:, :3]), Hyperparameters(k=3), rng)[0]
        assert exact.sigma2 == 1e-6

    def test_prior_draw_when_the_fit_is_undefined(self):
        rng = np.random.default_rng(17)
        a = rng.normal(size=(10, 2)) @ rng.normal(size=(2, 6))
        assert dominant_fit(a, 4)[1] is None
        hp = Hyperparameters(k=4)
        state = init_state(ObservedMatrix.fully_observed(a), hp, np.random.default_rng(0))[0]
        npt.assert_array_equal(state.y, sample_prior_rows(hp, 4, 6, np.random.default_rng(0))[0])

    def test_does_not_allocate_an_m_by_n_array(self):
        m, n = 400, 300
        data = ObservedMatrix.fully_observed(np.random.default_rng(18).normal(size=(m, n)))
        tracemalloc.start()
        try:
            init_state(data, Hyperparameters(k=10), np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m * n * 8, f"peak {peak} bytes, an M x N array is {m * n * 8}"

    def test_rank_deficient_start_does_not_allocate_an_m_by_n_array(self):
        m, n = 400, 300
        rng = np.random.default_rng(19)
        data = ObservedMatrix.fully_observed(rng.normal(size=(m, 5)) @ rng.normal(size=(5, n)))
        tracemalloc.start()
        try:
            state = init_state(data, Hyperparameters(k=10), np.random.default_rng(0))[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dominant_fit(data.values, 10)[1] is None, "the start fit should be undefined here"
        assert state.j.size == 10
        assert peak < m * n * 8, f"peak {peak} bytes, an M x N array is {m * n * 8}"

    def test_reads_the_checked_matrix_without_checking_it_again(self, monkeypatch):
        # ObservedMatrix checked the values when it was made; the start's
        # pivoted QR reads them unchecked, while public dominant_fit checks
        data = ObservedMatrix.fully_observed(np.random.default_rng(41).normal(size=(12, 8)))
        checked = []
        check = linalg._as_matrix
        monkeypatch.setattr(linalg, "_as_matrix", lambda a: checked.append(1) or check(a))
        start = init_state(data, Hyperparameters(k=3), np.random.default_rng(0))[0]
        assert checked == []
        npt.assert_array_equal(start.j, dominant_fit(data.values, 3)[0])
        assert checked == [1]

    def test_index_properties_partition(self):
        rng = np.random.default_rng(13)
        data = ObservedMatrix.fully_observed(rng.normal(size=(5, 7)))
        state = init_state(data, Hyperparameters(k=3), rng)[0]
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
        state = init_state(ObservedMatrix.fully_observed(a), Hyperparameters(k=4), np.random.default_rng(0))[0]
        assert self._max_lstsq_weight(a, state.basis_indices) <= 1.0 + 1e-8

    def test_choice_does_not_depend_on_rng(self):
        data = ObservedMatrix.fully_observed(self._rank_k(3))
        hp = Hyperparameters(k=4, variant="gbtn")
        chosen = [init_state(data, hp, np.random.default_rng(s))[0].basis_indices for s in range(5)]
        for c in chosen[1:]:
            npt.assert_array_equal(c, chosen[0])

    @staticmethod
    def _assert_rank_deficient_start(a, k):
        """K distinct ascending columns, no weights, and geqp3's numerically independent pivots."""
        columns, w = dominant_fit(a, k)
        assert w is None
        assert columns.shape == (k,)
        assert np.all(np.diff(columns) > 0), columns
        r, perm = scipy.linalg.qr(a, mode="r", pivoting=True)
        rank = numerical_rank(r)
        assert rank < k
        assert np.all(np.isin(perm[:rank], columns)), (perm[:rank], columns)
        # the factorization stops at that rank, with geqp3's pivots in order
        fac_perm, fac_r = linalg._truncated_cpqr(a, k)[:2]
        assert fac_r.shape[0] == rank
        npt.assert_array_equal(fac_perm[:rank], perm[:rank])
        return columns

    def test_pivots_unchanged_when_k_exceeds_rank(self):
        a = self._rank_k(5, k=3)
        columns = self._assert_rank_deficient_start(a, 6)
        state = init_state(ObservedMatrix.fully_observed(a), Hyperparameters(k=6), np.random.default_rng(1))[0]
        npt.assert_array_equal(state.basis_indices, columns)

    @pytest.mark.parametrize("seed", [None, 7, 44], ids=["rank-3-at-6", "rank-5-seed-7", "rank-5-seed-44"])
    def test_rank_stop_fills_by_descending_norm(self, seed):
        # the slots past the rank hold the other columns of largest squared
        # norm (distinct here), not an argmax of residual norms that only
        # rounding sets
        if seed is None:
            a, k = self._rank_k(5, k=3), 6
        else:
            rng = np.random.default_rng(seed)
            a, k = rng.normal(size=(400, 5)) @ rng.normal(size=(5, 300)), 10
        r, perm = scipy.linalg.qr(a, mode="r", pivoting=True)
        rank = numerical_rank(r)
        norms2 = np.einsum("ij,ij->j", a, a)
        rest = sorted(set(range(a.shape[1])) - set(perm[:rank].tolist()), key=lambda c: -norms2[c])
        npt.assert_array_equal(dominant_fit(a, k)[0], np.sort(np.r_[perm[:rank], rest[:k - rank]]))

    def test_pivots_unchanged_when_trailing_pivots_are_exactly_zero(self):
        a = np.zeros((8, 7))
        a[:, [1, 4]] = np.random.default_rng(7).normal(size=(8, 2))
        perm = scipy.linalg.qr(a, pivoting=True)[2]
        npt.assert_array_equal(dominant_fit(a, 4)[0], np.sort(perm[:4]))

    @staticmethod
    def _pivot_instance(kind, seed):
        rng = np.random.default_rng(seed)
        if kind == "tall":
            return rng.normal(size=(40, 25)), 12
        if kind == "square":
            return rng.normal(size=(30, 30)), 20
        if kind == "wide":
            return rng.normal(size=(15, 40)), 15
        if kind == "noisy-duplicated":
            # tall-gbt's construction at a tenth of its size
            return duplicated_id_matrix(100, 25, 5, rng, noise=0.05), 10
        if kind == "graded":
            # a shared column plus iid columns scaled by logspace(0, -12, n),
            # shuffled. Once the shared direction is removed the residual norms
            # are far below the first ones, so the downdated norms must be
            # recomputed.
            m, n = 40, 30
            graded = np.outer(rng.normal(size=m), np.ones(n)) + rng.normal(size=(m, n)) * np.logspace(0, -12, n)
            return graded[:, rng.permutation(n)], 24
        if kind == "shared-dominant":
            # 2e8 u, twelve columns 1e8 u plus small parts of distinct norms in [1.5, 2],
            # and seventeen of norm 1: after the first step the twelve downdated norms
            # have lost all their digits yet stay above the rest, and only their
            # norms recomputed from the data rank them
            m = 40
            u = rng.normal(size=m)
            u /= np.linalg.norm(u)
            small = rng.normal(size=(m, 29))
            small *= np.r_[np.linspace(1.5, 2.0, 12)[rng.permutation(12)], np.ones(17)] / np.linalg.norm(small, axis=0)
            small[:, :12] += 1e8 * u[:, None]
            return np.column_stack([2e8 * u, small])[:, rng.permutation(30)], 12
        if kind == "exact-tie":
            # unit columns: every squared norm is exactly 1 at the first step
            a = np.eye(20)[:, rng.permutation(20)] * rng.choice([-1.0, 1.0], size=20)
            return np.vstack([a, np.zeros((5, 20))]), 12
        # rank-deficient: rank 5 at k = 9
        return rng.normal(size=(40, 5)) @ rng.normal(size=(5, 30)), 9

    @pytest.mark.parametrize("seed", [31, 0, 1, 2, 3, 4])
    @pytest.mark.parametrize("kind", [
        "tall", "square", "wide", "noisy-duplicated", "graded", "shared-dominant", "exact-tie",
        "rank-deficient",
    ])
    def test_truncated_pivots_match_geqp3(self, kind, seed):
        a, k = self._pivot_instance(kind, seed)
        perm, r, _ = linalg._truncated_cpqr(a, k)
        rank = r.shape[0]
        geqp3_r, geqp3 = scipy.linalg.qr(a, mode="r", pivoting=True)
        assert rank == min(k, numerical_rank(geqp3_r))
        npt.assert_array_equal(perm[:rank], geqp3[:rank])

    def test_exact_ties_break_in_geqp3_swap_order(self):
        # columns 0 and 1 are equal; the first step swaps column 2 to the front
        # and column 0 into position 2, so the tie goes to column 1 in swap
        # order (geqp3's) and to column 0 in the original order
        a = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 2.0], [0.0, 0.0, 0.0]])
        perm = scipy.linalg.qr(a, pivoting=True)[2]
        npt.assert_array_equal(perm[:2], [2, 1])
        npt.assert_array_equal(linalg._truncated_cpqr(a, 2)[0][:2], perm[:2])

    @pytest.mark.parametrize("k", [6, 8])
    def test_duplicate_ties_pick_geqp3_column_values_and_stay_dominant(self, k):
        a = duplicated_id_matrix(30, 20, 8, np.random.default_rng(37))
        fac = linalg._truncated_cpqr(a, k)
        assert fac is not None
        perm = scipy.linalg.qr(a, pivoting=True)[2]
        # duplicates may swap places, but the chosen columns hold the same values
        npt.assert_array_equal(a[:, fac[0][:k]], a[:, perm[:k]])
        assert self._max_lstsq_weight(a, dominant_fit(a, k)[0]) <= 1.0 + 1e-8

    def test_start_set_matches_the_full_geqp3_start(self, monkeypatch):
        a = duplicated_id_matrix(100, 25, 5, np.random.default_rng(41), noise=0.05)
        chosen = dominant_fit(a, 10)[0]
        # the exchanges run from the pivots, R rows and column norms of a full geqp3 instead
        r, perm = scipy.linalg.qr(a, mode="r", pivoting=True)
        norms2 = np.empty(a.shape[1])
        norms2[perm] = np.einsum("ij,ij->j", r, r)
        monkeypatch.setattr(linalg, "_truncated_cpqr", lambda a, k: (perm, r[:k], norms2))
        npt.assert_array_equal(chosen, dominant_fit(a, 10)[0])

    def test_does_not_copy_the_matrix(self):
        m, n, k = 400, 300, 10
        a = np.random.default_rng(43).normal(size=(m, n))
        tracemalloc.start()
        try:
            dominant_fit(a, k)[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m * n * 8, f"peak {peak} bytes, an M x N array is {m * n * 8}"

    @pytest.mark.parametrize("case", ["rank-5", "all-zero"])
    def test_rank_deficient_start_does_not_copy_the_matrix(self, case):
        m, n, k = 400, 300, 10
        rng = np.random.default_rng(44)
        a = rng.normal(size=(m, 5)) @ rng.normal(size=(5, n)) if case == "rank-5" else np.zeros((m, n))
        tracemalloc.start()
        try:
            w = dominant_fit(a, k)[1]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert w is None
        assert peak < 0.5 * m * n * 8, f"peak {peak} bytes, half an M x N array is {0.5 * m * n * 8}"

    # the leading k columns are rank deficient in every case but k-equals-cols
    @pytest.mark.parametrize("case", ["k-above-rows", "k-equals-cols", "all-zero", "one-nonzero-column"])
    def test_fallback_edges_return_geqp3_pivots(self, case):
        rng = np.random.default_rng(47)
        if case == "k-above-rows":
            a, k = rng.normal(size=(5, 12)), 8
        elif case == "k-equals-cols":
            a, k = rng.normal(size=(6, 4)), 4
        elif case == "all-zero":
            a, k = np.zeros((6, 5)), 3
        else:
            a, k = np.zeros((6, 5)), 2
            a[:, 3] = rng.normal(size=6)
        if case == "k-equals-cols":
            # every column is chosen, and the weights are the identity
            columns, w = dominant_fit(a, k)
            npt.assert_array_equal(columns, np.arange(k))
            npt.assert_allclose(w, np.eye(k), atol=1e-12)
            return
        columns = self._assert_rank_deficient_start(a, k)
        if case == "one-nonzero-column":
            assert 3 in columns

    def test_overflowing_norms_raise_numerical_error(self):
        huge = np.random.default_rng(53).normal(size=(12, 9)) * 2.0**700  # squared norms overflow
        with pytest.raises(NumericalError, match="squared column norms overflow"):
            dominant_fit(huge, 4)


class TestStartStatistics:
    """The start's G and P, read off its pivoted QR, against a fresh gram_statistics."""

    @staticmethod
    def _assert_fresh(a, k):
        state, a_sq, gram, proj = init_state(ObservedMatrix.fully_observed(a), Hyperparameters(k=k),
                                             np.random.default_rng(0))
        fresh_gram, fresh_proj = gram_statistics(a, state.j)
        for got, want in ((gram, fresh_gram), (proj, fresh_proj)):
            npt.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        npt.assert_array_equal(gram, gram.T)
        return state

    @pytest.mark.parametrize("noise", [0.0, 0.05])
    def test_exchange_case(self, noise):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(12, 4)) @ rng.normal(size=(4, 15)) + noise * rng.normal(size=(12, 15))
        state = self._assert_fresh(a, 4)
        # an exchange brought in a column that is not a pivot
        assert not np.all(np.isin(state.j, scipy.linalg.qr(a, pivoting=True)[2][:4]))

    def test_rank_deficient_case(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(12, 3)) @ rng.normal(size=(3, 15))
        assert dominant_fit(a, 6)[1] is None
        self._assert_fresh(a, 6)

    def test_tall_case(self):
        self._assert_fresh(duplicated_id_matrix(200, 60, 10, np.random.default_rng(3), noise=0.05), 20)


class TestRebuildAndValidate:
    def _valid(self):
        rng = np.random.default_rng(21)
        data = ObservedMatrix.fully_observed(rng.normal(size=(4, 3)))
        hp = Hyperparameters(k=2)
        return data, hp, init_state(data, hp, rng)[0]

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
