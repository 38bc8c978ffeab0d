"""Numerical rank of a pivoted R factor, the truncated pivoted QR's look-ahead,
and the one matrix check of the library."""

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

from bayesid import linalg
from bayesid.linalg import dominant_fit, numerical_rank
from bayesid.model import ObservedMatrix
from bayesid.rid import randomized_id

from _instances import duplicated_id_matrix


def _pivoted_r(a):
    return scipy.linalg.qr(a, mode="r", pivoting=True)[0]


class TestNumericalRank:
    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 3))) == 0

    def test_empty(self):
        assert numerical_rank(np.zeros((0, 0))) == 0

    def test_full_rank(self):
        assert numerical_rank(_pivoted_r(np.random.default_rng(7).normal(size=(10, 6)))) == 6

    def test_rank_one_outer_product(self):
        u = np.arange(1.0, 6.0)
        v = np.array([2.0, -1.0, 0.5, 3.0])
        r = _pivoted_r(np.outer(u, v))
        diag = np.abs(np.diag(r))
        assert diag[0] > 0
        assert np.all(diag[1:] <= 1e-12)
        assert numerical_rank(r) == 1



class TestMatrixContract:
    """Every entry point that takes a matrix refuses the same inputs in the same words."""

    @pytest.mark.parametrize("take", [
        lambda a: ObservedMatrix(values=a, mask=np.ones(np.shape(a), dtype=bool)),
        lambda a: randomized_id(a, 1, np.random.default_rng(0)),
        lambda a: dominant_fit(a, 1),
    ], ids=["ObservedMatrix", "randomized_id", "dominant_fit"])
    @pytest.mark.parametrize("a, match", [
        (np.ones(5), "2-d"),
        (np.vstack([np.ones((5, 5)), [1.0, 1.0, 1.0, 1.0, np.nan]]), "non-finite"),
        (np.vstack([np.ones((5, 5)), [1.0, -np.inf, 1.0, 1.0, 1.0]]), "non-finite"),
    ], ids=["one-d", "nan", "inf"])
    def test_rejects_with_value_error(self, take, a, match):
        with pytest.raises(ValueError, match=match):
            take(a)


class _CountedPasses(np.ndarray):
    """A matrix view that counts the products v @ a reading all of it, and the rows they read."""

    passes = rows = 0
    full_shape = None

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and inputs[1].shape == _CountedPasses.full_shape:
            _CountedPasses.passes += 1
            _CountedPasses.rows += 1 if inputs[0].ndim == 1 else inputs[0].shape[0]
        inputs = [np.asarray(x) if isinstance(x, _CountedPasses) else x for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def _passes(a, k):
    """(perm, r, passes over a, rows of R those passes read) of the truncated pivoted QR."""
    _CountedPasses.passes, _CountedPasses.rows, _CountedPasses.full_shape = 0, 0, a.shape
    perm, r = linalg._truncated_cpqr(a.view(_CountedPasses), k)
    return perm, np.asarray(r), _CountedPasses.passes, _CountedPasses.rows


class TestLookAhead:
    """Two pivots per pass over the data, with the pivots of one-row steps."""

    @staticmethod
    def _instance(kind, seed):
        rng = np.random.default_rng(seed)
        if kind == "tall":
            return rng.normal(size=(60, 30)), 14
        if kind == "square":
            return rng.normal(size=(30, 30)), 20
        if kind == "wide":
            return rng.normal(size=(15, 40)), 15
        if kind == "duplicated-noisy":
            return duplicated_id_matrix(80, 25, 6, rng, noise=0.05), 12
        if kind == "graded":
            # a shared column plus iid columns scaled by logspace(0, -12, n):
            # the downdated norms fall into the recompute regime
            m, n = 40, 30
            a = np.outer(rng.normal(size=m), np.ones(n)) + rng.normal(size=(m, n)) * np.logspace(0, -12, n)
            return a[:, rng.permutation(n)], 24
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

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("kind", [
        "tall", "square", "wide", "duplicated-noisy", "graded", "shared-dominant", "exact-tie",
        "rank-deficient",
    ])
    def test_pivots_are_geqp3s(self, kind, seed):
        a, k = self._instance(kind, seed)
        perm, r, passes, rows = _passes(a, k)
        geqp3 = scipy.linalg.qr(a, pivoting=True)[2]
        rank = r.shape[0]
        assert rank == min(k, numerical_rank(_pivoted_r(a)))
        # every certified pivot was the pass's argmax: no second row was dropped
        assert rows == rank
        assert passes < rank or rank == 1
        npt.assert_array_equal(perm[:rank], geqp3[:rank])

    def test_tall_input_takes_two_steps_per_pass(self):
        a = duplicated_id_matrix(1000, 250, 25, np.random.default_rng(59), noise=0.05)
        perm, r, passes, rows = _passes(a, 50)
        assert rows == r.shape[0] == 50
        assert passes <= 30, passes
        npt.assert_array_equal(perm[:50], scipy.linalg.qr(a, pivoting=True)[2][:50])

    def test_without_certification_one_pass_per_step_and_the_same_pivots(self, monkeypatch):
        a = duplicated_id_matrix(1000, 250, 25, np.random.default_rng(59), noise=0.05)
        perm, r, _, _ = _passes(a, 50)
        monkeypatch.setattr(linalg, "_certified_pivot", lambda *args: None)
        one_perm, one_r, passes, _ = _passes(a, 50)
        assert passes == 50
        npt.assert_array_equal(one_perm[:50], perm[:50])
        npt.assert_allclose(one_r, r, rtol=0, atol=1e-12 * np.abs(r).max())

    def test_a_pivot_the_pass_does_not_confirm_is_chosen_again(self, monkeypatch):
        # certify a wrong pivot every time: the pass's downdated norms overrule it
        a = np.random.default_rng(61).normal(size=(50, 30))
        k = 12
        monkeypatch.setattr(linalg, "_certified_pivot", lambda a, q_t, norms2, computed2, rest: (
            int(np.argmin(norms2[rest])), float(q_t @ a[:, rest[np.argmin(norms2[rest])]])))
        perm, r, passes, rows = _passes(a, k)
        # each pass but the last reads two rows and drops the second
        assert passes == k and rows == 2 * k - 1
        npt.assert_array_equal(perm[:k], scipy.linalg.qr(a, pivoting=True)[2][:k])
