"""Numerical rank of a pivoted R factor, and the one matrix check of the library."""

import numpy as np
import pytest
import scipy.linalg

from bayesid.linalg import dominant_fit, numerical_rank
from bayesid.model import ObservedMatrix
from bayesid.rid import randomized_id


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
