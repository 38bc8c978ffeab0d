"""Numerical rank of a pivoted R factor."""

import numpy as np
import scipy.linalg

from bayesid.linalg import numerical_rank


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
