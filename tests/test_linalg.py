"""Numerical rank of a pivoted R factor, the truncated pivoted QR's passes
over the data, and the one matrix check of the library."""

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
    perm, r, _ = linalg._truncated_cpqr(a.view(_CountedPasses), k)
    return perm, np.asarray(r), _CountedPasses.passes, _CountedPasses.rows


class TestOnePassPerStep:
    def test_tall_input_reads_one_row_of_r_per_pass_with_geqp3_pivots(self):
        # tall-gbt's shape: 1000 x 500, rank 25, every column duplicated, k = 50
        a = duplicated_id_matrix(1000, 250, 25, np.random.default_rng(59), noise=0.05)
        perm, r, passes, rows = _passes(a, 50)
        assert passes == rows == r.shape[0] == 50
        npt.assert_array_equal(perm[:50], scipy.linalg.qr(a, pivoting=True)[2][:50])
