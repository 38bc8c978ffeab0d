"""Canonical form extraction from sampler states."""

import numpy as np
import numpy.testing as npt

from bayesid.diagnostics import mse
from bayesid.model import Hyperparameters, ObservedMatrix
from bayesid.postprocess import extract_canonical
from bayesid.sampler import run_gibbs

from _instances import frozen_state


def _short_run(seed=41, variant="gbt"):
    rng = np.random.default_rng(seed)
    data = ObservedMatrix.fully_observed(rng.normal(size=(9, 6)))
    hp = Hyperparameters(k=3, variant=variant, iterations=20, burn_in=5, thinning=2)
    state, _ = run_gibbs(data, hp, rng)
    return state, data


class TestExtractCanonical:
    def test_identity_block_is_exact(self):
        state, data = _short_run()
        res = extract_canonical(state, data)
        assert np.array_equal(res.w[:, res.j_set], np.eye(3))

    def test_shapes(self):
        state, data = _short_run()
        res = extract_canonical(state, data)
        assert res.c.shape == (9, 3)
        assert res.w.shape == (3, 6)
        assert res.w_unconstrained.shape == (3, 6)

    def test_idempotent_when_block_already_identity(self):
        rng = np.random.default_rng(43)
        data, hp, state = frozen_state(7, 5, 2, rng)
        state.y[:, state.j] = np.eye(2)
        res = extract_canonical(state, data)
        assert np.array_equal(res.w, res.w_unconstrained)

    def test_basis_columns_copied_verbatim(self):
        state, data = _short_run(seed=47)
        res = extract_canonical(state, data)
        npt.assert_array_equal(res.c, data.values[:, res.j_set])
        # mutating the result must not leak back into the inputs
        original = data.values[0, res.j_set[0]]
        res.c[0, 0] += 1.0
        assert data.values[0, res.j_set[0]] == original

    def test_never_increases_reconstruction_error(self):
        rng = np.random.default_rng(53)
        for _ in range(25):
            m = int(rng.integers(3, 10))
            n = int(rng.integers(2, 8))
            k = int(rng.integers(1, n + 1))
            data, hp, state = frozen_state(m, n, k, rng)
            res = extract_canonical(state, data)
            before = mse(data.values, data.values[:, state.j], state.y)
            after = mse(data.values, res.c, res.w)
            assert after <= before + 1e-15

    def test_hierarchical_state_handled_the_same(self):
        state, data = _short_run(seed=59, variant="gbtn")
        res = extract_canonical(state, data)
        assert np.array_equal(res.w[:, res.j_set], np.eye(3))
        assert np.all(np.abs(res.w) <= 1.0)
