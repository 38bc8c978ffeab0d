"""Shared builders for synthetic test instances and frozen sampler states."""

import numpy as np

from bayesid.model import Hyperparameters, ObservedMatrix, init_state


def duplicated_id_matrix(m, n_pre, rank, rng, noise=0.0, decay=None, correlation=None):
    """A matrix admitting an exact interpolative decomposition with bounded weights.

    ``rank`` basis columns are drawn iid normal (mixed with one shared
    normal column to pairwise correlation ``correlation``, then scaled
    geometrically by ``decay``, when given), the remaining
    ``n_pre - rank`` columns are combinations of them with uniform [-1, 1]
    weights, the whole block is duplicated, and optional iid Gaussian
    noise is added last. The result has 2 * n_pre columns and, at
    noise=0, exact rank ``rank``.
    """
    basis = rng.normal(size=(m, rank))
    if correlation is not None:
        shared = rng.normal(size=(m, 1))
        basis = np.sqrt(correlation) * shared + np.sqrt(1.0 - correlation) * basis
    if decay is not None:
        basis = basis * decay ** np.arange(rank)
    weights = rng.uniform(-1.0, 1.0, size=(rank, n_pre - rank))
    full = np.concatenate([basis, basis @ weights], axis=1)
    full = np.concatenate([full, full], axis=1)
    if noise > 0:
        full = full + rng.normal(0.0, noise, size=full.shape)
    return full


def frozen_state(m, n, k, rng, variant="gbt", sigma2=None):
    """A structurally valid sampler state over random data, for kernel tests."""
    data = ObservedMatrix.fully_observed(rng.normal(size=(m, n)))
    hp = Hyperparameters(k=k, variant=variant, iterations=10, burn_in=0, thinning=1)
    state = init_state(data, hp, rng)[0]
    state.sigma2 = float(rng.uniform(0.05, 2.0)) if sigma2 is None else sigma2
    return data, hp, state


def overflowing_loss_matrix():
    """A 2 x 4 matrix of entries near 6e153 whose squared column norms are
    finite but whose loss overflows: at k = 2 the start's loss is inf."""
    v = np.full((2, 4), 6e153)
    v[1] *= -0.5
    v[:, 1] *= 0.3
    return v
