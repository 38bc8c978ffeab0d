"""Canonical form of a sampled decomposition.

A sampler state holds the state vector and the full weight matrix Y, and
no basis. The canonical interpolative form reads C = A[:, j_set] off the
data, keeps only the rows of Y of the selected columns, and pins
W[:, j_set] to the exact identity, which the sampled rows approach but
never hit exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import IdState, ObservedMatrix


@dataclass
class CanonicalId:
    """C = A[:, j_set] and weights W with W[:, j_set] the exact identity.

    ``w_unconstrained`` keeps the corresponding rows of Y as sampled,
    before the identity was enforced, for diagnostics.
    """

    j_set: np.ndarray
    c: np.ndarray
    w: np.ndarray
    w_unconstrained: np.ndarray


def extract_canonical(state: IdState, data: ObservedMatrix) -> CanonicalId:
    """Read the canonical (C, W) pair off a sampler state.

    Idempotent in effect: if the selected rows of Y already hold the exact
    identity pattern, W comes out unchanged.
    """
    j_set = state.basis_indices
    c = data.values[:, j_set].copy()
    w_unconstrained = state.y[j_set, :].copy()
    w = w_unconstrained.copy()
    w[:, j_set] = np.eye(j_set.size)
    return CanonicalId(j_set=j_set.copy(), c=c, w=w, w_unconstrained=w_unconstrained)
