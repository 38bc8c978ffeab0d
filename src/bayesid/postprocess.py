"""Canonical form of a sampled decomposition.

A sampler state holds the basis column indices J, in slot order, and
their weight rows Y_J, and no basis. The canonical interpolative form
sorts J into j_set, reads C = A[:, j_set] off the data, orders the rows
of Y_J to match, and pins W[:, j_set] to the exact identity, which the
sampled rows approach but never hit exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import IdState, ObservedMatrix


@dataclass
class CanonicalId:
    """C = A[:, j_set] and weights W with W[:, j_set] the exact identity.

    ``w_unconstrained`` keeps the corresponding rows of Y_J as sampled,
    before the identity was enforced, for diagnostics.
    """

    j_set: np.ndarray
    c: np.ndarray
    w: np.ndarray
    w_unconstrained: np.ndarray


def extract_canonical(state: IdState, data: ObservedMatrix) -> CanonicalId:
    """Read the canonical (C, W) pair off a sampler state.

    Idempotent in effect: if the rows of Y_J already hold the exact
    identity pattern, W comes out unchanged.
    """
    order = np.argsort(state.j)
    j_set = state.j[order]
    c = data.values[:, j_set]
    w_unconstrained = state.y[order]
    w = w_unconstrained.copy()
    w[:, j_set] = np.eye(j_set.size)
    return CanonicalId(j_set=j_set, c=c, w=w, w_unconstrained=w_unconstrained)
