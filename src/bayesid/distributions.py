"""Distribution kernels used by the Gibbs samplers.

The workhorse is the general truncated normal (GTN): a normal with mean
``mu`` and precision ``tau`` restricted to the interval [a, b]. With
a = 0, b = inf it reduces to the usual rectified truncated normal.
``sample_gtn_array`` draws it by the inverse CDF from one uniform per
entry in every regime, redone on log probabilities (``log_ndtr`` and its
inverse ``ndtri_exp``) where the whole interval sits deep in one tail.
No density is evaluated here; ``_log_interval_mass`` gives the log of a
GTN's normalising mass, stable in both tails, for exact computations
outside the sampler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri, ndtri_exp

from .errors import InvalidParameterError

# Standardized bound beyond which the plain inverse CDF becomes unreliable;
# entries past it redo their own uniform's inverse CDF on log probabilities.
_TAIL_LIMIT = 5.0

# The open unit interval that the inverse CDF is evaluated on.
_U_MIN = np.nextafter(0.0, 1.0)
_U_MAX = np.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class GammaParams:
    """Shape/rate parameterization, density proportional to x^(shape-1) exp(-rate x).

    Either field may be an array, one parameter per element, as numpy's
    Gamma sampler and scipy's distributions accept.
    """

    shape: float
    rate: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.shape) & (np.asarray(self.shape) > 0)):
            raise InvalidParameterError(f"shape must be finite and positive, got {self.shape}")
        if not np.all(np.isfinite(self.rate) & (np.asarray(self.rate) > 0)):
            raise InvalidParameterError(f"rate must be finite and positive, got {self.rate}")


def _log_interval_mass(alpha, beta):
    """log(Phi(beta) - Phi(alpha)) for alpha < beta, stable in both tails.

    Returns -inf when the interval mass is indistinguishable from zero even
    in the log domain (the bounds coincide numerically).
    """
    if alpha > 0.0:
        # both bounds in the right tail, work with survival functions
        hi, lo = log_ndtr(-alpha), log_ndtr(-beta)
        if not np.isfinite(hi):
            return -np.inf
        with np.errstate(divide="ignore"):
            return hi + np.log1p(-np.exp(lo - hi))
    if beta < 0.0:
        hi, lo = log_ndtr(beta), log_ndtr(alpha)
        if not np.isfinite(hi):
            return -np.inf
        with np.errstate(divide="ignore"):
            return hi + np.log1p(-np.exp(lo - hi))
    # interval straddles zero, the plain difference is well conditioned
    return float(np.log(ndtr(beta) - ndtr(alpha)))


def _scale_into_bounds(z, mu, sd, a, b):
    """mu + sd * z clipped to [a, b], written into z; in-place ufuncs cost less than np.clip."""
    z *= sd
    z += mu
    np.maximum(z, a, out=z)
    return np.minimum(z, b, out=z)


def sample_gtn_array(mu, tau, a, b, rng: np.random.Generator, size=None):
    """Draw one GTN variate per element of the broadcast parameter arrays.

    ``size``, when given, is the output shape, and the parameters must
    broadcast to it; otherwise the output takes the parameters' broadcast
    shape. The standardized bounds are computed at the parameters' own
    shape, so a scalar prior costs one ``ndtr`` pair however many draws it
    gives. Each call takes exactly one uniform per output entry, row-major,
    in every regime, and maps it through the inverse CDF; an interval
    beyond ``_TAIL_LIMIT`` redoes that on log probabilities. Every draw
    lies inside its [a, b] interval, however far from the parent mean.
    """
    mu, tau, a, b = (np.asarray(v, dtype=float) for v in (mu, tau, a, b))
    sd = 1.0 / np.sqrt(tau)
    alpha = (a - mu) / sd
    beta = (b - mu) / sd
    param_shape = np.broadcast(alpha, beta).shape
    shape = param_shape if size is None else ((size,) if np.isscalar(size) else tuple(size))
    if size is not None and np.broadcast_shapes(param_shape, shape) != shape:
        raise ValueError(f"parameters of shape {param_shape} do not broadcast to size {shape}")
    right = alpha >= _TAIL_LIMIT
    tail = np.broadcast_to(right | (beta <= -_TAIL_LIMIT), shape)
    z = rng.uniform(size=shape)
    u = z[tail]
    p_lo = ndtr(alpha)
    z *= ndtr(beta) - p_lo
    z += p_lo
    np.maximum(z, _U_MIN, out=z)
    np.minimum(z, _U_MAX, out=z)
    ndtri(z, out=z)
    if u.size:
        # a right tail is drawn mirrored onto the left, where log Phi keeps its digits;
        # log_ndtr overflows past -1e150, where no float lies between the draw and hi
        flip, lo, hi = (np.broadcast_to(v, shape)[tail] for v in (right, alpha, beta))
        lo, hi = (np.maximum(v, -1e150) for v in (np.where(flip, -hi, lo), np.where(flip, -lo, hi)))
        # Phi(x) = Phi(hi) (r + u (1 - r)) with r = Phi(lo) / Phi(hi) adds two non-negative
        # terms; u is clamped as the central CDF is, or u = 0 puts x at lo = -inf
        log_hi = log_ndtr(hi)
        log_r = log_ndtr(lo) - log_hi
        x = ndtri_exp(log_hi + np.log(np.exp(log_r) - np.maximum(u, _U_MIN) * np.expm1(log_r)))
        z[tail] = np.where(flip, -x, x)
    return _scale_into_bounds(z, mu, sd, a, b)


def sample_inverse_gamma(p: GammaParams, rng: np.random.Generator, size=None):
    """Draw from the inverse Gamma: 1/X with X ~ Gamma(shape, rate).

    Gamma draws at small shape can underflow to zero; they are floored at
    the smallest positive normal so the reciprocal stays finite.
    """
    draw = rng.gamma(p.shape, 1.0 / p.rate, size=size)
    draw = np.maximum(draw, np.finfo(float).tiny)
    out = 1.0 / draw
    return float(out) if size is None else out
