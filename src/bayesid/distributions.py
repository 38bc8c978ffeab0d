"""Distribution kernels used by the Gibbs samplers.

The workhorse is the general truncated normal (GTN): a normal with mean
``mu`` and precision ``tau`` restricted to the interval [a, b]. With
a = 0, b = inf it reduces to the usual rectified truncated normal.
``sample_gtn_array`` draws it by the inverse CDF in the central regime
and by rejection sampling when the whole interval sits deep in one tail,
where the inverse CDF loses all resolution. No density is evaluated here;
``_log_interval_mass`` gives the log of a GTN's normalising mass, stable
in both tails, for exact computations outside the sampler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri

from .errors import InvalidParameterError, NumericalError

# Standardized bound beyond which the inverse CDF becomes unreliable and the
# rejection samplers take over.
_TAIL_LIMIT = 5.0

_MAX_REJECTION_ROUNDS = 1000

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


def _sample_right_tail(alpha, beta, rng):
    """Standard normal truncated to [alpha, beta] with alpha deep in the right tail.

    Wide intervals use Robert's shifted-exponential proposal, narrow ones a
    uniform proposal; both have acceptance bounded well away from zero.
    """
    lam = 0.5 * (alpha + np.sqrt(alpha * alpha + 4.0))
    out = np.empty_like(alpha)
    narrow = (beta - alpha) * lam < 1.0

    todo = np.flatnonzero(narrow)
    for _ in range(_MAX_REJECTION_ROUNDS):
        if todo.size == 0:
            break
        z = rng.uniform(alpha[todo], beta[todo])
        keep = np.log(rng.uniform(size=todo.size)) <= 0.5 * (alpha[todo] ** 2 - z * z)
        out[todo[keep]] = z[keep]
        todo = todo[~keep]
    else:
        raise NumericalError("truncated normal rejection sampler failed to accept")

    todo = np.flatnonzero(~narrow)
    for _ in range(_MAX_REJECTION_ROUNDS):
        if todo.size == 0:
            break
        z = alpha[todo] + rng.exponential(size=todo.size) / lam[todo]
        keep = (z <= beta[todo]) & (
            np.log(rng.uniform(size=todo.size)) <= -0.5 * (z - lam[todo]) ** 2
        )
        out[todo[keep]] = z[keep]
        todo = todo[~keep]
    else:
        raise NumericalError("truncated normal rejection sampler failed to accept")
    return out


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
    gives. Every draw lies inside its [a, b] interval, including when the
    whole interval sits beyond 6 standard deviations from the parent mean.
    """
    mu, tau, a, b = (np.asarray(v, dtype=float) for v in (mu, tau, a, b))
    sd = 1.0 / np.sqrt(tau)
    alpha = (a - mu) / sd
    beta = (b - mu) / sd
    param_shape = np.broadcast(alpha, beta).shape
    shape = param_shape if size is None else ((size,) if np.isscalar(size) else tuple(size))
    if size is not None and np.broadcast_shapes(param_shape, shape) != shape:
        raise ValueError(f"parameters of shape {param_shape} do not broadcast to size {shape}")
    hi = alpha >= _TAIL_LIMIT
    lo = beta <= -_TAIL_LIMIT

    if not (hi.any() or lo.any()):
        # central everywhere: uniforms straight into the output, in the
        # order the masked path below would consume them
        p_lo = ndtr(alpha)
        z = rng.uniform(size=shape)
        z *= ndtr(beta) - p_lo
        z += p_lo
        np.maximum(z, _U_MIN, out=z)
        np.minimum(z, _U_MAX, out=z)
        ndtri(z, out=z)
        return _scale_into_bounds(z, mu, sd, a, b)

    mu, sd, a, b, alpha, beta, hi, lo = (
        np.broadcast_to(v, shape) for v in (mu, sd, a, b, alpha, beta, hi, lo)
    )
    z = np.empty(shape)
    mid = ~(hi | lo)
    if mid.any():
        p_lo = ndtr(alpha[mid])
        p_hi = ndtr(beta[mid])
        u = p_lo + rng.uniform(size=int(mid.sum())) * (p_hi - p_lo)
        np.maximum(u, _U_MIN, out=u)
        np.minimum(u, _U_MAX, out=u)
        z[mid] = ndtri(u)
    if hi.any():
        z[hi] = _sample_right_tail(alpha[hi], beta[hi], rng)
    if lo.any():
        z[lo] = -_sample_right_tail(-beta[lo], -alpha[lo], rng)
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
