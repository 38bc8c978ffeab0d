"""Run diagnostics: losses, chain autocorrelation, convergence detection.

Iteration indexing is 1-based in reported quantities (the first recorded
loss belongs to iteration 1), matching how run lengths, burn-in, and
thinning are counted everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DegenerateChainError, InputError
from .model import ObservedMatrix, residual_sums
from .sampler import GibbsTrace

# Equilibrium Monte Carlo traces fluctuate at the percent scale, so the
# plateau tolerance sits one order above that; see the window rule below.
PLATEAU_TOL = 0.1
PLATEAU_WINDOW = 10

MIXING_LAG_THRESHOLD = 10
MIXING_COEFF_THRESHOLD = 0.1


def _factors(a: np.ndarray, x, y) -> tuple[np.ndarray, np.ndarray]:
    """x and y as float arrays; ValueError unless x @ y has the shape of the 2-d a."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if a.ndim != 2 or x.ndim != 2 or x.shape[0] != a.shape[0] or y.shape != (x.shape[1], a.shape[1]):
        raise ValueError(f"inconsistent shapes a={a.shape}, x={x.shape}, y={y.shape}")
    return x, y


def mse(a, x, y) -> float:
    """Mean squared reconstruction error over all entries, ||a - x @ y||^2 / (m n).

    The residual is formed a block of rows at a time (``model.residual_sums``).
    """
    a = np.asarray(a, dtype=float)
    x, y = _factors(a, x, y)
    return residual_sums(a, x, y)[0] / a.size


def mse_observed(data: ObservedMatrix, x, y) -> float:
    """Mean squared error restricted to observed entries, formed in row blocks like ``mse``.

    Shapes are checked as ``mse`` checks them, against ``data``'s.
    """
    count = int(data.mask.sum())
    if count == 0:
        raise InputError("matrix has no observed entries")
    x, y = _factors(data.values, x, y)
    return residual_sums(data.values, x, y, data.mask)[1] / count


def autocorrelation(chain, max_lag: int) -> np.ndarray:
    """Sample autocorrelation at lags 0..max_lag (biased normalization by n).

    The chain is mean-subtracted first; lag 0 is exactly 1. A constant
    chain has no defined autocorrelation and raises DegenerateChainError.
    """
    chain = np.asarray(chain, dtype=float).ravel()
    n = chain.size
    if max_lag < 1:
        raise ValueError(f"max_lag must be at least 1, got {max_lag}")
    if n <= max_lag:
        raise ValueError(f"chain of length {n} is too short for max_lag {max_lag}")
    if np.all(chain == chain[0]):
        raise DegenerateChainError("constant chain has undefined autocorrelation")
    centered = chain - chain.mean()
    c0 = float(centered @ centered) / n
    if c0 == 0.0:
        raise DegenerateChainError("constant chain has undefined autocorrelation")
    rho = np.empty(max_lag + 1)
    rho[0] = 1.0
    for lag in range(1, max_lag + 1):
        rho[lag] = (float(centered[:-lag] @ centered[lag:]) / n) / c0
    return rho


def kept_iterations(iterations: int, burn_in: int, thinning: int) -> np.ndarray:
    """0-based indices of the iterations kept after burn-in and thinning.

    These are the 1-based iterations burn_in+1, burn_in+1+thinning, and so
    on, exactly.
    """
    if not 0 <= burn_in < iterations:
        raise ValueError(f"burn_in must lie in [0, iterations), got {burn_in} of {iterations}")
    if thinning < 1:
        raise ValueError(f"thinning must be at least 1, got {thinning}")
    return np.arange(burn_in, iterations, thinning)


def posterior_mean_mse(mse_per_iter, burn_in: int, thinning: int) -> float:
    """Mean loss over the kept post-burn-in iterations."""
    mse_per_iter = np.asarray(mse_per_iter, dtype=float)
    keep = kept_iterations(mse_per_iter.size, burn_in, thinning)
    return float(mse_per_iter[keep].mean())


def iterations_to_plateau(mse_per_iter) -> int | None:
    """First iteration after which the relative MSE change stays below PLATEAU_TOL.

    Returns the smallest 1-based iteration p such that every change into
    iterations p+1 .. p+PLATEAU_WINDOW is below PLATEAU_TOL relative to the
    previous value, or None if the trace never settles (or is too short to
    tell).
    """
    m = np.asarray(mse_per_iter, dtype=float)
    if m.size < PLATEAU_WINDOW + 1:
        return None
    denom = np.maximum(np.abs(m[:-1]), np.finfo(float).tiny)
    good = np.abs(np.diff(m)) / denom < PLATEAU_TOL
    ok = sliding_window_view(good, PLATEAU_WINDOW).all(axis=1)
    hits = np.flatnonzero(ok)
    return int(hits[0]) + 1 if hits.size else None


@dataclass
class RunReport:
    """Summary of one sampler run."""

    iterations: int
    mse_final: float
    mse_observed_final: float
    mse_posterior_mean: float
    sigma2_final: float
    accepted_swaps: int | None  # None for a trace read back from a file
    iterations_to_plateau: int | None
    # per probe position: autocorrelation array, or None for a degenerate chain
    autocorrelations: dict[tuple[int, int], np.ndarray | None]
    mixing: str


def tail_autocorrelation(rho: np.ndarray) -> float:
    """Largest |autocorrelation| beyond lag 10 (the lag threshold); 0 when rho stops there."""
    tail = np.abs(rho[MIXING_LAG_THRESHOLD + 1:])
    return float(tail.max()) if tail.size else 0.0


def mixing_verdict(autocorrelations: dict) -> str:
    """"good" when every probe chain decorrelates beyond the lag threshold.

    Degenerate probes (no variation) make the verdict "degenerate"; any
    probe whose ``tail_autocorrelation`` is at or above the coefficient
    threshold makes it "poor".
    """
    if any(rho is None for rho in autocorrelations.values()):
        return "degenerate"
    if any(tail_autocorrelation(rho) >= MIXING_COEFF_THRESHOLD for rho in autocorrelations.values()):
        return "poor"
    return "good"


def build_run_report(
    trace: GibbsTrace, burn_in: int, thinning: int, max_lag: int = 20
) -> RunReport:
    """Summarize a trace: final and averaged losses, probe mixing, plateau.

    Probe autocorrelations use the post-burn-in portion of each chain,
    because the transient would otherwise dominate every coefficient; a
    degenerate chain gets None. A trace that ends inside the burn-in (a
    saved trace read by ``diagnose`` with a larger ``--burn-in``) keeps its
    last iteration, and the lag range shrinks if the kept chain is short.
    """
    iters = trace.mse_per_iter.size
    burn_eff = min(burn_in, iters - 1)
    autocorrs: dict[tuple[int, int], np.ndarray | None] = {}
    for pos, chain in trace.y_entry_chains.items():
        kept = chain[burn_eff:]
        lag = min(max_lag, kept.size - 1)
        try:
            autocorrs[pos] = autocorrelation(kept, lag) if lag >= 1 else None
        except DegenerateChainError:
            autocorrs[pos] = None
    return RunReport(
        iterations=iters,
        mse_final=float(trace.mse_per_iter[-1]),
        mse_observed_final=float(trace.mse_observed_per_iter[-1]),
        mse_posterior_mean=posterior_mean_mse(trace.mse_per_iter, burn_eff, thinning),
        sigma2_final=float(trace.sigma2_chain[-1]),
        accepted_swaps=trace.accepted_swaps,
        iterations_to_plateau=iterations_to_plateau(trace.mse_per_iter),
        autocorrelations=autocorrs,
        mixing=mixing_verdict(autocorrs),
    )
