"""Why bounding interpolation weights is a feature, shown two ways.

First a three-column matrix engineered so that unconstrained least
squares must use a weight of 1.5. Then a larger matrix with a decaying
column spectrum, where the randomized baseline takes weights outside
[-1, 1]; the Gibbs sampler stays bounded by construction and, on this
instance, still fits with a lower error.
"""

import argparse

import numpy as np

from bayesid.diagnostics import mse, posterior_mean_mse
from bayesid.model import Hyperparameters, ObservedMatrix
from bayesid.postprocess import extract_canonical
from bayesid.rid import max_magnitude_excess, randomized_id
from bayesid.sampler import run_gibbs


def decayed_instance(rng, m=100, n_pre=30, rank=24, decay=0.92, noise=0.1):
    basis = rng.normal(size=(m, rank)) * decay ** np.arange(rank)
    weights = rng.uniform(-1.0, 1.0, size=(rank, n_pre - rank))
    full = np.concatenate([basis, basis @ weights], axis=1)
    full = np.concatenate([full, full], axis=1)
    return full + rng.normal(0.0, noise, size=full.shape)


def tiny_example():
    a1 = np.array([3.0, 1.0, -2.0, 0.5])
    v = np.array([1.0, -1.0, 2.0, 4.0])
    a2 = v - (v @ a1) / (a1 @ a1) * a1  # orthogonal to a1
    a3 = 1.5 * a1 - 0.2 * a2
    a = np.stack([a1, a2, a3], axis=1)
    res = randomized_id(a, 2, np.random.default_rng(1), oversample=1.0)
    print("three columns, the third = 1.5 * first - 0.2 * second")
    print(f"  baseline keeps columns {res.j_set.tolist()}")
    print(f"  max |w| = {res.max_abs_w:.3f}, excess over the bound = "
          f"{max_magnitude_excess(res.w):.3f}")
    print("  any selection that drops the first column would need a weight of")
    print("  1/1.5 at best; keeping it forces the 1.5. Unconstrained solvers")
    print("  take whatever magnitude minimizes the residual.\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--k", type=int, default=10)
    args = parser.parse_args()

    tiny_example()

    a = decayed_instance(np.random.default_rng(2000 + args.seed))
    data = ObservedMatrix.fully_observed(a)
    print(f"decaying-spectrum instance: {a.shape[0]} x {a.shape[1]}, keeping k={args.k}")

    base = randomized_id(a, args.k, np.random.default_rng(args.seed))
    print(f"  randomized baseline: mse {mse(a, base.c, base.w):.5f}, "
          f"max |w| {base.max_abs_w:.2f} "
          f"(excess {max_magnitude_excess(base.w):.2f})")

    hp = Hyperparameters(k=args.k, iterations=500, burn_in=100, thinning=5)
    state, trace = run_gibbs(data, hp, np.random.default_rng(args.seed))
    canonical = extract_canonical(state, data)
    print(f"  gibbs sampler:       mse {posterior_mean_mse(trace.mse_per_iter, 100, 5):.5f} "
          f"(posterior mean), max |w| {np.max(np.abs(canonical.w)):.2f} "
          f"(excess {max_magnitude_excess(canonical.w):.2f})")
    print("\nThe baseline minimizes error with no regard for weight size; the")
    print("sampler never leaves [-1, 1], so its basis columns genuinely")
    print("dominate the columns they reconstruct.")


if __name__ == "__main__":
    main()
