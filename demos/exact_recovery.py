"""Column-subset recovery on a noise-free matrix with duplicated columns.

Builds a 30 x 40 matrix whose columns all lie in the span of five of
them, with every column appearing twice, then runs the sampler at
twice the true rank and at exactly the true rank. Every run starts from a
dominant column set: pivoted QR, then exchanges until every column's
least-squares weights on the set lie in [-1, 1]. At the true rank such a
set already fits the data exactly, and it need not be the planted basis:
noise-free data of rank 5 has many exact sets. The printout shows the
start set, how large its weights get, and the loss floor the runs settle
on, which the noise-variance prior sets rather than the column search.
"""

import argparse

import numpy as np

from bayesid.linalg import dominant_fit
from bayesid.model import Hyperparameters, ObservedMatrix
from bayesid.sampler import run_gibbs


def build_instance(rng, m=30, n_pre=20, rank=5):
    basis = rng.normal(size=(m, rank))
    weights = rng.uniform(-1.0, 1.0, size=(rank, n_pre - rank))
    full = np.concatenate([basis, basis @ weights], axis=1)
    return np.concatenate([full, full], axis=1)


def run_once(data, k, seed):
    hp = Hyperparameters(k=k, iterations=200, burn_in=50, thinning=5)
    state, trace = run_gibbs(data, hp, np.random.default_rng(seed))
    print(
        f"  k={k:2d}   best mse {trace.mse_per_iter.min():10.3e}   "
        f"final mse {trace.mse_per_iter[-1]:10.3e}   accepted swaps {trace.accepted_swaps}"
    )
    return trace


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(1000 + args.seed)
    a = build_instance(rng)
    data = ObservedMatrix.fully_observed(a)
    print(f"instance: {a.shape[0]} x {a.shape[1]}, true rank 5, every column duplicated\n")

    print("generous rank (k = 10, twice the true rank):")
    run_once(data, 10, args.seed)

    print("\nexactly the true rank (k = 5):")
    trace = run_once(data, 5, args.seed)

    start = dominant_fit(a, 5)[0]
    weights = np.linalg.lstsq(a[:, start], a, rcond=None)[0]
    planted = set(start % 20) == set(range(5))
    m, n = a.shape
    sigma2_floor = 2 * Hyperparameters(k=5).beta_sigma / (m * n)
    print(
        f"\nThe true-rank run starts from columns {start.tolist()}, which "
        f"{'is' if planted else 'is not'} one copy\n"
        "of each planted basis column (0-4, twinned as 20-24). On that set the\n"
        f"largest least-squares weight is {np.abs(weights).max():.6f} and the fit residual is "
        f"{np.linalg.norm(a - a[:, start] @ weights):.1e},\n"
        "so the start already interpolates every column exactly inside [-1, 1]."
    )
    if trace.accepted_swaps == 0:
        moved = "kept the start set"
    else:
        moved = f"accepted {trace.accepted_swaps} swaps"
    print(f"The run {moved} and reached a best mse of {trace.mse_per_iter.min():.1e}.")
    print(
        "A run that keeps an exact set bottoms out near 2e-4, not numerical\n"
        "zero. That floor comes from the noise-variance prior: with no residual\n"
        f"left, sigma2 settles near 2 beta_sigma / (M N) = {sigma2_floor:.1e} (the run\n"
        f"finished at {trace.sigma2_chain[-1]:.1e}), and the sampled weights keep jittering at that\n"
        "scale."
    )


if __name__ == "__main__":
    main()
