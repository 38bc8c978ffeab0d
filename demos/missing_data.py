"""Decomposition with unobserved entries, and what it predicts for them.

Hides a third of the entries of a noisy low-rank matrix, fits on the
rest, and compares the error on the entries the sampler saw against the
entries it never did. Unobserved cells are stored as zero and the
sampler fits that zero-filled matrix; the mask only decides which
residuals the observed-error report averages over. Every hidden
prediction is therefore pulled toward the fill value, and the honest
baseline for the held-out numbers is predicting zero outright.
"""

import argparse

import numpy as np

from bayesid.model import Hyperparameters, ObservedMatrix
from bayesid.postprocess import extract_canonical
from bayesid.sampler import run_gibbs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--hidden", type=float, default=0.33,
                        help="fraction of entries to hide (default 0.33)")
    args = parser.parse_args()

    rng = np.random.default_rng(1000 + args.seed)
    basis = rng.normal(size=(40, 6))
    weights = rng.uniform(-1.0, 1.0, size=(6, 24))
    truth = np.concatenate([basis, basis @ weights], axis=1)
    noisy = truth + rng.normal(0.0, 0.1, size=truth.shape)

    mask = rng.uniform(size=noisy.shape) >= args.hidden
    data = ObservedMatrix(values=np.where(mask, noisy, 0.0), mask=mask)
    observed = int(mask.sum())
    print(f"matrix {noisy.shape[0]} x {noisy.shape[1]}, "
          f"{observed} of {mask.size} entries observed "
          f"({100 * observed / mask.size:.0f}%)")

    # rank slack (12 kept columns for 6 true directions): the zero-filled
    # cells lift the matrix above rank 6, and at k=6 the observed-entry
    # error comes out more than twice as high
    hp = Hyperparameters(k=12, iterations=300, burn_in=100, thinning=5)
    state, trace = run_gibbs(data, hp, np.random.default_rng(args.seed))

    canonical = extract_canonical(state, data)
    recon = canonical.c @ canonical.w
    seen = np.mean((noisy - recon)[mask] ** 2)
    hidden = np.mean((noisy - recon)[~mask] ** 2)
    hidden_vs_truth = np.mean((truth - recon)[~mask] ** 2)
    zero_baseline = np.mean(noisy[~mask] ** 2)
    print(f"mse on observed entries   {seen:.4f}")
    print(f"mse on hidden entries     {hidden:.4f}   (against the noisy matrix)")
    print(f"mse on hidden entries     {hidden_vs_truth:.4f}   (against the noiseless truth)")
    print(f"predict-zero baseline     {zero_baseline:.4f}   (hidden entries, noisy matrix)")
    print()
    print("The hidden cells sat in the fit as zeros, so every prediction for")
    print("them is shrunk toward the fill value and the held-out error lands")
    print("well above the observed error. It still beats predicting zero")
    print("outright: the kept columns share structure with the hidden ones,")
    print("and interpolating them with weights bounded by 1 recovers part of")
    print("the signal even where a third of the data was fill value.")


if __name__ == "__main__":
    main()
