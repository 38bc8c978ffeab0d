"""Reading a run's trace: plateau detection and probe autocorrelation.

Runs the sampler on a noisy instance, writes the trace next to the other
artifacts, and summarizes it with build_run_report. `bayesid diagnose`
reads that trace.csv back and calls the same function, so it prints the
same plateau and mixing numbers.
"""

import argparse
import tempfile
from pathlib import Path

import numpy as np

from bayesid.diagnostics import build_run_report
from bayesid.io import write_trace_csv
from bayesid.model import Hyperparameters, ObservedMatrix
from bayesid.sampler import run_gibbs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for trace.csv (default: a temp dir)")
    args = parser.parse_args()

    rng = np.random.default_rng(1000 + args.seed)
    basis = rng.normal(size=(30, 5))
    weights = rng.uniform(-1.0, 1.0, size=(5, 15))
    a = np.concatenate([basis, basis @ weights], axis=1)
    a = np.concatenate([a, a], axis=1) + rng.normal(0.0, 0.1, size=(30, 40))
    data = ObservedMatrix.fully_observed(a)

    # thinning 2 keeps 250 post-burn-in samples, enough that the lag-10+
    # autocorrelation estimate is signal rather than estimator noise
    hp = Hyperparameters(k=5, iterations=600, burn_in=100, thinning=2)
    state, trace = run_gibbs(data, hp, np.random.default_rng(args.seed))

    out_dir = args.out if args.out is not None else Path(tempfile.mkdtemp(prefix="bayesid_demo_"))
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trace_csv(out_dir / "trace.csv", trace)

    report = build_run_report(trace, hp.burn_in, hp.thinning)
    print(f"trace written to {out_dir / 'trace.csv'}")
    print(f"iterations          {report.iterations}")
    print(f"final mse           {report.mse_final:.5f}")
    print(f"posterior mean mse  {report.mse_posterior_mean:.5f}")
    print(f"plateau reached at  iteration {report.iterations_to_plateau}")
    print(f"accepted swaps      {report.accepted_swaps}")
    print(f"mixing verdict      {report.mixing}")
    print()
    for pos, rho in sorted(report.autocorrelations.items()):
        name = f"y[{pos[0]},{pos[1]}]"
        if rho is None:
            print(f"  probe {name:10s} (slot {pos[0]}) degenerate, chain never moved")
        else:
            tail = np.max(np.abs(rho[11:])) if rho.size > 11 else 0.0
            print(f"  probe {name:10s} (slot {pos[0]}) max |autocorr| beyond lag 10: {tail:.3f}")
    print()
    print("The loss plateaus within a handful of iterations. Every probe is a")
    print("weight of a basis column, an entry (slot, column) of Y_J, so each")
    print("chain moves through a conditional coupled to the other weights of")
    print("its column through the shared residual; the weights of columns")
    print("outside the basis are not stored and are not probed. How fast such")
    print("a chain decorrelates depends on how correlated the basis columns")
    print("are. The verdict reports the worst probes, so one sticky chain is")
    print("enough to flag a run. When a swap is accepted, the slot's chain")
    print("continues with the weights of the incoming column. The same numbers")
    print("come from:")
    print(f"  bayesid diagnose {out_dir / 'trace.csv'} --burn-in {hp.burn_in}")


if __name__ == "__main__":
    main()
