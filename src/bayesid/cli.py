"""Command-line interface.

Subcommands: decompose (run one method on one matrix), benchmark (compare
the Gibbs sampler against the randomized baseline over several ranks),
synth (generate a synthetic instance with known structure), diagnose
(convergence and mixing report for a saved trace).

Exit codes: 0 success, 2 configuration problem, 3 input problem,
4 numerical problem. Errors print as a single machine-parsable line
"error: <category>: <message>" on stderr.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from inspect import signature
from pathlib import Path

import numpy as np

from . import diagnostics
from .diagnostics import build_run_report, posterior_mean_mse
from .errors import BayesidError, ConfigurationError, InputError, NumericalError
from .io import (
    PreprocessConfig,
    load_matrix,
    make_output_dir,
    open_output,
    preprocess_in_place,
    read_trace_csv,
    remove_empty_dirs,
    save_matrix,
    save_result,
    write_csv,
    write_json,
    write_trace_csv,
)
from .model import Hyperparameters, ObservedMatrix, residual_sums
from .postprocess import extract_canonical
from .rid import check_oversample, max_magnitude_excess, randomized_id
from .sampler import run_gibbs

METHOD_GBT = "gbt"
METHOD_GBTN = "gbtn"
METHOD_RID = "rid"
METHODS = (METHOD_GBT, METHOD_GBTN, METHOD_RID)

_EXIT_CODES = ((ConfigurationError, 2, "config"), (InputError, 3, "input"), (NumericalError, 4, "numerical"))
# randomized_id's own default, which metadata.json records when --oversample is absent
_RID_OVERSAMPLE = signature(randomized_id).parameters["oversample"].default


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """The flags decompose and benchmark share; each adds its own --k (and --method)."""
    parser.add_argument("input", type=Path)
    parser.add_argument("output", type=Path, nargs="?", default=None,
                        help="output directory (alternative to --out)")
    parser.add_argument("--out", type=Path, default=None, help="output directory")
    parser.add_argument("--oversample", type=float, default=None,
                        help=f"rid oversampling factor (default {_RID_OVERSAMPLE})")
    parser.add_argument("--iterations", type=int, default=Hyperparameters.iterations)
    parser.add_argument("--burn-in", type=int, default=Hyperparameters.burn_in)
    parser.add_argument("--thinning", type=int, default=Hyperparameters.thinning)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=("csv", "matrix_market"), default=None,
                        help="input format (default: by file extension)")
    parser.add_argument("--has-header", action="store_true", help="skip the first CSV row")
    parser.add_argument("--cap", type=float, default=PreprocessConfig.cap_value, metavar="VALUE",
                        help="cap observed values at VALUE (default %(default)g)")
    parser.add_argument("--no-cap", action="store_true", help="disable value capping")
    parser.add_argument("--undo-log", action="store_true",
                        help="exponentiate observed values first (undo a log transform)")
    parser.add_argument("--standardize", action=argparse.BooleanOptionalAction,
                        default=PreprocessConfig.standardize,
                        help="per-column standardization over observed entries")
    # off unless asked for, unlike PreprocessConfig: a CLI run keeps the file's columns as they are
    parser.add_argument("--duplicate-columns", action=argparse.BooleanOptionalAction, default=False,
                        help="append a copy of every column after cleaning")
    parser.add_argument("--min-observed", type=int, default=PreprocessConfig.min_observed_per_vector,
                        metavar="COUNT",
                        help="drop rows/columns with fewer observed entries (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bayesid",
        description="Magnitude-bounded interpolative matrix decomposition",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="decompose one matrix with one method")
    p.add_argument("--method", choices=METHODS, default=METHOD_GBT)
    p.add_argument("--k", type=int, required=True, help="number of columns to keep")
    _add_run_flags(p)

    p = sub.add_parser("benchmark", help="compare gbt and rid over several ranks")
    p.add_argument("--k", type=int, action="append", required=True,
                   help="rank to evaluate; repeat for several")
    _add_run_flags(p)

    p = sub.add_parser("synth", help="generate a synthetic instance with known basis")
    p.add_argument("--out", type=Path, required=True, help="output CSV path")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True,
                   help="columns before duplication (the file gets twice as many)")
    p.add_argument("--rank", type=int, required=True, help="number of true basis columns")
    p.add_argument("--noise", type=float, default=0.0, help="noise standard deviation")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("diagnose", help="convergence/mixing report for a trace.csv")
    p.add_argument("trace", type=Path)
    p.add_argument("--out", type=Path, default=None, help="directory for report files")
    p.add_argument("--burn-in", type=int, default=0,
                   help="iterations to drop before autocorrelation (default 0)")
    p.add_argument("--max-lag", type=int, default=20)
    return parser


def _decompose(data: ObservedMatrix, method: str, k: int, seed: int, iterations: int,
               burn_in: int, thinning: int, oversample: float | None):
    """Run one method on a preprocessed matrix; the single path of decompose and benchmark.

    Every method gives a ``CanonicalId``, so J, C and W, and the weight
    bound keys, are read off one result type. Returns (C, W, result
    metadata, trace), where the trace is None for rid.
    """
    rng = np.random.default_rng(seed)
    trace = None
    if method == METHOD_RID:
        oversample = _RID_OVERSAMPLE if oversample is None else oversample
        result = randomized_id(data.values, k, rng, oversample=oversample)
        # both losses from one row-blocked pass over the residual; a matrix with
        # no observed entry is all zero, and randomized_id has refused it
        rss, rss_observed = residual_sums(data.values, result.c, result.w, data.mask)
        meta = {
            "oversample": oversample,
            "mse": rss / data.values.size,
            "mse_observed": rss_observed / int(data.mask.sum()),
        }
    else:
        hp = Hyperparameters(
            k=k, iterations=iterations, burn_in=burn_in, thinning=thinning,
            variant=METHOD_GBTN if method == METHOD_GBTN else METHOD_GBT,
        )
        state, trace = run_gibbs(data, hp, rng)
        report = build_run_report(trace, hp.burn_in, hp.thinning)
        result = extract_canonical(state, data)
        meta = {
            "iterations": hp.iterations,
            "burn_in": hp.burn_in,
            "thinning": hp.thinning,
            "mse": report.mse_final,
            "mse_observed": report.mse_observed_final,
            "mse_posterior_mean": report.mse_posterior_mean,
            "mse_canonical": diagnostics.mse(data.values, result.c, result.w),
            "sigma2_final": report.sigma2_final,
            "accepted_swaps": report.accepted_swaps,
            "iterations_to_plateau": report.iterations_to_plateau,
            "mixing": report.mixing,
        }
    meta["j_set"] = [int(j) for j in result.j_set]
    meta["max_abs_w"] = float(np.max(np.abs(result.w)))
    meta["magnitude_excess"] = max_magnitude_excess(result.w)
    return result.c, result.w, meta, trace


def _load_into(args, ks, run) -> int:
    """Check every flag of a decompose or benchmark run, create the output
    directory, read and preprocess the input, and return
    ``run(out_dir, prep_meta, data)``, where ``prep_meta`` holds the
    preprocessing settings and the loaded and used shapes.

    Every flag is checked, ``--k`` for each of ``ks`` included, before
    anything is created or read, so a bad flag writes nothing. The
    preprocessing runs in place on the loaded matrix, so from load to
    write the matrix is held once; under duplication the twice-as-wide
    result is the one new array, and the loaded matrix is freed before
    ``run``. An unusable output path stops the run before the input is
    read. If the input or ``run`` then fails, the directories created here
    are removed again while they are empty, so a failed run leaves no
    stray directory behind.
    """
    given = [p for p in (args.output, args.out) if p is not None]
    if len(given) != 1:
        raise ConfigurationError("give exactly one output directory (positional or --out)")
    prep = PreprocessConfig(
        cap_value=None if args.no_cap else args.cap,
        undo_log=args.undo_log,
        standardize=args.standardize,
        duplicate_columns=args.duplicate_columns,
        min_observed_per_vector=args.min_observed,
    )
    if args.oversample is not None:
        check_oversample(args.oversample)
    for k in ks:
        Hyperparameters(k=k, iterations=args.iterations, burn_in=args.burn_in,
                        thinning=args.thinning)
    created = make_output_dir(given[0])
    try:
        raw = load_matrix(args.input, fmt=args.format, has_header=args.has_header)
        (rows_loaded, cols_loaded), data = raw.shape, preprocess_in_place(raw, prep)
        del raw
        prep_meta = {
            "prep_cap": prep.cap_value if prep.cap_value is not None else "none",
            "prep_undo_log": prep.undo_log,
            "prep_standardize": prep.standardize,
            "prep_duplicate_columns": prep.duplicate_columns,
            "prep_min_observed": prep.min_observed_per_vector,
            "rows_loaded": rows_loaded,
            "cols_loaded": cols_loaded,
            "rows_used": data.shape[0],
            "cols_used": data.shape[1],
        }
        return run(given[0], prep_meta, data)
    except BaseException:
        remove_empty_dirs(created)
        raise


def cmd_decompose(args) -> int:
    if args.oversample is not None and args.method != METHOD_RID:
        raise ConfigurationError("--oversample applies only to the rid method")

    def run(out_dir, prep_meta, data) -> int:
        c, w, result, trace = _decompose(
            data, args.method, args.k, args.seed, args.iterations, args.burn_in, args.thinning,
            args.oversample,
        )
        meta = {
            "command": "decompose",
            "method": args.method,
            "k": args.k,
            "seed": args.seed,
            **prep_meta,
            **result,
        }
        save_result(out_dir, c, w, meta)
        if trace is None:
            print(f"method=rid k={args.k} mse={result['mse']:.6g} max_abs_w={result['max_abs_w']:.6g}")
            return 0
        write_trace_csv(out_dir / "trace.csv", trace)
        print(
            f"method={args.method} k={args.k} mse={result['mse']:.6g} "
            f"posterior_mean_mse={result['mse_posterior_mean']:.6g} mixing={result['mixing']}"
        )
        return 0

    return _load_into(args, [args.k], run)


_CELL_KEYS = ("mse", "mse_observed", "max_abs_w", "magnitude_excess")


def cmd_benchmark(args) -> int:
    def run(out_dir, _, data) -> int:
        rows = []
        timings = []
        for k in args.k:
            for method in (METHOD_GBT, METHOD_RID):
                started = time.perf_counter()
                try:
                    _, _, result, trace = _decompose(
                        data, method, k, args.seed, args.iterations, args.burn_in, args.thinning,
                        args.oversample,
                    )
                    cell = {key: result[key] for key in _CELL_KEYS}
                    if trace is not None:
                        # gbt cells are posterior means over the kept iterations
                        cell["mse"] = result["mse_posterior_mean"]
                        cell["mse_observed"] = posterior_mean_mse(
                            trace.mse_observed_per_iter, args.burn_in, args.thinning
                        )
                    status = "ok"
                except BayesidError as exc:
                    cell = dict.fromkeys(_CELL_KEYS)
                    status = f"{_category(exc)[1]}: {exc}"
                timings.append([k, method, f"{time.perf_counter() - started:.3f}"])
                rows.append([k, method, *(cell[key] for key in _CELL_KEYS), status])

        write_csv(out_dir / "benchmark.csv", [["k", "method", *_CELL_KEYS, "status"], *rows])
        # wall times are inherently nondeterministic, so they live apart from
        # the reproducible artifacts
        write_csv(out_dir / "timings.csv", [["k", "method", "seconds"], *timings])
        for k, method, loss, *_, status in rows:
            loss = "" if loss is None else f"{loss:.6g}"
            print(f"k={k} method={method} mse={loss} status={status}")
        return 0

    return _load_into(args, args.k, run)


def cmd_synth(args) -> int:
    m, n, rank = args.rows, args.cols, args.rank
    if m < 1 or n < 1:
        raise ConfigurationError(f"rows and cols must be positive, got {m} x {n}")
    if not 1 <= rank <= n:
        raise ConfigurationError(f"rank must lie in [1, {n}], got {rank}")
    if not 0.0 <= args.noise < math.inf:
        raise ConfigurationError(f"noise must be finite and nonnegative, got {args.noise}")
    rng = np.random.default_rng(args.seed)
    basis = rng.normal(size=(m, rank))
    weights = rng.uniform(-1.0, 1.0, size=(rank, n - rank))
    full = np.concatenate([basis, basis @ weights], axis=1)
    full = np.concatenate([full, full], axis=1)
    if args.noise > 0:
        full = full + rng.normal(0.0, args.noise, size=full.shape)
    out = args.out
    save_matrix(out, ObservedMatrix.fully_observed(full))
    truth = {
        "rows": m,
        "cols_before_duplication": n,
        "cols": 2 * n,
        "true_rank": rank,
        "basis_indices": list(range(rank)),
        "twin_offset": n,
        "noise_sigma": args.noise,
        "seed": args.seed,
    }
    truth_path = out.with_name(out.name + ".truth.json")
    write_json(truth_path, truth)
    print(f"wrote {out} ({m} x {2 * n}) and {truth_path}")
    return 0


def cmd_diagnose(args) -> int:
    if args.burn_in < 0:
        raise ConfigurationError(f"--burn-in must be nonnegative, got {args.burn_in}")
    if args.max_lag < 1:
        raise ConfigurationError(f"--max-lag must be at least 1, got {args.max_lag}")
    report = build_run_report(read_trace_csv(args.trace), args.burn_in, 1, args.max_lag)
    plateau = report.iterations_to_plateau
    lines = [
        f"iterations={report.iterations}",
        f"mse_final={report.mse_final:.17g}",
        f"iterations_to_plateau={plateau if plateau is not None else 'none'}",
        f"mixing={report.mixing}",
    ]
    probes = {f"y_r{k}_c{l}": rho for (k, l), rho in sorted(report.autocorrelations.items())}
    for name, rho in probes.items():
        if rho is None:
            lines.append(f"probe_{name}=degenerate")
        else:
            worst = diagnostics.tail_autocorrelation(rho)
            lines.append(f"probe_{name}=max_abs_autocorr_beyond_lag10:{worst:.17g}")

    if args.out is not None:
        with open_output(args.out / "report.txt") as fh:
            fh.write("\n".join(lines) + "\n")
        # every kept chain has the same length, so every defined rho has the same lags
        lags = max((rho.size for rho in probes.values() if rho is not None), default=0)
        write_csv(args.out / "autocorrelation.csv", [
            ["lag", *probes],
            *([lag, *(None if rho is None else rho[lag] for rho in probes.values())]
              for lag in range(lags)),
        ])
    for line in lines:
        print(line)
    return 0


def _category(exc: BayesidError) -> tuple[int, str]:
    """Exit code and category name of a package error."""
    for klass, code, name in _EXIT_CODES:
        if isinstance(exc, klass):
            return code, name
    return 1, "internal"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "decompose": cmd_decompose,
        "benchmark": cmd_benchmark,
        "synth": cmd_synth,
        "diagnose": cmd_diagnose,
    }
    try:
        return handlers[args.command](args)
    except BayesidError as exc:
        code, name = _category(exc)
        print(f"error: {name}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
