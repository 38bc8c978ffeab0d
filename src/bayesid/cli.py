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
import sys
import time
from pathlib import Path

import numpy as np

from . import diagnostics
from .diagnostics import build_run_report, kept_iterations
from .errors import BayesidError, ConfigurationError, InputError, NumericalError
from .io import (
    PreprocessConfig,
    load_matrix,
    make_output_dir,
    open_output,
    preprocess,
    read_trace_csv,
    remove_empty_dirs,
    save_matrix,
    save_result,
    write_csv,
    write_json,
    write_trace_csv,
)
from .model import Hyperparameters, ObservedMatrix
from .postprocess import extract_canonical
from .rid import max_magnitude_excess, randomized_id
from .sampler import run_gibbs

METHOD_GBT = "gbt"
METHOD_GBTN = "gbtn"
METHOD_RID = "rid"
METHODS = (METHOD_GBT, METHOD_GBTN, METHOD_RID)

_EXIT_CODES = ((ConfigurationError, 2, "config"), (InputError, 3, "input"), (NumericalError, 4, "numerical"))


def _add_preprocess_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cap", type=float, default=100.0, metavar="VALUE",
                        help="cap observed values at VALUE (default 100)")
    parser.add_argument("--no-cap", action="store_true", help="disable value capping")
    parser.add_argument("--undo-log", action="store_true",
                        help="exponentiate observed values first (undo a log transform)")
    parser.add_argument("--standardize", action=argparse.BooleanOptionalAction, default=True,
                        help="per-column standardization over observed entries")
    parser.add_argument("--duplicate-columns", action=argparse.BooleanOptionalAction, default=False,
                        help="append a copy of every column after cleaning")
    parser.add_argument("--min-observed", type=int, default=3, metavar="COUNT",
                        help="drop rows/columns with fewer observed entries (default 3)")


def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "matrix_market"), default=None,
                        help="input format (default: by file extension)")
    parser.add_argument("--has-header", action="store_true", help="skip the first CSV row")


def _add_sampler_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--iterations", type=int, default=500)
    parser.add_argument("--burn-in", type=int, default=100)
    parser.add_argument("--thinning", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bayesid",
        description="Magnitude-bounded interpolative matrix decomposition",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="decompose one matrix with one method")
    p.add_argument("input", type=Path)
    p.add_argument("output", type=Path, nargs="?", default=None,
                   help="output directory (alternative to --out)")
    p.add_argument("--out", type=Path, default=None, help="output directory")
    p.add_argument("--method", choices=METHODS, default=METHOD_GBT)
    p.add_argument("--k", type=int, required=True, help="number of columns to keep")
    p.add_argument("--oversample", type=float, default=None,
                   help="rid oversampling factor (default 1.2)")
    _add_sampler_flags(p)
    _add_input_flags(p)
    _add_preprocess_flags(p)

    p = sub.add_parser("benchmark", help="compare gbt and rid over several ranks")
    p.add_argument("input", type=Path)
    p.add_argument("output", type=Path, nargs="?", default=None)
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--k", type=int, action="append", required=True,
                   help="rank to evaluate; repeat for several")
    p.add_argument("--oversample", type=float, default=None)
    _add_sampler_flags(p)
    _add_input_flags(p)
    _add_preprocess_flags(p)

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


def _resolve_out(args) -> Path:
    given = [p for p in (args.output, args.out) if p is not None]
    if len(given) != 1:
        raise ConfigurationError("give exactly one output directory (positional or --out)")
    return given[0]


def _prep_from_args(args) -> PreprocessConfig:
    if args.min_observed < 0:
        raise ConfigurationError(f"--min-observed must be nonnegative, got {args.min_observed}")
    return PreprocessConfig(
        cap_value=None if args.no_cap else args.cap,
        undo_log=args.undo_log,
        standardize=args.standardize,
        duplicate_columns=args.duplicate_columns,
        min_observed_per_vector=args.min_observed,
    )


def _prep_metadata(prep: PreprocessConfig, before, after) -> dict:
    return {
        "prep_cap": prep.cap_value if prep.cap_value is not None else "none",
        "prep_undo_log": prep.undo_log,
        "prep_standardize": prep.standardize,
        "prep_duplicate_columns": prep.duplicate_columns,
        "prep_min_observed": prep.min_observed_per_vector,
        "rows_loaded": before[0],
        "cols_loaded": before[1],
        "rows_used": after[0],
        "cols_used": after[1],
    }


def _check_run_flags(args, ks) -> None:
    """Apply Hyperparameters' rules to --k and the sampler flags before any input is read."""
    for k in ks:
        Hyperparameters(k=k, iterations=args.iterations, burn_in=args.burn_in,
                        thinning=args.thinning)


def _decompose(data: ObservedMatrix, method: str, k: int, seed: int, iterations: int,
               burn_in: int, thinning: int, oversample: float | None):
    """Run one method on a preprocessed matrix; the single path of decompose and benchmark.

    Returns (C, W, result metadata, trace), where the trace is None for rid.
    """
    rng = np.random.default_rng(seed)
    if method == METHOD_RID:
        oversample = 1.2 if oversample is None else oversample
        result = randomized_id(data.values, k, rng, oversample=oversample)
        meta = {
            "oversample": oversample,
            "j_set": [int(j) for j in result.j_set],
            "mse": diagnostics.mse(data.values, result.c, result.w),
            "mse_observed": diagnostics.mse_observed(data, result.c, result.w),
            "max_abs_w": result.max_abs_w,
            "magnitude_excess": max_magnitude_excess(result.w),
        }
        return result.c, result.w, meta, None

    hp = Hyperparameters(
        k=k, iterations=iterations, burn_in=burn_in, thinning=thinning,
        variant=METHOD_GBTN if method == METHOD_GBTN else METHOD_GBT,
    )
    state, trace = run_gibbs(data, hp, rng)
    report = build_run_report(trace, hp.burn_in, hp.thinning)
    canonical = extract_canonical(state, data)
    meta = {
        "iterations": hp.iterations,
        "burn_in": hp.burn_in,
        "thinning": hp.thinning,
        "j_set": [int(j) for j in canonical.j_set],
        "mse": report.mse_final,
        "mse_observed": report.mse_observed_final,
        "mse_posterior_mean": report.mse_posterior_mean,
        "mse_canonical": diagnostics.mse(data.values, canonical.c, canonical.w),
        "sigma2_final": report.sigma2_final,
        "accepted_swaps": report.accepted_swaps,
        "iterations_to_plateau": report.iterations_to_plateau,
        "max_abs_w": float(np.max(np.abs(canonical.w))),
        "magnitude_excess": max_magnitude_excess(canonical.w),
        "mixing": report.mixing,
    }
    return canonical.c, canonical.w, meta, trace


def _load_into(out_dir, args, prep, run) -> int:
    """Create the output directory, read and preprocess the input, and return ``run(raw, data)``.

    An unusable output path stops the run before the input is read. If the
    input or ``run`` then fails, the directories created here are removed
    again while they are empty, so a failed run leaves no stray directory
    behind.
    """
    created = make_output_dir(out_dir)
    try:
        raw = load_matrix(args.input, fmt=args.format, has_header=args.has_header)
        return run(raw, preprocess(raw, prep))
    except BaseException:
        remove_empty_dirs(created)
        raise


def cmd_decompose(args) -> int:
    out_dir = _resolve_out(args)
    prep = _prep_from_args(args)
    if args.oversample is not None and args.method != METHOD_RID:
        raise ConfigurationError("--oversample applies only to the rid method")
    _check_run_flags(args, [args.k])

    def run(raw, data) -> int:
        c, w, result, trace = _decompose(
            data, args.method, args.k, args.seed, args.iterations, args.burn_in, args.thinning,
            args.oversample,
        )
        meta = {
            "command": "decompose",
            "method": args.method,
            "k": args.k,
            "seed": args.seed,
            **_prep_metadata(prep, raw.shape, data.shape),
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

    return _load_into(out_dir, args, prep, run)


_CELL_KEYS = ("mse", "mse_observed", "max_abs_w", "magnitude_excess")


def cmd_benchmark(args) -> int:
    out_dir = _resolve_out(args)
    prep = _prep_from_args(args)
    ks = list(args.k)
    _check_run_flags(args, ks)

    def run(_, data) -> int:
        rows = []
        timings = []
        for k in ks:
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
                        keep = kept_iterations(args.iterations, args.burn_in, args.thinning)
                        cell["mse"] = result["mse_posterior_mean"]
                        cell["mse_observed"] = float(np.mean(trace.mse_observed_per_iter[keep]))
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

    return _load_into(out_dir, args, prep, run)


def cmd_synth(args) -> int:
    m, n, rank = args.rows, args.cols, args.rank
    if m < 1 or n < 1:
        raise ConfigurationError(f"rows and cols must be positive, got {m} x {n}")
    if not 1 <= rank <= n:
        raise ConfigurationError(f"rank must lie in [1, {n}], got {rank}")
    if args.noise < 0:
        raise ConfigurationError(f"noise must be nonnegative, got {args.noise}")
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
            tail = np.abs(rho[diagnostics.MIXING_LAG_THRESHOLD + 1:])
            worst = float(tail.max()) if tail.size else 0.0
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
