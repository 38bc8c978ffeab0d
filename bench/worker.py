"""Benchmark operations in a fresh interpreter.

``run.py`` starts this script with a JSON job as its only argument. The
script imports bayesid and builds the workload's input from the seed, then
prints ``ready``; run.py times set-up up to that line. For each line
``<operation index> <traced 0|1>`` read from standard input it runs one
decomposition, checks it and prints one JSON result line. It exits when
standard input closes. Those lines are the whole of its standard output;
whatever bayesid prints goes to standard error.

    python3 bench/worker.py '{"mode": "prepare", ...}'   # write the CLI's CSV
    python3 bench/worker.py '{"mode": "ops", ...}'       # serve operations
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
import traceback
import zlib
from pathlib import Path

import numpy as np

import tracing
from checks import check_cli_result, check_sampler_result

PROTOCOL = sys.stdout


def _say(obj) -> None:
    print(obj if isinstance(obj, str) else json.dumps(obj), file=PROTOCOL, flush=True)


def _salt(job) -> int:
    return zlib.crc32(job["workload"].encode())


def input_rng(job):
    """The generator of this worker's input: seed, workload and worker index.

    Each worker of a run builds its own matrix, so a run's median spans
    several inputs of the same shape instead of resting on one.
    """
    return np.random.default_rng([job["seed"], _salt(job), 0, job["part"]])


def op_rng(job, index: int):
    return np.random.default_rng([job["seed"], _salt(job), index + 1])


def build_matrix(job):
    """A matrix like tests/_instances.duplicated_id_matrix, plus a missing-entry mask.

    ``rank`` normal basis columns, ``cols / 2 - rank`` combinations of them
    with uniform [-1, 1] weights, every column duplicated, then Gaussian
    noise. A ``missing_frac`` share of entries is unobserved.
    """
    spec = job["spec"]
    rng = input_rng(job)
    m, n_pre, rank = spec["rows"], spec["cols"] // 2, spec["rank"]
    basis = rng.normal(size=(m, rank))
    weights = rng.uniform(-1.0, 1.0, size=(rank, n_pre - rank))
    full = np.concatenate([basis, basis @ weights], axis=1)
    full = np.concatenate([full, full], axis=1)
    full = full + rng.normal(0.0, spec["noise"], size=full.shape)
    mask = rng.uniform(size=full.shape) >= spec["missing_frac"]
    return np.where(mask, full, 0.0), mask


def prepare_csv(job) -> None:
    """Write the CLI workload's input CSV; an empty field is an unobserved entry."""
    values, mask = build_matrix(job)
    with open(job["csv"], "w") as fh:
        for vals, obs in zip(values.tolist(), mask.tolist()):
            fh.write(",".join("%.17g" % v if o else "" for v, o in zip(vals, obs)))
            fh.write("\n")


def _no_span(name):
    return contextlib.nullcontext()


def _peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _check_source(bayesid, job) -> None:
    where = Path(bayesid.__file__).resolve()
    if Path(job["src"]).resolve() not in where.parents:
        raise RuntimeError(f"imported bayesid from {where}, not from {job['src']}")


def library_setup(job):
    """Import bayesid and build the input; returns the operation to run."""
    spec = job["spec"]
    import bayesid

    _check_source(bayesid, job)
    values, mask = build_matrix(job)
    data = bayesid.ObservedMatrix(values=values, mask=mask)
    hp = bayesid.Hyperparameters(
        k=spec["k"], iterations=spec["iterations"], burn_in=spec["burn_in"],
        thinning=spec["thinning"], variant="gbtn" if spec["method"] == "gbtn" else "gbt",
    )
    # the first public runner this version has; a later one may fold the
    # aggressive sampler into run_gibbs
    name = next((n for n in spec["runners"] if hasattr(bayesid, n)), None)
    if name is None:
        raise RuntimeError(f"bayesid has none of {spec['runners']}")
    runner = getattr(bayesid, name)

    def op(index: int, tracer) -> dict:
        rng = op_rng(job, index)
        absent = tracer.install() if tracer else []
        span = tracer.span if tracer else _no_span
        try:
            started = time.perf_counter()
            with span(tracing.SAMPLER):
                state, trace = runner(data, hp, rng)
            sampled = time.perf_counter()
            with span(tracing.CANONICAL):
                canonical = bayesid.extract_canonical(state, data)
            with span(tracing.REPORT):
                bayesid.build_run_report(trace, hp.burn_in, hp.thinning)
            done = time.perf_counter()
        finally:
            if tracer:
                tracer.uninstall()
        rss = _peak_rss_bytes()

        iterations = trace.mse_per_iter.size
        kept = slice(hp.burn_in, iterations, hp.thinning)
        losses = trace.mse_observed_per_iter if spec["missing_frac"] > 0 else trace.mse_per_iter
        loss = float(np.mean(losses[kept]))
        chains = {"mse": trace.mse_per_iter, "mse_observed": trace.mse_observed_per_iter,
                  "sigma2": trace.sigma2_chain}
        chains.update((f"y{pos}", chain) for pos, chain in trace.y_entry_chains.items())
        failures = check_sampler_result(
            weights=[getattr(state, "y", canonical.w_unconstrained), canonical.w],
            w=canonical.w, j_set=canonical.j_set, chains=chains,
            loss=loss, a=hp.a, b=hp.b, tolerance=spec["loss_tolerance"],
        )
        result = {"wall_s": done - started, "sampler_s": sampled - started,
                  "iterations": iterations, "peak_rss_bytes": rss, "loss": loss,
                  "runner": name, "failures": failures}
        if tracer:
            layers, not_applicable = tracing.sampler_layers(
                tracer.spans, state, iterations, trace.accepted_swaps,
                [trace.sigma2_chain[kept], trace.mse_per_iter[kept]],
            )
            result.update(layers=layers, absent=absent, not_applicable=not_applicable)
        return result

    return op


def cli_setup(job):
    """Import bayesid.cli; returns the operation to run."""
    spec = job["spec"]
    import bayesid.cli

    _check_source(bayesid, job)

    def op(index: int, tracer) -> dict:
        out = Path(job["work"]) / f"out{index}"
        argv = ["decompose", job["csv"], str(out), "--method", spec["method"], "--k", str(spec["k"]),
                "--seed", str((job["seed"] * 1000 + index) % 2**31)]
        absent = tracer.install() if tracer else []
        span = tracer.span if tracer else _no_span
        try:
            started = time.perf_counter()
            with span(tracing.CLI_MAIN), contextlib.redirect_stdout(sys.stderr):
                code = bayesid.cli.main(argv)
            done = time.perf_counter()
        finally:
            if tracer:
                tracer.uninstall()
        rss = _peak_rss_bytes()

        files = {p.name: p for p in out.iterdir()} if out.is_dir() else {}
        metadata = {}
        try:
            metadata = json.loads(files["metadata.json"].read_text())
            c = np.loadtxt(files["C.csv"], delimiter=",", ndmin=2)
            w = np.loadtxt(files["W.csv"], delimiter=",", ndmin=2)
        except (KeyError, ValueError, OSError) as exc:
            failures = [f"decompose output unreadable: {exc!r}"]
        else:
            failures = check_cli_result(code, metadata, c, w, spec["rows"], spec["cols"],
                                        spec["k"], spec["loss_tolerance"])
        result = {"wall_s": done - started, "sampler_s": done - started, "iterations": 1,
                  "peak_rss_bytes": rss, "loss": metadata.get("mse"), "failures": failures}
        if tracer:
            read = Path(job["csv"]).stat().st_size
            written = sum(p.stat().st_size for p in files.values())
            result.update(layers=tracing.cli_layers(tracer.spans, read, written),
                          absent=absent, not_applicable=[])
        return result

    return op


def main() -> int:
    job = json.loads(sys.argv[1])
    if job["mode"] == "prepare":
        prepare_csv(job)
        return 0
    try:
        op = (cli_setup if job["spec"]["kind"] == "cli" else library_setup)(job)
    except Exception as exc:
        traceback.print_exc()
        _say({"failures": [f"set-up raised {type(exc).__name__}: {exc}"]})
        return 1
    _say("ready")
    for line in sys.stdin:
        index, traced = (int(field) for field in line.split())
        tracer = tracing.Tracer() if traced else None
        try:
            result = op(index, tracer)
        except Exception as exc:
            traceback.print_exc()
            result = {"failures": [f"raised {type(exc).__name__}: {exc}"]}
        if tracer:
            tracer.dump(Path(job["work"]) / f"spans{index}.json")
        _say(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
