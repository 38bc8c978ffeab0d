"""bayesid benchmark: end-to-end and per-layer numbers for one workload.

    python3 bench/run.py --workload tall-gbt --seed 1 --seconds 60 --trace 0

Run from the repository root. Workloads are defined in bench/workloads.json;
BENCHMARK.json lists the ones a benchmark run covers, and the others are
run by hand with the same command. Traffic is a closed loop with one
client: one decomposition at a time, no concurrency. Operations run in
worker interpreters (bench/worker.py) whose BLAS/OpenMP pools are pinned
to one thread; each worker sets up once and serves operations for a fifth
of ``--seconds``, then a fresh one takes over. A library workload's
worker builds its own input from the seed and its index in the run, so
one run covers several matrices of the same shape; the CLI workload reads
one CSV per run. Operations start until the next one would end past
``--seconds`` (at least MIN_OPS of them). Every operation is checked for
correctness and counts as failed when it raises or a check fails.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones:

- ``setup_s``: interpreter start, ``import bayesid`` and building the input
  (for cli-rid-csv: start through ``import bayesid.cli``); median over the
  run's workers.
- ``wall_s``: one decomposition: the sampler call, ``extract_canonical`` and
  ``build_run_report``; for cli-rid-csv the whole ``decompose`` invocation.
- ``iters_per_s``: sampler iterations per second of the sampler call alone.
  The randomized ID is a single pass, so on cli-rid-csv it counts one
  iteration per ``decompose`` invocation.
- ``peak_rss_mb``: peak resident memory of a worker process that has set
  up and run one decomposition, median over the run's workers. A worker's
  later operations are left out: how many it serves depends on the speed
  of the host, and a second decomposition can raise the peak.

``wall_s`` and ``iters_per_s`` are medians over the run's operations. With
``--trace 1`` untraced and traced operations alternate; the metrics are the
per-layer numbers of the traced operations (bench/tracing.py), medians over
operations, plus ``trace.overhead_frac``: median traced ``wall_s`` over
median untraced ``wall_s``, minus 1. A per-layer number a workload
does not exercise reads 0 and is listed under ``not_applicable`` on the
line before the result; a wrapped name bayesid no longer has is listed
under ``absent``. The spans of the run's last traced operation are kept in
.bench_work/traces/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
MIN_OPS = 3
SETUPS = 5
OP_TIMEOUT_S = 90.0
RUN_LIMIT_S = 160.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "iters_per_s": "1/s", "peak_rss_mb": "MB"}


def load_workloads() -> dict:
    with open(HERE / "workloads.json") as fh:
        return json.load(fh)["workloads"]


def per_layer_units() -> dict:
    with open(HERE.parent / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def working_set_bytes(spec: dict) -> int:
    """Bytes of the arrays one operation keeps live, computed from the shapes.

    Library: data values and mask, the state (x, y, r, prior means and
    precisions) and the maintained residual; the aggressive sampler adds a
    second x, y and residual plus the adopted-y copy. CLI: the loaded and
    the preprocessed matrix (values and mask each) and the C and W results.
    """
    m, n, k = spec["rows"], spec["cols"], spec["k"]
    if spec["kind"] == "cli":
        return 2 * 9 * m * n + 8 * k * (m + n)
    base = 9 * m * n + 8 * m * n + 3 * 8 * n * n + n + 8 * m * n
    if spec["runners"][0] == "run_gibbs_aggressive":
        base += 2 * 8 * m * n + 2 * 8 * n * n
    return base


def _cache_bytes() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            factor = {"K": 1024, "M": 1024**2}.get(size[-1], 1)
            out[f"l{level}_bytes"] = int(size.rstrip("KM")) * factor
    return out


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "threads": {v: "1" for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "cpu_model": cpu,
        **_cache_bytes(),
    }


def _child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"), PYTHONHASHSEED="0")
    env.update((v, "1") for v in THREAD_VARS)
    return env


class _Lines:
    """Reads whole lines from a child's stdout pipe with a deadline."""

    def __init__(self, fd: int):
        self.fd = fd
        self.buf = b""

    def next(self, deadline: float) -> str:
        while b"\n" not in self.buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([self.fd], [], [], left)[0]:
                raise TimeoutError("worker did not answer in time")
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                raise EOFError("worker exited without a result")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode()


class Worker:
    """One bench/worker.py process: set up once, then serve operations."""

    def __init__(self, job: dict, log: Path):
        self.started = time.perf_counter()
        with open(log, "ab") as err:
            self.proc = subprocess.Popen(
                [sys.executable, str(WORKER), json.dumps(job)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, env=_child_env(),
            )
        self.lines = _Lines(self.proc.stdout.fileno())

    def ready(self, deadline: float) -> float | dict:
        """Set-up seconds, or the failure the worker reported instead."""
        try:
            line = self.lines.next(deadline)
            return time.perf_counter() - self.started if line == "ready" else json.loads(line)
        except (TimeoutError, EOFError, ValueError) as exc:
            return {"failures": [f"worker set-up: {exc}"]}

    def run(self, index: int, traced: bool, deadline: float) -> dict:
        try:
            self.proc.stdin.write(b"%d %d\n" % (index, traced))
            self.proc.stdin.flush()
            return json.loads(self.lines.next(deadline))
        except (TimeoutError, EOFError, ValueError, BrokenPipeError) as exc:
            return {"failures": [f"worker: {exc}"], "fatal": True}

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _typical(ops: list[dict]) -> float:
    return statistics.median(op["elapsed"] for op in ops) if ops else 0.0


def measure(name: str, spec: dict, seed: int, seconds: float, traced: bool, work: Path):
    """Run operations until the budget is spent.

    Returns one record per operation and the set-up time of each worker.
    A worker serves operations for a fifth of the budget, so every run
    sets up several times. In a traced run, untraced and traced operations
    alternate, so that both see the same state of the host.
    """
    hard_end = time.monotonic() + RUN_LIMIT_S
    log = work / "worker.log"
    job = {"workload": name, "spec": spec, "seed": seed, "src": str(Path.cwd() / "src"),
           "work": str(work), "csv": str(work / "input.csv"), "part": 0}
    if spec["kind"] == "cli":
        # the input file is written before timing starts
        subprocess.run([sys.executable, str(WORKER), json.dumps({**job, "mode": "prepare"})],
                       check=True, env=_child_env(), timeout=OP_TIMEOUT_S)
    ops: list[dict] = []
    setups: list[float] = []
    end = time.monotonic() + seconds

    def enough() -> bool:
        done = {op["traced"] for op in ops if not op.get("failures")}
        return len(ops) >= MIN_OPS and done >= {False, traced} and time.monotonic() + _typical(ops) > end

    workers = 0
    while not enough() and time.monotonic() < hard_end - OP_TIMEOUT_S:
        worker = Worker({**job, "mode": "ops", "part": workers}, log)
        workers += 1
        try:
            setup = worker.ready(min(hard_end, time.monotonic() + OP_TIMEOUT_S))
            if isinstance(setup, dict):
                ops.append({**setup, "traced": False, "elapsed": 0.0})
                if len(ops) >= MIN_OPS and all(op.get("failures") for op in ops):
                    break
                continue
            setups.append(setup)
            slice_end = min(end, time.monotonic() + seconds / SETUPS)
            first = True
            while True:
                index = len(ops)
                op_traced = traced and index % 2 == 1
                started = time.monotonic()
                result = worker.run(index, op_traced, min(hard_end, started + OP_TIMEOUT_S))
                shutil.rmtree(work / f"out{index}", ignore_errors=True)
                ops.append({**result, "traced": op_traced, "first": first,
                            "elapsed": time.monotonic() - started})
                first = False
                if result.get("fatal") or enough() or time.monotonic() + _typical(ops) > slice_end:
                    break
        finally:
            worker.close()
    traced_ops = [i for i, op in enumerate(ops) if op["traced"] and (work / f"spans{i}.json").exists()]
    if traced_ops:
        kept = Path.cwd() / ".bench_work" / "traces"
        kept.mkdir(parents=True, exist_ok=True)
        shutil.copy(work / f"spans{traced_ops[-1]}.json", kept / f"{name}-seed{seed}.json")
    return ops, setups


def summarize(ops: list[dict], setups: list[float], traced: bool, layer_units: dict) -> dict:
    """The result line: correctness counts plus the metrics of this run.

    An operation fails when it raised, timed out or failed a check. Metrics
    come from the operations that passed. Times are medians, set-up over the
    run's workers and the rest over operations; memory is the median over
    workers of the peak after their first operation.
    """
    good = [op for op in ops if not op.get("failures")]
    out = {"correct": len(good) == len(ops) and bool(ops), "attempted": len(ops),
           "failed": len(ops) - len(good), "metrics": {}}
    plain = [op for op in good if not op["traced"]]
    if not traced:
        # a worker whose first operation failed has no clean peak
        fresh = [op for op in plain if op["first"]] or plain
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(op["wall_s"] for op in plain),
            "iters_per_s": statistics.median(op["iterations"] / op["sampler_s"] for op in plain),
            "peak_rss_mb": statistics.median(op["peak_rss_bytes"] / 1e6 for op in fresh),
        }
        units = END_TO_END_UNITS
    else:
        layered = [op for op in good if op["traced"]]
        values = {name: statistics.median(op["layers"].get(name, 0.0) for op in layered)
                  for name in layer_units if name != "trace.overhead_frac"}
        values["trace.overhead_frac"] = (
            statistics.median(op["wall_s"] for op in layered)
            / statistics.median(op["wall_s"] for op in plain) - 1.0
        )
        units = layer_units
    out["metrics"] = {name: {"value": float(values[name]), "unit": units[name]} for name in units}
    return out


def not_applicable(ops: list[dict]) -> list[str]:
    """Per-layer names the traced operations did not exercise (reported as 0)."""
    traced = [op for op in ops if op["traced"]]
    measured = {n for op in traced for n in op["layers"]}
    missing = {n for n in per_layer_units() if n not in measured and n != "trace.overhead_frac"}
    return sorted(missing.union(*(op["not_applicable"] for op in traced)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload to its tiny shape (smoke test)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "bayesid" / "__init__.py").is_file():
        print(f"error: no bayesid source under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    workloads = load_workloads()
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads)}", file=sys.stderr)
        return 2
    spec = dict(workloads[args.workload])
    if args.tiny:
        spec.update(spec["tiny"])
    spec.pop("tiny")

    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        env = environment()
        ops, setups = measure(args.workload, spec, args.seed, args.seconds, bool(args.trace), work)
        failures = [f for op in ops for f in op.get("failures", ())]
        if failures and (work / "worker.log").exists():
            sys.stderr.write((work / "worker.log").read_text()[-4000:])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    good = [op for op in ops if not op.get("failures")]
    if not any(not op["traced"] for op in good) or (args.trace and not any(op["traced"] for op in good)):
        print(f"error: no operation of {args.workload} succeeded: {failures[:3]}", file=sys.stderr)
        return 1
    result = summarize(ops, setups, bool(args.trace), per_layer_units())
    details = {
        "workload": args.workload, "seed": args.seed, "env": env,
        "working_set_bytes_computed": working_set_bytes(spec),
        "operations": len(ops), "runners": sorted({op["runner"] for op in good if "runner" in op}),
        "losses": [op.get("loss") for op in ops],
        "setups": setups,
        "per_op": [[op.get("wall_s"), op.get("iterations", 0) / op.get("sampler_s", 1)] for op in ops],
        "loss_tolerance": spec["loss_tolerance"], "failures": failures[:10],
        "not_applicable": not_applicable(good) if args.trace else [],
        "absent": sorted({n for op in good for n in op.get("absent", ())}),
    }
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
