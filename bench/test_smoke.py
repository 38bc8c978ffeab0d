"""Smoke test of the benchmark itself, every workload at its tiny size.

    python3 -m pytest bench/test_smoke.py -q

Kept out of the Tier-1 suite (pyproject's testpaths), because it starts
interpreters and reads timings.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import checks  # noqa: E402
import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = sorted(run.load_workloads())


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace, section):
    out = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCH[section]}
    for metric in BENCH[section]:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float)


def _op(failures):
    return {"failures": failures, "traced": False, "first": True, "wall_s": 1.0,
            "sampler_s": 0.9, "iterations": 10, "peak_rss_bytes": 10**8}


def test_weight_outside_bounds_counts_as_failed_operation():
    w = np.array([[1.0, 0.0, 0.3], [0.0, 1.0, 1.5]])
    failures = checks.check_sampler_result(
        weights=[w], w=w, j_set=[0, 1], chains={"mse": np.ones(4)},
        loss=0.01, a=-1.0, b=1.0, tolerance=0.1,
    )
    assert failures and "outside" in failures[0]
    result = run.summarize([_op([]), _op(failures)], [0.5], traced=False, layer_units={})
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, False)


def test_inexact_identity_block_and_high_loss_fail():
    w = np.array([[1.0, 1e-12, 0.3], [0.0, 1.0, 0.5]])
    failures = checks.check_sampler_result(
        weights=[w], w=w, j_set=[0, 1], chains={"mse": np.array([1.0, np.nan])},
        loss=0.5, a=-1.0, b=1.0, tolerance=0.1,
    )
    assert len(failures) == 3


def test_listed_workloads_are_defined_and_working_sets_match():
    workloads = run.load_workloads()
    assert {w["name"] for w in BENCH["workloads"]} <= set(workloads)
    for spec in workloads.values():
        assert spec["working_set_bytes_computed"] == run.working_set_bytes(spec)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""
