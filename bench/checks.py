"""Per-operation correctness checks.

Each function returns a list of failure strings; an operation passes when
the list is empty. The checks read plain arrays and numbers, so they hold
whatever shape the sampler state takes in a later version.
"""

from __future__ import annotations

import numpy as np


def check_sampler_result(weights, w, j_set, chains, loss, a, b, tolerance) -> list[str]:
    """Checks on one sampler decomposition.

    ``weights`` are the sampler's weight arrays (the state's and the
    canonical W's), ``chains`` maps a trace series name to its values and
    ``loss`` is the posterior-mean loss the workload gates on.
    """
    failures = []
    for arr in weights:
        arr = np.asarray(arr, dtype=float)
        if not np.all((arr >= a) & (arr <= b)):
            worst = float(np.max(np.abs(np.nan_to_num(arr, nan=np.inf))))
            failures.append(f"weight outside [{a}, {b}] (max |w| = {worst})")
            break
    j_set = np.asarray(j_set, dtype=int)
    if not np.array_equal(np.asarray(w)[:, j_set], np.eye(j_set.size)):
        failures.append("canonical W identity block is not exact")
    for name, values in chains.items():
        if not np.all(np.isfinite(values)):
            failures.append(f"non-finite value in trace series {name}")
    if not loss <= tolerance:
        failures.append(f"posterior-mean loss {loss} exceeds tolerance {tolerance}")
    return failures


def check_cli_result(returncode, metadata, c, w, rows, cols, k, tolerance) -> list[str]:
    """Checks on one ``bayesid decompose`` run: exit code, C.csv, W.csv, metadata."""
    if returncode != 0:
        return [f"decompose exited with code {returncode}"]
    failures = []
    for name, arr, shape in (("C", c, (rows, k)), ("W", w, (k, cols))):
        if arr.shape != shape:
            failures.append(f"{name}.csv has shape {arr.shape}, expected {shape}")
        elif not np.all(np.isfinite(arr)):
            failures.append(f"{name}.csv holds non-finite values")
    if len(metadata.get("j_set", ())) != k:
        failures.append("metadata j_set does not hold k columns")
    loss = metadata.get("mse")
    if not (isinstance(loss, (int, float)) and loss <= tolerance):
        failures.append(f"reported mse {loss} exceeds tolerance {tolerance}")
    return failures
