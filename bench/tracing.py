"""Spans and counts around calls into bayesid, and the per-layer numbers.

Only traced operations create a Tracer. ``Tracer.install`` replaces
module-global names that bayesid resolves at call time with wrappers that
record a span (name, start, end, parent) per call; a name a later version
no longer has is reported as absent. Spans stay in memory until
``Tracer.dump`` writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

import numpy as np

GTN = "distributions.sample_gtn_array"
INVGAMMA = "distributions.sample_inverse_gamma"
INIT_STATE = "model.init_state"
COLUMN_MOVE = "sampler.sample_state_vector"
SAMPLER = "sampler.run"
CANONICAL = "postprocess.extract_canonical"
REPORT = "diagnostics.build_run_report"
CLI_MAIN = "cli.main"
LOAD = "io.load_matrix"
PREPROCESS = "io.preprocess"
SAVE = "io.save_result"
RID = "rid.randomized_id"
CPQR = "linalg.cpqr"
LSTSQ = "linalg.solve_least_squares"

# A GTN draw is in the tail regime when its whole standardized interval
# lies at least this far out on one side of the parent mean.
TAIL_LIMIT = 5.0

# (module, global name, span name): the names bayesid resolves through
# module globals on its hot paths.
WRAPPED = (
    ("bayesid.sampler", "sample_gtn_array", GTN),
    ("bayesid.sampler", "sample_inverse_gamma", INVGAMMA),
    ("bayesid.sampler", "init_state", INIT_STATE),
    ("bayesid.sampler", "sample_state_vector", COLUMN_MOVE),
    ("bayesid.model", "sample_gtn_array", GTN),
    ("bayesid.model", "sample_inverse_gamma", INVGAMMA),
    ("bayesid.cli", "load_matrix", LOAD),
    ("bayesid.cli", "preprocess", PREPROCESS),
    ("bayesid.cli", "randomized_id", RID),
    ("bayesid.cli", "save_result", SAVE),
    ("bayesid.rid", "cpqr", CPQR),
    ("bayesid.rid", "solve_least_squares", LSTSQ),
    ("bayesid.linalg", "cpqr", CPQR),
)


def _gtn_counts(span, args, kwargs, out):
    span["draws"] = int(np.size(out))
    names = ("mu", "tau", "a", "b")
    params = dict(zip(names, args))
    params.update((n, kwargs[n]) for n in names if n in kwargs)
    if len(params) == 4:
        mu, tau, a, b = (np.asarray(params[n], dtype=float) for n in names)
        root_tau = np.sqrt(tau)
        tail = ((a - mu) * root_tau >= TAIL_LIMIT) | ((b - mu) * root_tau <= -TAIL_LIMIT)
        span["tail"] = int(np.count_nonzero(np.broadcast_to(tail, np.shape(out))))


def state_bytes(state) -> int:
    """Bytes held by the numpy arrays of a sampler state, whatever its fields."""
    return sum(v.nbytes for v in vars(state).values() if isinstance(v, np.ndarray))


AFTER = {GTN: _gtn_counts}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _open(self, name: str) -> dict:
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1] if self._stack else None}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a call the benchmark itself makes."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def install(self) -> list[str]:
        """Wrap every name in WRAPPED; returns the ones missing from bayesid."""
        absent = []
        for mod_name, attr, span_name in WRAPPED:
            try:
                module = importlib.import_module(mod_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None:
                absent.append(f"{mod_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, span_name, AFTER.get(span_name)))
            self._restore.append((module, attr, fn))
        return absent

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def _wrap(self, fn, name, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(span, args, kwargs, out)
                # the counting is tracing cost, not the caller's own work
                span["bookkeeping"] = time.perf_counter() - span["end"]
            return out

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# per-layer numbers


def _duration(span) -> float:
    return span["end"] - span["start"]


def _total(spans, name) -> float:
    return sum(_duration(s) for s in spans if s["name"] == name)


def _self_time(spans, index) -> float:
    children = sum(_duration(s) + s.get("bookkeeping", 0.0) for s in spans if s["parent"] == index)
    return _duration(spans[index]) - children


def _under(spans, index, ancestor) -> bool:
    while index is not None:
        if index == ancestor:
            return True
        index = spans[index]["parent"]
    return False


def _busy(spans, index) -> float:
    """A span's duration less the tracing bookkeeping of the spans inside it."""
    inner = sum(s.get("bookkeeping", 0.0) for i, s in enumerate(spans)
                if i != index and _under(spans, i, index))
    return _duration(spans[index]) - inner


def ess_bulk(chain) -> float:
    """Bulk effective sample size of one chain, split in two halves.

    Rank-normalized split-chain ESS with Geyer's initial monotone sequence,
    after Vehtari, Gelman, Simpson, Carpenter & Buerkner (Bayesian Analysis
    2021). A constant chain has ESS 0.
    """
    from scipy.special import ndtri
    from scipy.stats import rankdata

    x = np.asarray(chain, dtype=float)
    half = x.size // 2
    if half < 2 or np.ptp(x) == 0.0:
        return 0.0
    x = x[x.size - 2 * half:]
    z = ndtri((rankdata(x) - 0.375) / (x.size + 0.25)).reshape(2, half)
    centered = z - z.mean(axis=1, keepdims=True)
    acov = np.array([[c[: half - t] @ c[t:] / half for t in range(half)] for c in centered])
    within = np.mean(acov[:, 0]) * half / (half - 1)
    var_plus = within * (half - 1) / half + np.var(z.mean(axis=1), ddof=1)
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    pairs = rho[: half - half % 2].reshape(-1, 2).sum(axis=1)
    positive = np.flatnonzero(pairs <= 0.0)
    pairs = pairs[: positive[0]] if positive.size else pairs
    pairs = np.minimum.accumulate(pairs)
    tau = -1.0 + 2.0 * pairs.sum()
    return float(2 * half / max(tau, 1.0 / np.log10(2 * half)))


def sampler_layers(spans, state, iterations, accepted_swaps, chains) -> tuple[dict, list[str]]:
    """Per-layer numbers of one library operation; returns (values, not_applicable)."""
    run = next(i for i, s in enumerate(spans) if s["name"] == SAMPLER)
    inside = [s for i, s in enumerate(spans) if _under(spans, i, run)]
    gtn = [s for s in inside if s["name"] == GTN]
    direct_gtn = [s for s in gtn if s["parent"] == run]
    draws = sum(s.get("draws", 0) for s in gtn)
    gtn_s = sum(_duration(s) for s in gtn)
    init = [i for i, s in enumerate(spans) if s["name"] == INIT_STATE and _under(spans, i, run)]
    moves = [s for s in inside if s["name"] == COLUMN_MOVE]
    not_applicable = []
    if not moves:
        not_applicable.append("sampler.column_move_s")
    if not all("tail" in s for s in gtn):
        not_applicable.append("distributions.gtn_tail_frac")
    values = {
        "distributions.gtn_calls_per_iter": len(direct_gtn) / iterations,
        "distributions.gtn_draws_per_iter": sum(s.get("draws", 0) for s in direct_gtn) / iterations,
        "distributions.gtn_ns_per_draw": 1e9 * gtn_s / draws if draws else 0.0,
        "distributions.gtn_share": gtn_s / _busy(spans, run),
        "distributions.gtn_tail_frac": sum(s.get("tail", 0) for s in gtn) / draws if draws else 0.0,
        "model.init_state_s": sum(_busy(spans, i) for i in init),
        "model.state_bytes": state_bytes(state),
        "sampler.self_s": _self_time(spans, run),
        "sampler.column_move_s": sum(_duration(s) for s in moves),
        # both samplers make one swap proposal per iteration
        "sampler.swap_accept_ratio": accepted_swaps / iterations,
        "sampler.ess_min": min(ess_bulk(c) for c in chains),
        "diagnostics.report_s": _total(spans, REPORT),
        "postprocess.canonical_s": _total(spans, CANONICAL),
    }
    return values, not_applicable


def cli_layers(spans, read_bytes, written_bytes) -> dict:
    """Per-layer numbers of one CLI operation."""
    main = next(i for i, s in enumerate(spans) if s["name"] == CLI_MAIN)
    load_s, save_s = _total(spans, LOAD), _total(spans, SAVE)
    return {
        "io.load_s": load_s,
        "io.read_mb_per_s": read_bytes / load_s / 1e6 if load_s else 0.0,
        "io.preprocess_s": _total(spans, PREPROCESS),
        "io.save_s": save_s,
        "io.write_mb_per_s": written_bytes / save_s / 1e6 if save_s else 0.0,
        "rid.randomized_id_s": _total(spans, RID),
        "linalg.cpqr_s": _total(spans, CPQR),
        "linalg.lstsq_s": _total(spans, LSTSQ),
        "cli.self_s": _self_time(spans, main),
    }
