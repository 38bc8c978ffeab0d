"""End-to-end command line behavior, exercised in process via main(argv)."""

import csv
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

import bayesid
from bayesid import cli
from bayesid.cli import main
from bayesid.diagnostics import build_run_report
from bayesid.io import load_matrix, make_output_dir, read_trace_csv, remove_empty_dirs, save_matrix
from bayesid.linalg import numerical_rank
from bayesid.model import ObservedMatrix
from bayesid.rid import randomized_id


def _run_process(*argv):
    """Run ``python -m bayesid`` in a fresh interpreter, with the package imported here."""
    env = dict(os.environ, PYTHONPATH=str(Path(bayesid.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "bayesid", *argv], capture_output=True,
                          text=True, env=env, timeout=120)


def _write_masked(path, m, n, seed):
    rng = np.random.default_rng(seed)
    mask = rng.uniform(size=(m, n)) < 0.9
    save_matrix(path, ObservedMatrix(values=np.where(mask, rng.normal(size=(m, n)), 0.0), mask=mask))
    return path


def _synth(tmp_path, name="synth.csv", rows=30, cols=10, rank=5, noise=0.0, seed=0):
    out = tmp_path / name
    code = main([
        "synth", "--out", str(out), "--rows", str(rows), "--cols", str(cols),
        "--rank", str(rank), "--noise", str(noise), "--seed", str(seed),
    ])
    assert code == 0
    return out


class TestSynth:
    def test_writes_matrix_and_truth_sidecar(self, tmp_path):
        out = _synth(tmp_path)
        data = load_matrix(out)
        assert data.shape == (30, 20)
        truth = json.loads((tmp_path / "synth.csv.truth.json").read_text())
        assert truth["rows"] == 30
        assert truth["cols"] == 20
        assert truth["cols_before_duplication"] == 10
        assert truth["true_rank"] == 5
        assert truth["basis_indices"] == [0, 1, 2, 3, 4]
        assert truth["twin_offset"] == 10
        assert truth["noise_sigma"] == 0.0
        assert truth["seed"] == 0

    def test_noise_free_instance_has_stated_rank(self, tmp_path):
        out = _synth(tmp_path)
        data = load_matrix(out)
        assert numerical_rank(scipy.linalg.qr(data.values, mode="r", pivoting=True)[0]) == 5
        # twin columns are exact copies
        npt.assert_array_equal(data.values[:, 10:], data.values[:, :10])

    def test_deterministic_bytes(self, tmp_path):
        a = _synth(tmp_path, "a.csv", seed=7)
        b = _synth(tmp_path, "b.csv", seed=7)
        assert a.read_bytes() == b.read_bytes()

    def test_rank_out_of_range_rejected(self, tmp_path):
        code = main([
            "synth", "--out", str(tmp_path / "x.csv"), "--rows", "5", "--cols", "4",
            "--rank", "0",
        ])
        assert code == 2

    @pytest.mark.parametrize("noise", ["nan", "inf", "-1"])
    def test_noise_must_be_finite_and_nonnegative(self, tmp_path, capsys, noise):
        out = tmp_path / "x.csv"
        capsys.readouterr()
        assert main(["synth", "--out", str(out), "--rows", "5", "--cols", "4", "--rank", "2",
                     "--noise", noise]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: ") and err.count("\n") == 1, err
        assert list(tmp_path.iterdir()) == []


class TestDecomposeRid:
    def test_exact_recovery_at_true_rank(self, tmp_path):
        src = _synth(tmp_path)
        out = tmp_path / "rid_out"
        code = main([
            "decompose", str(src), str(out), "--method", "rid", "--k", "5",
            "--no-standardize", "--oversample", "4.0",
        ])
        assert code == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["method"] == "rid"
        assert meta["mse"] <= 1e-10
        assert len(meta["j_set"]) == 5
        c = load_matrix(out / "C.csv").values
        w = load_matrix(out / "W.csv").values
        assert c.shape == (30, 5)
        assert w.shape == (5, 20)

    def test_default_oversample_is_randomized_ids_own(self, tmp_path, capsys):
        # metadata.json and the help text name the default randomized_id itself takes
        default = inspect.signature(randomized_id).parameters["oversample"].default
        out = tmp_path / "rid_out"
        assert main(["decompose", str(_synth(tmp_path)), str(out), "--method", "rid", "--k", "5"]) == 0
        assert json.loads((out / "metadata.json").read_text())["oversample"] == default
        with pytest.raises(SystemExit):
            main(["decompose", "--help"])
        assert f"(default {default})" in " ".join(capsys.readouterr().out.split())

    def test_rank_deficient_selection_exits_numerical(self, tmp_path):
        p = tmp_path / "dup.csv"
        col = np.arange(1.0, 7.0)
        a = np.stack([col, col], axis=1)
        p.write_text("\n".join(",".join("%.17g" % v for v in row) for row in a) + "\n")
        code = main([
            "decompose", str(p), str(tmp_path / "o"), "--method", "rid", "--k", "2",
            "--no-standardize", "--min-observed", "0", "--oversample", "1.0",
        ])
        assert code == 4


class TestDecomposeGibbs:
    def _run(self, src, out, *extra):
        return main([
            "decompose", str(src), str(out), "--k", "3",
            "--iterations", "30", "--burn-in", "5", "--thinning", "2", *extra,
        ])

    def test_metadata_and_artifacts(self, tmp_path):
        src = _synth(tmp_path)
        out = tmp_path / "gbt_out"
        assert self._run(src, out) == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["method"] == "gbt"
        assert meta["k"] == 3
        assert meta["iterations"] == 30
        assert len(meta["j_set"]) == 3
        assert meta["max_abs_w"] <= 1.0
        assert meta["magnitude_excess"] == 0.0
        assert meta["mixing"] in ("good", "poor", "degenerate")
        assert meta["accepted_swaps"] >= 0
        for key in ("mse", "mse_observed", "mse_posterior_mean", "mse_canonical", "sigma2_final"):
            assert isinstance(meta[key], float)
        trace_text = (out / "trace.csv").read_text().strip().splitlines()
        assert len(trace_text) == 31  # header + one row per iteration
        assert trace_text[0].startswith("iteration,mse,mse_observed,sigma2,y_r")
        w = load_matrix(out / "W.csv").values
        assert np.max(np.abs(w)) <= 1.0

    def test_identical_bytes_for_identical_seeds(self, tmp_path):
        src = _synth(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert self._run(src, out1, "--seed", "11") == 0
        assert self._run(src, out2, "--seed", "11") == 0
        for name in ("C.csv", "W.csv", "metadata.json", "trace.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_aggressive_options_rejected(self, tmp_path):
        src = _synth(tmp_path)
        out = tmp_path / "ag_out"
        for flags in (["--aggressive"], ["--method", "gbt-aggressive"]):
            with pytest.raises(SystemExit) as exc:
                self._run(src, out, *flags)
            assert exc.value.code == 2, flags
            assert not out.exists(), flags

    def test_hierarchical_method_runs(self, tmp_path):
        src = _synth(tmp_path)
        out = tmp_path / "gbtn_out"
        assert self._run(src, out, "--method", "gbtn") == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["method"] == "gbtn"
        assert meta["magnitude_excess"] == 0.0


class TestDecomposeMemory:
    @pytest.mark.parametrize("method", ["rid", "gbt"])
    def test_loaded_matrix_freed_before_the_decomposition(self, tmp_path, monkeypatch, method):
        src = _write_masked(tmp_path / "in.csv", 40, 12, seed=3)
        loaded = []
        load = cli.load_matrix

        def load_and_watch(*args, **kwargs):
            raw = load(*args, **kwargs)
            loaded.append(weakref.ref(raw))
            return raw

        alive = []
        run = cli.randomized_id if method == "rid" else cli.run_gibbs

        def watched(*args, **kwargs):
            alive.append(loaded[0]() is not None)
            return run(*args, **kwargs)

        monkeypatch.setattr(cli, "load_matrix", load_and_watch)
        monkeypatch.setattr(cli, "randomized_id" if method == "rid" else "run_gibbs", watched)
        argv = ["decompose", str(src), str(tmp_path / "out"), "--method", method, "--k", "3",
                "--iterations", "5", "--burn-in", "1"]
        assert main(argv) == 0
        assert alive == [False]
        meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
        assert (meta["rows_loaded"], meta["cols_loaded"]) == (40, 12)

    def test_rid_run_peaks_below_three_arrays(self, tmp_path):
        # the loaded matrix and the preprocessed one, each values plus mask, are
        # 2.25 M x N float arrays; a run that also copies the matrix for every
        # preprocessing step and forms whole-matrix loss temporaries peaks at 4.50
        m, n = 400, 300
        src = _write_masked(tmp_path / "in.csv", m, n, seed=5)
        argv = ["decompose", str(src), str(tmp_path / "out"), "--method", "rid", "--k", "20"]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * m * n * 8, f"peak {peak / (m * n * 8):.2f} M x N float arrays"

    @staticmethod
    def _rid_peak_arrays(tmp_path, *extra):
        m, n = 1200, 500
        src = _write_masked(tmp_path / "in.csv", m, n, seed=7)
        argv = ["decompose", str(src), str(tmp_path / "out"), "--method", "rid", "--k", "40", *extra]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / (m * n * 8)

    def test_rid_run_holds_one_copy(self, tmp_path):
        # the matrix, values plus mask, is 1.125 M x N float arrays; preprocessing
        # a second, column-major copy peaks at 2.49
        peak = self._rid_peak_arrays(tmp_path)
        assert peak < 1.8, f"peak {peak:.2f} M x N float arrays"

    def test_duplicated_rid_run_allocates_the_twins_once(self, tmp_path):
        # the loaded matrix and the 2N-wide result are 3.375 M x N float arrays;
        # preprocessing a copy and concatenating it with itself peaks at 4.26
        peak = self._rid_peak_arrays(tmp_path, "--duplicate-columns")
        assert peak < 3.5, f"peak {peak:.2f} M x N float arrays"


class TestErrorExits:
    def test_config_errors_exit_2(self, tmp_path, capsys):
        src = _synth(tmp_path)
        cases = [
            ["decompose", str(src), str(tmp_path / "o"), "--k", "0"],
            ["decompose", str(src), str(tmp_path / "o"), "--k", "2", "--oversample", "2.0"],
            ["decompose", str(src), str(tmp_path / "o1"), "--out", str(tmp_path / "o2"),
             "--k", "2"],
            ["decompose", str(src), "--k", "2"],
        ]
        for argv in cases:
            capsys.readouterr()
            assert main(argv) == 2, argv
            assert "error: config:" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--iterations", "0"],
        ["--iterations", "5", "--burn-in", "5"],
        ["--thinning", "0"],
    ])
    def test_sampler_flags_checked_before_input_is_read(self, tmp_path, capsys, flags):
        src = _synth(tmp_path)
        absent = tmp_path / "absent.csv"
        cases = [
            ["decompose", str(src), "--method", "rid"],
            ["decompose", str(src)],
            ["benchmark", str(src)],
            # an input that would fail to load shows the check comes first
            ["decompose", str(absent), "--method", "rid"],
            ["benchmark", str(absent)],
        ]
        for case, argv in enumerate(cases):
            out = tmp_path / f"o{case}"
            capsys.readouterr()
            assert main([*argv, "--out", str(out), "--k", "2", *flags]) == 2, argv
            assert capsys.readouterr().err.startswith("error: config: "), argv
            assert not out.exists(), argv

    @pytest.mark.parametrize("oversample", ["0.5", "nan", "inf"])
    def test_oversample_checked_before_input_is_read(self, tmp_path, capsys, oversample):
        src = _synth(tmp_path)
        absent = tmp_path / "absent.csv"
        cases = [
            ["decompose", str(src), "--method", "rid"],
            ["benchmark", str(src)],
            ["decompose", str(absent), "--method", "rid"],
            ["benchmark", str(absent)],
        ]
        for case, argv in enumerate(cases):
            out = tmp_path / f"o{case}"
            capsys.readouterr()
            assert main([*argv, "--out", str(out), "--k", "2", "--oversample", oversample,
                         "--iterations", "20", "--burn-in", "5"]) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: config: ") and err.count("\n") == 1, (argv, err)
            assert not out.exists(), argv

    # numpy warnings would reach stderr only outside pytest's warning capture,
    # so these three run the CLI as a process
    def test_undo_log_overflow_prints_one_error_line(self, tmp_path):
        src = tmp_path / "big.csv"
        src.write_text("1000,1,2\n3,4,5\n6,7,8\n")
        out = tmp_path / "o"
        proc = _run_process("decompose", str(src), "--out", str(out), "--method", "rid",
                            "--k", "1", "--undo-log", "--no-cap")
        assert proc.returncode == 3
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("error: input: preprocessing produced non-finite values")
        assert not out.exists()

    def test_overflowing_gibbs_start_prints_one_error_line(self, tmp_path):
        src = tmp_path / "huge.csv"
        huge = np.random.default_rng(53).normal(size=(12, 9)) * 2.0**700
        save_matrix(src, ObservedMatrix.fully_observed(huge))
        out = tmp_path / "o"
        proc = _run_process("decompose", str(src), "--out", str(out), "--method", "gbt", "--k", "4",
                            "--iterations", "10", "--burn-in", "2", "--no-cap", "--no-standardize")
        assert proc.returncode == 4
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("error: numerical: squared column norms overflow")
        assert not out.exists()

    def test_column_without_observed_entries_prints_nothing_on_stderr(self, tmp_path):
        src = tmp_path / "gap.csv"
        src.write_text("1,,2\n3,,5\n6,,9\n4,,1\n")
        out = tmp_path / "o"
        proc = _run_process("decompose", str(src), "--out", str(out), "--method", "rid",
                            "--k", "1", "--min-observed", "0")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert load_matrix(out / "C.csv").shape == (4, 1)

    def test_missing_input_exits_3(self, tmp_path):
        assert main([
            "decompose", str(tmp_path / "absent.csv"), str(tmp_path / "o"), "--k", "2",
        ]) == 3

    @pytest.mark.parametrize("command", ["decompose", "benchmark"])
    def test_failed_input_removes_created_output_dirs(self, tmp_path, capsys, command):
        out = tmp_path / "o" / "run"
        assert main([command, str(tmp_path / "absent.csv"), "--out", str(out), "--k", "2"]) == 3
        assert capsys.readouterr().err.startswith("error: input: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("method", ["gbt", "rid"])
    def test_failed_decomposition_removes_created_output_dirs(self, tmp_path, capsys, method):
        src = _synth(tmp_path, cols=20)
        out = tmp_path / "out" / "deep"
        assert main(["decompose", str(src), "--out", str(out), "--method", method, "--k", "500"]) == 2
        assert capsys.readouterr().err.startswith("error: config: ")
        assert not (tmp_path / "out").exists()

    def test_failed_input_keeps_existing_dirs(self, tmp_path):
        absent = str(tmp_path / "absent.csv")
        keep = tmp_path / "keep"
        keep.mkdir()
        assert main(["decompose", absent, "--out", str(keep / "a" / "b"), "--k", "2"]) == 3
        assert keep.is_dir() and not (keep / "a").exists()
        assert main(["decompose", absent, "--out", str(keep), "--k", "2"]) == 3
        assert keep.is_dir()

    def test_make_output_dir_reports_what_it_created(self, tmp_path):
        a = tmp_path / "a"
        a.mkdir()
        assert make_output_dir(a / "b" / "c") == [a / "b" / "c", a / "b"]
        assert make_output_dir(a / "b") == []
        (a / "b" / "note.txt").write_text("keep\n")
        remove_empty_dirs([a / "b" / "c", a / "b", a])
        # removal stops at the first directory that is not empty
        assert not (a / "b" / "c").exists()
        assert (a / "b" / "note.txt").read_text() == "keep\n"

    def test_malformed_trace_exits_3(self, tmp_path, capsys):
        p = tmp_path / "trace.csv"
        p.write_text("step,loss\n1,2\n")
        assert main(["diagnose", str(p)]) == 3
        assert "error: input:" in capsys.readouterr().err

    def test_diagnose_flag_validation(self, tmp_path):
        p = tmp_path / "trace.csv"
        p.write_text("iteration,mse,mse_observed,sigma2,y_r0_c0\n1,1,1,1,0.5\n")
        assert main(["diagnose", str(p), "--burn-in", "-1"]) == 2
        assert main(["diagnose", str(p), "--max-lag", "0"]) == 2

    @pytest.mark.parametrize("argv, reason", [
        (["decompose", "{dir}", "--out", "{tmp}/o", "--k", "2"], "Is a directory"),
        (["diagnose", "{dir}"], "Is a directory"),
        (["decompose", "{tmp}/latin1.csv", "--out", "{tmp}/o", "--k", "2"], "not UTF-8"),
        (["decompose", "{tmp}/latin1.mtx", "--out", "{tmp}/o", "--k", "2"], "not UTF-8"),
        (["diagnose", "{tmp}/latin1.csv"], "not UTF-8"),
    ], ids=["decompose-dir", "diagnose-dir", "csv-not-utf8", "mtx-not-utf8", "trace-not-utf8"])
    def test_unreadable_input_exits_3(self, tmp_path, capsys, argv, reason):
        (tmp_path / "dir").mkdir()
        (tmp_path / "latin1.csv").write_bytes("1,2\n3,4\nm\u00e9,5\n".encode("latin-1"))
        (tmp_path / "latin1.mtx").write_bytes(
            "%%MatrixMarket matrix coordinate real general\n% caf\u00e9\n1 1 1\n1 1 2\n".encode("latin-1")
        )
        argv = [a.format(tmp=tmp_path, dir=tmp_path / "dir") for a in argv]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: input: ") and err.count("\n") == 1, err
        assert reason in err

    @pytest.mark.parametrize("argv", [
        ["decompose", "{src}", "--out", "{file}", "--k", "2", "--iterations", "20", "--burn-in", "2"],
        ["decompose", "{src}", "--out", "{file}", "--k", "2", "--method", "rid"],
        ["benchmark", "{src}", "--out", "{file}", "--k", "2", "--iterations", "20", "--burn-in", "2"],
        ["diagnose", "{trace}", "--out", "{file}"],
        ["synth", "--out", "{file}/m.csv", "--rows", "5", "--cols", "4", "--rank", "2"],
    ], ids=["decompose", "decompose-rid", "benchmark", "diagnose", "synth"])
    def test_output_under_a_file_exits_2(self, tmp_path, capsys, argv):
        src = _synth(tmp_path)
        trace = tmp_path / "trace.csv"
        _write_trace(trace, np.full(30, 0.5), {(0, 0): np.linspace(0.0, 1.0, 30)})
        file = tmp_path / "file"
        file.write_text("keep\n")
        argv = [a.format(src=src, trace=trace, file=file) for a in argv]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: ") and err.count("\n") == 1, err
        assert file.read_text() == "keep\n"

    @pytest.mark.parametrize("command", ["decompose", "benchmark"])
    def test_output_checked_before_input_is_read(self, tmp_path, capsys, monkeypatch, command):
        src = _synth(tmp_path)
        file = tmp_path / "file"
        file.write_text("keep\n")

        def unreachable(*args, **kwargs):
            raise AssertionError("reached before the output directory was created")

        monkeypatch.setattr(cli, "load_matrix", unreachable)
        monkeypatch.setattr(cli, "_decompose", unreachable)
        capsys.readouterr()
        assert main([command, str(src), "--out", str(file), "--k", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: ") and err.count("\n") == 1, err
        assert file.read_text() == "keep\n"


class TestBenchmark:
    def test_per_cell_errors_do_not_abort(self, tmp_path):
        src = _synth(tmp_path)
        out = tmp_path / "bench"
        code = main([
            "benchmark", str(src), str(out), "--k", "2", "--k", "999",
            "--iterations", "20", "--burn-in", "5", "--thinning", "2",
        ])
        assert code == 0
        with open(out / "benchmark.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "method", "mse", "mse_observed", "max_abs_w", "magnitude_excess", "status"]
        # an error message holding a comma stays one quoted field
        assert [len(row) for row in rows] == [7] * 5
        by_key = {(row[0], row[1]): row for row in rows[1:]}
        assert by_key[("2", "gbt")][-1] == "ok"
        assert float(by_key[("2", "gbt")][5]) == 0.0  # weights stay bounded
        assert by_key[("999", "gbt")][2] == ""  # failed cell keeps numerics empty
        # both methods report the one k-range check in the same words
        assert by_key[("999", "gbt")][-1] == "config: k must lie in [1, 20], got 999"
        assert by_key[("999", "rid")][-1] == "config: k must lie in [1, 20], got 999"
        timing_lines = (out / "timings.csv").read_text().strip().splitlines()
        assert timing_lines[0] == "k,method,seconds"
        assert len(timing_lines) == 5

    def test_benchmark_csv_deterministic(self, tmp_path):
        src = _synth(tmp_path)
        o1, o2 = tmp_path / "b1", tmp_path / "b2"
        argv = ["benchmark", str(src), "--k", "2", "--iterations", "15",
                "--burn-in", "3", "--thinning", "2"]
        assert main(argv + [str(o1)][:0] + ["--out", str(o1)]) == 0
        assert main(argv + ["--out", str(o2)]) == 0
        assert (o1 / "benchmark.csv").read_bytes() == (o2 / "benchmark.csv").read_bytes()
        # the cells come from the decompose path: rid's single-pass loss and
        # gbt's posterior mean loss
        cells = [line.split(",") for line in (o1 / "benchmark.csv").read_text().splitlines()[1:]]
        by_method = {row[1]: float(row[2]) for row in cells}
        for method, key in (("rid", "mse"), ("gbt", "mse_posterior_mean")):
            out = tmp_path / f"dec_{method}"
            assert main(["decompose", str(src), str(out), "--method", method, *argv[2:]]) == 0
            meta = json.loads((out / "metadata.json").read_text())
            assert meta[key] == by_method[method], method


def _write_trace(path, mse, probes):
    names = [f"y_r{k}_c{l}" for k, l in sorted(probes)]
    chains = [probes[key] for key in sorted(probes)]
    lines = ["iteration,mse,mse_observed,sigma2," + ",".join(names)]
    for t in range(len(mse)):
        row = [str(t + 1), "%.17g" % mse[t], "%.17g" % mse[t], "0.01"]
        row += ["%.17g" % chain[t] for chain in chains]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


class TestDiagnose:
    def test_report_on_real_trace(self, tmp_path, capsys):
        src = _synth(tmp_path)
        run_out = tmp_path / "run"
        assert main([
            "decompose", str(src), str(run_out), "--k", "3",
            "--iterations", "40", "--burn-in", "10", "--thinning", "2",
        ]) == 0
        diag_out = tmp_path / "diag"
        capsys.readouterr()
        code = main([
            "diagnose", str(run_out / "trace.csv"), "--out", str(diag_out),
            "--burn-in", "10",
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "iterations=40" in stdout
        meta = json.loads((run_out / "metadata.json").read_text())
        assert f"mixing={meta['mixing']}" in stdout.splitlines()
        report = (diag_out / "report.txt").read_text()
        assert report.splitlines()[0] == "iterations=40"
        auto = (diag_out / "autocorrelation.csv").read_text().splitlines()
        assert auto[0].startswith("lag,y_r")

    def test_burn_in_past_the_end_of_the_trace(self, tmp_path, capsys):
        src = _synth(tmp_path)
        run_out = tmp_path / "run"
        assert main([
            "decompose", str(src), str(run_out), "--k", "3",
            "--iterations", "40", "--burn-in", "10", "--thinning", "2",
        ]) == 0
        capsys.readouterr()
        assert main(["diagnose", str(run_out / "trace.csv"), "--burn-in", "100"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "iterations=40" in lines
        report = build_run_report(read_trace_csv(run_out / "trace.csv"), 100, 1)
        assert f"mixing={report.mixing}" in lines
        # one kept value leaves no lag to estimate
        assert "mixing=degenerate" in lines

    def test_constant_probe_reported_degenerate(self, tmp_path, capsys):
        rng = np.random.default_rng(163)
        mse = np.full(60, 0.5)
        probes = {(0, 0): np.full(60, 0.25), (1, 1): rng.uniform(-1, 1, size=60)}
        p = tmp_path / "trace.csv"
        _write_trace(p, mse, probes)
        assert main(["diagnose", str(p)]) == 0
        out = capsys.readouterr().out
        assert "probe_y_r0_c0=degenerate" in out
        assert "mixing=degenerate" in out

    def test_white_noise_probes_mix_well(self, tmp_path, capsys):
        rng = np.random.default_rng(167)
        mse = np.full(2000, 0.5)
        probes = {
            (0, 0): rng.uniform(-1, 1, size=2000),
            (2, 3): rng.uniform(-1, 1, size=2000),
        }
        p = tmp_path / "trace.csv"
        _write_trace(p, mse, probes)
        assert main(["diagnose", str(p)]) == 0
        assert "mixing=good" in capsys.readouterr().out

    def test_plateau_iteration_reported(self, tmp_path, capsys):
        t = np.arange(60)
        mse = 2.0 ** -np.minimum(t, 29)
        probes = {(0, 0): np.random.default_rng(173).uniform(-1, 1, size=60)}
        p = tmp_path / "trace.csv"
        _write_trace(p, mse, probes)
        assert main(["diagnose", str(p)]) == 0
        assert "iterations_to_plateau=30" in capsys.readouterr().out
