"""End-to-end command line behavior, exercised in process via main(argv)."""

import json

import numpy as np
import numpy.testing as npt
import pytest

from bayesid.cli import main
from bayesid.io import load_matrix
from bayesid.linalg import cpqr, numerical_rank


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
        assert numerical_rank(cpqr(data.values).r) == 5
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

    def test_aggressive_flag_renames_method(self, tmp_path):
        src = _synth(tmp_path)
        out = tmp_path / "ag_out"
        assert self._run(src, out, "--aggressive") == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["method"] == "gbt-aggressive"

    def test_hierarchical_method_runs(self, tmp_path):
        src = _synth(tmp_path)
        out = tmp_path / "gbtn_out"
        assert self._run(src, out, "--method", "gbtn") == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["method"] == "gbtn"
        assert meta["magnitude_excess"] == 0.0


class TestErrorExits:
    def test_config_errors_exit_2(self, tmp_path, capsys):
        src = _synth(tmp_path)
        cases = [
            ["decompose", str(src), str(tmp_path / "o"), "--k", "0"],
            ["decompose", str(src), str(tmp_path / "o"), "--k", "2", "--method", "rid",
             "--aggressive"],
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

    def test_missing_input_exits_3(self, tmp_path):
        assert main([
            "decompose", str(tmp_path / "absent.csv"), str(tmp_path / "o"), "--k", "2",
        ]) == 3

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


class TestBenchmark:
    def test_per_cell_errors_do_not_abort(self, tmp_path):
        src = _synth(tmp_path)
        out = tmp_path / "bench"
        code = main([
            "benchmark", str(src), str(out), "--k", "2", "--k", "999",
            "--iterations", "20", "--burn-in", "5", "--thinning", "2",
        ])
        assert code == 0
        lines = (out / "benchmark.csv").read_text().strip().splitlines()
        assert lines[0] == "k,method,mse,mse_observed,max_abs_w,magnitude_excess,status"
        assert len(lines) == 5
        cells = [line.split(",") for line in lines[1:]]
        by_key = {(row[0], row[1]): row for row in cells}
        assert by_key[("2", "gbt")][-1] == "ok"
        assert float(by_key[("2", "gbt")][5]) == 0.0  # weights stay bounded
        assert by_key[("999", "gbt")][2] == ""  # failed cell keeps numerics empty
        assert "config" in ",".join(by_key[("999", "gbt")])
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
