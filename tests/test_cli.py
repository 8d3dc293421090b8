"""End-to-end command-line workflows on small problem sizes."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from narxmpc import Dataset, run_benchmark, wendland_phi
import narxmpc.mpc
from narxmpc.bench import GROWTH_HORIZON, GROWTH_STATES, bundle_digests
from narxmpc.cli import build_parser, main
from narxmpc.fileio import load_model, read_csv, sha256_file, save_dataset

H1_EQ = 0.04377874810998076


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared directory with a small generated dataset and a fitted model."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["generate", "--D", "21", "--out", str(root)]) == 0
    assert main(
        ["fit", "--data", str(root / "dataset_D21.csv"), "--out", str(root)]
    ) == 0
    return root


class TestParsing:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "narxmpc" in capsys.readouterr().out

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(
            ["generate", "--config", str(tmp_path / "absent.txt"), "--out", str(tmp_path)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "absent.txt" in err

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "cfg.txt"
        config.write_text("volume = 11\n")
        code = main(["generate", "--config", str(config), "--out", str(tmp_path)])
        assert code == 1
        assert "accepted keys" in capsys.readouterr().err

    def test_invalid_config_value(self, tmp_path, capsys):
        config = tmp_path / "cfg.txt"
        config.write_text("D = 0\n")
        code = main(["generate", "--config", str(config), "--out", str(tmp_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err


    def test_growth_grid_defaults_agree(self):
        parser = build_parser()
        certify = parser.parse_args(["certify", "--model", "m.csv", "--trace", "t.csv"])
        benchmark = parser.parse_args(["benchmark"])
        for args in (certify, benchmark):
            assert (args.b_states, args.b_horizon) == (GROWTH_STATES, GROWTH_HORIZON)


class TestGenerate:
    def test_artifacts_and_manifest(self, workspace):
        assert (workspace / "dataset_D21.csv").exists()
        assert (workspace / "dataset_D21.csv.meta").exists()
        manifest = json.loads((workspace / "manifest.json").read_text())
        # the fit command overwrote the manifest; re-run generate to check it
        assert manifest["version"]

    def test_deterministic_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["generate", "--D", "15", "--out", str(a)]) == 0
        assert main(["generate", "--D", "15", "--out", str(b)]) == 0
        assert sha256_file(a / "dataset_D15.csv") == sha256_file(b / "dataset_D15.csv")
        manifest = json.loads((a / "manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["config"]["d"] == 15
        assert set(manifest["outputs"]) == {"dataset_D15.csv", "dataset_D15.csv.meta"}

    def test_seed_changes_sites(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["generate", "--D", "15", "--out", str(a)]) == 0
        assert main(["generate", "--D", "15", "--seed", "9", "--out", str(b)]) == 0
        assert sha256_file(a / "dataset_D15.csv") != sha256_file(b / "dataset_D15.csv")


class TestFit:
    def test_single_site_model(self, cfg, tmp_path):
        site = np.array([[0.1, 0.2, 0.05, 0.3]])
        data = Dataset(
            sites=site,
            targets=np.array([[0.7]]),
            dims=cfg.dims,
            normalization=cfg.normalization(),
        )
        data_path = tmp_path / "one.csv"
        save_dataset(data, data_path)
        assert main(["fit", "--data", str(data_path), "--out", str(tmp_path)]) == 0
        model = load_model(tmp_path / "model.csv")
        assert_allclose(model.coefficients, [[30.0 * 0.7]], rtol=1e-10)
        probe = site[0] + np.array([0.5, 0.0, 0.0, 0.0])
        expected = 0.7 * float(wendland_phi(np.array(0.5))) * 30.0
        assert model.predict_batch(probe)[0, 0] == pytest.approx(expected, rel=1e-10)
        report = (tmp_path / "fit_report.txt").read_text()
        assert "site_residual" in report

    def test_corrupt_dataset_reports_line(self, workspace, tmp_path, capsys):
        bad = tmp_path / "dataset.csv"
        lines = (workspace / "dataset_D21.csv").read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]
        bad.write_text("\n".join(lines) + "\n")
        meta = (workspace / "dataset_D21.csv.meta").read_text()
        (tmp_path / "dataset.csv.meta").write_text(meta)
        code = main(["fit", "--data", str(bad), "--out", str(tmp_path)])
        assert code == 1
        assert ":3:" in capsys.readouterr().err

    def test_missing_dataset(self, tmp_path, capsys):
        code = main(
            ["fit", "--data", str(tmp_path / "none.csv"), "--out", str(tmp_path)]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestSimulate:
    def test_zero_steps_header_only(self, workspace, tmp_path):
        code = main(
            [
                "simulate",
                "--model", str(workspace / "model.csv"),
                "--steps", "0",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        for name in ("trace_norm.csv", "trace_raw.csv"):
            text = (tmp_path / name).read_text()
            assert text.count("\n") == 1

    def test_short_run_writes_trace(self, workspace, tmp_path):
        code = main(
            [
                "simulate",
                "--model", str(workspace / "model.csv"),
                "--steps", "2",
                "--horizon", "5",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        header, table = read_csv(tmp_path / "trace_norm.csv")
        assert table.shape[0] == 3
        assert header[0] == "k"
        _, raw = read_csv(tmp_path / "trace_raw.csv")
        # the raw trace reports physical levels near the starting record
        assert 0.1 < raw[0, 1] < 0.3


    def test_failed_step_exits_1(self, workspace, tmp_path, capsys, monkeypatch):
        real_solve = narxmpc.mpc.solve_ocp
        calls = []

        def solve_failing_at_step_1(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise narxmpc.mpc.SolverError("injected failure")
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(narxmpc.mpc, "solve_ocp", solve_failing_at_step_1)
        code = main(
            [
                "simulate",
                "--model", str(workspace / "model.csv"),
                "--steps", "4",
                "--horizon", "5",
                "--out", str(tmp_path),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "failed at step 1" in err
        assert "injected failure" in err
        _, table = read_csv(tmp_path / "trace_norm.csv")
        assert table.shape[0] == 2
        assert (tmp_path / "trace_raw.csv").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert set(manifest["outputs"]) == {"trace_norm.csv", "trace_raw.csv"}


class TestCertify:
    def _simulate(self, workspace, out, config=None, steps="2"):
        argv = [
            "simulate",
            "--model", str(workspace / "model.csv"),
            "--steps", steps,
            "--out", str(out),
        ]
        if config is not None:
            argv += ["--config", str(config)]
        assert main(argv) == 0

    def test_equilibrium_start_certifies(self, workspace, tmp_path, capsys):
        config = tmp_path / "cfg.txt"
        config.write_text(f"h0 = {H1_EQ!r}\n")
        self._simulate(workspace, tmp_path, config=config, steps="3")
        code = main(
            [
                "certify",
                "--config", str(config),
                "--model", str(workspace / "model.csv"),
                "--trace", str(tmp_path / "trace_norm.csv"),
                "--b-states", "6",
                "--b-horizon", "2",
                "--out", str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "at_equilibrium" in out
        assert (tmp_path / "stability_report.txt").exists()
        assert (tmp_path / "stability_steps.csv").exists()

    def test_rigged_trace_fails_with_exit_2(self, workspace, tmp_path, capsys):
        self._simulate(workspace, tmp_path, steps="2")
        trace_path = tmp_path / "trace_norm.csv"
        lines = trace_path.read_text().splitlines()
        v_col = 7
        for row, v in zip((1, 2, 3), (1.0, 2.0, 3.0)):
            fields = lines[row].split(",")
            fields[v_col] = repr(v)
            lines[row] = ",".join(fields)
        trace_path.write_text("\n".join(lines) + "\n")
        code = main(
            [
                "certify",
                "--model", str(workspace / "model.csv"),
                "--trace", str(trace_path),
                "--b-states", "6",
                "--b-horizon", "2",
                "--out", str(tmp_path),
            ]
        )
        assert code == 2
        assert "decrease_violated" in capsys.readouterr().out


class TestBenchmark:
    def test_single_arm_cli(self, tmp_path, capsys):
        config = tmp_path / "cfg.txt"
        config.write_text("steps = 12\n")
        out = tmp_path / "bundle"
        code = main(
            [
                "benchmark",
                "--config", str(config),
                "--only-D", "101",
                "--b-states", "10",
                "--b-horizon", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert "D=101: decrease_verified" in capsys.readouterr().out
        header, table = read_csv(out / "comparison.csv")
        assert header == ["k", "y_D101", "err_D101"]
        assert table.shape[0] == 13
        for name in (
            "dataset_D101.csv",
            "model_D101.csv",
            "fit_report_D101.txt",
            "trace_norm_D101.csv",
            "trace_raw_D101.csv",
            "stability_report_D101.txt",
            "stability_steps_D101.csv",
            "manifest.json",
        ):
            assert (out / name).exists(), name

    def test_bundle_determinism(self, cfg, tmp_path):
        small = replace(cfg, steps=6, horizon=5)
        a, b = tmp_path / "a", tmp_path / "b"
        run_benchmark(small, out_dir=a, sizes=(11,), b_states=5, b_horizon=2)
        run_benchmark(small, out_dir=b, sizes=(11,), b_states=5, b_horizon=2)
        assert bundle_digests(a) == bundle_digests(b)
