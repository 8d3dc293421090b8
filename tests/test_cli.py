"""End-to-end command-line workflows on small problem sizes."""

from __future__ import annotations

import json
import re
import resource
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from narxmpc import BenchmarkConfig, Dataset, SolverConfig, run_benchmark, wendland_phi
import narxmpc.bench
import narxmpc.cli
import narxmpc.fileio
import narxmpc.mpc
import narxmpc.twotank
from narxmpc.bench import GROWTH_HORIZON, GROWTH_STATES, bundle_digests
from narxmpc.cli import build_parser, main
from narxmpc.fileio import (
    CONFIG_KEYS,
    ConfigError,
    load_model,
    load_trace,
    read_csv,
    read_keyvalues,
    sha256_file,
    save_dataset,
)
from oracles import quiet

H1_EQ = 0.04377874810998076

#: Runs ``main`` on its arguments in a fresh interpreter: ``-c`` source,
#: then the package's ``src`` and the arguments.
_FRESH_MAIN = "import sys; sys.path.insert(0, sys.argv[1]); from narxmpc.cli import main; sys.exit(main(sys.argv[2:]))"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared directory with a small generated dataset and a fitted model."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["generate", "--D", "21", "--out", str(root)]) == 0
    assert main(
        ["fit", "--data", str(root / "dataset_D21.csv"), "--out", str(root)]
    ) == 0
    return root


def _old_raw_trace(out: Path) -> Path:
    """``out/trace_raw.csv``, as older versions of ``simulate`` wrote it
    beside ``out/trace_norm.csv``: a table with the normalized trace's
    header, whose sidecar records ``units = raw``."""
    raw = out / "trace_raw.csv"
    raw.write_text((out / "trace_norm.csv").read_text())
    meta = (out / "trace_norm.csv.meta").read_text()
    assert "units = normalized\n" in meta
    (out / "trace_raw.csv.meta").write_text(meta.replace("units = normalized\n", "units = raw\n"))
    return raw


class TestParsing:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "narxmpc" in capsys.readouterr().out

    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--help"])
        assert exc.value.code == 0
        assert "--b-states" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["certify", "benchmark"])
    def test_help_says_the_horizon_flag_is_not_a_plant_guarantee(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "condition on the surrogate, not a guarantee for the plant" in text

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--trace", "x.csv"],
            ["certify", "--model", "m.csv", "--trace", "t.csv", "--b-states", "abc"],
        ],
    )
    def test_usage_errors_exit_1(self, argv, capsys):
        # Status 2 is reserved for a failed certification verdict.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err

    def test_repeated_config_key(self, tmp_path, capsys):
        config = tmp_path / "cfg.txt"
        config.write_text("D = 21\n# comment\nD = 31\n")
        code = main(["generate", "--config", str(config), "--out", str(tmp_path)])
        assert code == 1
        assert "cfg.txt:3: key 'D' repeats line 1" in capsys.readouterr().err
        assert not list(tmp_path.glob("dataset_*.csv"))

    @pytest.mark.parametrize("key", sorted(k for k, (_, cast) in CONFIG_KEYS.items() if cast is float))
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_config_values(self, workspace, key, bad, tmp_path, capsys):
        config = tmp_path / "cfg.txt"
        config.write_text(f"{key} = {bad}\n")
        common = ["--config", str(config), "--out", str(tmp_path)]
        for argv in (
            ["generate", "--D", "21", *common],
            ["simulate", "--model", str(workspace / "model.csv"), "--steps", "2", *common],
        ):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "must be finite" in err
            assert "Traceback" not in err

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

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("Q = -1", "q_weight must be positive, got -1.0 (config key Q)"),
            ("R = 0", "r_weight must be positive, got 0.0 (config key R)"),
            ("D = 0", "d must be at least 1, got 0 (config key D)"),
            ("N = 0", "horizon must be at least 1, got 0 (config key N)"),
            ("seed = -3", "seed must be nonnegative, got -3"),
            ("dt = -1", "dt must be positive, got -1.0"),
        ],
    )
    def test_config_errors_name_the_key(self, tmp_path, capsys, entry, message):
        config = tmp_path / "cfg.txt"
        config.write_text(f"{entry}\n")
        code = main(["generate", "--config", str(config), "--out", str(tmp_path)])
        assert code == 1
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not list(tmp_path.glob("dataset_*.csv"))

    def test_unsupported_lag_depth_is_an_error(self, tmp_path, capsys):
        config = tmp_path / "cfg.txt"
        config.write_text("nu = 3\n")
        code = main(["generate", "--config", str(config), "--out", str(tmp_path)])
        assert code == 1
        assert "unknown config key 'nu'" in capsys.readouterr().err

    def test_jitter_key_is_an_error(self, tmp_path, capsys):
        """The fit has no regularization, so a configuration may not set one,
        not even to 0."""
        config = tmp_path / "cfg.txt"
        config.write_text("jitter = 0\n")
        code = main(["generate", "--config", str(config), "--out", str(tmp_path)])
        assert code == 1
        assert "unknown config key 'jitter'" in capsys.readouterr().err
        assert not list(tmp_path.glob("dataset_*.csv"))

    def test_dataset_mode_key_is_an_error(self, tmp_path, capsys):
        config = tmp_path / "cfg.txt"
        config.write_text("mode = state_grid\n")
        code = main(["generate", "--config", str(config), "--out", str(tmp_path)])
        assert code == 1
        assert "unknown config key 'mode'" in capsys.readouterr().err
        assert not list(tmp_path.glob("dataset_*.csv"))

    def test_negative_pump_bound_is_an_error(self, tmp_path, capsys):
        config = tmp_path / "cfg.txt"
        config.write_text("u_lo = -2e-5\n")
        code = main(["generate", "--D", "21", "--config", str(config), "--out", str(tmp_path)])
        assert code == 1
        assert "u_lo must be nonnegative" in capsys.readouterr().err
        assert not list(tmp_path.glob("dataset_*.csv"))

    def test_main_acts_in_one_process_as_in_fresh_ones(self, tmp_path, capsys):
        """``main`` builds its parser once per process.  A usage error, a
        run and ``--version``, called in turn in one process, each give the
        exit code, output and files of a fresh process, and no value the
        first call parsed (``--D 15``, ``--seed 3``) reaches the run."""
        src = Path(narxmpc.bench.__file__).resolve().parents[1]
        calls = [
            ["generate", "--D", "15", "--seed", "3", "--out", "{out}", "--bogus"],
            ["generate", "--out", "{out}"],
            ["--version"],
        ]
        codes = []
        for argv in calls:
            try:
                code = main([arg.format(out=tmp_path / "here") for arg in argv])
            except SystemExit as exc:
                code = exc.code
            codes.append(code)
            fresh = [sys.executable, "-c", _FRESH_MAIN, str(src), *(arg.format(out=tmp_path / "fresh") for arg in argv)]
            proc = subprocess.run(fresh, capture_output=True, text=True, timeout=120)
            assert (code, *capsys.readouterr()) == (proc.returncode, proc.stdout, proc.stderr), argv
        assert codes == [1, 0, 0]
        written = sorted(path.name for path in (tmp_path / "here").iterdir())
        assert written == ["dataset_D101.csv", "dataset_D101.csv.meta", "manifest.json"]
        for name in written[:2]:
            assert sha256_file(tmp_path / "here" / name) == sha256_file(tmp_path / "fresh" / name)
        assert "seed = 0" in (tmp_path / "here" / "dataset_D101.csv.meta").read_text()
        # The parser main keeps still parses as a new one does.
        assert narxmpc.cli._parser().parse_args(["generate"]) == build_parser().parse_args(["generate"])

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

    def test_manifest_records_the_peak_rss(self, tmp_path):
        """Every command writes the process's ru_maxrss in MB, rounded to
        0.1, as perfbench reads it."""
        assert main(["generate", "--D", "15", "--out", str(tmp_path)]) == 0
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        peak = json.loads((tmp_path / "manifest.json").read_text())["peak_rss_mb"]
        assert isinstance(peak, float) and 0.0 < peak <= round(after, 1)
        assert peak == round(peak, 1)

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
        save_dataset(data, data_path, cfg, {})
        assert main(["fit", "--data", str(data_path), "--out", str(tmp_path)]) == 0
        model = load_model(tmp_path / "model.csv")
        assert_allclose(model.coefficients, [[30.0 * 0.7]], rtol=1e-10)
        probe = site[0] + np.array([0.5, 0.0, 0.0, 0.0])
        expected = 0.7 * float(wendland_phi(np.array(0.5))) * 30.0
        assert model.output(probe[:3], probe[3:])[0] == pytest.approx(expected, rel=1e-10)
        report = (tmp_path / "fit_report.txt").read_text()
        assert "site_residual" in report

    def test_jitter_flag_is_a_usage_error(self, workspace, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                ["fit", "--data", str(workspace / "dataset_D21.csv"), "--jitter", "1e-10", "--out", str(tmp_path)]
            )
        assert exc.value.code == 1
        assert "unrecognized arguments: --jitter 1e-10" in capsys.readouterr().err
        assert not (tmp_path / "model.csv").exists()

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

    def test_non_finite_dataset_is_rejected(self, workspace, tmp_path, capsys):
        bad = tmp_path / "dataset.csv"
        lines = (workspace / "dataset_D21.csv").read_text().splitlines()
        cells = lines[3].split(",")
        cells[1] = "nan"
        lines[3] = ",".join(cells)
        bad.write_text("\n".join(lines) + "\n")
        meta = (workspace / "dataset_D21.csv.meta").read_text()
        (tmp_path / "dataset.csv.meta").write_text(meta)
        code = main(["fit", "--data", str(bad), "--out", str(tmp_path)])
        assert code == 1
        assert "non-finite sites: 1 row(s) hold NaN or inf" in capsys.readouterr().err
        assert not (tmp_path / "model.csv").exists()

    def test_truncated_dataset_is_rejected(self, workspace, tmp_path, capsys):
        bad = tmp_path / "dataset.csv"
        lines = (workspace / "dataset_D21.csv").read_text().splitlines()
        bad.write_text("\n".join(lines[:-5]) + "\n")
        (tmp_path / "dataset.csv.meta").write_text((workspace / "dataset_D21.csv.meta").read_text())
        assert main(["fit", "--data", str(bad), "--out", str(tmp_path)]) == 1
        assert "dataset.csv: size = 21 but the table holds 16 rows" in capsys.readouterr().err
        assert not (tmp_path / "model.csv").exists()

    def test_dataset_in_other_coordinates_is_rejected(self, workspace, tmp_path, capsys):
        # The probes of the fill distance would be drawn in the config's
        # normalization and the sites in the dataset's.
        config = tmp_path / "cfg.txt"
        config.write_text("u_hi = 3e-5\n")
        data = str(workspace / "dataset_D21.csv")
        code = main(["fit", "--data", data, "--config", str(config), "--out", str(tmp_path)])
        assert code == 1
        assert "dataset_D21.csv: u_scale = " in capsys.readouterr().err
        assert not (tmp_path / "model.csv").exists()

    def test_sidecar_without_sample_time_is_rejected(self, workspace, tmp_path, capsys):
        data = tmp_path / "dataset.csv"
        data.write_text((workspace / "dataset_D21.csv").read_text())
        lines = (workspace / "dataset_D21.csv.meta").read_text().splitlines()
        kept = [line for line in lines if not line.startswith("dt =")]
        assert len(kept) == len(lines) - 1
        (tmp_path / "dataset.csv.meta").write_text("\n".join(kept) + "\n")
        code = main(["fit", "--data", str(data), "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "dataset.csv: dt = (not recorded) does not match the configuration's 10" in err
        assert not (tmp_path / "model.csv").exists()

    def test_missing_dataset(self, tmp_path, capsys):
        code = main(
            ["fit", "--data", str(tmp_path / "none.csv"), "--out", str(tmp_path)]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestSimulate:
    def test_model_in_other_coordinates_is_rejected(self, tmp_path, capsys):
        config = tmp_path / "cfg.txt"
        config.write_text("u_hi = 3e-5\n")
        common = ["--config", str(config), "--out", str(tmp_path)]
        model = str(tmp_path / "model.csv")
        # The chain under one configuration runs.
        assert main(["generate", "--D", "21", *common]) == 0
        assert main(["fit", "--data", str(tmp_path / "dataset_D21.csv"), *common]) == 0
        assert main(["simulate", "--model", model, "--steps", "2", *common]) == 0
        capsys.readouterr()
        out = ["--out", str(tmp_path / "default")]
        for argv in (
            ["simulate", "--model", model, "--steps", "2", *out],
            ["certify", "--model", model, "--trace", str(tmp_path / "trace_norm.csv"), *out],
        ):
            assert main(argv) == 1
            assert "model.csv: u_scale = " in capsys.readouterr().err
        assert not (tmp_path / "default").exists()

    def test_model_of_another_sample_time_is_rejected(self, tmp_path, capsys):
        config = tmp_path / "cfg.txt"
        config.write_text("dt = 5\n")
        common = ["--config", str(config), "--out", str(tmp_path)]
        dataset, model = str(tmp_path / "dataset_D21.csv"), str(tmp_path / "model.csv")
        assert main(["generate", "--D", "21", *common]) == 0
        assert main(["fit", "--data", dataset, *common]) == 0
        capsys.readouterr()
        default = ["--out", str(tmp_path / "default")]
        for argv, name in (
            (["simulate", "--model", model, "--steps", "2", *default], "model.csv"),
            (["fit", "--data", dataset, *default], "dataset_D21.csv"),
        ):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert f"{name}: dt = 5 does not match the configuration's 10" in err
        assert not (tmp_path / "default").exists()

    def test_malformed_sigma_names_the_file_and_the_entry(self, workspace, tmp_path, capsys):
        model = tmp_path / "model.csv"
        model.write_text((workspace / "model.csv").read_text())
        lines = (workspace / "model.csv.meta").read_text().splitlines()
        edited = ["sigma = abc" if line.startswith("sigma =") else line for line in lines]
        assert edited != lines
        model.with_suffix(".csv.meta").write_text("\n".join(edited) + "\n")
        code = main(["simulate", "--model", str(model), "--steps", "2", "--out", str(tmp_path / "out")])
        assert code == 1
        assert "model.csv: sigma: could not convert string to float: 'abc'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
        assert (tmp_path / "trace_norm.csv").read_text().count("\n") == 1

    def test_short_run_writes_trace(self, workspace, tmp_path):
        config = tmp_path / "cfg.txt"
        config.write_text("N = 5\n")
        code = main(
            [
                "simulate",
                "--config", str(config),
                "--model", str(workspace / "model.csv"),
                "--steps", "2",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        header, table = read_csv(tmp_path / "trace_norm.csv")
        assert table.shape[0] == 3
        assert header[0] == "k"
        cfg = BenchmarkConfig(horizon=5)
        trace = load_trace(tmp_path / "trace_norm.csv", cfg.dims, cfg.horizon, cfg.normalization())
        # In physical units the trace starts at levels near the starting record.
        raw = cfg.normalization().denormalize_state(trace.states, cfg.dims)
        assert 0.1 < raw[0, 0] < 0.3

    def test_manifest_records_the_run(self, workspace, tmp_path):
        config = tmp_path / "cfg.txt"
        config.write_text("N = 5\n")
        argv = ["simulate", "--config", str(config), "--model", str(workspace / "model.csv")]
        assert main([*argv, "--steps", "3", "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        stages = manifest["timings_s"]
        assert set(stages) == {"load", "closed_loop"}
        assert all(isinstance(t, float) and t >= 0.0 and t == round(t, 3) for t in stages.values())
        header, trace = read_csv(tmp_path / "trace_norm.csv")
        iters = trace[:, header.index("iters")]
        assert manifest["loop_iterations"] == int(iters.sum()) > 0
        capped = (trace[:, header.index("converged")] == 0) & (iters >= SolverConfig().max_iters)
        assert manifest["capped_solves"] == int(capped.sum())
        assert isinstance(manifest["loop_backtracks"], int) and manifest["loop_backtracks"] >= 0
        worst = trace[capped, header.index("grad_norm")]
        assert manifest["capped_max_grad_norm"] == (float(worst.max()) if worst.size else None)
        assert "grid_iterations" not in manifest

    def test_negative_start_level_is_an_error(self, workspace, tmp_path, capsys):
        config = tmp_path / "cfg.txt"
        config.write_text("h0 = -0.1\n")
        code = main(
            [
                "simulate",
                "--config", str(config),
                "--model", str(workspace / "model.csv"),
                "--steps", "2",
                "--out", str(tmp_path),
            ]
        )
        assert code == 1
        assert "error: h0 must lie in [0.0, 0.5], got -0.1" in capsys.readouterr().err

    def test_failed_step_exits_1(self, workspace, tmp_path, capsys, monkeypatch):
        real_solve = narxmpc.mpc.solve_ocp
        calls = []

        def solve_failing_at_step_1(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise narxmpc.mpc.SolverError("injected failure")
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(narxmpc.mpc, "solve_ocp", solve_failing_at_step_1)
        config = tmp_path / "cfg.txt"
        config.write_text("N = 5\n")
        code = main(
            [
                "simulate",
                "--config", str(config),
                "--model", str(workspace / "model.csv"),
                "--steps", "4",
                "--out", str(tmp_path),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "failed at step 1" in err
        assert "injected failure" in err
        _, table = read_csv(tmp_path / "trace_norm.csv")
        assert table.shape[0] == 2
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert set(manifest["outputs"]) == {"trace_norm.csv", "trace_norm.csv.meta"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.txt", "manifest.json", *manifest["outputs"]]


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

    def test_every_sidecar_is_checked_before_the_model_is_refit(self, workspace, tmp_path, capsys, monkeypatch):
        """``simulate`` and ``certify`` refuse a model or trace of another
        configuration, and ``certify`` an older version's raw trace, with exit
        code 1 before the model's refit runs."""
        self._simulate(workspace, tmp_path, steps="2")
        config = tmp_path / "cfg.txt"
        config.write_text("u_hi = 3e-5\n")
        fits = []
        monkeypatch.setattr(narxmpc.fileio, "fit_interpolant", lambda *args: fits.append(args))
        model, other, out = str(workspace / "model.csv"), ["--config", str(config)], ["--out", str(tmp_path / "out")]
        norm, raw = str(tmp_path / "trace_norm.csv"), str(_old_raw_trace(tmp_path))
        for argv, message in (
            (["simulate", "--model", model, "--steps", "2", *other, *out], "model.csv: u_scale = "),
            (["certify", "--model", model, "--trace", norm, *other, *out], "model.csv: u_scale = "),
            (["certify", "--model", model, "--trace", raw, *out], "trace_raw.csv: trace units = raw;"),
        ):
            assert main(argv) == 1, argv[0]
            assert message in capsys.readouterr().err
        assert fits == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("entry", ["N = 3", "Q = 5", "R = 1"])
    def test_trace_of_other_controller_settings_is_rejected(
        self, workspace, tmp_path, capsys, entry
    ):
        self._simulate(workspace, tmp_path, steps="2")
        config = tmp_path / "cfg.txt"
        config.write_text(f"{entry}\n")
        out = tmp_path / "certify"
        code = main(
            [
                "certify",
                "--config", str(config),
                "--model", str(workspace / "model.csv"),
                "--trace", str(tmp_path / "trace_norm.csv"),
                "--b-states", "2",
                "--b-horizon", "1",
                "--out", str(out),
            ]
        )
        assert code == 1
        key = entry.split(" = ")[0]
        assert f"trace_norm.csv: {key} = " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "entry, message",
        [("u_hi = 3e-5", "u_scale = "), ("dt = 5", "dt = 5 does not match")],
    )
    def test_trace_in_other_coordinates_is_rejected(
        self, workspace, tmp_path, capsys, entry, message
    ):
        # The trace comes from a chain under another configuration; the
        # model given to certify matches the default one.
        config = tmp_path / "cfg.txt"
        config.write_text(f"{entry}\n")
        common = ["--config", str(config), "--out", str(tmp_path)]
        assert main(["generate", "--D", "21", *common]) == 0
        assert main(["fit", "--data", str(tmp_path / "dataset_D21.csv"), *common]) == 0
        assert main(["simulate", "--model", str(tmp_path / "model.csv"), "--steps", "2", *common]) == 0
        capsys.readouterr()
        out = tmp_path / "certify"
        code = main(
            [
                "certify",
                "--model", str(workspace / "model.csv"),
                "--trace", str(tmp_path / "trace_norm.csv"),
                "--b-states", "2",
                "--b-horizon", "1",
                "--out", str(out),
            ]
        )
        assert code == 1
        assert f"trace_norm.csv: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_trace_without_sidecar_is_rejected(self, workspace, tmp_path, capsys):
        self._simulate(workspace, tmp_path, steps="2")
        meta = read_keyvalues(tmp_path / "trace_norm.csv.meta")
        assert {key: meta[key] for key in ("format", "dt", "N", "Q", "R")} == {
            "format": "narxmpc-trace-v1", "dt": "10", "N": "20", "Q": "1",
            "R": "0.10000000000000001",
        }
        (tmp_path / "trace_norm.csv.meta").unlink()
        code = main(
            [
                "certify",
                "--model", str(workspace / "model.csv"),
                "--trace", str(tmp_path / "trace_norm.csv"),
                "--out", str(tmp_path),
            ]
        )
        assert code == 1
        assert "trace_norm.csv.meta" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "table, units",
        [("trace_raw.csv", "raw"), ("trace_norm.csv", "(not recorded)")],
    )
    def test_trace_not_in_normalized_units_is_rejected(self, workspace, tmp_path, capsys, table, units):
        """An older version's physical-unit table has the normalized table's
        header; its sidecar's ``units`` entry tells them apart, and a
        sidecar without the entry is rejected too."""
        self._simulate(workspace, tmp_path, steps="2")
        assert read_keyvalues(tmp_path / "trace_norm.csv.meta")["units"] == "normalized"
        _old_raw_trace(tmp_path)
        meta = tmp_path / f"{table}.meta"
        if units == "(not recorded)":
            lines = meta.read_text().splitlines()
            meta.write_text("".join(f"{line}\n" for line in lines if not line.startswith("units =")))
        capsys.readouterr()
        out = tmp_path / "certify"
        code = main(
            [
                "certify",
                "--model", str(workspace / "model.csv"),
                "--trace", str(tmp_path / table),
                "--b-states", "2",
                "--b-horizon", "1",
                "--out", str(out),
            ]
        )
        assert code == 1
        assert f"{table}: trace units = {units};" in capsys.readouterr().err
        assert not out.exists()

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

    def test_manifest_records_the_run(self, workspace, tmp_path):
        self._simulate(workspace, tmp_path, steps="3")
        code = main(
            [
                "certify",
                "--model", str(workspace / "model.csv"),
                "--trace", str(tmp_path / "trace_norm.csv"),
                "--b-states", "3",
                "--b-horizon", "2",
                "--out", str(tmp_path),
            ]
        )
        assert code in (0, 2)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        stages = manifest["timings_s"]
        assert set(stages) == {"load", "certify"}
        assert all(isinstance(t, float) and t >= 0.0 and t == round(t, 3) for t in stages.values())
        assert isinstance(manifest["grid_iterations"], int) and manifest["grid_iterations"] > 0
        report = read_keyvalues(tmp_path / "stability_report.txt")
        assert manifest["capped_solves"] == int(report["capped_solves"])
        assert isinstance(manifest["grid_backtracks"], int) and manifest["grid_backtracks"] >= 0
        assert (manifest["capped_max_grad_norm"] is None) == (manifest["capped_solves"] == 0)
        assert "loop_iterations" not in manifest

    def test_certify_reports_the_model_errors_but_no_bound(self, workspace, tmp_path):
        """``certify`` has the model and the trace but no error constants:
        its report carries ``trace_error_ratio`` and its steps file the
        one-step model errors, but no ``trace_bound_ratio`` or
        ``error_bound_on_trace``."""
        self._simulate(workspace, tmp_path, steps="3")
        argv = ["certify", "--model", str(workspace / "model.csv"), "--trace", str(tmp_path / "trace_norm.csv")]
        assert main([*argv, "--b-states", "2", "--b-horizon", "1", "--out", str(tmp_path)]) in (0, 2)
        report = read_keyvalues(tmp_path / "stability_report.txt")
        assert float(report["trace_error_ratio"]) > 0.0
        assert "trace_bound_ratio" not in report and "error_bound_on_trace" not in report
        header, steps = read_csv(tmp_path / "stability_steps.csv")
        errors = steps[:, header.index("model_error")]
        assert np.all(np.isfinite(errors[:-1]) & (errors[:-1] > 0.0)) and np.isnan(errors[-1])

    def test_horizon_comes_from_the_config(self, workspace, tmp_path):
        """simulate and certify read the horizon from the same config key,
        so the report judges the trace against the horizon that ran it."""
        model = str(workspace / "model.csv")
        config = tmp_path / "cfg.txt"
        config.write_text("N = 5\n")
        self._simulate(workspace, tmp_path, config=config, steps="3")
        code = main(
            [
                "certify",
                "--config", str(config),
                "--model", model,
                "--trace", str(tmp_path / "trace_norm.csv"),
                "--b-states", "2",
                "--b-horizon", "1",
                "--out", str(tmp_path),
            ]
        )
        assert code in (0, 2)
        report = read_keyvalues(tmp_path / "stability_report.txt")
        assert report["horizon"] == "5"
        assert report["horizon_sufficient"] == (
            "true" if 5 > float(report["min_horizon"]) else "false"
        )

    def test_zero_step_trace_is_an_error(self, workspace, tmp_path, capsys):
        self._simulate(workspace, tmp_path, steps="0")
        code = main(
            [
                "certify",
                "--model", str(workspace / "model.csv"),
                "--trace", str(tmp_path / "trace_norm.csv"),
                "--b-states", "2",
                "--b-horizon", "1",
                "--out", str(tmp_path),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no applied step" in err
        assert not (tmp_path / "stability_report.txt").exists()

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_empty_growth_grid_is_an_error(self, workspace, tmp_path, capsys, count):
        self._simulate(workspace, tmp_path, steps="2")
        code = main(
            [
                "certify",
                "--model", str(workspace / "model.csv"),
                "--trace", str(tmp_path / "trace_norm.csv"),
                "--b-states", count,
                "--out", str(tmp_path),
            ]
        )
        assert code == 1
        assert f"error: need at least one state, got count={count}" in capsys.readouterr().err

    def test_zero_step_trace_fails_before_the_grid(self, workspace, tmp_path, monkeypatch):
        self._simulate(workspace, tmp_path, steps="0")
        cfg = BenchmarkConfig(d=21)
        trace = load_trace(tmp_path / "trace_norm.csv", cfg.dims, cfg.horizon, cfg.normalization())

        def grid_must_not_run(*args, **kwargs):
            raise AssertionError("the growth-bound grid ran for a zero-step trace")

        monkeypatch.setattr(narxmpc.bench, "estimate_growth_bound", grid_must_not_run)
        with pytest.raises(ValueError, match="no applied step"):
            narxmpc.bench.certify_trace(cfg, load_model(workspace / "model.csv"), trace, GROWTH_STATES, GROWTH_HORIZON)

    def test_verbose_prints_the_growth_grid(self, workspace, tmp_path, capsys):
        self._simulate(workspace, tmp_path, steps="2")
        code = main(
            [
                "certify",
                "--model", str(workspace / "model.csv"),
                "--trace", str(tmp_path / "trace_norm.csv"),
                "--b-states", "3",
                "--b-horizon", "2",
                "--out", str(tmp_path),
                "--verbose",
            ]
        )
        assert code in (0, 2)
        assert "growth grid: 3 solves at N=2, 0 capped" in capsys.readouterr().err.splitlines()

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
        _, steps = read_csv(out / "stability_steps_D101.csv")
        assert steps.shape[0] == 13
        assert sorted(p.name for p in out.iterdir()) == [
            "fit_report_D101.txt",
            "manifest.json",
            "model_D101.csv",
            "model_D101.csv.meta",
            "stability_report_D101.txt",
            "stability_steps_D101.csv",
            "trace_norm_D101.csv",
            "trace_norm_D101.csv.meta",
        ]

    def test_failed_closed_loop_exits_1_and_writes_the_bundle(self, tmp_path, capsys, monkeypatch):
        real_output = narxmpc.twotank.TwoTankPlant.output
        calls = []

        def output_failing_at_call_5(self, x, u):
            calls.append(None)
            if len(calls) == 5:
                raise ValueError("injected plant fault")
            return real_output(self, x, u)

        monkeypatch.setattr(narxmpc.twotank.TwoTankPlant, "output", output_failing_at_call_5)
        config = tmp_path / "cfg.txt"
        config.write_text("steps = 12\n")
        out = tmp_path / "bundle"
        argv = ["--config", str(config), "--only-D", "101", "--b-states", "4", "--b-horizon", "2"]
        assert main(["benchmark", *argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "D=101: " in captured.out
        assert captured.err == (
            "error: D=101: closed loop failed at step 4: "
            "plant rejected the applied input: injected plant fault\n"
        )
        _, table = read_csv(out / "trace_norm_D101.csv")
        assert table.shape[0] == 5
        assert read_keyvalues(out / "stability_report_D101.txt")["steps"] == "4"
        assert "stability_report_D101.txt" in json.loads((out / "manifest.json").read_text())["outputs"]

    def test_verbose_prints_the_growth_grid(self, tmp_path, capsys):
        code = main(
            [
                "benchmark",
                "--only-D", "21",
                "--b-states", "2",
                "--b-horizon", "3",
                "--out", str(tmp_path / "bundle"),
                "--verbose",
            ]
        )
        assert code in (0, 2)
        assert "D=21: growth grid: 2 solves at N=3, 0 capped" in capsys.readouterr().err.splitlines()

    def test_manifest_records_stage_timings_and_solver_totals(self, tmp_path):
        config = tmp_path / "cfg.txt"
        config.write_text("steps = 6\n")
        out = tmp_path / "bundle"
        args = ["--config", str(config), "--only-D", "21", "--b-states", "3", "--b-horizon", "2"]
        assert main(["benchmark", *args, "--out", str(out)]) in (0, 2)
        record = json.loads((out / "manifest.json").read_text())["arms"]["D21"]
        assert set(record) == {
            "timings_s", "loop_iterations", "grid_iterations", "loop_backtracks", "grid_backtracks",
            "capped_solves", "capped_max_grad_norm",
        }
        stages = record["timings_s"]
        assert set(stages) == {"generate", "fit", "constants", "closed_loop", "certify"}
        assert all(isinstance(t, float) and t >= 0.0 for t in stages.values())
        header, trace = read_csv(out / "trace_norm_D21.csv")
        assert record["loop_iterations"] == int(trace[:, header.index("iters")].sum())
        assert isinstance(record["grid_iterations"], int) and record["grid_iterations"] > 0
        for key in ("loop_backtracks", "grid_backtracks"):
            assert isinstance(record[key], int) and record[key] >= 0
        report = read_keyvalues(out / "stability_report_D21.txt")
        assert record["capped_solves"] == int(report["capped_solves"])
        assert (record["capped_max_grad_norm"] is None) == (record["capped_solves"] == 0)
        # The record changes from run to run; the bundle digests leave it out.
        assert "manifest.json" not in bundle_digests(out)
        # The fit has no regularization setting to record.
        assert not [p.name for p in out.iterdir() if "jitter" in p.read_text() or "degraded" in p.read_text()]

    def test_manifest_lists_only_the_files_of_this_run(self, tmp_path):
        """A file that was in the output directory before the run, even
        one named like a bundle file of another size, is not an output."""
        config = tmp_path / "cfg.txt"
        config.write_text("steps = 6\n")
        out = tmp_path / "bundle"
        out.mkdir()
        (out / "old_notes.txt").write_text("notes\n")
        (out / "dataset_D2501.csv").write_text("stale\n")
        args = ["--config", str(config), "--only-D", "21", "--b-states", "2", "--b-horizon", "1"]
        assert main(["benchmark", *args, "--out", str(out)]) in (0, 2)
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        tables = [f"{stem}_D21.csv" for stem in ("model", "trace_norm")]
        assert sorted(outputs) == sorted(
            [
                *tables,
                *(f"{name}.meta" for name in tables),
                "fit_report_D21.txt",
                "stability_report_D21.txt",
                "stability_steps_D21.csv",
            ]
        )
        assert bundle_digests(out) == outputs == {name: sha256_file(out / name) for name in outputs}

    def test_arm_builds_its_start_state_once(self, monkeypatch):
        """The start state's hidden-level recovery runs once per arm."""
        real = BenchmarkConfig.initial_condition
        calls = []

        def counted(self):
            calls.append(self.d)
            return real(self)

        monkeypatch.setattr(BenchmarkConfig, "initial_condition", counted)
        narxmpc.bench.run_arm(BenchmarkConfig(steps=2), 21, b_states=2, b_horizon=1, progress=quiet)
        assert calls == [21]

    def test_repeated_size_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        argv = ["benchmark", "--only-D", "21", "31", "21", "--b-states", "2", "--b-horizon", "1"]
        assert main([*argv, "--out", str(out)]) == 1
        assert "error: dataset size 21 is given more than once" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--b-horizon", "0"], "b_horizon must be at least 1, got 0"),
            (["--b-states", "0"], "b_states must be at least 1, got 0"),
            (["--only-D", "101", "0"], "dataset size 0 is below 1"),
        ],
    )
    def test_invalid_sizes_fail_before_the_first_arm(self, tmp_path, capsys, monkeypatch, flags, message):
        def generate_must_not_run(*args, **kwargs):
            raise AssertionError("an arm ran before the sizes were checked")

        monkeypatch.setattr(narxmpc.bench, "generate_dataset", generate_must_not_run)
        out = tmp_path / "bundle"
        assert main(["benchmark", *flags, "--out", str(out)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_steps_is_an_error(self, tmp_path, capsys):
        config = tmp_path / "cfg.txt"
        config.write_text("steps = 0\n")
        code = main(
            [
                "benchmark",
                "--config", str(config),
                "--only-D", "21",
                "--b-states", "2",
                "--b-horizon", "1",
                "--out", str(tmp_path / "bundle"),
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "at_equilibrium" not in captured.out
        assert captured.err.startswith("error: ") and "no applied step" in captured.err

    def test_steps_hold_the_report_columns(self, cfg, tmp_path):
        """The steps file holds what the report computed, and the trace file
        what the loop recorded: the ``delta`` column is the step-to-step
        change of the trace file's ``Y``, and the ``model_error`` column
        holds the model errors behind the report's ``trace_bound_ratio``."""
        small = replace(cfg, steps=12)
        result = run_benchmark(small, out_dir=tmp_path, sizes=(101,), b_states=2, b_horizon=1, progress=quiet)
        trace_header, trace = read_csv(tmp_path / "trace_norm_D101.csv")
        steps_header, steps = read_csv(tmp_path / "stability_steps_D101.csv")
        assert steps_header == ["k", "state_norm", "error", "delta", "model_error"]
        assert_array_equal(steps[:-1, steps_header.index("delta")], np.diff(trace[:, trace_header.index("Y")]))
        assert np.isnan(steps[-1, steps_header.index("delta")])
        # The one-step model errors, which the report's ratios read.
        assert_array_equal(steps[:, steps_header.index("model_error")], result.arms[101].report.model_errors)
        report = read_keyvalues(tmp_path / "stability_report_D101.txt")
        assert float(report["trace_bound_ratio"]) == result.arms[101].report.trace_bound_ratio
        assert report["error_bound_on_trace"] == ("true" if result.arms[101].report.error_bound_on_trace else "false")

    def test_a_library_trace_is_loaded_under_its_own_horizon(self, cfg, tmp_path):
        """``load_trace`` checks the horizon, dimensions and normalization
        it is given against the trace's sidecar: the D=101 trace of a
        horizon-20 loop does not load as a horizon-3 trace, nor under
        another normalization."""
        run_benchmark(replace(cfg, steps=12), out_dir=tmp_path, sizes=(101,), b_states=2, b_horizon=1, progress=quiet)
        path = tmp_path / "trace_norm_D101.csv"
        assert load_trace(path, cfg.dims, cfg.horizon, cfg.normalization()).horizon == cfg.horizon
        with pytest.raises(ConfigError, match=r"trace_norm_D101\.csv: N = 20 does not match the configuration's 3$"):
            load_trace(path, cfg.dims, 3, cfg.normalization())
        with pytest.raises(ConfigError, match="u_scale = "):
            load_trace(path, cfg.dims, cfg.horizon, replace(cfg, u_hi=3e-5).normalization())

    def test_a_library_trace_is_certified_only_under_its_own_weights(self, cfg, tmp_path, monkeypatch):
        """A loaded trace carries the weights its sidecar records, and
        ``certify_trace`` under another ``Q`` or ``R`` raises in the words
        of a sidecar check before the growth grid runs; under its own
        weights it certifies."""
        run_benchmark(replace(cfg, steps=12), out_dir=tmp_path, sizes=(101,), b_states=2, b_horizon=1, progress=quiet)
        trace = load_trace(tmp_path / "trace_norm_D101.csv", cfg.dims, cfg.horizon, cfg.normalization())
        assert (trace.weights.Q.tolist(), trace.weights.R.tolist()) == ([[1.0]], [[0.1]])
        model = load_model(tmp_path / "model_D101.csv")
        grid = narxmpc.bench.estimate_growth_bound

        def grid_must_not_run(*args, **kwargs):
            raise AssertionError("the growth-bound grid ran under other weights")

        monkeypatch.setattr(narxmpc.bench, "estimate_growth_bound", grid_must_not_run)
        for other, message in (
            ({"q_weight": 5.0}, "trace: Q = 1 does not match the configuration's 5$"),
            ({"r_weight": 0.2}, "trace: R = 0.10000000000000001 does not match the configuration's 0.20000000000000001$"),
        ):
            with pytest.raises(ConfigError, match=message):
                narxmpc.bench.certify_trace(replace(cfg, **other), model, trace, b_states=2, b_horizon=1)
        monkeypatch.setattr(narxmpc.bench, "estimate_growth_bound", grid)
        assert narxmpc.bench.certify_trace(cfg, model, trace, b_states=2, b_horizon=1)[1].steps == 12

    def test_certify_trace_checks_every_entry_of_the_trace(self, cfg, fit_101, monkeypatch):
        """``certify_trace`` holds an in-memory trace to the rule ``save_trace``
        writes by: another horizon, other dimensions or another normalization
        raise before the growth grid runs."""
        _, model = fit_101
        trace = narxmpc.bench.simulate_loop(replace(cfg, steps=2), model)

        def grid_must_not_run(*args, **kwargs):
            raise AssertionError("the growth-bound grid ran for a trace of another configuration")

        monkeypatch.setattr(narxmpc.bench, "estimate_growth_bound", grid_must_not_run)
        deeper = replace(trace, dims=replace(trace.dims, nu=3))
        for other, bad, message in (
            ({"horizon": 3}, trace, "trace: N = 20 does not match the configuration's 3$"),
            ({}, deeper, "trace: nu = 3 does not match the configuration's 2$"),
            ({"u_hi": 3e-5}, trace, "trace: u_scale = "),
        ):
            with pytest.raises(ConfigError, match=message):
                narxmpc.bench.certify_trace(replace(cfg, **other), model, bad, b_states=2, b_horizon=1)

    def test_cli_chain_writes_the_bundle_files(self, tmp_path):
        """generate, fit, simulate and certify run the stages of benchmark:
        each writes the bytes of the matching bundle file.  The bundle holds
        no dataset: the generated one has the bundle model's sites and
        targets, bit for bit, the model sidecar's entries and the fit
        report's ``gen_*`` provenance.  certify has no error constants, so
        its report is the bundle's without the two lines that read them."""
        config = tmp_path / "cfg.txt"
        config.write_text("D = 21\nsteps = 4\n")
        grid = ["--b-states", "4", "--b-horizon", "2"]
        bundle, chain = tmp_path / "bundle", tmp_path / "chain"
        common = ["--config", str(config), "--out", str(chain)]
        model, trace = str(chain / "model.csv"), str(chain / "trace_norm.csv")
        for argv in (
            ["benchmark", "--config", str(config), "--only-D", "21", "--out", str(bundle), *grid],
            ["generate", *common],
            ["fit", *common, "--data", str(chain / "dataset_D21.csv")],
            ["simulate", *common, "--model", model],
            ["certify", *common, "--model", model, "--trace", trace, *grid],
        ):
            assert main(argv) == 0, argv[0]
        pairs = {
            "model_D21.csv": "model.csv",
            "model_D21.csv.meta": "model.csv.meta",
            "trace_norm_D21.csv": "trace_norm.csv",
            "trace_norm_D21.csv.meta": "trace_norm.csv.meta",
            "stability_steps_D21.csv": "stability_steps.csv",
        }
        for in_bundle, in_chain in pairs.items():
            assert (bundle / in_bundle).read_bytes() == (chain / in_chain).read_bytes(), in_chain
        data_header, data = read_csv(chain / "dataset_D21.csv")
        model_header, model_table = read_csv(bundle / "model_D21.csv")
        assert model_header[: len(data_header)] == data_header
        assert model_table[:, : len(data_header)].tobytes() == data.tobytes()
        data_meta = read_keyvalues(chain / "dataset_D21.csv.meta")
        provenance = {key: value for key, value in data_meta.items() if key.startswith("gen_")}
        described = {key: value for key, value in data_meta.items() if key not in provenance and key != "format"}
        assert provenance and described.items() <= read_keyvalues(bundle / "model_D21.csv.meta").items()
        assert provenance.items() <= read_keyvalues(bundle / "fit_report_D21.txt").items()
        lines = (bundle / "stability_report_D21.txt").read_text().splitlines(keepends=True)
        bound = [line for line in lines if line.startswith(("trace_bound_ratio = ", "error_bound_on_trace = "))]
        assert len(bound) == 2
        assert "".join(line for line in lines if line not in bound) == (chain / "stability_report.txt").read_text()
        fit = read_keyvalues(chain / "fit_report.txt")
        assert fit["d"] == "21"
        assert fit.items() <= read_keyvalues(bundle / "fit_report_D21.txt").items()

    def test_bundle_determinism(self, cfg, tmp_path):
        """A library bundle is its result's ``outputs``, every file of a fresh
        directory; it has no manifest, which ``bundle_digests`` reads."""
        small = replace(cfg, steps=6, horizon=5)
        digests = []
        for name in ("a", "b"):
            result = run_benchmark(small, out_dir=tmp_path / name, sizes=(11,), b_states=5, b_horizon=2, progress=quiet)
            assert sorted(result.outputs) == sorted((tmp_path / name).iterdir())
            digests.append({p.name: sha256_file(p) for p in result.outputs})
        assert digests[0] == digests[1]
        with pytest.raises(ConfigError, match=f"^{re.escape(str(tmp_path / 'a'))}: no manifest.json"):
            bundle_digests(tmp_path / "a")


class TestOutputs:
    """A command's manifest lists the files its writers returned, and
    ``bundle_digests`` hashes those files afresh and no other."""

    @pytest.fixture(scope="class")
    def trace(self, workspace, tmp_path_factory):
        out = tmp_path_factory.mktemp("trace")
        assert main(["simulate", "--model", str(workspace / "model.csv"), "--steps", "2", "--out", str(out)]) == 0
        return out / "trace_norm.csv"

    @pytest.mark.parametrize("command", ["generate", "fit", "simulate", "certify", "benchmark"])
    def test_manifest_lists_exactly_the_files_the_command_created(self, command, workspace, trace, tmp_path):
        config = tmp_path / "cfg.txt"
        config.write_text("D = 21\nsteps = 2\n")
        out = tmp_path / "out"
        out.mkdir()
        (out / "old_notes.txt").write_text("notes\n")
        (out / "dataset_D2501.csv").write_text("stale\n")
        before = {p.name for p in out.iterdir()}
        model, grid = str(workspace / "model.csv"), ["--b-states", "2", "--b-horizon", "1"]
        argv = {
            "generate": [],
            "fit": ["--data", str(workspace / "dataset_D21.csv")],
            "simulate": ["--model", model],
            "certify": ["--model", model, "--trace", str(trace), *grid],
            "benchmark": ["--only-D", "21", *grid],
        }[command]
        assert main([command, *argv, "--config", str(config), "--out", str(out)]) in (0, 2)
        created = {p.name for p in out.iterdir()} - before - {"manifest.json"}
        fresh = {name: sha256_file(out / name) for name in created}
        assert json.loads((out / "manifest.json").read_text())["outputs"] == fresh
        assert bundle_digests(out) == fresh
