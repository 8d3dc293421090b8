"""Artifact formats: CSV, key-value sidecars, datasets, models, traces, configs."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from narxmpc import (
    AffineNormalization,
    Box,
    KernelSpec,
    MpcConfig,
    NarxDims,
    StageCostWeights,
    fit_interpolant,
    generate_dataset,
    run_closed_loop,
    storage_matrix,
)
from oracles import FunctionDynamics
from narxmpc.fileio import (
    ConfigError,
    format_float,
    load_dataset,
    load_model,
    load_trace,
    parse_benchmark_config,
    read_csv,
    read_keyvalues,
    save_dataset,
    save_model,
    save_stability_report,
    save_trace,
    sha256_file,
    trace_header,
    write_csv,
    write_keyvalues,
    write_manifest,
)

DIMS = NarxDims(p=1, m=1, nu=2)
WEIGHTS = StageCostWeights(Q=1.0, R=0.1)


def _linear_closed_loop(steps: int = 4, normalization=None):
    f = FunctionDynamics(
        DIMS,
        lambda x, u: np.array([0.8 * x[0] + 0.5 * u[0]]),
        jacobian_fn=lambda x, u: (np.array([[0.8, 0.0, 0.0]]), np.array([[0.5]])),
    )
    cfg = MpcConfig(
        horizon=4,
        weights=WEIGHTS,
        input_box=Box(lo=np.array([-10.0]), hi=np.array([10.0])),
        dims=DIMS,
    )
    storage = storage_matrix(DIMS, WEIGHTS)
    return run_closed_loop(
        f, f, cfg, np.array([0.5, 0.0, 0.0]), steps=steps,
        storage_matrix=storage.P, normalization=normalization,
    )


class TestFloatFormat:
    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(40)
        values = np.concatenate(
            [
                rng.standard_normal(200),
                rng.standard_normal(50) * 1e-300,
                rng.standard_normal(50) * 1e300,
                [0.0, 1.0 / 3.0, np.pi],
            ]
        )
        for v in values:
            assert float(format_float(v)) == v


class TestCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = np.array([[1.0, 2.5], [np.pi, -1e-17]])
        write_csv(path, ["a", "b"], rows)
        header, back = read_csv(path)
        assert header == ["a", "b"]
        assert_array_equal(back, rows)

    def test_empty_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], np.empty((0, 2)))
        header, back = read_csv(path)
        assert header == ["a", "b"]
        assert back.shape == (0, 2)

    def test_column_mismatch_on_write(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["a"], np.ones((2, 2)))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="no such file"):
            read_csv(tmp_path / "absent.csv")

    def test_field_count_error_names_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ConfigError, match=r":3: expected 2 fields"):
            read_csv(path)

    def test_bad_number_error_names_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\nx,4\n")
        with pytest.raises(ConfigError, match=r":3:"):
            read_csv(path)


class TestKeyValues:
    def test_round_trip_with_types(self, tmp_path):
        path = tmp_path / "kv.txt"
        write_keyvalues(
            path,
            {
                "name": "run7",
                "count": 3,
                "scale": 0.1,
                "flag": True,
                "off": False,
                "vec": np.array([1.0, 2.0]),
            },
        )
        back = read_keyvalues(path)
        assert back["name"] == "run7"
        assert int(back["count"]) == 3
        assert float(back["scale"]) == 0.1
        assert back["flag"] == "true"
        assert back["off"] == "false"
        assert back["vec"] == "1,2"

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "kv.txt"
        path.write_text("# heading\n\na = 1  # trailing\n")
        assert read_keyvalues(path) == {"a": "1"}

    def test_malformed_line_names_position(self, tmp_path):
        path = tmp_path / "kv.txt"
        path.write_text("a = 1\nnonsense\n")
        with pytest.raises(ConfigError, match=r":2:"):
            read_keyvalues(path)

    def test_sha256_known_value(self, tmp_path):
        path = tmp_path / "blob"
        path.write_bytes(b"abc")
        assert sha256_file(path) == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )


class TestDatasetIo:
    def test_round_trip(self, cfg, tmp_path):
        data, provenance = generate_dataset(replace(cfg, d=11))
        path = tmp_path / "dataset_D11.csv"
        save_dataset(data, path, cfg, provenance)
        back = load_dataset(path)
        assert_array_equal(back.sites, data.sites)
        assert_array_equal(back.targets, data.targets)
        assert back.dims == data.dims
        assert back.contains_origin == data.contains_origin
        assert_allclose(back.normalization.y_ref, data.normalization.y_ref, rtol=0.0)
        meta = read_keyvalues(path.with_suffix(".csv.meta"))
        assert meta["format"] == "narxmpc-dataset-v1"
        assert meta["gen_mode"] == "state_grid"

    def test_header_mismatch_detected(self, cfg, tmp_path):
        data, _ = generate_dataset(replace(cfg, d=5))
        path = tmp_path / "d.csv"
        save_dataset(data, path, cfg)
        text = path.read_text().splitlines()
        text[0] = text[0].replace("xi_1", "zz_1")
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(ConfigError, match="header"):
            load_dataset(path)


class TestModelIo:
    def _small_model(self, cfg):
        data, _ = generate_dataset(replace(cfg, d=21))
        spec = KernelSpec(input_dim=data.sites.shape[1], lengthscale=cfg.sigma)
        return fit_interpolant(spec, data, jitter=cfg.jitter)

    def test_round_trip_predictions(self, cfg, tmp_path):
        model = self._small_model(cfg)
        path = tmp_path / "model.csv"
        save_model(model, path, cfg)
        back = load_model(path)
        rng = np.random.default_rng(41)
        Xi = rng.uniform(-0.1, 0.5, size=(50, 4))
        X, U = Xi[:, :3], Xi[:, 3:]
        assert_allclose(back.output_batch(X, U), model.output_batch(X, U), rtol=0.0, atol=1e-12)
        assert back.spec.lengthscale == model.spec.lengthscale
        assert back.jitter == model.jitter

    def test_tampered_coefficients_detected(self, cfg, tmp_path):
        model = self._small_model(cfg)
        path = tmp_path / "model.csv"
        save_model(model, path, cfg)
        lines = path.read_text().splitlines()
        fields = lines[2].split(",")
        fields[-1] = format_float(float(fields[-1]) + 0.5)
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="inconsistent"):
            load_model(path)


class TestTraceIo:
    @pytest.fixture
    def trace_cfg(self, cfg):
        """The configuration of the horizon-4 traces that the sidecars record."""
        return replace(cfg, horizon=4)

    def test_round_trip(self, trace_cfg, tmp_path):
        trace = _linear_closed_loop(steps=4)
        path = tmp_path / "trace.csv"
        save_trace(trace, path, trace_cfg)
        back = load_trace(path, DIMS, horizon=4)
        assert back.steps == 4
        assert_array_equal(back.states, trace.states)
        assert_array_equal(back.inputs, trace.inputs)
        assert_array_equal(back.outputs, trace.outputs)
        assert_array_equal(back.values, trace.values)
        assert_array_equal(back.storage_values, trace.storage_values)
        assert_array_equal(back.lyapunov, trace.lyapunov)
        assert_array_equal(back.iterations, trace.iterations)
        assert_array_equal(back.converged, trace.converged)

    def test_terminal_diagnostic_row(self, trace_cfg, tmp_path):
        trace = _linear_closed_loop(steps=3)
        path = tmp_path / "trace.csv"
        save_trace(trace, path, trace_cfg)
        header, table = read_csv(path)
        assert header == trace_header(DIMS)
        assert table.shape[0] == 4
        # the terminal row has no applied input or measured output
        u_col = 1 + DIMS.n
        assert np.isnan(table[-1, u_col])

    def test_empty_trace_is_header_only(self, trace_cfg, tmp_path):
        trace = _linear_closed_loop(steps=0)
        path = tmp_path / "trace.csv"
        save_trace(trace, path, trace_cfg)
        back = load_trace(path, DIMS, horizon=4)
        assert back.steps == 0
        assert path.read_text().count("\n") == 1

    def test_raw_save_denormalizes(self, trace_cfg, tmp_path):
        trace = _linear_closed_loop(steps=2, normalization=trace_cfg.normalization())
        norm_path = tmp_path / "norm.csv"
        raw_path = tmp_path / "raw.csv"
        save_trace(trace, norm_path, trace_cfg, raw=False)
        save_trace(trace, raw_path, trace_cfg, raw=True)
        _, norm_table = read_csv(norm_path)
        _, raw_table = read_csv(raw_path)
        raw_states = trace_cfg.normalization().denormalize_state(trace.states, DIMS)
        assert_allclose(raw_table[:, 1 : 1 + DIMS.n], raw_states, rtol=1e-12)
        assert not np.allclose(raw_table[:, 1], norm_table[:, 1])

    def test_raw_needs_normalization(self, trace_cfg, tmp_path):
        trace = _linear_closed_loop(steps=2)
        with pytest.raises(ValueError, match="normalization"):
            save_trace(trace, tmp_path / "raw.csv", trace_cfg, raw=True)

    def test_header_mismatch_detected(self, trace_cfg, tmp_path):
        trace = _linear_closed_loop(steps=2)
        path = tmp_path / "trace.csv"
        save_trace(trace, path, trace_cfg)
        with pytest.raises(ConfigError, match="header"):
            load_trace(path, NarxDims(p=1, m=1, nu=3), horizon=4)

    def test_sidecar_must_describe_the_trace(self, trace_cfg, tmp_path):
        """A trace whose horizon, dimensions or normalization differ from
        the configuration's is not written under it."""
        trace = _linear_closed_loop(steps=2, normalization=trace_cfg.normalization())
        path = tmp_path / "trace.csv"
        other = AffineNormalization(y_ref=[0.1], y_scale=[0.5], u_ref=[1e-5], u_scale=[4e-5])
        cases = [
            (replace(trace_cfg, horizon=20), trace, "horizon"),
            (trace_cfg, replace(trace, dims=NarxDims(p=1, m=1, nu=3)), "dimensions"),
            (trace_cfg, replace(trace, normalization=other), "normalization y_ref"),
        ]
        for cfg, bad, field in cases:
            with pytest.raises(ValueError, match=field):
                save_trace(bad, path, cfg)
            assert not path.exists()
        save_trace(replace(trace, normalization=None), path, trace_cfg)
        assert read_keyvalues(path.with_suffix(".csv.meta"))["N"] == "4"


class TestStabilityReportIo:
    def test_keys_and_steps(self, tmp_path):
        from narxmpc import verify_decrease

        trace = _linear_closed_loop(steps=6)
        storage = storage_matrix(DIMS, WEIGHTS)
        report = verify_decrease(trace, storage)
        txt = tmp_path / "report.txt"
        csv = tmp_path / "steps.csv"
        save_stability_report(report, txt, csv)
        entries = read_keyvalues(txt)
        assert entries["verdict"] == report.verdict
        assert float(entries["alpha"]) == report.alpha
        assert int(entries["steps"]) == report.steps
        header, table = read_csv(csv)
        assert header == ["k", "state_norm", "error", "V", "W", "Y", "delta"]
        assert table.shape[0] == report.state_norms.shape[0]
        # Y = V + W in every row
        assert_allclose(table[:, 5], table[:, 3] + table[:, 4], rtol=1e-12)


class TestManifestAndConfig:
    def test_manifest_round_trip(self, tmp_path):
        path = tmp_path / "manifest.json"
        write_manifest(path, {"b": 1, "a": {"x": [1, 2]}})
        loaded = json.loads(path.read_text())
        assert loaded == {"a": {"x": [1, 2]}, "b": 1}
        assert path.read_text().index('"a"') < path.read_text().index('"b"')

    def test_parse_benchmark_config(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("D = 101\nN = 20\nQ = 1\nR = 0.1\nseed = 3\nmode = trajectory\n")
        kwargs = parse_benchmark_config(path)
        assert kwargs == {
            "d": 101,
            "horizon": 20,
            "q_weight": 1.0,
            "r_weight": 0.1,
            "seed": 3,
            "mode": "trajectory",
        }

    def test_unknown_key_lists_accepted(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("bogus = 1\n")
        with pytest.raises(ConfigError, match="accepted keys"):
            parse_benchmark_config(path)

    def test_invalid_value_reported(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("D = many\n")
        with pytest.raises(ConfigError, match="invalid value"):
            parse_benchmark_config(path)
