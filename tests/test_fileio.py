"""Artifact formats: CSV, key-value sidecars, datasets, models, traces, configs."""

from __future__ import annotations

import json
import re
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from narxmpc import (
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
    require_config,
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
        assert meta["gen_halton_points"] == str(provenance["halton_points"])

    def test_a_loaded_dataset_fits_to_the_bits_of_the_generated_one(self, cfg, fit_101, tmp_path):
        """A saved and reloaded dataset holds its columns in contiguous
        arrays of its own, not as views of the read table, so its fit
        prints the in-memory fit's ``rkhs_norm`` and coefficients bit for
        bit: a strided target column would sum in another order."""
        data, model = fit_101
        path = tmp_path / "dataset_D101.csv"
        save_dataset(data, path, cfg)
        back = load_dataset(path)
        refit = fit_interpolant(model.spec, back)
        assert refit.coefficients.tobytes() == model.coefficients.tobytes()
        assert format_float(refit.rkhs_norm()) == format_float(model.rkhs_norm())
        assert back.sites.strides == data.sites.strides
        assert back.targets.strides == data.targets.strides

    def test_header_mismatch_detected(self, cfg, tmp_path):
        data, _ = generate_dataset(replace(cfg, d=5))
        path = tmp_path / "d.csv"
        save_dataset(data, path, cfg)
        text = path.read_text().splitlines()
        text[0] = text[0].replace("xi_1", "zz_1")
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(ConfigError, match="header"):
            load_dataset(path)

    def test_non_finite_normalization_names_file_and_entry(self, cfg, tmp_path):
        """A sidecar whose ``y_scale`` is NaN does not load: the targets
        would denormalize to NaN.  The message names the entries the
        normalization was built from."""
        data, _ = generate_dataset(replace(cfg, d=5))
        path = tmp_path / "d.csv"
        save_dataset(data, path, cfg)
        sidecar = path.with_suffix(".csv.meta")
        lines = sidecar.read_text().splitlines()
        sidecar.write_text("\n".join("y_scale = nan" if s.startswith("y_scale =") else s for s in lines) + "\n")
        message = f"{path}: y_ref, y_scale, u_ref, u_scale: normalization y_scale must be finite"
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_dataset(path)

    @pytest.mark.parametrize(
        "value, message",
        [("0", "p must be a positive integer, got 0"), ("x", "invalid literal for int() with base 10: 'x'")],
    )
    def test_bad_dimensions_name_the_file(self, cfg, tmp_path, value, message):
        """A value that ``int`` rejects is named by its key, one that
        ``NarxDims`` rejects by the three entries it was built from."""
        keys = "p" if value == "x" else "p, m, nu"
        data, _ = generate_dataset(replace(cfg, d=5))
        path = tmp_path / "d.csv"
        save_dataset(data, path, cfg)
        sidecar = path.with_suffix(".csv.meta")
        lines = sidecar.read_text().splitlines()
        sidecar.write_text("\n".join(f"p = {value}" if s.startswith("p =") else s for s in lines) + "\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}: {keys}: {message}")):
            load_dataset(path)

    def test_a_truncated_table_does_not_load(self, cfg, tmp_path):
        """A D=21 dataset whose last 5 rows are cut does not load: its
        sidecar records ``size = 21``."""
        data, _ = generate_dataset(replace(cfg, d=21))
        path = tmp_path / "d.csv"
        save_dataset(data, path, cfg)
        path.write_text("\n".join(path.read_text().splitlines()[:-5]) + "\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}: size = 21 but the table holds 16 rows")):
            load_dataset(path)

    def test_sidecar_recording_a_dataset_mode_still_loads(self, cfg, tmp_path):
        """Datasets saved when sidecars recorded ``gen_mode`` load and
        pass the configuration check as before."""
        data, provenance = generate_dataset(replace(cfg, d=5))
        path = tmp_path / "d.csv"
        save_dataset(data, path, cfg, provenance)
        sidecar = path.with_suffix(".csv.meta")
        text = sidecar.read_text()
        sidecar.write_text(text.replace("gen_seed =", "gen_mode = state_grid\ngen_seed =", 1))
        assert read_keyvalues(sidecar)["gen_mode"] == "state_grid"
        back = load_dataset(path)
        assert_array_equal(back.sites, data.sites)
        assert_array_equal(back.targets, data.targets)
        require_config(path, cfg)


class TestModelIo:
    def _small_model(self, cfg):
        data, _ = generate_dataset(replace(cfg, d=21))
        spec = KernelSpec(input_dim=data.sites.shape[1], lengthscale=cfg.sigma)
        return fit_interpolant(spec, data)

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

    @pytest.mark.parametrize("recorded, loads", [("0", True), ("1e-10", False)])
    def test_a_recorded_jitter_must_be_zero(self, cfg, tmp_path, recorded, loads):
        """Model files written while the fit had a regularization setting
        record it; such a file loads when it records 0, an interpolant, and
        is refused otherwise."""
        model = self._small_model(cfg)
        path = tmp_path / "model.csv"
        save_model(model, path, cfg)
        meta = path.with_suffix(".csv.meta")
        assert "jitter" not in read_keyvalues(meta)
        meta.write_text(meta.read_text() + f"jitter = {recorded}\n")
        if loads:
            assert load_model(path).coefficients.tobytes() == model.coefficients.tobytes()
        else:
            with pytest.raises(ConfigError, match=r"model\.csv: jitter = 1e-10; only an interpolant"):
                load_model(path)

    def test_malformed_sigma_names_the_file_and_the_entry(self, cfg, tmp_path):
        path = tmp_path / "model.csv"
        save_model(self._small_model(cfg), path, cfg)
        meta = path.with_suffix(".csv.meta")
        meta.write_text(re.sub(r"(?m)^sigma = .*$", "sigma = abc", meta.read_text()))
        with pytest.raises(ConfigError, match=r"model\.csv: sigma: could not convert string to float: 'abc'"):
            load_model(path)

    def test_a_non_positive_sigma_names_the_file_and_the_entry(self, cfg, tmp_path):
        path = tmp_path / "model.csv"
        save_model(self._small_model(cfg), path, cfg)
        meta = path.with_suffix(".csv.meta")
        meta.write_text(re.sub(r"(?m)^sigma = .*$", "sigma = -1", meta.read_text()))
        with pytest.raises(ConfigError, match=r"model\.csv: sigma: lengthscale must be finite and strictly positive"):
            load_model(path)

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
        assert_array_equal(back.weights.Q, [[trace_cfg.q_weight]])
        assert_array_equal(back.weights.R, [[trace_cfg.r_weight]])

    def test_sidecar_without_weights_is_rejected(self, trace_cfg, tmp_path):
        path = tmp_path / "trace.csv"
        save_trace(_linear_closed_loop(steps=2), path, trace_cfg)
        meta = read_keyvalues(tmp_path / "trace.csv.meta")
        write_keyvalues(tmp_path / "trace.csv.meta", {key: value for key, value in meta.items() if key != "R"})
        with pytest.raises(ConfigError, match="trace.csv: sidecar is missing the R entry"):
            load_trace(path, DIMS, horizon=4)

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

    def test_a_raw_trace_does_not_load(self, trace_cfg, tmp_path):
        """The physical-unit table has the normalized table's header; its
        sidecar's ``units`` entry keeps it from loading as normalized."""
        norm = trace_cfg.normalization()
        path = tmp_path / "raw.csv"
        save_trace(_linear_closed_loop(steps=2, normalization=norm), path, trace_cfg, raw=True)
        with pytest.raises(ConfigError, match=re.escape(f"{path}: trace units = raw;")):
            load_trace(path, DIMS, horizon=4, normalization=norm)

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
        """A trace whose horizon, dimensions, normalization or weights
        differ from the configuration's, or that carries no weights, is
        not written under it, and the error names the sidecar key."""
        trace = _linear_closed_loop(steps=2, normalization=trace_cfg.normalization())
        path = tmp_path / "trace.csv"
        norm = trace.normalization
        cases = [
            (replace(trace_cfg, horizon=20), trace, "N = 4 does not match the configuration's 20"),
            (trace_cfg, replace(trace, dims=NarxDims(p=2, m=1, nu=2)), "p = 2 "),
            (trace_cfg, replace(trace, dims=NarxDims(p=1, m=2, nu=2)), "m = 2 "),
            (trace_cfg, replace(trace, dims=NarxDims(p=1, m=1, nu=3)), "nu = 3 "),
            (replace(trace_cfg, q_weight=5.0), trace, "Q = 1 does not match the configuration's 5"),
            (replace(trace_cfg, r_weight=0.2), trace, "R = 0.1"),
            (trace_cfg, replace(trace, weights=None), "Q = (not recorded)"),
        ]
        for name in ("y_ref", "y_scale", "u_ref", "u_scale"):
            other = replace(norm, **{name: 2.0 * getattr(norm, name)})
            cases.append((trace_cfg, replace(trace, normalization=other), f"{name} = "))
        for cfg, bad, entry in cases:
            with pytest.raises(ConfigError, match=re.escape(f"trace for {path}: {entry}")):
                save_trace(bad, path, cfg)
            assert not path.exists()
        save_trace(replace(trace, normalization=None), path, trace_cfg)
        assert read_keyvalues(path.with_suffix(".csv.meta"))["N"] == "4"


#: Per artifact, the sidecar entries that ``require_config`` compares.
_CHECKED = {
    "dataset": ("p", "m", "nu", "dt", "y_ref", "y_scale", "u_ref", "u_scale"),
    "model": ("p", "m", "nu", "dt", "y_ref", "y_scale", "u_ref", "u_scale"),
    "trace": ("p", "m", "nu", "dt", "N", "Q", "R", "y_ref", "y_scale", "u_ref", "u_scale"),
}


class TestRequireConfig:
    def _write(self, artifact, cfg, path):
        """Write ``artifact`` at ``path`` and return the configuration it
        was written under: ``cfg``, at horizon 4 for the trace."""
        if artifact == "trace":
            cfg = replace(cfg, horizon=4)
            save_trace(_linear_closed_loop(steps=2, normalization=cfg.normalization()), path, cfg)
            return cfg
        data, _ = generate_dataset(replace(cfg, d=5))
        if artifact == "dataset":
            save_dataset(data, path, cfg)
        else:
            save_model(fit_interpolant(KernelSpec(input_dim=4), data), path, cfg)
        return cfg

    @pytest.mark.parametrize("missing", [False, True], ids=["other", "missing"])
    @pytest.mark.parametrize(
        "artifact, key", [(artifact, key) for artifact, keys in _CHECKED.items() for key in keys]
    )
    def test_every_recorded_entry_is_checked(self, cfg, tmp_path, artifact, key, missing):
        """A sidecar whose entry differs from the configuration's, or lacks
        it, is rejected with the key named."""
        path = tmp_path / f"{artifact}.csv"
        cfg = self._write(artifact, cfg, path)
        require_config(path, cfg)
        sidecar = path.with_suffix(".csv.meta")
        lines, kept = sidecar.read_text().splitlines(), []
        for line in lines:
            name, value = line.split(" = ")
            if name == key:
                if missing:
                    continue
                value = ",".join(format_float(float(v) + 1.0) for v in value.split(","))
            kept.append(f"{name} = {value}")
        assert len(kept) == len(lines) - missing
        sidecar.write_text("\n".join(kept) + "\n")
        got = r"\(not recorded\)" if missing else r"\S+"
        with pytest.raises(ConfigError, match=rf"{artifact}.csv: {key} = {got} does not match"):
            require_config(path, cfg)


#: Per artifact, the sidecar entries that its loader reads.
_READ = {
    "dataset": ("p", "m", "nu", "size", "contains_origin", "y_ref", "y_scale", "u_ref", "u_scale"),
    "model": ("p", "m", "nu", "size", "contains_origin", "y_ref", "y_scale", "u_ref", "u_scale", "sigma"),
    "trace": ("units", "N", "p", "m", "nu", "y_ref", "y_scale", "u_ref", "u_scale", "Q", "R"),
}

#: Out-of-range values of an entry, besides the malformed and non-finite
#: ones that every entry is given: for ``size``, those of another table.
_OUT_OF_RANGE = {
    "p": ("0", "-1"), "m": ("0",), "nu": ("0",), "N": ("0",), "size": ("-1", "4", "6"),
    "y_scale": ("0", "-1"), "u_scale": ("0", "-1"), "sigma": ("0", "-1"),
    "Q": ("0", "-1"), "R": ("0", "-1"), "units": ("raw",),
}


class TestSidecarRule:
    @pytest.mark.parametrize("artifact, key", [(artifact, key) for artifact, keys in _READ.items() for key in keys])
    def test_every_entry_a_loader_reads_is_checked(self, cfg, tmp_path, artifact, key):
        """A sidecar that lacks an entry its loader reads, or holds a
        malformed, non-finite or out-of-range value there, does not load:
        the loader raises ``ConfigError`` starting with the file's path and
        naming the key."""
        path = tmp_path / f"{artifact}.csv"
        trace_cfg = replace(cfg, horizon=4)
        norm = cfg.normalization()
        if artifact == "trace":
            save_trace(_linear_closed_loop(steps=2, normalization=norm), path, trace_cfg)
            load = partial(load_trace, path, DIMS, 4, norm)
        else:
            data, _ = generate_dataset(replace(cfg, d=5))
            if artifact == "dataset":
                save_dataset(data, path, cfg)
            else:
                save_model(fit_interpolant(KernelSpec(input_dim=4), data), path, cfg)
            load = partial(load_dataset if artifact == "dataset" else load_model, path)
        load()
        sidecar = path.with_suffix(".csv.meta")
        lines = sidecar.read_text().splitlines()
        assert sum(line.startswith(f"{key} = ") for line in lines) == 1
        for value in (None, "abc", "nan", "inf", *_OUT_OF_RANGE.get(key, ())):
            kept = [line for line in lines if not line.startswith(f"{key} = ")]
            sidecar.write_text("\n".join(kept + ([] if value is None else [f"{key} = {value}"])) + "\n")
            with pytest.raises(ConfigError) as raised:
                load()
            message = str(raised.value)
            assert message.startswith(f"{path}: "), (value, message)
            assert re.search(rf"(?<!\w){key}(?!\w)", message[len(str(path)) :]), (value, message)

    @pytest.mark.parametrize("key", ["y_ref", "y_scale", "u_ref", "u_scale"])
    @pytest.mark.parametrize("artifact", ["dataset", "model", "trace"])
    def test_a_normalization_entry_of_another_length_does_not_load(self, cfg, tmp_path, artifact, key):
        """A normalization entry with two values where ``p = 1`` (outputs)
        or ``m = 1`` (inputs) would tile to another regressor length: the
        loader names the file, the entry and the count it expects."""
        path = tmp_path / f"{artifact}.csv"
        norm = cfg.normalization()
        if artifact == "trace":
            save_trace(_linear_closed_loop(steps=2, normalization=norm), path, replace(cfg, horizon=4))
            load = partial(load_trace, path, DIMS, 4, norm)
        else:
            data, _ = generate_dataset(replace(cfg, d=5))
            if artifact == "dataset":
                save_dataset(data, path, cfg)
            else:
                save_model(fit_interpolant(KernelSpec(input_dim=4), data), path, cfg)
            load = partial(load_dataset if artifact == "dataset" else load_model, path)
        sidecar = path.with_suffix(".csv.meta")
        sidecar.write_text(re.sub(rf"(?m)^({key} = )(.*)$", r"\1\2,\2", sidecar.read_text()))
        expected = "p = 1" if key[0] == "y" else "m = 1"
        with pytest.raises(ConfigError, match=re.escape(f"{path}: {key}: holds 2 values, expected {expected}")):
            load()


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
        assert header == ["k", "state_norm", "error", "V", "W", "Y", "delta", "model_error"]
        assert table.shape[0] == report.state_norms.shape[0]
        # verify_decrease alone computes no model errors.
        assert np.isnan(table[:, 7]).all()
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
        path.write_text("D = 101\nN = 20\nQ = 1\nR = 0.1\nseed = 3\nsigma = 0.5\n")
        kwargs = parse_benchmark_config(path)
        assert kwargs == {
            "d": 101,
            "horizon": 20,
            "q_weight": 1.0,
            "r_weight": 0.1,
            "seed": 3,
            "sigma": 0.5,
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
