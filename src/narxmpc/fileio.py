"""Plain-text artifact formats: CSV tables, key=value sidecars, manifests.

Floats are printed with 17 significant digits so that every file
round-trips bit-exactly, which keeps repeated runs byte-identical under
a fixed seed.  Datasets, fitted models and closed-loop traces are CSV
tables with a ``.meta`` sidecar carrying the dimensions, normalization
and settings of the benchmark configuration they were made under (see
:func:`require_config`); dataset sidecars add the provenance.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .kernels import Dataset, KernelInterpolant, KernelSpec, fit_interpolant
from .mpc import ClosedLoopTrace
from .narx import AffineNormalization, NarxDims


class ConfigError(ValueError):
    """Bad configuration file, malformed artifact or unusable CLI input."""


def format_float(value: float) -> str:
    return f"{float(value):.17g}"


def write_csv(path, header: list[str], rows: np.ndarray) -> None:
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    lines = [",".join(header)]
    if rows.size:
        if rows.shape[1] != len(header):
            raise ValueError(
                f"{rows.shape[1]} columns of data for {len(header)} header fields"
            )
        for row in rows:
            lines.append(",".join(format_float(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_csv(path) -> tuple[list[str], np.ndarray]:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"no such file: {path}")
    text = path.read_text().strip().splitlines()
    if not text:
        raise ConfigError(f"{path} is empty, expected a CSV header")
    header = [h.strip() for h in text[0].split(",")]
    data = []
    for lineno, line in enumerate(text[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            raise ConfigError(
                f"{path}:{lineno}: expected {len(header)} fields, found {len(parts)}"
            )
        try:
            data.append([float(v) for v in parts])
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return header, (np.asarray(data) if data else np.empty((0, len(header))))


def _format_value(value) -> str:
    """A value as :func:`write_keyvalues` writes it."""
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple, np.ndarray)):
        return ",".join(format_float(v) for v in np.asarray(value).ravel())
    return str(value)


def write_keyvalues(path, values: dict) -> None:
    lines = [f"{key} = {_format_value(value)}" for key, value in values.items()]
    Path(path).write_text("\n".join(lines) + "\n")


def read_keyvalues(path) -> dict[str, str]:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"no such file: {path}")
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line {first_line[key]}")
        first_line[key] = lineno
        values[key] = value
    return values


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def _dims_fields(dims: NarxDims) -> dict:
    return {"p": dims.p, "m": dims.m, "nu": dims.nu}


def _dims_from(meta: dict, path) -> NarxDims:
    try:
        return NarxDims(p=int(meta["p"]), m=int(meta["m"]), nu=int(meta["nu"]))
    except KeyError as exc:
        raise ConfigError(f"{path}: sidecar is missing the {exc.args[0]} entry") from None


def _normalization_fields(norm: AffineNormalization) -> dict:
    return {
        "y_ref": norm.y_ref,
        "y_scale": norm.y_scale,
        "u_ref": norm.u_ref,
        "u_scale": norm.u_scale,
    }


def _normalization_mismatch(norm: AffineNormalization, cfg) -> str | None:
    """The first field of ``norm`` that is not the bits of ``cfg``'s
    normalization, or None."""
    expected = cfg.normalization()
    for name in _normalization_fields(expected):
        if not np.array_equal(getattr(norm, name), getattr(expected, name)):
            return name
    return None


def _parse_floats(raw: str) -> np.ndarray:
    return np.array([float(v) for v in raw.split(",")])


def _normalization_from(meta: dict, path) -> AffineNormalization:
    try:
        return AffineNormalization(
            y_ref=_parse_floats(meta["y_ref"]),
            y_scale=_parse_floats(meta["y_scale"]),
            u_ref=_parse_floats(meta["u_ref"]),
            u_scale=_parse_floats(meta["u_scale"]),
        )
    except KeyError as exc:
        raise ConfigError(f"{path}: sidecar is missing the {exc.args[0]} entry") from None


def _sidecar(path) -> Path:
    return Path(path).with_suffix(Path(path).suffix + ".meta")


def _sites_header(dims: NarxDims, coefficients: bool) -> list[str]:
    header = [f"xi_{i + 1}" for i in range(dims.n + dims.m)]
    header += [f"y_{j + 1}" for j in range(dims.p)]
    if coefficients:
        header += [f"alpha_{j + 1}" for j in range(dims.p)]
    return header


def _save_sites(
    path, data: Dataset, fmt: str, cfg, coefficients=None, fields=None, provenance=None
) -> None:
    """Write sites and targets (plus model coefficients) and the sidecar:
    format, dimensions, ``fields``, the settings of ``cfg`` the format
    records, normalization, then ``gen_`` provenance."""
    blocks = [data.sites, data.targets] + ([] if coefficients is None else [coefficients])
    write_csv(path, _sites_header(data.dims, coefficients is not None), np.hstack(blocks))
    meta = {
        "format": fmt,
        **_dims_fields(data.dims),
        "size": data.size,
        "contains_origin": data.contains_origin,
        **(fields or {}),
        **_config_entries(cfg, fmt),
        **_normalization_fields(data.normalization),
    }
    meta.update({f"gen_{k}": v for k, v in (provenance or {}).items()})
    write_keyvalues(_sidecar(path), meta)


def _load_sites(path, coefficients: bool) -> tuple[Dataset, np.ndarray, dict]:
    """Read a table written by :func:`_save_sites`: the dataset, the
    columns after the targets and the sidecar entries."""
    header, table = read_csv(path)
    meta = read_keyvalues(_sidecar(path))
    dims = _dims_from(meta, path)
    if header != _sites_header(dims, coefficients):
        raise ConfigError(f"{path}: header {header} does not match the sidecar dimensions")
    q = dims.n + dims.m
    data = Dataset(
        sites=table[:, :q],
        targets=table[:, q : q + dims.p],
        dims=dims,
        normalization=_normalization_from(meta, path),
        contains_origin=meta.get("contains_origin", "false") == "true",
    )
    return data, table[:, q + dims.p :], meta


def save_dataset(data: Dataset, path, cfg, provenance: dict | None = None) -> None:
    """Write a dataset made under the benchmark configuration ``cfg`` as
    ``xi_*, y_*`` CSV plus a ``.meta`` sidecar."""
    _save_sites(path, data, "narxmpc-dataset-v1", cfg, provenance=provenance)


def load_dataset(path) -> Dataset:
    return _load_sites(path, coefficients=False)[0]


def save_model(model: KernelInterpolant, path, cfg) -> None:
    """Write an interpolant fitted under the benchmark configuration
    ``cfg``: sites, targets and coefficients plus sidecar."""
    fields = {
        "family": model.spec.family,
        "sigma": model.spec.lengthscale,
        "jitter": model.jitter,
        "site_residual": model.site_residual,
    }
    _save_sites(path, model.data, "narxmpc-model-v1", cfg, model.coefficients, fields)


def load_model(path) -> KernelInterpolant:
    """Load a model file, refit deterministically and verify the coefficients."""
    data, stored, meta = _load_sites(path, coefficients=True)
    if meta.get("family", KernelSpec.family) != KernelSpec.family:
        raise ConfigError(f"{path}: only {KernelSpec.family} models can be reloaded")
    spec = KernelSpec(input_dim=data.sites.shape[1], lengthscale=float(meta.get("sigma", 1.0)))
    model = fit_interpolant(spec, data, jitter=float(meta.get("jitter", 0.0)))
    drift = float(np.max(np.abs(stored - model.coefficients), initial=0.0))
    if drift > 1e-8:
        raise ConfigError(
            f"{path}: stored coefficients differ from the refit by {drift:.3e}; "
            "the file is inconsistent"
        )
    return model


def _trace_layout(dims: NarxDims) -> list[tuple[str, str, int | None, bool]]:
    """Column blocks of a trace table after ``k``: the trace field, its
    column name, its width (None for one unsuffixed column) and whether it
    has an entry per applied step only, padded with NaN in the terminal row."""
    return [
        ("states", "x", dims.n, False),
        ("inputs", "u", dims.m, True),
        ("outputs", "y", dims.p, True),
        ("stage_costs", "stage_cost", None, True),
        ("values", "V", None, False),
        ("storage_values", "W", None, False),
        ("lyapunov", "Y", None, False),
        ("grad_norms", "grad_norm", None, False),
        ("iterations", "iters", None, False),
        ("converged", "converged", None, False),
    ]


def trace_header(dims: NarxDims) -> list[str]:
    header = ["k"]
    for _, name, width, _ in _trace_layout(dims):
        header += [name] if width is None else [f"{name}_{i + 1}" for i in range(width)]
    return header


def _trace_rows(trace: ClosedLoopTrace, raw: bool) -> np.ndarray:
    dims = trace.dims
    if trace.steps == 0:
        return np.empty((0, len(trace_header(dims))))
    fields = {}
    if raw:
        if trace.normalization is None:
            raise ValueError("trace carries no normalization; cannot denormalize")
        norm = trace.normalization
        fields = {
            "states": norm.denormalize_state(trace.states, dims),
            "inputs": norm.denormalize_input(trace.inputs),
            "outputs": norm.denormalize_output(trace.outputs),
        }
    rows = trace.steps + 1
    columns = [np.arange(rows)]
    for field, _, width, _ in _trace_layout(dims):
        values = fields.get(field, getattr(trace, field))
        block = np.full((rows, width or 1), np.nan)
        if values is not None:
            block[: len(values)] = np.reshape(values, (len(values), -1))
        columns.append(block)
    return np.column_stack(columns)


def save_trace(trace: ClosedLoopTrace, path, cfg, raw: bool = False) -> None:
    """Write a closed-loop trace run under the benchmark configuration
    ``cfg`` as CSV, one row per applied step, plus a ``.meta`` sidecar.

    A final diagnostic row carries the terminal state and its value.
    With ``raw=True`` states, inputs and outputs are denormalized; the
    scalar diagnostics keep their normalized meaning.  The sidecar's
    ``units`` entry (``raw`` or ``normalized``) records which table this
    is, since both have the same header.  The sidecar records ``cfg``, so
    a trace whose horizon, dimensions or normalization (when it carries
    one) differ from those of ``cfg`` raises ``ValueError`` naming the
    field.
    """
    if trace.horizon != cfg.horizon:
        raise ValueError(
            f"trace horizon {trace.horizon} does not match the configuration's N = {cfg.horizon}"
        )
    if trace.dims != cfg.dims:
        raise ValueError(
            f"trace dimensions {trace.dims} do not match the configuration's {cfg.dims}"
        )
    name = None if trace.normalization is None else _normalization_mismatch(trace.normalization, cfg)
    if name is not None:
        raise ValueError(f"trace normalization {name} does not match the configuration's")
    write_csv(path, trace_header(trace.dims), _trace_rows(trace, raw))
    fmt = "narxmpc-trace-v1"
    meta = {
        "format": fmt,
        "units": "raw" if raw else "normalized",
        **_dims_fields(cfg.dims),
        **_config_entries(cfg, fmt),
        **_normalization_fields(cfg.normalization()),
    }
    write_keyvalues(_sidecar(path), meta)


def load_trace(path, dims: NarxDims, horizon: int, normalization=None) -> ClosedLoopTrace:
    """Read a normalized trace CSV back into a :class:`ClosedLoopTrace`."""
    header, table = read_csv(path)
    if header != trace_header(dims):
        raise ConfigError(f"{path}: unexpected trace header for the given dimensions")
    steps = max(table.shape[0] - 1, 0)
    fields, start = {}, 1
    for field, _, width, per_step in _trace_layout(dims):
        stop = start + (width or 1)
        block = table[: steps if per_step else None, start:stop]
        fields[field] = block if width else block[:, 0]
        start = stop
    fields["iterations"] = fields["iterations"].astype(int)
    fields["converged"] = fields["converged"] > 0.5
    return ClosedLoopTrace(**fields, dims=dims, horizon=horizon, normalization=normalization)


def save_stability_report(report, path_txt, path_csv=None) -> None:
    """Write a stability report as key=value, plus an optional per-step CSV."""
    entries = {
        "verdict": report.verdict,
        "model_tag": report.model_tag,
        "steps": report.steps,
        "horizon": report.horizon,
        "deadband": report.deadband,
        "eta": report.eta,
        "sigma_min": report.sigma_min,
        "active_steps": report.active_steps,
        "decay_rate": report.decay_rate,
        "decay_r2": report.decay_r2,
        "decay_points": report.decay_points,
    }
    if report.alpha is not None:
        entries["alpha"] = report.alpha
    if report.first_violation is not None:
        entries["first_violation"] = report.first_violation
    if report.gamma_bar is not None:
        entries["gamma_bar"] = report.gamma_bar
        entries["min_horizon"] = report.min_horizon_value
        entries["horizon_sufficient"] = report.horizon_sufficient
        entries["b_values"] = report.b_values
        entries["growth_failures"] = report.growth_failures
        entries["sandwich_max_excess"] = report.sandwich_max_excess
    if report.capped_solves is not None:
        entries["capped_solves"] = report.capped_solves
    write_keyvalues(path_txt, entries)
    if path_csv is not None:
        k = np.arange(report.state_norms.shape[0])
        deltas = np.concatenate([report.deltas, [np.nan]])
        rows = np.column_stack(
            [
                k,
                report.state_norms,
                report.errors,
                report.values,
                report.storage_values,
                report.lyapunov,
                deltas,
            ]
        )
        write_csv(
            path_csv,
            ["k", "state_norm", "error", "V", "W", "Y", "delta"],
            rows,
        )


def write_manifest(path, entries: dict) -> None:
    Path(path).write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n")


#: Accepted configuration keys and the benchmark fields they set.
CONFIG_KEYS = {
    "D": ("d", int),
    "N": ("horizon", int),
    "Q": ("q_weight", float),
    "R": ("r_weight", float),
    "steps": ("steps", int),
    "seed": ("seed", int),
    "u_lo": ("u_lo", float),
    "u_hi": ("u_hi", float),
    "dt": ("dt", float),
    "mode": ("mode", str),
    "sigma": ("sigma", float),
    "jitter": ("jitter", float),
    "h0": ("h0", float),
}


#: Per sidecar format, the configuration keys the sidecar records
#: besides the dimensions and normalization: the sample time of the
#: transitions, and for a trace the controller settings behind its
#: optimal values.
_CONFIG_ENTRIES = {
    "narxmpc-dataset-v1": ("dt",),
    "narxmpc-model-v1": ("dt",),
    "narxmpc-trace-v1": ("dt", "N", "Q", "R"),
}


def _config_entries(cfg, fmt: str) -> dict:
    return {key: getattr(cfg, CONFIG_KEYS[key][0]) for key in _CONFIG_ENTRIES[fmt]}


def require_config(path, cfg) -> None:
    """Raise ``ConfigError`` unless the sidecar of the dataset, model or
    trace at ``path`` records the dimensions, the normalization and each
    setting its format records of the benchmark configuration ``cfg``.
    Floats are stored at 17 digits, so the entries of a matching sidecar
    equal those written from ``cfg``.  A trace must also record
    ``units = normalized``: a table in physical units has the same header
    and would be certified as if it were normalized."""
    meta = read_keyvalues(_sidecar(path))
    fmt = meta.get("format")
    if fmt not in _CONFIG_ENTRIES:
        raise ConfigError(f"{path}: sidecar format {fmt!r} is not a dataset, model or trace")
    if fmt == "narxmpc-trace-v1" and meta.get("units") != "normalized":
        raise ConfigError(
            f"{path}: trace units = {meta.get('units', '(not recorded)')}; a certificate "
            "needs the trace in normalized units (trace_norm.csv)"
        )
    dims = _dims_from(meta, path)
    if dims != cfg.dims:
        raise ConfigError(f"{path}: dimensions {dims} do not match the configuration {cfg.dims}")
    stored, expected = _normalization_from(meta, path), cfg.normalization()
    name = _normalization_mismatch(stored, cfg)
    if name is not None:
        raise ConfigError(
            f"{path}: normalization {name} = {getattr(stored, name).tolist()} "
            f"does not match the configuration's {getattr(expected, name).tolist()}"
        )
    for key, value in _config_entries(cfg, fmt).items():
        if key not in meta:
            raise ConfigError(f"{path}: sidecar is missing the {key} entry")
        if meta[key] != _format_value(value):
            raise ConfigError(
                f"{path}: {key} = {meta[key]} does not match the configuration's "
                f"{_format_value(value)}"
            )


def parse_benchmark_config(path) -> dict:
    """Parse a key=value benchmark configuration into constructor kwargs."""
    raw = read_keyvalues(path)
    kwargs = {}
    for key, value in raw.items():
        if key not in CONFIG_KEYS:
            accepted = ", ".join(sorted(CONFIG_KEYS))
            raise ConfigError(
                f"{path}: unknown config key {key!r}; accepted keys: {accepted}"
            )
        field_name, caster = CONFIG_KEYS[key]
        try:
            kwargs[field_name] = caster(value)
        except ValueError:
            raise ConfigError(
                f"{path}: invalid value {value!r} for key {key!r}"
            ) from None
    return kwargs
