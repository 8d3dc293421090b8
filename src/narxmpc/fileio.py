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
from functools import partial
from pathlib import Path

import numpy as np

from .kernels import Dataset, KernelInterpolant, KernelSpec, fit_interpolant
from .mpc import ClosedLoopTrace, StageCostWeights
from .narx import AffineNormalization, NarxDims
from .twotank import CONFIG_KEYS


class ConfigError(ValueError):
    """Bad configuration file, malformed artifact, an artifact or trace
    that does not match its configuration, or unusable CLI input."""


#: The text of every float the package writes: 17 significant digits,
#: which read back to the same double.
_FLOAT = "%.17g"


def format_float(value: float) -> str:
    return _FLOAT % float(value)


def write_csv(path, header: list[str], rows: np.ndarray) -> None:
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    lines = [",".join(header)]
    if rows.size:
        if rows.shape[1] != len(header):
            raise ValueError(
                f"{rows.shape[1]} columns of data for {len(header)} header fields"
            )
        # One format per row, of Python floats rather than numpy scalars:
        # the bytes of format_float, at a fraction of the calls.
        line = ",".join([_FLOAT] * rows.shape[1])
        lines.extend(line % tuple(row) for row in rows.tolist())
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


#: The normalization entries of a sidecar, in the field order of ``AffineNormalization``.
_NORMALIZATION = ("y_ref", "y_scale", "u_ref", "u_scale")


def _normalization_fields(norm: AffineNormalization) -> dict:
    return {key: getattr(norm, key) for key in _NORMALIZATION}


def _parse_floats(raw: str) -> np.ndarray:
    return np.array([float(v) for v in raw.split(",")])


def _parse_bool(raw: str) -> bool:
    if raw not in ("true", "false"):
        raise ValueError(f"expected true or false, got {raw!r}")
    return raw == "true"


#: The parser of every sidecar entry that a loader reads.
_PARSERS = {
    "p": int, "m": int, "nu": int, "size": int, "contains_origin": _parse_bool,
    **dict.fromkeys(_NORMALIZATION, _parse_floats), "sigma": float, "Q": float, "R": float,
}


def _read(path, meta: dict, build, *keys):
    """``build`` of the sidecar entries ``keys`` of ``path``, each parsed
    by :data:`_PARSERS`.  Raise ``ConfigError`` starting with ``path`` and
    naming the key when an entry is missing or its parser rejects it, and
    naming every key given when ``build`` rejects the values."""
    values = []
    for key in keys:
        if key not in meta:
            raise ConfigError(f"{path}: sidecar is missing the {key} entry")
        try:
            values.append(_PARSERS[key](meta[key]))
        except ValueError as exc:
            raise ConfigError(f"{path}: {key}: {exc}") from None
    try:
        return build(*values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {', '.join(keys)}: {exc}") from None


def _normalization(path, meta: dict, dims: NarxDims) -> AffineNormalization:
    """The normalization entries of ``path``'s sidecar, read by :func:`_read`;
    raise ``ConfigError`` naming the file and the entry when ``y_ref`` or
    ``y_scale`` does not hold ``p`` values, or ``u_ref`` or ``u_scale`` ``m``."""
    norm = _read(path, meta, AffineNormalization, *_NORMALIZATION)
    for key in _NORMALIZATION:
        name, count = ("p", dims.p) if key[0] == "y" else ("m", dims.m)
        if (size := getattr(norm, key).size) != count:
            raise ConfigError(f"{path}: {key}: holds {size} values, expected {name} = {count}")
    return norm


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
    columns after the targets and the sidecar entries, which record the table's ``size``."""
    header, table = read_csv(path)
    meta = read_keyvalues(_sidecar(path))
    dims = _read(path, meta, NarxDims, "p", "m", "nu")
    if header != _sites_header(dims, coefficients):
        raise ConfigError(f"{path}: header {header} does not match the sidecar dimensions")
    if (size := _read(path, meta, int, "size")) != table.shape[0]:
        raise ConfigError(f"{path}: size = {size} but the table holds {table.shape[0]} rows")
    normalization = _normalization(path, meta, dims)
    contains_origin = _read(path, meta, bool, "contains_origin")
    q = dims.n + dims.m
    try:
        data = Dataset(table[:, :q], table[:, q : q + dims.p], dims, normalization, contains_origin)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
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
        "site_residual": model.site_residual,
    }
    _save_sites(path, model.data, "narxmpc-model-v1", cfg, model.coefficients, fields)


def load_model(path) -> KernelInterpolant:
    """Load a model file, refit deterministically and verify the coefficients.
    Older sidecars record a ``jitter``, which must be 0 (an interpolant)."""
    data, stored, meta = _load_sites(path, coefficients=True)
    if meta.get("family", KernelSpec.family) != KernelSpec.family:
        raise ConfigError(f"{path}: only {KernelSpec.family} models can be reloaded")
    if meta.get("jitter", "0") != "0":
        raise ConfigError(f"{path}: jitter = {meta['jitter']}; only an interpolant (jitter = 0) can be reloaded")
    model = fit_interpolant(_read(path, meta, partial(KernelSpec, data.sites.shape[1]), "sigma"), data)
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
    is, since both have the same header.  The sidecar records ``cfg``, so a
    trace that :func:`require_trace_config` refuses under ``cfg`` raises
    ``ConfigError`` naming the key, and nothing is written.
    """
    entries = require_trace_config(trace, cfg, where=f"trace for {path}")
    write_csv(path, trace_header(trace.dims), _trace_rows(trace, raw))
    write_keyvalues(
        _sidecar(path), {"format": "narxmpc-trace-v1", "units": "raw" if raw else "normalized", **entries}
    )


def require_trace_config(trace: ClosedLoopTrace, cfg, where: str = "trace") -> dict[str, str]:
    """The sidecar entries of a trace run under ``cfg``, as written; raise
    ``ConfigError`` naming the first of the trace's ``N``, ``p``, ``m``,
    ``nu``, normalization (when it has one), ``Q`` and ``R`` that differs
    from ``cfg``'s (a trace without weights reads ``(not recorded)``)."""
    carried = _trace_entries(trace.dims, trace.horizon, trace.normalization)
    keys = [*carried, "Q", "R"]
    if trace.weights is not None:
        carried.update(Q=trace.weights.Q, R=trace.weights.R)
    return _require_entries(where, carried, _entries(cfg, "narxmpc-trace-v1"), keys)


def _trace_entries(dims: NarxDims, horizon: int, normalization) -> dict:
    """A trace's ``N``, dimensions and (when it has one) normalization."""
    entries = {"N": horizon, **_dims_fields(dims)}
    return entries if normalization is None else {**entries, **_normalization_fields(normalization)}


def load_trace(path, dims: NarxDims, horizon: int, normalization=None) -> ClosedLoopTrace:
    """Read a normalized trace CSV, with the weights ``Q`` and ``R`` its
    sidecar records, into a :class:`ClosedLoopTrace`, or raise ``ConfigError``
    unless its header fits ``dims`` and its sidecar records ``units = normalized``
    (a raw table has the same header), ``dims``, ``N = horizon`` and (when given)
    the ``normalization``, with ``p`` output and ``m`` input values per
    entry, naming the first entry that differs."""
    header, table = read_csv(path)
    if header != trace_header(dims):
        raise ConfigError(f"{path}: unexpected trace header for the given dimensions")
    recorded = read_keyvalues(_sidecar(path))
    units = recorded.get("units", "(not recorded)")
    if units != "normalized":
        raise ConfigError(f"{path}: trace units = {units}; only a normalized trace (trace_norm.csv) loads")
    if normalization is not None:
        _normalization(path, recorded, dims)
    _require_entries(path, recorded, _trace_entries(dims, horizon, normalization))
    weights = _read(path, recorded, StageCostWeights, "Q", "R")
    steps = max(table.shape[0] - 1, 0)
    fields, start = {}, 1
    for field, _, width, per_step in _trace_layout(dims):
        stop = start + (width or 1)
        block = table[: steps if per_step else None, start:stop]
        fields[field] = block if width else block[:, 0]
        start = stop
    fields["iterations"] = fields["iterations"].astype(int)
    fields["converged"] = fields["converged"] > 0.5
    return ClosedLoopTrace(**fields, dims=dims, horizon=horizon, normalization=normalization, weights=weights)


#: The stability report's keys, in file order, with the report
#: attributes they hold; a None attribute leaves its key out.
_REPORT_KEYS = (
    ("verdict", "verdict"), ("model_tag", "model_tag"), ("steps", "steps"),
    ("horizon", "horizon"), ("deadband", "deadband"), ("eta", "eta"),
    ("sigma_min", "sigma_min"), ("active_steps", "active_steps"), ("decay_r2", "decay_r2"),
    ("alpha", "alpha"), ("first_violation", "first_violation"), ("gamma_bar", "gamma_bar"),
    ("min_horizon", "min_horizon_value"), ("horizon_sufficient", "horizon_sufficient"),
    ("b_values", "b_values"), ("growth_failures", "growth_failures"),
    ("capped_solves", "capped_solves"), ("trace_error_ratio", "trace_error_ratio"),
    ("trace_bound_ratio", "trace_bound_ratio"), ("error_bound_on_trace", "error_bound_on_trace"),
)


def save_stability_report(report, path_txt, path_csv=None) -> None:
    """Write a stability report as key=value, plus an optional per-step CSV,
    whose ``model_error`` column is NaN where the report has no model errors."""
    entries = {key: getattr(report, name) for key, name in _REPORT_KEYS}
    entries = {key: value for key, value in entries.items() if value is not None}
    write_keyvalues(path_txt, entries)
    if path_csv is not None:
        k = np.arange(report.state_norms.shape[0])
        deltas = np.concatenate([report.deltas, [np.nan]])
        model_errors = np.full(k.size, np.nan) if report.model_errors is None else report.model_errors
        columns = [report.state_norms, report.errors, report.values, report.storage_values, report.lyapunov]
        rows = np.column_stack([k, *columns, deltas, model_errors])
        write_csv(path_csv, ["k", "state_norm", "error", "V", "W", "Y", "delta", "model_error"], rows)


def write_manifest(path, entries: dict) -> None:
    Path(path).write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n")


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


def _entries(cfg, fmt: str) -> dict:
    """The entries that ``cfg`` writes into a sidecar of format ``fmt``:
    dimensions, the settings the format records and normalization."""
    return {**_dims_fields(cfg.dims), **_config_entries(cfg, fmt), **_normalization_fields(cfg.normalization())}


def _require_entries(where, recorded: dict, expected: dict, keys=None) -> dict[str, str]:
    """The ``expected`` entries as written; raise ``ConfigError`` naming
    the first of ``keys`` (default: all of them) whose entry in
    ``recorded`` differs or is missing.  Values are compared as
    :func:`write_keyvalues` writes them, which round-trips floats, so
    equal text is equal bits."""
    expected = {key: _format_value(value) for key, value in expected.items()}
    for key in expected if keys is None else keys:
        got = _format_value(recorded[key]) if key in recorded else "(not recorded)"
        if got != expected[key]:
            raise ConfigError(
                f"{where}: {key} = {got} does not match the configuration's {expected[key]}"
            )
    return expected


def require_config(path, cfg) -> None:
    """Raise ``ConfigError`` unless the sidecar of the dataset, model or
    trace at ``path`` records the dimensions, the normalization and each
    setting its format records of the benchmark configuration ``cfg``.
    Floats are stored at 17 digits, so the entries of a matching sidecar
    equal those written from ``cfg``.  What a sidecar records about its
    table, a site table's ``size`` and a trace's ``units``, is checked by
    the loader."""
    meta = read_keyvalues(_sidecar(path))
    fmt = meta.get("format")
    if fmt not in _CONFIG_ENTRIES:
        raise ConfigError(f"{path}: sidecar format {fmt!r} is not a dataset, model or trace")
    _require_entries(path, meta, _entries(cfg, fmt))


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
