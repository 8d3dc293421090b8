"""The package keeps only what a command or the benchmark runs.

Every public top-level function, public class and public method of a
``src/narxmpc`` module must be referenced from the package itself or
from ``perfbench/``: as a name, an attribute, a keyword or an import.
A string constant is not a use: the perfbench patcher names the
functions it wraps by string, and it skips a name the package no longer
defines, so wrapping a function does not call it.  The re-exports of
``__init__.py`` do not count as uses.  Code that only tests reach
belongs under ``tests/``.

Every option has a caller: a defaulted parameter of a ``src/narxmpc``
function is passed by some call in the package or in ``perfbench/`` and
left out by another, calls resolved by bare name as above.  A default
that every call overrides is a required parameter, and one that no call
overrides is no parameter.

No module but ``fileio`` forms the name of an artifact's sidecar.

The README's "Report keys" table lists every key that the fit and
stability reports of a benchmark bundle write, and no other, and its
"Configuration keys" table is ``CONFIG_KEYS``: each key with its field
and type.

A benchmark bundle records each value once: no data column of one
arm's CSV tables repeats a column of another of its tables, and its
files are those of the README's "Artifacts" table.
"""

from __future__ import annotations

import ast
from dataclasses import replace
from pathlib import Path

import numpy as np

from narxmpc import BenchmarkConfig, make_mpc_config, run_benchmark, storage_matrix, verify_decrease
from narxmpc.bench import check_model_errors
from narxmpc.fileio import read_csv, read_keyvalues, save_stability_report
from narxmpc.stability import VERDICT_VIOLATED
from narxmpc.twotank import CONFIG_KEYS
from oracles import quiet

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "narxmpc"

#: Public names kept without a caller, each with the reason.
ALLOWED_UNUSED = {
    "KernelInterpolant.power_function": "ROADMAP item 3 runs it",
    "_Parser.error": "argparse calls it on a usage error",
}


def _modules() -> list[Path]:
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _public(name: str) -> bool:
    return not name.startswith("_")


def _defined() -> dict[str, str]:
    """Qualified public names of the package modules, mapped to their
    bare names."""
    names = {}
    for path in _modules():
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
                names[node.name] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        names[f"{node.name}.{item.name}"] = item.name
    return names


def _referenced() -> set[str]:
    """Names used in the package modules and in ``perfbench/``."""
    used: set[str] = set()
    sources = _modules() + sorted((ROOT / "perfbench").glob("*.py"))
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg:
                used.add(node.arg)
            elif isinstance(node, ast.alias):
                used.update(node.name.split("."))
    return used


def test_every_public_name_has_a_caller():
    used = _referenced()
    unused = sorted(q for q, bare in _defined().items() if bare not in used)
    assert unused == sorted(ALLOWED_UNUSED), (
        "public names that no command or benchmark reaches "
        "(move them to tests/ or delete them): "
        f"{sorted(set(unused) - set(ALLOWED_UNUSED))}; "
        f"allowlisted names that now have a caller or are gone: "
        f"{sorted(set(ALLOWED_UNUSED) - set(unused))}"
    )


#: Defaulted parameters kept although no call, or every call, sets them, each with the reason.
ALLOWED_OPTIONS = {
    "solve_ocp_batch.warm": "ROADMAP item 15's lockstep loop passes each row's shifted start",
    "solve_ocp_batch.secant": "ROADMAP item 15's lockstep loop passes each row's shifted start",
}


def _defaulted() -> dict[str, tuple[str, int | None, str]]:
    """``function.parameter`` of every defaulted parameter of a function
    or method of the package modules, mapped to the function's bare name,
    the parameter's position among those a call passes positionally
    (None for a keyword-only one) and its name."""
    found = {}
    for path in _modules():
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            # A method's call passes everything after self or cls.
            skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
            for index in range(len(positional) - len(args.defaults), len(positional)):
                found[f"{node.name}.{positional[index].arg}"] = (node.name, index - skip, positional[index].arg)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    found[f"{node.name}.{arg.arg}"] = (node.name, None, arg.arg)
    return found


def _calls() -> dict[str, list[ast.Call]]:
    """The calls of the package modules and of ``perfbench/`` by the bare
    name they call, without those that unpack ``*args`` or ``**kwargs``,
    whose arguments no reading of the source can tell."""
    calls: dict[str, list[ast.Call]] = {}
    for path in _modules() + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            if any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name:
                calls.setdefault(name, []).append(node)
    return calls


def test_every_option_is_passed_by_one_call_and_left_out_by_another():
    calls = _calls()
    broken = {}
    for qualified, (function, index, name) in sorted(_defaulted().items()):
        passed = [
            (index is not None and len(call.args) > index) or any(k.arg == name for k in call.keywords)
            for call in calls.get(function, [])
        ]
        if not any(passed):
            broken[qualified] = "no call passes it"
        elif all(passed):
            broken[qualified] = "every call passes it"
    assert sorted(broken) == sorted(ALLOWED_OPTIONS), (
        "defaulted parameters that no call or every call sets (delete the parameter "
        f"or its default): { {q: why for q, why in broken.items() if q not in ALLOWED_OPTIONS} }; "
        f"allowlisted options that now have both kinds of call or are gone: "
        f"{sorted(set(ALLOWED_OPTIONS) - set(broken))}"
    )


def test_only_fileio_names_the_files_of_an_artifact():
    """A sidecar's name is formed in ``fileio`` alone: every other module
    lists the paths that the writers return, so no module but ``fileio``
    holds ``.meta`` or calls ``with_suffix``."""
    found = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "fileio.py"
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if ".meta" in line or "with_suffix" in line
    ]
    assert found == []


def _table_rows(heading: str) -> list[list[str]]:
    """The cells of the body rows of the README table under ``heading``,
    without backticks."""
    section = (ROOT / "README.md").read_text().split(f"### {heading}\n", 1)[1].split("\n#", 1)[0]
    return [
        [cell.strip().strip("`") for cell in line.strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("| `")
    ]


def _table_keys() -> set[tuple[str, str]]:
    """``(report, key)`` rows of the README's "Report keys" table."""
    return {(report, key) for key, report, *_ in _table_rows("Report keys")}


def _written_keys(tmp_path: Path) -> set[tuple[str, str]]:
    """``(report, key)`` pairs that a D=21 bundle writes, plus a stability
    report with a violated decrease."""
    written: set[tuple[str, str]] = set()

    def read(report: str, path: Path) -> None:
        written.update((report, key) for key in read_keyvalues(path))

    cfg = BenchmarkConfig(d=21, steps=4)
    out = tmp_path / "bundle"
    result = run_benchmark(cfg, out_dir=out, sizes=(21,), b_states=4, b_horizon=2, progress=quiet)
    read("fit", out / "fit_report_D21.txt")
    read("stability", out / "stability_report_D21.txt")
    # The violated report reuses the bundle's trace and growth grid.
    arm = result.arms[21]
    rising = replace(arm.trace, values=1e3 * np.arange(arm.trace.values.size, dtype=float))
    storage = storage_matrix(cfg.dims, make_mpc_config(cfg).weights)
    report = verify_decrease(rising, storage, growth=arm.growth)
    assert report.verdict == VERDICT_VIOLATED
    check_model_errors(report, arm.model, rising, arm.constants)
    save_stability_report(report, tmp_path / "violated.txt", tmp_path / "violated_steps.csv")
    read("stability", tmp_path / "violated.txt")
    return written


def test_readme_lists_every_report_key(tmp_path):
    listed, written = _table_keys(), _written_keys(tmp_path)
    assert written - listed == set(), "report keys missing from the README table"
    assert listed - written == set(), "README table keys that no report writes"


def test_readme_lists_the_config_keys():
    rows = [tuple(row[:3]) for row in _table_rows("Configuration keys")]
    assert rows == [(key, field, cast.__name__) for key, (field, cast) in CONFIG_KEYS.items()]


def test_the_bundle_records_each_value_once(benchmark_run):
    """Over the standard bundle, no column but ``k`` of one arm's CSV
    tables equals a column of another table of the same arm, bit for bit
    with NaN equal to NaN; across arms, columns may coincide in value
    (both loops converge at every step).  The bundle's files are the
    README's "Artifacts" table for each dataset size."""
    result, _ = benchmark_run
    repeats = []
    for d in result.arms:
        tables = {path.name: read_csv(path) for path in result.outputs if path.name.endswith(f"_D{d}.csv")}
        assert sorted(tables) == [f"{stem}_D{d}.csv" for stem in ("model", "stability_steps", "trace_norm")]
        columns = [
            (file, name, table[:, index])
            for file, (header, table) in tables.items()
            for index, name in enumerate(header)
            if name != "k"
        ]
        repeats += [
            f"{file}:{name} = {other_file}:{other_name}"
            for i, (file, name, values) in enumerate(columns)
            for other_file, other_name, other in columns[i + 1 :]
            if other_file != file and np.array_equal(values, other, equal_nan=True)
        ]
    assert repeats == []
    listed = [row[0].replace("<d>", str(d)) for d in result.arms for row in _table_rows("Artifacts")]
    assert sorted(path.name for path in result.outputs) == sorted(listed)
