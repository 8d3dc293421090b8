"""The package keeps only what a command or the benchmark runs.

Every public top-level function, public class and public method of a
``src/narxmpc`` module must be referenced from the package itself or
from ``perfbench/``: as a name, an attribute, a keyword or an import.
A string constant is not a use: the perfbench patcher names the
functions it wraps by string, and it skips a name the package no longer
defines, so wrapping a function does not call it.  The re-exports of
``__init__.py`` do not count as uses.  Code that only tests reach
belongs under ``tests/``.

No module but ``fileio`` forms the name of an artifact's sidecar.

The README's "Report keys" table lists every key that the fit and
stability reports of a benchmark bundle write, and no other, and its
"Configuration keys" table is ``CONFIG_KEYS``: each key with its field
and type.
"""

from __future__ import annotations

import ast
from dataclasses import replace
from pathlib import Path

import numpy as np

from narxmpc import BenchmarkConfig, make_mpc_config, run_benchmark, storage_matrix, verify_decrease
from narxmpc.fileio import read_keyvalues, save_stability_report
from narxmpc.stability import VERDICT_VIOLATED
from narxmpc.twotank import CONFIG_KEYS

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
    result = run_benchmark(cfg, out_dir=out, sizes=(21,), b_states=4, b_horizon=2)
    read("fit", out / "fit_report_D21.txt")
    read("stability", out / "stability_report_D21.txt")
    # The violated report reuses the bundle's trace and growth grid.
    arm = result.arms[21]
    rising = replace(arm.trace, values=1e3 * np.arange(arm.trace.values.size, dtype=float))
    storage = storage_matrix(cfg.dims, make_mpc_config(cfg).weights)
    report = verify_decrease(rising, storage, growth=arm.growth)
    assert report.verdict == VERDICT_VIOLATED
    save_stability_report(report, tmp_path / "violated.txt")
    read("stability", tmp_path / "violated.txt")
    return written


def test_readme_lists_every_report_key(tmp_path):
    listed, written = _table_keys(), _written_keys(tmp_path)
    assert written - listed == set(), "report keys missing from the README table"
    assert listed - written == set(), "README table keys that no report writes"


def test_readme_lists_the_config_keys():
    rows = [tuple(row[:3]) for row in _table_rows("Configuration keys")]
    assert rows == [(key, field, cast.__name__) for key, (field, cast) in CONFIG_KEYS.items()]
