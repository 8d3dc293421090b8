"""The package keeps only what a command or the benchmark runs.

Every public top-level function, public class and public method of a
``src/narxmpc`` module must be referenced from the package itself or
from ``perfbench/``: as a name, an attribute, a keyword or an import.
A string constant is not a use: the perfbench patcher names the
functions it wraps by string, and it skips a name the package no longer
defines, so wrapping a function does not call it.  The re-exports of
``__init__.py`` do not count as uses.  Code that only tests reach
belongs under ``tests/``.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "narxmpc"

#: Public names kept without a caller, each with the reason.
ALLOWED_UNUSED = {
    "KernelInterpolant.power_function": "ROADMAP item 3 runs it",
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
