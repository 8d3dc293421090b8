"""What ``import narxmpc`` loads, and from which NumPy.

``scipy.stats`` alone took more than half of the package's import time,
and the package needs none of it (the Halton points come from
:class:`narxmpc.twotank.ScrambledHalton`).  The check runs in a fresh
interpreter, because this suite itself imports ``scipy.stats``.

``pyproject.toml`` declares ``numpy>=2.0``, but the suite runs on one
installed NumPy.  So the package's NumPy names are scanned instead: no
top-level name that a release after 2.0 added may appear in ``src/``.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Top-level NumPy names added after 2.0, the declared floor, with the
#: release that added them.
AFTER_NUMPY_2_0 = {
    "unstack": (2, 1),
    "cumulative_sum": (2, 1),
    "cumulative_prod": (2, 1),
    "matvec": (2, 2),
    "vecmat": (2, 2),
}

_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import narxmpc, narxmpc.cli
print(json.dumps({"file": narxmpc.__file__, "modules": sorted(sys.modules)}))
"""


def test_package_and_cli_import_without_scipy_stats():
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(SRC)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    loaded = json.loads(proc.stdout)
    assert Path(loaded["file"]).resolve().is_relative_to(SRC.resolve())
    assert "scipy.stats" not in loaded["modules"]


def _numpy_names() -> dict[str, list[str]]:
    """Every top-level NumPy name that ``src/narxmpc`` uses, with the
    places that use it: ``np.<name>`` under any alias of ``import numpy``
    and ``from numpy import <name>``."""
    used: dict[str, list[str]] = {}
    for path in sorted((SRC / "narxmpc").glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
            if alias.name == "numpy"
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
                used.setdefault(node.attr, []).append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
                for alias in node.names:
                    used.setdefault(alias.name, []).append(f"{path.name}:{node.lineno}")
    return used


def test_no_numpy_name_is_newer_than_the_declared_floor():
    assert '"numpy>=2.0"' in (ROOT / "pyproject.toml").read_text()
    used = _numpy_names()
    # np.vecdot, a 2.0 name, shows that the scan sees the package's calls.
    assert "vecdot" in used
    newer = {name: used[name] for name in AFTER_NUMPY_2_0 if name in used}
    assert not newer, f"NumPy names added after 2.0, the declared floor: {newer}"


def test_the_newer_names_are_numpy_names():
    installed = tuple(int(part) for part in np.__version__.split(".")[:2])
    for name, release in AFTER_NUMPY_2_0.items():
        assert installed < release or hasattr(np, name), name
