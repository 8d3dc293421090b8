"""What ``import narxmpc`` loads, and from which NumPy.

``scipy.stats`` alone took more than half of the package's import time,
and the package needs none of it (the Halton points come from
:class:`narxmpc.twotank.ScrambledHalton`).  The package inits of
``scipy.linalg`` and ``scipy.spatial`` took most of the rest, so
:mod:`narxmpc._compiled` loads only the three compiled modules whose
functions the package calls, and leaves them out of ``sys.modules`` once
it has taken the functions.  The checks run in fresh interpreters,
because this suite itself imports those packages: one runs a whole small
``narxmpc benchmark`` and then finds none of them loaded, nor any of their
submodules, so a package that a command reaches only at its first call
would fail it too.

``pyproject.toml`` declares ``numpy>=2.0`` and ``scipy>=1.13``, but the
suite runs on one installed NumPy and one scipy.  So the package's names
are scanned instead: no top-level NumPy name that a release after 2.0
added may appear in ``src/``, and every scipy name in ``src/``, with
every function in the loader's table, must be on a list of names that
scipy 1.13 has.  A name private to NumPy or scipy must be on its list
too, and is checked against the installed release.
"""

from __future__ import annotations

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from narxmpc._compiled import FUNCTIONS

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

#: NumPy names private to NumPy that ``src/narxmpc`` uses.  No release
#: promises them, so each is checked only against the installed NumPy:
#: here, that it exists, and in test_properties.py, that it gives the bits
#: of the public function that wraps it.
NUMPY_PRIVATE = {
    # The stacked LAPACK gesv gufunc that np.linalg.solve wraps, which mpc
    # calls without the wrapper.
    "numpy.linalg._umath_linalg.solve",
}

#: Every scipy name that ``src/narxmpc`` may use: each public one is in
#: scipy 1.13, the declared floor.  A name added to the package, or to the
#: table of ``narxmpc._compiled``, must be added here, after checking that
#: 1.13 has it.
SCIPY_NAMES = {
    # The directory in which narxmpc._compiled finds the modules below.
    "scipy.__path__",
    # The LAPACK and BLAS wrappers that scipy.linalg.lapack and
    # scipy.linalg.blas export, taken from the private modules that hold
    # them; test_the_loaded_functions_are_scipys_own checks that they are
    # the public objects.  Each module is in 1.13 under this name.
    "scipy.linalg._flapack.dpotrf",
    "scipy.linalg._flapack.dpotrs",
    "scipy.linalg._flapack.dtbtrs",
    "scipy.linalg._fblas.dsymm",
    # Private to scipy: the compiled kernel that cdist(A, B) calls for the
    # Euclidean metric, which kernels calls without it.  No release
    # promises it, so it is checked only against the installed scipy:
    # here, that it exists, and in test_properties.py, that it gives
    # cdist's bits.
    "scipy.spatial._distance_pybind.cdist_euclidean",
}

#: scipy packages that ``narxmpc`` leaves unimported, together with all of
#: their submodules: the three that ``narxmpc._compiled`` loads leave
#: ``sys.modules`` once their functions are bound.
UNLOADED = ("scipy.linalg", "scipy.spatial", "scipy.special", "scipy.sparse", "scipy.stats")

_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import narxmpc, narxmpc.cli
argv = ["benchmark", "--config", sys.argv[2], "--only-D", "21", "--b-states", "2", "--b-horizon", "1"]
code = narxmpc.cli.main([*argv, "--out", sys.argv[3]])
print(json.dumps({"file": narxmpc.__file__, "code": code, "modules": sorted(sys.modules)}))
"""


def test_package_and_cli_import_without_scipy_stats(tmp_path):
    """After the import and a whole small ``narxmpc benchmark``, none of the
    scipy packages is loaded, nor any of their submodules: not even the
    three compiled modules whose functions the package holds."""
    config = tmp_path / "cfg.txt"
    config.write_text("steps = 6\n")
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(SRC), str(config), str(tmp_path / "bundle")],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert Path(loaded["file"]).resolve().is_relative_to(SRC.resolve())
    assert loaded["code"] in (0, 2)
    assert (tmp_path / "bundle" / "stability_report_D21.txt").is_file()
    reached = {
        name
        for name in loaded["modules"]
        if any(name == package or name.startswith(package + ".") for package in UNLOADED)
    }
    assert reached == set()


_IDENTITY_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
if sys.argv[2] == "scipy":
    import scipy.linalg, scipy.spatial
import narxmpc
import scipy.linalg.blas, scipy.linalg.lapack, scipy.spatial.distance
from narxmpc import kernels, mpc
assert kernels.dpotrf is scipy.linalg.lapack.dpotrf
assert kernels.dpotrs is scipy.linalg.lapack.dpotrs
assert mpc.dtbtrs is scipy.linalg.lapack.dtbtrs
assert kernels.dsymm is scipy.linalg.blas.dsymm
assert kernels._euclidean is scipy.spatial.distance._distance_pybind.cdist_euclidean
# Each preloaded module is bound to its package, as the one in sys.modules.
flapack, fblas, pybind = scipy.linalg._flapack, scipy.linalg._fblas, scipy.spatial._distance_pybind
for module in (flapack, fblas, pybind):
    assert sys.modules[module.__name__] is module
assert flapack.dpotrf is kernels.dpotrf and flapack.dpotrs is kernels.dpotrs and flapack.dtbtrs is mpc.dtbtrs
assert fblas.dsymm is kernels.dsymm
assert pybind.cdist_euclidean is kernels._euclidean
print("same")
"""


@pytest.mark.parametrize("first", ["narxmpc", "scipy"])
def test_the_loaded_functions_are_scipys_own(first):
    """Whichever is imported first, ``narxmpc`` or ``scipy.linalg``, the
    package calls the very LAPACK, BLAS and distance objects that scipy's
    public modules export, and ``scipy.linalg._flapack``,
    ``scipy.linalg._fblas`` and ``scipy.spatial._distance_pybind`` are
    bound: one module object each, the one in ``sys.modules``."""
    proc = subprocess.run(
        [sys.executable, "-c", _IDENTITY_PROBE, str(SRC), first],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["same"]


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


def _private_numpy_names() -> dict[str, list[str]]:
    """Every name that ``src/narxmpc`` imports from a NumPy module, dotted
    from ``numpy``, whose module path or name has a part that starts with
    an underscore, with the places that import it."""
    used: dict[str, list[str]] = {}
    for path in sorted((SRC / "narxmpc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
                for alias in node.names:
                    name = f"{node.module}.{alias.name}"
                    if any(part.startswith("_") for part in name.split(".")):
                        used.setdefault(name, []).append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "numpy" and "._" in alias.name:
                        used.setdefault(alias.name, []).append(f"{path.name}:{node.lineno}")
    return used


def test_every_private_numpy_name_is_listed():
    used = _private_numpy_names()
    assert "numpy.linalg._umath_linalg.solve" in used
    unlisted = {name: places for name, places in used.items() if name not in NUMPY_PRIVATE}
    assert not unlisted, f"private NumPy names not on the list: {unlisted}"


def test_the_listed_private_numpy_names_are_in_the_installed_numpy():
    for name in sorted(NUMPY_PRIVATE):
        module, attr = name.rsplit(".", 1)
        assert hasattr(importlib.import_module(module), attr), name


def _scipy_names() -> dict[str, list[str]]:
    """Every scipy name that ``src/narxmpc`` uses, dotted from ``scipy``,
    with the places that use it: ``from scipy.<module> import <name>`` and
    ``<alias>.<attribute>...`` under any alias of ``import scipy`` or
    ``import scipy.<module>``."""
    used: dict[str, list[str]] = {}
    for path in sorted((SRC / "narxmpc").glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {
            alias.asname or alias.name.split(".")[0]: alias.name if alias.asname else "scipy"
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
            if alias.name.split(".")[0] == "scipy"
        }
        # An attribute chain counts once, from its outermost node.
        inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
                for alias in node.names:
                    used.setdefault(f"{node.module}.{alias.name}", []).append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Attribute) and id(node) not in inner:
                chain, base = [], node
                while isinstance(base, ast.Attribute):
                    chain.append(base.attr)
                    base = base.value
                if isinstance(base, ast.Name) and base.id in aliases:
                    name = ".".join([aliases[base.id], *reversed(chain)])
                    used.setdefault(name, []).append(f"{path.name}:{node.lineno}")
    return used


def test_every_scipy_name_is_on_the_list_of_the_declared_floor():
    assert '"scipy>=1.13"' in (ROOT / "pyproject.toml").read_text()
    used = _scipy_names()
    # scipy.__path__, which the loader reads, shows that the scan sees the
    # package's scipy names.
    assert "scipy.__path__" in used
    for module, function in FUNCTIONS:
        used.setdefault(f"{module}.{function}", []).append("_compiled.py:FUNCTIONS")
    unlisted = {name: places for name, places in used.items() if name not in SCIPY_NAMES}
    assert not unlisted, f"scipy names not on the list of scipy 1.13 names: {unlisted}"


def test_the_listed_scipy_names_are_in_the_installed_scipy():
    for name in sorted(SCIPY_NAMES):
        module, attr = name.rsplit(".", 1)
        assert hasattr(importlib.import_module(module), attr), name
