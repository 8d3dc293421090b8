"""The five compiled scipy functions that the package calls, loaded from
the files of their extension modules.

The package calls LAPACK's ``dpotrf``, ``dpotrs`` and ``dtbtrs`` from
``scipy.linalg._flapack``, BLAS ``dsymm`` from ``scipy.linalg._fblas`` and
the Euclidean distance kernel ``cdist_euclidean`` from
``scipy.spatial._distance_pybind``, and nothing else of those packages.
Importing ``scipy.linalg`` and ``scipy.spatial`` would run their package
inits, which load ``scipy.special``, ``scipy.sparse``, ``numpy.f2py`` and
``numpy.testing`` and cost about three quarters of ``import narxmpc``.  So
each module is found in its package's directory and executed, and a
module that is already imported is taken as it is.  Once the functions
are bound, the modules loaded here leave ``sys.modules`` again: a later
``import scipy.linalg`` or ``import scipy.spatial`` then imports them
itself and binds them to their packages, and since the interpreter keeps
an extension module's initialized contents, its functions are the very
objects bound here, those that ``scipy.linalg.lapack``,
``scipy.linalg.blas`` and ``scipy.spatial.distance.cdist`` call.

The names are private to scipy.  A release that moves one of the modules
makes ``import narxmpc`` fail with an ``ImportError`` that names it.
"""

from __future__ import annotations

import sys
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from pathlib import Path

import scipy

#: ``(module, function)`` for every compiled scipy function the package
#: calls; each function is bound below under its own name.
FUNCTIONS = (
    ("scipy.linalg._flapack", "dpotrf"),
    ("scipy.linalg._flapack", "dpotrs"),
    ("scipy.linalg._flapack", "dtbtrs"),
    ("scipy.linalg._fblas", "dsymm"),
    ("scipy.spatial._distance_pybind", "cdist_euclidean"),
)


def _extension(name: str):
    """The module ``scipy.<package>.<module>``: the imported one, or else
    the one loaded from its file in the package's directory, without the
    package."""
    if name in sys.modules:
        return sys.modules[name]
    package = name.split(".")[1]
    spec = PathFinder.find_spec(name, [str(Path(scipy.__path__[0]) / package)])
    if spec is None:
        raise ImportError(f"the installed scipy has no module {name}", name=name)
    module = module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_loaded = {module for module, _ in FUNCTIONS} - sys.modules.keys()
dpotrf, dpotrs, dtbtrs, dsymm, cdist_euclidean = (getattr(_extension(module), name) for module, name in FUNCTIONS)
for _module in _loaded:
    del sys.modules[_module]
