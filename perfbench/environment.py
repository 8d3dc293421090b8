"""The environment record stored with every result."""

from __future__ import annotations

import ctypes
import platform

import numpy
import scipy

#: Thread-count getters exported by the OpenBLAS builds numpy and scipy ship.
_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> dict[str, int]:
    """Threads each loaded OpenBLAS library will use, keyed by file name."""
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return found
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _GETTERS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                found[path.rsplit("/", 1)[-1]] = int(getter())
                break
    return found


def _blas_version() -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def environment(seed: int, nproc: int) -> dict:
    return {
        "seed": seed,
        "nproc": nproc,
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_version(),
        "blas_threads": _blas_threads(),
    }
