"""The benchmark harness and the layer timings still run against the package.

``perfbench/`` imports and reads names of the package (such as
``bench.plant_views`` and ``SolverConfig.multistart``), so a change under
``src/`` that removes one of them breaks the benchmark without failing
any unit test.  Each workload runs here once at its tiny size, traced,
in a fresh interpreter from the root of the checkout.  So do the D=101
and plant-side layers of ``tests/layers_bench.py``, once each with
timing disabled, since they call private names (``mpc._derivatives``,
``mpc._free_step``, ``twotank._previous_upper_level``) that no unit test
reaches the same way.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: The reason ``tests/layers_bench.py`` gives for skipping its layers.
_NO_POOL = "no OpenBLAS pool found to set to one thread"


@pytest.mark.parametrize("workload", ["loop_d2501", "certify_d2501", "pipeline_d101"])
def test_tiny_traced_run_is_correct(workload):
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", workload,
            "--seed", "1",
            "--seconds", "1",
            "--trace", "1",
            "--tiny",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    assert result["failed"] == 0, proc.stdout


def test_layer_timings_run_once():
    """Skipped without pytest-benchmark, or where the layer file finds no
    OpenBLAS pool to set to one thread; any other skip fails."""
    pytest.importorskip("pytest_benchmark")
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "tests/layers_bench.py",
            "-k", "not D2501", "--benchmark-disable", "-q", "-rs", "-p", "no:cacheprovider",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if _NO_POOL in proc.stdout:
        pytest.skip(_NO_POOL)
    summary = proc.stdout.strip().splitlines()[-1]
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert " passed" in summary and "skipped" not in summary and "deselected" in summary, summary
