"""The benchmark harness still runs against the package.

``perfbench/`` imports and reads names of the package (such as
``bench.plant_views`` and ``SolverConfig.multistart``), so a change under
``src/`` that removes one of them breaks the benchmark without failing
any unit test.  Each workload runs here once at its tiny size, traced,
in a fresh interpreter from the root of the checkout.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


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
