"""The D=2501 closed loop does not hang on the BLAS thread count.

The fit's Cholesky factorization and refinement run through BLAS, whose
threaded reductions sum in another order, so the fitted coefficients
differ in their last bits between thread counts.  The solver must not
turn those bits into different decisions.  The standard D=2501 episode
runs once with one and once with two OpenBLAS threads, each in a fresh
interpreter (OpenBLAS reads the count when numpy loads), and both must
give the same verdict and iteration counts, no capped solve, and alpha
equal to 1e-9 relative.  The one-thread run is also pinned to the
episode's recorded iteration total and alpha, so a speed-up that moves
the solver's path fails here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: The reference episode at one BLAS thread: solver iterations over its
#: 101 solves (100 steps and the terminal diagnostic) and its alpha.
REFERENCE_ITERATIONS = 264
REFERENCE_ALPHA = 0.20961735363353273

EPISODE = """
import json
from narxmpc import bench, kernels, stability, twotank

cfg = twotank.BenchmarkConfig(d=2501)
data, _ = twotank.generate_dataset(cfg)
spec = kernels.KernelSpec(input_dim=data.sites.shape[1], lengthscale=cfg.sigma)
model = kernels.fit_interpolant(spec, data, jitter=cfg.jitter)
trace = bench.simulate_loop(cfg, model)
mpc_cfg = bench.make_mpc_config(cfg)
report = stability.verify_decrease(
    trace,
    stability.storage_matrix(cfg.dims, mpc_cfg.weights),
    max_iters=mpc_cfg.solver.max_iters,
)
print(json.dumps({
    "verdict": report.verdict,
    "alpha": report.alpha,
    "iterations": trace.iterations.tolist(),
    "capped": report.capped_solves,
    "failure": trace.failure,
}))
"""


def _start(threads: int) -> subprocess.Popen:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-c", EPISODE],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def test_reference_episode_is_the_same_at_one_and_two_blas_threads():
    procs = {threads: _start(threads) for threads in (1, 2)}
    runs = {}
    for threads, proc in procs.items():
        out, err = proc.communicate(timeout=600)
        assert proc.returncode == 0, err
        runs[threads] = json.loads(out.strip().splitlines()[-1])
    one, two = runs[1], runs[2]
    assert one["failure"] is None and two["failure"] is None
    assert one["verdict"] == two["verdict"] == "decrease_verified"
    assert one["iterations"] == two["iterations"]
    assert one["capped"] == two["capped"] == 0
    assert two["alpha"] == pytest.approx(one["alpha"], rel=1e-9, abs=0.0)
    assert sum(one["iterations"]) == REFERENCE_ITERATIONS
    assert one["alpha"] == pytest.approx(REFERENCE_ALPHA, rel=1e-12, abs=0.0)
