"""The D=2501 closed loop does not hang on the BLAS thread count.

The fit's Cholesky factorization, its solve and the site residual's
Gram product run through BLAS, whose threaded reductions sum in another
order, so the fitted coefficients differ in their last bits between
thread counts.  The solver must not turn those bits into different
decisions.  The standard D=2501 episode runs once with one and once
with two OpenBLAS threads, each in a fresh interpreter (OpenBLAS reads
the count when numpy loads), and both must give the same verdict and
iteration counts, no capped solve, and alpha equal to 1e-9 relative.  The one-thread run is also pinned to the
episode's recorded iteration total and alpha, so a speed-up that moves
the solver's path fails here.  The pins are those of the loop that
warm-starts each solve with the shifted inputs and the shifted secant
part of the solve before it.

The D=101 arm of ``narxmpc benchmark`` writes the same files at one and
at two OpenBLAS threads, and every one of them (all but
``manifest.json``, which records wall times) is pinned by its SHA-256
digest: a change that moves any printed number fails here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from narxmpc import bench

ROOT = Path(__file__).resolve().parents[1]

#: The reference episode at one BLAS thread: solver iterations over its
#: 101 solves (100 steps and the terminal diagnostic) and its alpha.
REFERENCE_ITERATIONS = 109
REFERENCE_ALPHA = 0.20961992904105836

#: SHA-256 of every file that ``narxmpc benchmark --only-D 101`` writes
#: besides ``manifest.json``.
REFERENCE_BUNDLE_D101 = {
    "comparison.csv": "0f814b8ca8d50394b21d63e26760b28e7658ae00f6162c39532889f3ba6ca45d",
    "dataset_D101.csv": "8ed3f9e93f4c29608f5a5ee485abc8cea5d12761e14a1456a58c6db5dbcf099a",
    "dataset_D101.csv.meta": "8bcb6bd5b80465b5ddfba0ec34f2da0f222e57019264cd24e6773bfc3f1779e2",
    "fit_report_D101.txt": "1cd88ae1342d15c421eca66ae3391c4fa50d0f1c108a98e67e67f181cf49998d",
    "model_D101.csv": "1a422b1d48f2d781725d4e4e2b18321665de4d98165f591fc7997e530a7757da",
    "model_D101.csv.meta": "ad1d31dbf1d5b25e0b7ced46139ce2813b187331c011f223bb22759d34a8025c",
    "stability_report_D101.txt": "4c69d79aa809beaaa1b83a8a388695d4cb996c1be4d1d215c4cc4882270b20a5",
    "stability_steps_D101.csv": "e7da1c8302575c94b1401ad52360257730e14f6921812304b971d6e396b1b4c1",
    "trace_norm_D101.csv": "b87dd90d6bdfcd09fe6259f1ed1b9d87dd7211ad0d6d99f3dd60fc4d7f4fc001",
    "trace_norm_D101.csv.meta": "f8357d4271ece66e7da03a759f72f97f1c0bf60267110982828391086095a9de",
    "trace_raw_D101.csv": "ebb90020c4a4b7c29bc3f82bc9fbdd9f725b9fb32ac152df4c310f7a3ac936f6",
    "trace_raw_D101.csv.meta": "00b2ff1aaaaccfeb49feed384ba844afd1ea69a34b66841408954056792cba07",
}

EPISODE = """
import json
from narxmpc import bench, kernels, stability, twotank

cfg = twotank.BenchmarkConfig(d=2501)
data, _ = twotank.generate_dataset(cfg)
spec = kernels.KernelSpec(input_dim=data.sites.shape[1], lengthscale=cfg.sigma)
model = kernels.fit_interpolant(spec, data)
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


def _start(threads: int, *args: str) -> subprocess.Popen:
    """``python *args`` in a fresh interpreter at ``threads`` BLAS threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def test_reference_episode_is_the_same_at_one_and_two_blas_threads():
    procs = {threads: _start(threads, "-c", EPISODE) for threads in (1, 2)}
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


def test_d101_bundle_is_pinned_at_one_and_two_blas_threads(tmp_path):
    procs = {
        threads: _start(
            threads,
            "-m", "narxmpc.cli", "benchmark", "--only-D", "101", "--out", str(tmp_path / str(threads)),
        )
        for threads in (1, 2)
    }
    digests = {}
    for threads, proc in procs.items():
        _, err = proc.communicate(timeout=600)
        assert proc.returncode == 0, err
        digests[threads] = bench.bundle_digests(tmp_path / str(threads))
    assert digests[1] == digests[2]
    assert digests[1] == REFERENCE_BUNDLE_D101
