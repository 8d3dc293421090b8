"""Layer timings of one receding-horizon step, at D=101 and D=2501.

Run from the root of a checkout with::

    python -m pytest tests/layers_bench.py --benchmark-only

The file name does not match ``test_*.py``, so the tier-1 suite does not
collect it.  Every loaded OpenBLAS pool is set to one thread before the
first benchmark, since the thread count changes both the timings and the
bits of the fitted models.  Each layer runs on the benchmark's fitted
surrogate at ``D``:

- the fit itself (``fit_interpolant`` on the benchmark's dataset);
- one value row at B=1 and at B=64 (``output_batch``);
- the value row of one sweep step at B=1 (``kernels._value_pass`` with
  the arguments a sweep binds once): a row without the dispatch around
  it;
- one B=1, N=20 sweep;
- the stage costs of that sweep's outputs and inputs (``stage_cost``);
- the gradient and Gauss-Newton Hessian of that sweep (``_derivatives``);
- the free step of its model with every coordinate free (``_free_step``);
- one secant update of that model from a step and its gradient change
  (``_secant_update``), which every iteration after a solve's first pays;
- a solve of the reference episode that stops at its warm start;
- the same solve on a model whose ``sweep`` returns the start's stored
  ``Sweep``: the solve's fixed cost, without kernel rows;
- the episode's cold first solve, the one with the most iterations (15 at
  D=101, 19 at D=2501), so that the cost of an iteration shows beside the
  fixed cost;
- one plant step (``TwoTankPlant.output``);
- one reference episode (``simulate_loop``, 100 steps and 101 solves);
- the certify stage's check of that episode's trace against the error
  constants (``bench.check_model_errors``: one ``output_batch`` of 100
  rows and two ratios).

Three plant-side layers do not depend on ``D`` and run once each:

- the hidden-level recovery of the 400 error-constant samples
  (``twotank._previous_upper_level``);
- the first 2,048-point block of the four-coordinate scrambled Halton
  sequence (``ScrambledHalton.random``);
- the start state (``BenchmarkConfig.initial_condition``), a recovery
  of one row.

``--benchmark-json`` writes the timings to a file, as pytest-benchmark
does for any module.
"""

from __future__ import annotations

import ctypes
from types import SimpleNamespace

import numpy as np
import pytest

from narxmpc import bench, kernels, mpc, stability, twotank
from narxmpc.kernels import KernelSpec, fit_interpolant

#: Thread-count setters exported by the OpenBLAS builds numpy and scipy ship.
_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads", "openblas_set_num_threads")


def _one_blas_thread() -> int:
    """Set every loaded OpenBLAS pool to one thread; returns how many
    pools were set, 0 where the process has no ``/proc/self/maps``."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return 0
    pools = 0
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        setter = next((getattr(lib, name) for name in _SETTERS if hasattr(lib, name)), None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)
            pools += 1
    return pools


@pytest.fixture(scope="module", params=[101, 2501], ids=lambda d: f"D{d}")
def layers(request):
    """The fitted surrogate at ``D``, its controller settings, a B=1, N=20
    sweep with its derivatives, a warm-start solve of the reference
    episode that stops at its start, and that episode's trace with its
    decrease report and the error constants."""
    if not _one_blas_thread():
        pytest.skip("no OpenBLAS pool found to set to one thread")
    cfg = twotank.BenchmarkConfig(d=request.param)
    data, _ = twotank.generate_dataset(cfg)
    model = fit_interpolant(KernelSpec(input_dim=data.sites.shape[1], lengthscale=cfg.sigma), data)
    mpc_cfg = bench.make_mpc_config(cfg)
    starts = []
    solve = mpc.solve_ocp

    def recorded(f, x0, c, warm=None, secant=None):
        sol = solve(f, x0, c, warm=warm, secant=secant)
        starts.append((x0.copy(), warm, secant, sol.iterations))
        return sol

    mpc.solve_ocp = recorded
    try:
        trace = bench.simulate_loop(cfg, model)
    finally:
        mpc.solve_ocp = solve
    stopped = next(start for start in starts if start[1] is not None and start[3] == 0)
    assert starts[0][1] is None and starts[0][3] == max(start[3] for start in starts)
    start = mpc._project(stopped[1].reshape(1, -1), *mpc_cfg._input_bounds).reshape(1, *stopped[1].shape)
    rng = np.random.default_rng(0)
    X0 = rng.uniform(-0.3, 0.3, size=(1, cfg.dims.n))
    U = rng.uniform(-0.1, 0.1, size=(1, cfg.horizon, cfg.dims.m))
    sweep = model.sweep(X0, U)
    q_bar, r_bar, eye = mpc_cfg.horizon_blocks
    u = U.reshape(1, -1)
    _, gn = mpc._derivatives(mpc._layout(cfg.dims, cfg.horizon), sweep, u, q_bar, r_bar)
    X_est, U_est = bench.error_constant_samples(cfg, 400, seed=cfg.seed + 11)
    return {
        "cfg": cfg,
        "model": model,
        "mpc_cfg": mpc_cfg,
        "X0": X0,
        "U": U,
        "sweep": sweep,
        "u": u,
        "gn": gn,
        "stopped": stopped[:3],
        "cold": starts[0][:3],
        "stored": _StoredSweep(model, model.sweep(stopped[0][None], start)),
        "trace": trace,
        "report": stability.verify_decrease(trace, stability.storage_matrix(cfg.dims, mpc_cfg.weights)),
        "constants": kernels.estimate_error_constants(bench.plant_views(cfg)[0], model, X_est, U_est),
    }


class _StoredSweep:
    """A model whose ``sweep`` returns one stored ``Sweep``, whatever it is
    asked: a solve on it that stops at its start pays no kernel row."""

    def __init__(self, model, sweep):
        self.dims, self._sweep = model.dims, sweep

    def sweep(self, X0, U):
        return self._sweep


def test_fit(benchmark, layers):
    model = layers["model"]
    benchmark(fit_interpolant, model.spec, model.data)


@pytest.mark.parametrize("rows", [1, 64])
def test_value_rows(benchmark, layers, rows):
    rng = np.random.default_rng(rows)
    X = rng.uniform(-0.3, 0.3, size=(rows, layers["cfg"].dims.n))
    U = rng.uniform(-0.1, 0.1, size=(rows, layers["cfg"].dims.m))
    benchmark.extra_info["rows"] = rows
    benchmark(layers["model"].output_batch, X, U)


def test_sweep_step_value_row(benchmark, layers):
    model = layers["model"]
    site = np.hstack([layers["X0"], layers["U"][:, 0]])
    out, fourth = np.empty((1, 1, model.dims.p)), np.empty((1, model.data.sites.shape[0]))
    benchmark(kernels._value_pass, site, out, fourth, *model._pass_args(1))


def test_sweep_b1_n20(benchmark, layers):
    benchmark(layers["model"].sweep, layers["X0"], layers["U"])


def test_stage_cost(benchmark, layers):
    benchmark(mpc.stage_cost, layers["sweep"].outputs, layers["U"], layers["mpc_cfg"].weights)


def test_derivatives(benchmark, layers):
    q_bar, r_bar, _ = layers["mpc_cfg"].horizon_blocks
    layout = mpc._layout(layers["cfg"].dims, layers["cfg"].horizon)
    benchmark(mpc._derivatives, layout, layers["sweep"], layers["u"], q_bar, r_bar)


def test_free_step(benchmark, layers):
    free = np.ones(layers["u"].shape, dtype=bool)
    g = np.random.default_rng(1).standard_normal(layers["u"].shape)
    benchmark(mpc._free_step, layers["gn"], free, g, layers["mpc_cfg"].horizon_blocks[2])


def test_secant_update(benchmark, layers):
    """One structured BFGS update of a zero secant part from the pair of a
    random step and the change it makes in the model's gradient, with a
    curvature above the model's, so the pair is taken."""
    rng = np.random.default_rng(2)
    step = rng.standard_normal(layers["u"].shape) * 1e-2
    change = 1.5 * mpc._matvec(layers["gn"], step)
    start = np.zeros_like(layers["gn"])
    rows = SimpleNamespace(step=step, secant=start)

    def update():
        rows.secant = start.copy()
        mpc._secant_update(rows, layers["gn"], change)

    benchmark(update)
    assert rows.secant.any()


def test_solve_stopping_at_its_warm_start(benchmark, layers):
    x0, warm, secant = layers["stopped"]
    sol = benchmark(mpc.solve_ocp, layers["model"], x0, layers["mpc_cfg"], warm, secant)
    assert sol.iterations == 0 and sol.converged


def test_solve_fixed_cost(benchmark, layers):
    x0, warm, secant = layers["stopped"]
    sol = benchmark(mpc.solve_ocp, layers["stored"], x0, layers["mpc_cfg"], warm, secant)
    assert sol.iterations == 0 and sol.converged


def test_cold_first_solve(benchmark, layers):
    x0, warm, secant = layers["cold"]
    sol = benchmark(mpc.solve_ocp, layers["model"], x0, layers["mpc_cfg"], warm, secant)
    benchmark.extra_info["iterations"] = sol.iterations
    assert sol.iterations == {101: 15, 2501: 19}[layers["cfg"].d] and sol.converged


def test_plant_step(benchmark, layers):
    cfg = layers["cfg"]
    _, levels = cfg.initial_condition()
    plant = twotank.TwoTankPlant(cfg, *levels)
    u = np.array([0.05])

    def step():
        plant.h1, plant.h2 = levels
        return plant.output(None, u)

    benchmark(step)


def test_reference_episode(benchmark, layers):
    trace = benchmark.pedantic(bench.simulate_loop, args=(layers["cfg"], layers["model"]), rounds=5, iterations=1)
    benchmark.extra_info["iterations"] = int(trace.iterations.sum())


def test_on_trace_check(benchmark, layers):
    report = layers["report"]
    benchmark(bench.check_model_errors, report, layers["model"], layers["trace"], layers["constants"])
    assert report.error_bound_on_trace is {101: True, 2501: False}[layers["cfg"].d]


def test_hidden_level_recovery_400_rows(benchmark):
    cfg = twotank.BenchmarkConfig()
    X, _ = bench.error_constant_samples(cfg, 400, seed=cfg.seed + 11)
    raw = cfg.normalization().denormalize_state(X, cfg.dims)
    records = raw[:, 1].copy(), raw[:, 0].copy(), raw[:, cfg.dims.nu].copy()
    benchmark(twotank._previous_upper_level, *records, cfg.params)


def test_halton_block(benchmark):
    sampler = twotank.ScrambledHalton(4, 0)

    def first_block():
        sampler._generated = 0
        return sampler.random(twotank._HALTON_BLOCK)

    benchmark(first_block)


def test_initial_condition(benchmark):
    benchmark(twotank.BenchmarkConfig().initial_condition)
