"""End-to-end two-tank benchmark: identify, control, certify, compare.

For each dataset size the pipeline generates data from the plant, fits
a kernel surrogate, estimates the proportional model-error constants,
runs the receding-horizon loop on the real plant and certifies the
decrease of the candidate Lyapunov function.  The two dataset sizes are
then compared on the same initial condition.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .fileio import (
    require_trace_config,
    save_dataset,
    save_model,
    save_stability_report,
    save_trace,
    sha256_file,
    write_csv,
    write_keyvalues,
)
from .kernels import (
    ErrorConstants,
    KernelInterpolant,
    KernelSpec,
    estimate_error_constants,
    fill_distance,
    fit_interpolant,
)
from .mpc import ClosedLoopTrace, MpcConfig, StageCostWeights, run_closed_loop
from .stability import (
    GrowthBoundEstimate,
    StabilityReport,
    estimate_growth_bound,
    require_applied_step,
    storage_matrix,
    verify_decrease,
)
from .twotank import (
    BenchmarkConfig,
    TwoTankNarxDynamics,
    TwoTankPlant,
    generate_dataset,
    sample_consistent_states,
    sample_state_grid,
)

#: Dataset sizes compared by the standard benchmark run.
BENCHMARK_SIZES = (101, 2501)

#: Growth-bound grid size and largest horizon used to certify a model.
GROWTH_STATES = 50
GROWTH_HORIZON = 10


def make_mpc_config(cfg: BenchmarkConfig) -> MpcConfig:
    """Controller configuration induced by the benchmark settings."""
    weights = StageCostWeights(Q=np.array([[cfg.q_weight]]), R=np.array([[cfg.r_weight]]))
    return MpcConfig(
        horizon=cfg.horizon,
        weights=weights,
        input_box=cfg.input_box(),
        dims=cfg.dims,
    )


def plant_views(cfg: BenchmarkConfig):
    """The pure NARX view and a fresh closed-loop plant at the initial levels."""
    _, levels = cfg.initial_condition()
    narx_view = TwoTankNarxDynamics(cfg.params, cfg.normalization(), cfg.dims)
    return narx_view, TwoTankPlant(cfg, *levels)


def probe_sites(cfg: BenchmarkConfig, count: int, seed: int) -> np.ndarray:
    """Reachable regressor-input probes used for fill-distance estimates."""
    states = sample_consistent_states(cfg, count, seed, min_norm=0.0)
    rng = np.random.default_rng(seed + 1)
    u = rng.uniform(0.0, 1.0, size=(count, 1))
    box = cfg.input_box()
    u = box.lo + (box.hi - box.lo) * u
    return np.hstack([states, u])


def error_constant_samples(
    cfg: BenchmarkConfig, count: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Reachable (state, input) samples, plus the exact equilibrium pair."""
    n = cfg.dims.n
    samples = np.vstack([np.zeros((1, n + cfg.dims.m)), probe_sites(cfg, count - 1, seed)])
    return samples[:, :n], samples[:, n:]


def fit_model(cfg: BenchmarkConfig, data) -> tuple[KernelInterpolant, dict]:
    """Fit stage: the kernel surrogate and the report entries that depend
    only on the model, ending with the fill distance of its sites."""
    spec = KernelSpec(input_dim=data.sites.shape[1], lengthscale=cfg.sigma)
    model = fit_interpolant(spec, data)
    entries = {
        "sigma": model.spec.lengthscale,
        "site_residual": model.site_residual,
        "rkhs_norm": model.rkhs_norm(),
        "fill_distance": fill_distance(data.sites, probe_sites(cfg, 2000, seed=cfg.seed + 23)),
    }
    return model, entries


def simulate_loop(cfg: BenchmarkConfig, model: KernelInterpolant) -> ClosedLoopTrace:
    """Closed-loop stage: MPC on the surrogate drives the plant from the
    configured initial condition."""
    mpc_cfg = make_mpc_config(cfg)
    x0, levels = cfg.initial_condition()
    return run_closed_loop(
        TwoTankPlant(cfg, *levels),
        model,
        mpc_cfg,
        x0,
        cfg.steps,
        storage_matrix=storage_matrix(cfg.dims, mpc_cfg.weights).P,
        normalization=cfg.normalization(),
    )


def certify_trace(
    cfg: BenchmarkConfig,
    model: KernelInterpolant,
    trace: ClosedLoopTrace,
    b_states: int = GROWTH_STATES,
    b_horizon: int = GROWTH_HORIZON,
    constants: ErrorConstants | None = None,
) -> tuple[GrowthBoundEstimate, StabilityReport]:
    """Certify stage: growth bounds of the surrogate on the standard state
    grid, then the decrease check along the recorded trace, both tagged
    ``surrogate_D<d>`` by the model's dataset size.  A trace with no applied
    step, or one that ``require_trace_config`` refuses under ``cfg``, is rejected first.
    Then :func:`check_model_errors` checks the trace, against the error
    ``constants`` when given."""
    require_applied_step(trace)
    require_trace_config(trace, cfg)
    model_tag = f"surrogate_D{model.data.size}"
    mpc_cfg = make_mpc_config(cfg)
    grid = sample_state_grid(cfg, b_states, seed=cfg.seed + 29, min_norm=1e-3)
    growth = estimate_growth_bound(model, mpc_cfg, grid, b_horizon, model_tag=model_tag)
    report = verify_decrease(
        trace,
        storage_matrix(cfg.dims, mpc_cfg.weights),
        growth=growth,
        model_tag=model_tag,
        max_iters=mpc_cfg.solver.max_iters,
    )
    check_model_errors(report, model, trace, constants)
    return growth, report


def check_model_errors(report: StabilityReport, model, trace: ClosedLoopTrace, constants=None) -> None:
    """Fill ``report`` with the one-step model errors ``e_k = ||y(k+1) -
    F(x_k, u_k)||`` of ``trace`` (one ``output_batch`` of ``model``) and
    ``trace_error_ratio``, the largest ``e_k / ||[x_k; u_k]||`` over the
    steps outside the deadband (0 with none); given the error
    ``constants``, also ``trace_bound_ratio``, the largest ratio to their
    bound there, and ``error_bound_on_trace``, whether it is at most 1."""
    x, u = trace.states[:-1], trace.inputs
    errors = np.linalg.norm(trace.outputs - model.output_batch(x, u), axis=1)
    report.model_errors = np.append(errors, np.nan)
    active = report.state_norms[:-1] > report.deadband  # the steps the decrease check reads
    errors, x_norms, u_norms = errors[active], report.state_norms[:-1][active], np.linalg.norm(u[active], axis=1)
    report.trace_error_ratio = float(np.max(errors / np.hypot(x_norms, u_norms), initial=0.0))
    if constants is not None:
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero bound fails the check
            report.trace_bound_ratio = float(np.max(errors / constants.bound(x_norms, u_norms), initial=0.0))
        report.error_bound_on_trace = report.trace_bound_ratio <= 1.0


def run_record(timings: dict[str, float], capped: tuple[int, float | None], trace=None, growth=None) -> dict:
    """The run record of a stage or an arm: stage wall times (s, rounded to
    ms), the iterations and rejected line-search trials of the closed loop
    (its terminal solve included) when given its ``trace``, and of the
    growth grid when given its ``growth`` estimate, then ``capped``: the
    count of capped solves behind the certificate and the largest
    projected-gradient norm among them (None when none capped)."""
    record = {"timings_s": {stage: round(seconds, 3) for stage, seconds in timings.items()}}
    for prefix, solves in (("loop", trace), ("grid", growth)):
        if solves is not None:
            record[f"{prefix}_iterations"] = int(solves.iterations.sum())
            record[f"{prefix}_backtracks"] = int(solves.backtracks.sum())
    record["capped_solves"], record["capped_max_grad_norm"] = capped
    return record


@dataclass
class BenchmarkArm:
    """Everything produced for one dataset size."""

    d: int
    dataset: object
    provenance: dict
    model: KernelInterpolant
    fit_entries: dict
    constants: ErrorConstants
    trace: ClosedLoopTrace
    growth: GrowthBoundEstimate
    report: StabilityReport
    timings: dict = field(default_factory=dict)


@dataclass
class BenchmarkResult:
    cfg: BenchmarkConfig
    arms: dict[int, BenchmarkArm]
    comparison_header: list[str]
    comparison: np.ndarray


def run_arm(
    cfg: BenchmarkConfig,
    d: int,
    b_states: int = GROWTH_STATES,
    b_horizon: int = GROWTH_HORIZON,
    progress=None,
) -> BenchmarkArm:
    """Run the full pipeline for one dataset size."""
    cfg_d = replace(cfg, d=d)
    say = progress or (lambda msg: None)
    timings: dict[str, float] = {}

    tic = time.perf_counter()
    data, provenance = generate_dataset(cfg_d)
    timings["generate"] = time.perf_counter() - tic
    say(f"D={d}: generated {data.size} sites ({timings['generate']:.1f} s)")

    tic = time.perf_counter()
    model, fit_entries = fit_model(cfg_d, data)
    timings["fit"] = time.perf_counter() - tic
    say(
        f"D={d}: fitted (site residual {model.site_residual:.2e}, "
        f"fill {fit_entries['fill_distance']:.3f}, {timings['fit']:.1f} s)"
    )

    tic = time.perf_counter()
    narx_view = TwoTankNarxDynamics(cfg_d.params, cfg_d.normalization(), cfg_d.dims)
    X_est, U_est = error_constant_samples(cfg_d, 400, seed=cfg.seed + 11)
    constants = estimate_error_constants(narx_view, model, X_est, U_est)
    timings["constants"] = time.perf_counter() - tic
    say(f"D={d}: c_x={constants.c_x:.3e} c_u={constants.c_u:.3e} ({timings['constants']:.1f} s)")

    tic = time.perf_counter()
    trace = simulate_loop(cfg_d, model)
    timings["closed_loop"] = time.perf_counter() - tic
    say(f"D={d}: closed loop done ({timings['closed_loop']:.1f} s)")

    tic = time.perf_counter()
    growth, report = certify_trace(cfg_d, model, trace, b_states, b_horizon, constants)
    timings["certify"] = time.perf_counter() - tic
    say(f"D={d}: {growth.summary()}")
    say(f"D={d}: verdict {report.verdict} ({timings['certify']:.1f} s)")

    return BenchmarkArm(
        d=d,
        dataset=data,
        provenance=provenance,
        model=model,
        fit_entries=fit_entries,
        constants=constants,
        trace=trace,
        growth=growth,
        report=report,
        timings=timings,
    )


def comparison_table(cfg: BenchmarkConfig, arms: dict[int, BenchmarkArm]):
    """Raw-unit output and state-error columns, one row per loop step."""
    header = ["k"]
    steps = min(arm.trace.steps for arm in arms.values())
    columns = [np.arange(steps + 1)]
    norm = cfg.normalization()
    y_cols, err_cols = [], []
    for d, arm in sorted(arms.items()):
        states_raw = norm.denormalize_state(arm.trace.states[: steps + 1], cfg.dims)
        eq_raw = norm.denormalize_state(np.zeros(cfg.dims.n), cfg.dims)
        y_cols.append((f"y_D{d}", states_raw[:, 0]))
        err_cols.append((f"err_D{d}", np.linalg.norm(states_raw - eq_raw, axis=1)))
    for name, col in y_cols + err_cols:
        header.append(name)
        columns.append(col)
    return header, np.column_stack(columns)


def fit_report_entries(arm: BenchmarkArm) -> dict:
    entries = {
        "d": arm.d,
        **arm.fit_entries,
        "c_x": arm.constants.c_x,
        "c_u": arm.constants.c_u,
        "error_samples": arm.constants.sample_count,
    }
    entries.update({f"gen_{k}": v for k, v in arm.provenance.items()})
    return entries


def run_benchmark(
    cfg: BenchmarkConfig,
    out_dir=None,
    sizes=BENCHMARK_SIZES,
    b_states: int = GROWTH_STATES,
    b_horizon: int = GROWTH_HORIZON,
    progress=None,
) -> BenchmarkResult:
    """Run every benchmark arm and optionally write the artifact bundle.

    Each size runs once.  A repeated size, a size below 1 or a growth
    grid with no state or no horizon raises ``ValueError`` before the
    first arm runs.  Returns the in-memory result; when ``out_dir`` is
    given, writes per size the dataset, model, fit report, normalized and
    raw traces (each with its sidecar) and the stability report, plus the
    combined comparison table.
    """
    repeated = [d for i, d in enumerate(sizes) if d in sizes[:i]]
    if repeated:
        raise ValueError(f"dataset size {repeated[0]} is given more than once")
    small = [d for d in sizes if d < 1]
    if small:
        raise ValueError(f"dataset size {small[0]} is below 1")
    if b_states < 1:
        raise ValueError(f"b_states must be at least 1, got {b_states}")
    if b_horizon < 1:
        raise ValueError(f"b_horizon must be at least 1, got {b_horizon}")
    arms = {d: run_arm(cfg, d, b_states, b_horizon, progress) for d in sizes}
    header, table = comparison_table(cfg, arms)
    result = BenchmarkResult(cfg=cfg, arms=arms, comparison_header=header, comparison=table)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for d, arm in arms.items():
            save_dataset(arm.dataset, out / f"dataset_D{d}.csv", cfg, arm.provenance)
            save_model(arm.model, out / f"model_D{d}.csv", cfg)
            write_keyvalues(out / f"fit_report_D{d}.txt", fit_report_entries(arm))
            save_trace(arm.trace, out / f"trace_norm_D{d}.csv", cfg, raw=False)
            save_trace(arm.trace, out / f"trace_raw_D{d}.csv", cfg, raw=True)
            save_stability_report(
                arm.report,
                out / f"stability_report_D{d}.txt",
                out / f"stability_steps_D{d}.csv",
            )
        write_csv(out / "comparison.csv", header, table)
    return result


def bundle_digests(out_dir) -> dict[str, str]:
    """Content digests of every artifact in a benchmark output directory.

    ``manifest.json`` is left out: it records wall times, which differ
    from run to run.
    """
    out = Path(out_dir)
    return {
        p.name: sha256_file(p)
        for p in sorted(out.iterdir())
        if p.is_file() and p.suffix in (".csv", ".txt", ".meta")
    }
