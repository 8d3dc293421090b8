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
    estimate_lipschitz,
    fill_distance,
    fit_interpolant,
    validate_error_constants,
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
    model = fit_interpolant(spec, data, jitter=cfg.jitter)
    entries = {
        "sigma": model.spec.lengthscale,
        "jitter": model.jitter,
        "certificate_degraded": model.certificate_degraded,
        "site_residual": model.site_residual,
        "rkhs_norm": model.rkhs_norm(),
        "fill_distance": fill_distance(data.sites, probe_sites(cfg, 2000, seed=cfg.seed + 23)),
    }
    return model, entries


def simulate_loop(cfg: BenchmarkConfig, model: KernelInterpolant) -> ClosedLoopTrace:
    """Closed-loop stage: MPC on the surrogate drives the plant from the
    configured initial condition."""
    mpc_cfg = make_mpc_config(cfg)
    _, plant = plant_views(cfg)
    x0, _ = cfg.initial_condition()
    return run_closed_loop(
        plant,
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
    model_tag: str = "surrogate",
) -> tuple[GrowthBoundEstimate, StabilityReport]:
    """Certify stage: growth bounds of the surrogate on the standard state
    grid, then the decrease check along the recorded trace.  A trace with
    no applied step is rejected before the grid runs."""
    require_applied_step(trace)
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
    return growth, report


def stage_timings(timings: dict[str, float]) -> dict[str, float]:
    """Stage wall times (s) rounded to ms, as run records hold them."""
    return {stage: round(seconds, 3) for stage, seconds in timings.items()}


@dataclass
class BenchmarkArm:
    """Everything produced for one dataset size."""

    d: int
    dataset: object
    provenance: dict
    model: KernelInterpolant
    fit_entries: dict
    constants: ErrorConstants
    validation: dict
    trace: ClosedLoopTrace
    growth: GrowthBoundEstimate
    report: StabilityReport
    timings: dict = field(default_factory=dict)

    def run_record(self) -> dict:
        """Stage wall times (s, rounded to ms) and solver totals of the arm:
        iterations of the closed loop (its terminal solve included) and of
        the growth grid, and the capped solves behind the certificate."""
        return {
            "timings_s": stage_timings(self.timings),
            "loop_iterations": int(self.trace.iterations.sum()),
            "grid_iterations": int(self.growth.iterations.sum()),
            "capped_solves": self.report.capped_solves,
        }


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
    narx_view, _ = plant_views(cfg_d)
    X_est, U_est = error_constant_samples(cfg_d, 400, seed=cfg.seed + 11)
    constants = estimate_error_constants(narx_view, model, X_est, U_est)
    X_val, U_val = error_constant_samples(cfg_d, 400, seed=cfg.seed + 13)
    validation = validate_error_constants(constants, narx_view, model, X_val, U_val)
    pair_rng = np.random.default_rng(cfg.seed + 17)
    pairs = probe_sites(cfg_d, 500, seed=cfg.seed + 19)
    jiggle = pair_rng.normal(scale=0.05, size=pairs.shape)
    constants = replace(
        constants, lipschitz=max(estimate_lipschitz(model, pairs, pairs + jiggle), 1e-12)
    )
    timings["constants"] = time.perf_counter() - tic
    say(f"D={d}: c_x={constants.c_x:.3e} c_u={constants.c_u:.3e} ({timings['constants']:.1f} s)")

    tic = time.perf_counter()
    trace = simulate_loop(cfg_d, model)
    timings["closed_loop"] = time.perf_counter() - tic
    say(f"D={d}: closed loop done ({timings['closed_loop']:.1f} s)")

    tic = time.perf_counter()
    growth, report = certify_trace(
        cfg_d, model, trace, b_states, b_horizon, model_tag=f"surrogate_D{d}"
    )
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
        validation=validation,
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
        "lipschitz": arm.constants.lipschitz,
        "error_samples": arm.constants.sample_count,
        "error_max_ratio": arm.constants.max_ratio,
        "validation_max_ratio": arm.validation["max_ratio"],
        "validation_drift_factor": arm.validation["drift_factor"],
        "validation_flagged": arm.validation["flagged"],
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

    Each size runs once; a repeated size raises ``ValueError``.  Returns
    the in-memory result; when ``out_dir`` is given, writes per size the
    dataset, model, fit report, normalized and raw traces (each with its
    sidecar) and the stability report, plus the combined comparison table.
    """
    repeated = [d for i, d in enumerate(sizes) if d in sizes[:i]]
    if repeated:
        raise ValueError(f"dataset size {repeated[0]} is given more than once")
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
