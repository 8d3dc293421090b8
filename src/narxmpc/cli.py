"""Command-line interface.

Subcommands
-----------
generate   draw an identification dataset from the two-tank plant
fit        fit a kernel surrogate to a dataset file
simulate   run the receding-horizon loop on the plant with a fitted model
certify    build a stability certificate for a model and a recorded trace
benchmark  run the full two-dataset comparison

Configuration comes from an optional key=value file (see ``--config``);
command-line flags override file values.  The prediction horizon comes
only from the ``N`` key, so ``simulate`` and ``certify`` run with one
configuration agree on it.  Exit codes: 0 on success (and for
``--help`` and ``--version``), 1 for usage errors, for configuration,
input or I/O problems (any ``ValueError`` or ``OSError``) and for solver
failures (including a closed loop that stopped early), 2 when a
certification verdict fails.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bench import (
    BENCHMARK_SIZES,
    GROWTH_HORIZON,
    GROWTH_STATES,
    certify_trace,
    fit_model,
    make_mpc_config,
    run_benchmark,
    simulate_loop,
    stage_timings,
)
from .fileio import (
    load_dataset,
    load_model,
    load_trace,
    parse_benchmark_config,
    require_config,
    save_dataset,
    save_model,
    save_stability_report,
    save_trace,
    sha256_file,
    write_keyvalues,
    write_manifest,
)
from .kernels import KernelFitError
from .mpc import SolverError
from .stability import count_capped
from .twotank import BenchmarkConfig, generate_dataset


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1, as other input errors do."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", type=Path, help="key=value configuration file")
    sp.add_argument("--out", type=Path, default=Path("."), help="output directory")
    sp.add_argument("--seed", type=int, help="override the configured seed")
    sp.add_argument("--verbose", action="store_true", help="print progress")


def _add_growth_grid(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "--b-states", type=int, default=GROWTH_STATES, help="growth-bound sample states"
    )
    sp.add_argument(
        "--b-horizon", type=int, default=GROWTH_HORIZON, help="largest growth-bound horizon"
    )


def _say(args):
    if args.verbose:
        return lambda msg: print(msg, file=sys.stderr)
    return lambda msg: None


def _build_config(args, **overrides) -> BenchmarkConfig:
    kwargs = parse_benchmark_config(args.config) if args.config else {}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    for key, value in overrides.items():
        if value is not None:
            kwargs[key] = value
    return BenchmarkConfig(**kwargs)


def _manifest(args, command: str, cfg: BenchmarkConfig | None, outputs: list[Path], started: float, **extra) -> None:
    entries = {
        "command": command,
        "version": __version__,
        "config_file": str(args.config) if args.config else None,
        "config": None if cfg is None else {k: getattr(cfg, k) for k in cfg.__dataclass_fields__},
        "outputs": {p.name: sha256_file(p) for p in outputs if p.exists()},
        "duration_s": round(time.time() - started, 3),
        # The process's high-water resident set (ru_maxrss is in KiB on Linux).
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        **extra,
    }
    write_manifest(args.out / "manifest.json", entries)


def _load_model(path, cfg: BenchmarkConfig):
    model = load_model(path)
    require_config(path, cfg)
    return model


def cmd_generate(args) -> int:
    started = time.time()
    cfg = _build_config(args, d=args.D, mode=args.mode)
    args.out.mkdir(parents=True, exist_ok=True)
    data, provenance = generate_dataset(cfg)
    path = args.out / f"dataset_D{cfg.d}.csv"
    save_dataset(data, path, cfg, provenance)
    _say(args)(f"wrote {data.size} sites to {path}")
    _manifest(args, "generate", cfg, [path, path.with_suffix(".csv.meta")], started)
    return 0


def cmd_fit(args) -> int:
    started = time.time()
    cfg = _build_config(args, sigma=args.sigma, jitter=args.jitter)
    data = load_dataset(args.data)
    require_config(args.data, cfg)
    model, entries = fit_model(cfg, data)
    args.out.mkdir(parents=True, exist_ok=True)
    model_path = args.out / "model.csv"
    save_model(model, model_path, cfg)
    report_path = args.out / "fit_report.txt"
    write_keyvalues(report_path, {"size": data.size, **entries})
    _say(args)(f"fitted {data.size} sites, site residual {model.site_residual:.2e}")
    _manifest(
        args, "fit", cfg, [model_path, model_path.with_suffix(".csv.meta"), report_path], started
    )
    return 0


def cmd_simulate(args) -> int:
    started = time.time()
    cfg = _build_config(args, steps=args.steps)
    tic = time.perf_counter()
    model = _load_model(args.model, cfg)
    timings = {"load": time.perf_counter() - tic}
    tic = time.perf_counter()
    trace = simulate_loop(cfg, model)
    timings["closed_loop"] = time.perf_counter() - tic
    args.out.mkdir(parents=True, exist_ok=True)
    norm_path = args.out / "trace_norm.csv"
    raw_path = args.out / "trace_raw.csv"
    save_trace(trace, norm_path, cfg, raw=False)
    save_trace(trace, raw_path, cfg, raw=True)
    _say(args)(f"ran {trace.steps} steps; final state norm {np.linalg.norm(trace.states[-1]):.3e}")
    max_iters = make_mpc_config(cfg).solver.max_iters
    _manifest(
        args,
        "simulate",
        cfg,
        [norm_path, raw_path],
        started,
        timings_s=stage_timings(timings),
        loop_iterations=int(trace.iterations.sum()),
        capped_solves=count_capped(trace.iterations, trace.converged, max_iters),
    )
    if trace.failed_step is not None:
        print(
            f"error: closed loop failed at step {trace.failed_step}: {trace.failure}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_certify(args) -> int:
    started = time.time()
    cfg = _build_config(args)
    tic = time.perf_counter()
    model = _load_model(args.model, cfg)
    trace = load_trace(args.trace, cfg.dims, cfg.horizon, cfg.normalization())
    require_config(args.trace, cfg)
    timings = {"load": time.perf_counter() - tic}
    tic = time.perf_counter()
    growth, report = certify_trace(cfg, model, trace, args.b_states, args.b_horizon)
    timings["certify"] = time.perf_counter() - tic
    args.out.mkdir(parents=True, exist_ok=True)
    report_path = args.out / "stability_report.txt"
    steps_path = args.out / "stability_steps.csv"
    save_stability_report(report, report_path, steps_path)
    say = _say(args)
    say(growth.summary())
    say(f"verdict: {report.verdict}")
    if report.gamma_bar is not None:
        say(f"gamma_bar={report.gamma_bar:.3f} min_horizon={report.min_horizon_value:.2f}")
    _manifest(
        args,
        "certify",
        cfg,
        [report_path, steps_path],
        started,
        timings_s=stage_timings(timings),
        grid_iterations=int(growth.iterations.sum()),
        capped_solves=report.capped_solves,
    )
    print(report.verdict)
    return 0 if report.ok else 2


def cmd_benchmark(args) -> int:
    started = time.time()
    cfg = _build_config(args)
    sizes = tuple(args.only_D) if args.only_D else BENCHMARK_SIZES
    result = run_benchmark(
        cfg,
        out_dir=args.out,
        sizes=sizes,
        b_states=args.b_states,
        b_horizon=args.b_horizon,
        progress=_say(args),
    )
    outputs = [p for p in sorted(args.out.iterdir()) if p.is_file() and p.name != "manifest.json"]
    arms = {f"D{d}": arm.run_record() for d, arm in sorted(result.arms.items())}
    _manifest(args, "benchmark", cfg, outputs, started, arms=arms)
    bad = [d for d, arm in result.arms.items() if not arm.report.ok]
    for d, arm in sorted(result.arms.items()):
        print(f"D={d}: {arm.report.verdict}")
    return 2 if bad else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="narxmpc",
        description="Kernel-surrogate NARX identification, MPC and stability certificates",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("generate", help="draw an identification dataset")
    _add_common(sp)
    sp.add_argument("--D", type=int, help="number of sites (including the equilibrium)")
    sp.add_argument("--mode", choices=["trajectory", "state_grid"], help="sampling mode")
    sp.set_defaults(fn=cmd_generate)

    sp = sub.add_parser("fit", help="fit a kernel surrogate to a dataset")
    _add_common(sp)
    sp.add_argument("--data", type=Path, required=True, help="dataset CSV")
    sp.add_argument("--sigma", type=float, help="kernel lengthscale")
    sp.add_argument("--jitter", type=float, help="diagonal regularization")
    sp.set_defaults(fn=cmd_fit)

    sp = sub.add_parser("simulate", help="closed-loop run on the plant")
    _add_common(sp)
    sp.add_argument("--model", type=Path, required=True, help="fitted model CSV")
    sp.add_argument("--steps", type=int, help="closed-loop steps")
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("certify", help="stability certificate for a recorded trace")
    _add_common(sp)
    sp.add_argument("--model", type=Path, required=True, help="fitted model CSV")
    sp.add_argument("--trace", type=Path, required=True, help="normalized trace CSV")
    _add_growth_grid(sp)
    sp.set_defaults(fn=cmd_certify)

    sp = sub.add_parser("benchmark", help="full two-dataset comparison")
    _add_common(sp)
    sp.add_argument(
        "--only-D",
        type=int,
        nargs="+",
        metavar="D",
        help="restrict to these dataset sizes",
    )
    _add_growth_grid(sp)
    sp.set_defaults(fn=cmd_benchmark)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, KernelFitError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
