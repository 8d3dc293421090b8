"""The three narxmpc workloads: what each sets up, times and checks.

Every workload times a *reference pass* and then runs a *seeded pass*:

* The reference pass feeds the bounded end-to-end metrics.  Its inputs
  are the paper's standard two-tank benchmark (dataset seed 0, initial
  level 0.2 m, growth-bound grid seed 29), so its work is the same on
  every run.  Solver cost per input is chaotic here: whether a solve
  stalls at the 500-iteration cap flips with small input changes, and
  one capped solve costs as much as a hundred converged ones.  Measured
  on 2 cores with one BLAS thread, 100-step episodes at D=2501 take 3.8
  to 19 s depending on the initial level and growth-bound grid states
  take 0.16 to 3.8 s each; the dataset seed alone moves total iterations
  threefold.  Timings
  of seeded inputs therefore vary from seed to seed far more than any
  regression bound; timings of the reference pass do not.
* The seeded pass draws its inputs from ``--seed`` (initial levels for
  the loop and the pipeline, the growth-bound grid for certification),
  runs the same code path, and passes the same output checks.  Its
  timings are recorded with the result but not bounded.  A claim made on
  the reference pass can so be rechecked on inputs no one tuned for.

The dataset stays at the standard seed in both passes: with D=101,
dataset seeds 1 and 3 give a ``decrease_violated`` certificate, and at
D=2501 the dataset seed moves the work threefold.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from narxmpc import bench, cli, fileio, kernels, mpc, stability, twotank
from narxmpc.stability import VERDICT_EQUILIBRIUM, VERDICT_VERIFIED

from probes import Patcher, StepClock, TimedPlant, capture, timed_closed_loop

#: Largest final level error (m) a closed loop may leave after its episode.
LEVEL_TOLERANCE = 1e-6

OK_VERDICTS = (VERDICT_EQUILIBRIUM, VERDICT_VERIFIED)

#: Range (m) the seeded initial levels are drawn from: the level domain
#: [0, 0.5] m inset by 0.02 m.  Every level in it passes the loop checks.
SEEDED_LEVELS = (0.02, 0.48)


@dataclass
class Pass:
    """Raw outputs of one timed pass, inspected after the clock stopped."""

    work_s: float
    steps: list[float]
    outputs: dict = field(default_factory=dict)
    #: ``work_s`` rescaled to reference speed (``probes.Gauged``); set by
    #: the runner for gauged passes.
    scaled_s: float | None = None


@dataclass
class Inspection:
    checks: list[tuple[str, bool, str]]
    fingerprint: dict
    requested: int
    completed: int


def _level_error(cfg, trace) -> float:
    """Distance (m) of the last measured level from the setpoint."""
    y = trace.normalization.denormalize_state(trace.states[-1], cfg.dims)[0]
    return abs(float(y) - cfg.equilibrium[0])


def _loop_solves(trace, steps) -> tuple[int, int]:
    """OCP solves requested and completed by one closed loop."""
    if trace.failed_step is not None:
        return steps + 1, trace.failed_step
    terminal = 1 if np.isfinite(trace.values[-1]) else 0
    return steps + 1, steps + terminal


def _check(checks, name, ok, detail=""):
    checks.append((name, bool(ok), detail))


def _floats(values):
    return None if values is None else [float(v) for v in np.asarray(values).ravel()]


class Workload:
    name = ""
    #: Name of this workload's ``work_s`` in the printout and the record.
    work_name = ""
    #: Reference passes a run times at least, whatever ``--seconds`` says.
    min_passes = 3
    salt = 0

    def __init__(self, seed: int, tiny: bool, scratch: Path):
        self.scratch = scratch
        self.rng = np.random.default_rng([seed, self.salt])
        self.setup_steps: list[float] = []

    def setup(self) -> None:
        """The repeatable part of set-up (timed several times)."""

    def prepare(self) -> None:
        """The once-only part of set-up."""

    def reference(self) -> Pass:
        raise NotImplementedError

    def seeded(self) -> Pass:
        raise NotImplementedError

    def inspect(self, p: Pass) -> Inspection:
        raise NotImplementedError

    def step_samples(self, passes: list[Pass]) -> list[float]:
        return [s for p in passes for s in p.steps]

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


class _SurrogateWorkload(Workload):
    """Shared set-up of the two D=2501 workloads: data, fit and controller."""

    def __init__(self, seed, tiny, scratch):
        super().__init__(seed, tiny, scratch)
        self.cfg = twotank.BenchmarkConfig(d=101 if tiny else 2501)
        self.mpc_cfg = bench.make_mpc_config(self.cfg)
        self.storage = stability.storage_matrix(self.cfg.dims, self.mpc_cfg.weights)
        self._constants = None

    def setup(self) -> None:
        # Drop the previous set-up's model first, so a repeat does not hold
        # two D=2501 factorizations at once and inflate the peak RSS.
        self.data = self.model = self.dynamics = None
        data, _ = twotank.generate_dataset(self.cfg)
        spec = kernels.KernelSpec(input_dim=data.sites.shape[1], lengthscale=self.cfg.sigma)
        self.data = data
        self.model = kernels.fit_interpolant(spec, data, jitter=self.cfg.jitter)
        self.dynamics = self.model.as_dynamics()
        self.warm_up()

    def warm_up(self) -> None:
        raise NotImplementedError

    def episode(self, h0: float, clock: StepClock):
        """One closed loop from level ``h0``; returns the trace and its wall time."""
        cfg = replace(self.cfg, h0=h0)
        _, plant = bench.plant_views(cfg)
        x0, _ = cfg.initial_condition()
        clock.start()
        tic = perf_counter()
        trace = mpc.run_closed_loop(
            TimedPlant(plant, clock),
            self.dynamics,
            self.mpc_cfg,
            x0,
            cfg.steps,
            storage_matrix=self.storage.P,
            normalization=cfg.normalization(),
        )
        return trace, perf_counter() - tic

    def model_constants(self) -> dict:
        """Certificate quantities of the fitted model, as ``run_arm`` forms them."""
        if self._constants is None:
            cfg = self.cfg
            narx_view, _ = bench.plant_views(cfg)
            X, U = bench.error_constant_samples(cfg, 400, seed=cfg.seed + 11)
            c = kernels.estimate_error_constants(narx_view, self.model, X, U)
            probes = bench.probe_sites(cfg, 2000, seed=cfg.seed + 23)
            self._constants = {
                "c_x": c.c_x,
                "c_u": c.c_u,
                "fill_distance": kernels.fill_distance(self.data.sites, probes),
                "site_residual": self.model.site_residual,
            }
        return self._constants


class LoopD2501(_SurrogateWorkload):
    """Online control: sequential 100-step receding-horizon episodes."""

    name = "loop_d2501"
    work_name = "loop_s"
    salt = 1

    def __init__(self, seed, tiny, scratch):
        super().__init__(seed, tiny, scratch)
        self.h0_seeded = float(self.rng.uniform(*SEEDED_LEVELS))

    def warm_up(self) -> None:
        x0, _ = self.cfg.initial_condition()
        mpc.solve_ocp(self.dynamics, x0, self.mpc_cfg)

    def _run(self, h0) -> Pass:
        clock = StepClock()
        trace, work = self.episode(h0, clock)
        return Pass(work_s=work, steps=clock.steps, outputs={"h0": h0, "trace": trace})

    def reference(self) -> Pass:
        return self._run(self.cfg.h0)

    def seeded(self) -> Pass:
        return self._run(self.h0_seeded)

    def inspect(self, p: Pass) -> Inspection:
        h0, trace = p.outputs["h0"], p.outputs["trace"]
        err = _level_error(self.cfg, trace)
        report = stability.verify_decrease(trace, self.storage)
        checks = []
        _check(checks, f"h0={h0!r}: no failed step", trace.failed_step is None, str(trace.failure))
        _check(checks, f"h0={h0!r}: level error < {LEVEL_TOLERANCE} m", err < LEVEL_TOLERANCE, repr(err))
        fingerprint = {
            "h0": h0,
            "verdict": report.verdict,
            "alpha": report.alpha,
            "gamma_bar": None,
            "min_horizon": None,
            "b_values": None,
            **self.model_constants(),
            "terminal_error": err,
            "total_iterations": int(trace.iterations.sum()),
        }
        return Inspection(checks, fingerprint, *_loop_solves(trace, self.cfg.steps))


class CertifyD2501(_SurrogateWorkload):
    """Offline certification: growth bounds on a state grid, then the decrease check."""

    name = "certify_d2501"
    work_name = "certify_s"
    salt = 2

    def __init__(self, seed, tiny, scratch):
        super().__init__(seed, tiny, scratch)
        self.n_max = 3 if tiny else 10
        # The standard grid (seed 29, as ``run_arm`` draws it) cut to its
        # first 4 states, which take about 7 s at D=2501 on 2 cores.
        self.grid_ref = twotank.sample_state_grid(
            self.cfg, 2 if tiny else 4, seed=self.cfg.seed + 29, min_norm=1e-3
        )
        self.grid_seeded = twotank.sample_state_grid(
            self.cfg, 1 if tiny else 2, seed=int(self.rng.integers(2**31 - 1)), min_norm=1e-3
        )

    def warm_up(self) -> None:
        stability.estimate_growth_bound(self.dynamics, self.mpc_cfg, self.grid_ref[:1], 1)

    def prepare(self) -> None:
        clock = StepClock()
        self.trace, _ = self.episode(self.cfg.h0, clock)
        self.setup_steps = clock.steps

    def _run(self, grid) -> Pass:
        tic = perf_counter()
        growth = stability.estimate_growth_bound(
            self.dynamics, self.mpc_cfg, grid, self.n_max, model_tag=self.name
        )
        report = stability.verify_decrease(
            self.trace, self.storage, growth=growth, model_tag=self.name
        )
        return Pass(work_s=perf_counter() - tic, steps=[], outputs={"growth": growth, "report": report})

    def reference(self) -> Pass:
        return self._run(self.grid_ref)

    def seeded(self) -> Pass:
        return self._run(self.grid_seeded)

    def step_samples(self, passes):
        return self.setup_steps

    def inspect(self, p: Pass) -> Inspection:
        growth, report = p.outputs["growth"], p.outputs["report"]
        b = growth.b_values
        checks = []
        _check(checks, "certified trace has no failed step", self.trace.failed_step is None, str(self.trace.failure))
        _check(checks, "verdict is decrease_verified", report.verdict == VERDICT_VERIFIED, report.verdict)
        _check(checks, "B_N finite", np.all(np.isfinite(b)), repr(_floats(b)))
        _check(checks, "B_N nondecreasing", np.all(np.diff(b) >= 0), repr(_floats(b)))
        failed_entries = int(np.sum(~np.isfinite(growth.ratios)))
        _check(
            checks,
            "no growth failures",
            growth.solver_failures == 0 and failed_entries == 0,
            f"{growth.solver_failures} solver failures, {failed_entries} NaN entries",
        )
        fingerprint = {
            "verdict": report.verdict,
            "alpha": report.alpha,
            "gamma_bar": report.gamma_bar,
            "min_horizon": report.min_horizon_value,
            "b_values": _floats(b),
            **self.model_constants(),
            "terminal_error": _level_error(self.cfg, self.trace),
            "total_iterations": int(self.trace.iterations.sum()),
        }
        return Inspection(checks, fingerprint, int(growth.ratios.size), int(growth.ratios.size) - failed_entries)


class PipelineD101(Workload):
    """The ``narxmpc benchmark --only-D 101`` command, run in-process."""

    name = "pipeline_d101"
    work_name = "pipeline_s"
    salt = 3
    d = 101

    def __init__(self, seed, tiny, scratch):
        super().__init__(seed, tiny, scratch)
        self.extra = ["--b-states", "2", "--b-horizon", "3"] if tiny else []
        self.steps_cfg = 20 if tiny else twotank.BenchmarkConfig().steps
        self.h0_seeded = float(self.rng.uniform(*SEEDED_LEVELS))
        self._runs = 0

    def _config(self, **entries) -> list[str]:
        path = self.scratch / f"config_{self._runs}.txt"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("".join(f"{k} = {v!r}\n" for k, v in entries.items()))
        return ["--config", str(path)]

    def _cli(self, args) -> Pass:
        self._runs += 1
        out = self.scratch / f"bundle_{self._runs}"
        argv = ["benchmark", "--only-D", str(self.d), "--out", str(out), *args]
        clock, traces, growths = StepClock(), [], []
        patcher = Patcher()
        patcher.function(mpc, "run_closed_loop", timed_closed_loop(clock, traces))
        patcher.function(stability, "estimate_growth_bound", capture(growths))
        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout):
                tic = perf_counter()
                rc = cli.main(argv)
                work = perf_counter() - tic
        finally:
            patcher.restore()
        return Pass(
            work_s=work,
            steps=clock.steps,
            outputs={"rc": rc, "stdout": stdout.getvalue(), "out": out, "traces": traces, "growths": growths},
        )

    def setup(self) -> None:
        warm = self._cli(self._config(steps=3) + ["--b-states", "1", "--b-horizon", "1"])
        shutil.rmtree(warm.outputs["out"], ignore_errors=True)

    def reference(self) -> Pass:
        p = self._cli(self._config(steps=self.steps_cfg) + self.extra)
        p.outputs["standard"] = True
        return p

    def seeded(self) -> Pass:
        p = self._cli(self._config(steps=self.steps_cfg, h0=self.h0_seeded) + self.extra)
        p.outputs["standard"] = False
        return p

    def inspect(self, p: Pass) -> Inspection:
        o = p.outputs
        out, d = o["out"], self.d
        checks = []
        report = fileio.read_keyvalues(out / f"stability_report_D{d}.txt")
        if o["standard"]:
            _check(checks, "exit code 0", o["rc"] == 0, str(o["rc"]))
        else:
            # At D=101 the decrease certificate holds from about half of the
            # initial levels (h0 = 0.2 m among them); where it fails the
            # command must say so with exit code 2.
            expected = 0 if report["verdict"] in OK_VERDICTS else 2
            _check(checks, f"exit code {expected} for {report['verdict']}", o["rc"] == expected, str(o["rc"]))
        fit = fileio.read_keyvalues(out / f"fit_report_D{d}.txt")
        printed = f"D={d}: {report['verdict']}"
        _check(checks, "verdict printed", printed in o["stdout"].splitlines(), o["stdout"].strip())
        cfg = twotank.BenchmarkConfig(d=d)
        try:
            fileio.load_model(out / f"model_D{d}.csv")
            trace = fileio.load_trace(out / f"trace_norm_D{d}.csv", cfg.dims, cfg.horizon, cfg.normalization())
        except (fileio.ConfigError, ValueError) as exc:
            trace = None
            _check(checks, "bundle reloads", False, str(exc))
        else:
            _check(checks, "bundle reloads", True)
        requested = completed = 0
        for tr in o["traces"]:
            req, done = _loop_solves(tr, self.steps_cfg)
            requested += req
            completed += done
        for g in o["growths"]:
            requested += int(g.ratios.size)
            completed += int(np.sum(np.isfinite(g.ratios)))
        _check(checks, "one closed loop and one growth bound ran", len(o["traces"]) == 1 and len(o["growths"]) == 1)

        def number(entries, key):
            return float(entries[key]) if key in entries else None

        digests = bench.bundle_digests(out)
        fingerprint = {
            "verdict": report["verdict"],
            "alpha": number(report, "alpha"),
            "gamma_bar": number(report, "gamma_bar"),
            "min_horizon": number(report, "min_horizon"),
            "b_values": [float(v) for v in report["b_values"].split(",")] if "b_values" in report else None,
            "c_x": number(fit, "c_x"),
            "c_u": number(fit, "c_u"),
            "fill_distance": number(fit, "fill_distance"),
            "site_residual": number(fit, "site_residual"),
            "terminal_error": None if trace is None else _level_error(cfg, trace),
            "total_iterations": None if trace is None else int(trace.iterations.sum()),
            "bundle_sha256": hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest(),
        }
        shutil.rmtree(out, ignore_errors=True)
        return Inspection(checks, fingerprint, requested, completed)


WORKLOADS = {w.name: w for w in (LoopD2501, CertifyD2501, PipelineD101)}
