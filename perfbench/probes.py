"""Timing hooks installed from outside the narxmpc package.

Nothing under ``src/`` is edited.  :class:`Patcher` replaces a public
function in every ``narxmpc`` module namespace where callers look it up,
or a method on its class, and puts the originals back in reverse order.
Two kinds of hooks use it:

* :class:`Tracer` records a span (name, start, end, parent) around every
  call into a layer, plus counts at the same boundaries.  It is installed
  only for the traced pass of a ``--trace 1`` run.
* :class:`StepClock` and :func:`capture` are the always-on probes the
  end-to-end metrics need: the time between successive plant
  measurements, and the objects a pipeline builds internally (its trace
  and growth-bound estimate) for the failure count.
* :class:`Gauged` times a stretch of work together with the machine's
  speed while it ran, so that its time can be given at a fixed
  reference speed (see :func:`gauge`).
"""

from __future__ import annotations

import gzip
import json
import os
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np


def _package_modules():
    return [m for k, m in sorted(sys.modules.items()) if k == "narxmpc" or k.startswith("narxmpc.")]


class Patcher:
    """Stack of attribute replacements on narxmpc modules and classes."""

    def __init__(self):
        self._undo = []

    def function(self, module, name, make_wrapper) -> None:
        """Wrap ``module.name`` in every namespace that holds the same object.

        A name the package no longer defines is skipped, so a later
        refactor loses that span rather than breaking the run.
        """
        current = getattr(module, name, None)
        if current is None:
            return
        wrapper = make_wrapper(current)
        for mod in _package_modules():
            if getattr(mod, name, None) is current:
                self._undo.append((mod, name, current))
                setattr(mod, name, wrapper)

    def method(self, cls, name, make_wrapper) -> None:
        """Wrap a method defined on ``cls`` itself (inherited ones are skipped)."""
        current = cls.__dict__.get(name)
        if current is None:
            return
        self._undo.append((cls, name, current))
        setattr(cls, name, make_wrapper(current))

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


# --------------------------------------------------------------------------
# Always-on probes


class StepClock:
    """Control-step durations: plant measurement to plant measurement,
    less the time spent in gauges (see :func:`gauge`) within the step."""

    def __init__(self):
        self.steps: list[float] = []
        self._last = None

    def start(self) -> None:
        self._last = perf_counter() - _gauge_spent[0]

    def mark(self) -> None:
        now = perf_counter() - _gauge_spent[0]
        self.steps.append(now - self._last)
        self._last = now


class TimedPlant:
    """Plant wrapper handed to ``run_closed_loop``; marks each measurement."""

    def __init__(self, plant, clock: StepClock):
        self.plant = plant
        self.dims = plant.dims
        self.clock = clock

    def output(self, x, u):
        y = self.plant.output(x, u)
        self.clock.mark()
        return y


def timed_closed_loop(clock: StepClock, captured: list):
    """Wrapper factory for ``run_closed_loop`` that times steps and keeps traces."""

    def make(fn):
        def run_closed_loop(plant, *args, **kwargs):
            clock.start()
            trace = fn(TimedPlant(plant, clock), *args, **kwargs)
            captured.append(trace)
            return trace

        return run_closed_loop

    return make


def capture(captured: list):
    """Wrapper factory that keeps every return value."""

    def make(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            captured.append(out)
            return out

        return wrapper

    return make


# --------------------------------------------------------------------------
# Machine speed
#
# On a shared host the same work takes up to twice as long while other
# tenants load the core, in phases that last from seconds to minutes, so
# wall times of identical runs spread far wider than any regression
# bound.  A gauge -- a fixed reference computation made of the same kind
# of work as the solver's inner loop, small numpy kernel evaluations
# driven from Python -- slows down with the program, so the ratio of the
# two stays nearly constant.  A gauged stretch of work is therefore cut
# into segments of about ``GAUGE_EVERY_S`` by gauges run between the
# program's calls, and each segment is rescaled by the gauges on either
# side of it.

#: Gauge time (s) at the reference speed that reported times are rescaled
#: to: about the gauge's time on an unloaded core of the 2-core Xeon VM
#: the benchmark was written on.
GAUGE_REFERENCE_S = 300e-6

#: Least wall time (s) between two gauges inside a gauged stretch.
GAUGE_EVERY_S = 0.02

_GAUGE_SITES = np.random.default_rng(0).standard_normal((101, 4))

#: Total wall time spent in gauges so far, which step latencies leave out.
_gauge_spent = [0.0]


def gauge() -> float:
    """Run the reference computation once and return its wall time (s)."""
    tic = perf_counter()
    for i in range(40):
        np.exp(-((_GAUGE_SITES - _GAUGE_SITES[i]) ** 2).sum(axis=1)).sum()
    spent = perf_counter() - tic
    _gauge_spent[0] += spent
    return spent


def gauge_burst(n: int = 5) -> float:
    """Median gauge time of ``n`` runs in a row, for the ends of a stretch."""
    return float(np.median([gauge() for _ in range(n)]))


class Gauged:
    """Context manager that times a stretch of work and gauges the machine.

    A burst of gauges runs at both ends of the stretch, and a single gauge
    on entry to and exit from a checkpoint call whenever ``GAUGE_EVERY_S``
    has passed since the last one.  The checkpoints are every solve, the
    solver's cost and gradient evaluations (one or more per iteration)
    and the long calls of the D=2501 set-up.  :meth:`scaled` rescales
    each segment between two gauges, gauge time left out, by
    ``GAUGE_REFERENCE_S`` over the mean of the two.
    """

    def __init__(self):
        self.segments: list[tuple[float, float, float]] = []  # (wall, gauge before, gauge after)

    def __enter__(self):
        from narxmpc import kernels, mpc, twotank

        checkpoints = [
            (mpc, "solve_ocp"),
            (mpc, "cost_J_batch"),
            (mpc, "cost_gradient"),
            (twotank, "generate_dataset"),
            (kernels, "fit_interpolant"),
        ]
        self._patcher = Patcher()
        for module, name in checkpoints:
            self._patcher.function(module, name, self._wrap)
        self._gauge = gauge_burst()
        self._since = perf_counter()
        return self

    def __exit__(self, *exc):
        self._patcher.restore()
        self._checkpoint(final=True)
        return False

    def _checkpoint(self, final: bool = False) -> None:
        now = perf_counter()
        if not final and now - self._since < GAUGE_EVERY_S:
            return
        g = gauge_burst() if final else gauge()
        self.segments.append((now - self._since, self._gauge, g))
        self._gauge, self._since = g, perf_counter()

    def _wrap(self, fn):
        def wrapper(*args, **kwargs):
            self._checkpoint()
            try:
                return fn(*args, **kwargs)
            finally:
                self._checkpoint()

        return wrapper

    def scaled(self) -> float:
        """Time (s) of the stretch at reference speed."""
        return GAUGE_REFERENCE_S * sum(wall / ((a + b) / 2) for wall, a, b in self.segments)


# --------------------------------------------------------------------------
# Tracing


def _rows(arg) -> int:
    return int(np.atleast_2d(np.asarray(arg)).shape[0])


class Tracer:
    """Spans kept in memory, with counts aggregated as spans close.

    A span is *top* when no enclosing open span belongs to the same
    family, so inclusive times and call counts are not double counted
    when a layer calls itself (a validation that re-estimates constants,
    for example).  Self time is a span's duration minus the time covered
    by its direct children.
    """

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._top: list[bool] = []
        self._child: list[float] = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._solve_costs: dict[int, int] = defaultdict(int)
        self.acc: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self._top.append(self._depth[name] == 0)
        self._depth[name] += 1
        self._child.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> float:
        t = perf_counter()
        self.end[i] = t
        self._stack.pop()
        name = self.names[i]
        self._depth[name] -= 1
        dur = t - self.start[i]
        p = self.parent[i]
        if p >= 0:
            self._child[p] += dur
        acc = self.acc
        acc[name + ":self"] += dur - self._child[i]
        if self._top[i]:
            acc[name + ":n"] += 1
            acc[name + ":s"] += dur
            self.durations[name].append(dur)
        return dur

    def parent_name(self, i: int) -> str | None:
        p = self.parent[i]
        return self.names[p] if p >= 0 else None

    # -- per-family notes, called after the span closed ---------------------

    def note_rows(self, i, name, rows, dur):
        if self._top[i]:
            self.acc[name + ":rows"] += rows
            kind = "b1" if rows == 1 else "batched"
            self.acc[f"{name}:{kind}_rows"] += rows
            self.acc[f"{name}:{kind}_s"] += dur

    def note_cost(self, i):
        if self.parent_name(i) == "mpc.solve":
            self._solve_costs[self.parent[i]] += 1

    def note_solve(self, i, sol, cfg):
        acc = self.acc
        costs = self._solve_costs.pop(i, 0)
        max_iters = cfg.solver.max_iters
        capped = (not sol.converged) and sol.iterations >= max_iters
        # Each start costs one evaluation; each accepted step one more.  A
        # solve that stopped early without converging ended on a failed
        # line search, whose last iteration accepted nothing.
        ended_on_failed_search = not sol.converged and sol.iterations < max_iters
        accepted = sol.iterations - (1 if ended_on_failed_search else 0)
        acc["mpc:iterations"] += sol.iterations
        acc["mpc:rejects"] += costs - cfg.solver.multistart - accepted
        if capped:
            acc["mpc:capped"] += 1
            acc["mpc:capped_iterations"] += sol.iterations
        if self.parent_name(i) == "stability.growth":
            acc["stability:grid_solves"] += 1

    def note_growth(self, growth):
        self.acc["stability:grid_failed"] += int(np.sum(~np.isfinite(growth.ratios)))

    def note_write(self, path):
        self.acc["fileio:bytes"] += os.path.getsize(path)

    # -- output --------------------------------------------------------------

    def dump(self, path: Path, meta: dict) -> None:
        """Write every span as ``[name_id, start, end, parent]`` (gzip JSON)."""
        table = sorted(set(self.names))
        ids = {n: k for k, n in enumerate(table)}
        t0 = self.start[0] if self.start else 0.0
        spans = [
            [ids[n], round(s - t0, 9), round(e - t0, 9), p]
            for n, s, e, p in zip(self.names, self.start, self.end, self.parent)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump({**meta, "names": table, "spans": spans}, fh)


def _span(tracer, name, fn, after=None):
    def wrapper(*args, **kwargs):
        i = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            dur = tracer.close(i)
        if after is not None:
            after(i, dur, args, kwargs, out)
        return out

    return wrapper


def install_tracer(tracer: Tracer, patcher: Patcher) -> None:
    """Span every public layer entry point the benchmark's workloads reach."""
    from narxmpc import fileio, kernels, mpc, narx, stability, twotank

    t = tracer

    def spans(name, after=None):
        return lambda fn: _span(t, name, fn, after)

    def rows_after(name, first_arg_is_batch):
        def after(i, dur, args, kwargs, out):
            t.note_rows(i, name, _rows(args[1]) if first_arg_is_batch else 1, dur)

        return after

    def solve_after(i, dur, args, kwargs, out):
        cfg = args[2] if len(args) > 2 else kwargs["cfg"]
        t.note_solve(i, out, cfg)

    functions = [
        (kernels, "fit_interpolant", spans("kernels.fit")),
        (kernels, "estimate_error_constants", spans("bench.constants")),
        (kernels, "validate_error_constants", spans("bench.constants")),
        (kernels, "estimate_lipschitz", spans("bench.constants")),
        (kernels, "fill_distance", spans("bench.constants")),
        (narx, "rollout", spans("narx.rollout")),
        (mpc, "solve_ocp", spans("mpc.solve", solve_after)),
        (mpc, "cost_J", spans("mpc.cost", lambda i, *_: t.note_cost(i))),
        (mpc, "cost_J_batch", spans("mpc.cost", lambda i, *_: t.note_cost(i))),
        (mpc, "cost_gradient", spans("mpc.gradient")),
        (mpc, "finite_difference_gradient", spans("mpc.gradient")),
        (stability, "estimate_growth_bound", spans("stability.growth", lambda i, d, a, k, out: t.note_growth(out))),
        (stability, "verify_decrease", spans("stability.verify")),
        (twotank, "generate_dataset", spans("twotank.generate")),
    ]
    # Bytes count the bundle files only: the manifest records the command's
    # duration, so its length varies from run to run.
    for name in ("write_csv", "write_keyvalues"):
        functions.append((fileio, name, spans("fileio.write", lambda i, d, a, k, out: t.note_write(a[0]))))
    functions.append((fileio, "write_manifest", spans("fileio.write")))
    for module, name, make in functions:
        patcher.function(module, name, make)

    methods = [
        (kernels.KernelInterpolant, "predict", spans("kernels.value", rows_after("kernels.value", False))),
        (kernels.KernelInterpolant, "predict_batch", spans("kernels.value", rows_after("kernels.value", True))),
        (kernels.KernelInterpolant, "jacobian", spans("kernels.jacobian", rows_after("kernels.jacobian", False))),
        (twotank.TwoTankNarxDynamics, "output", spans("twotank.narx", rows_after("twotank.narx", False))),
        (twotank.TwoTankNarxDynamics, "output_batch", spans("twotank.narx", rows_after("twotank.narx", True))),
        (twotank.TwoTankPlant, "step", spans("twotank.plant")),
    ]
    for cls in (narx.NarxDynamics, twotank.TwoTankNarxDynamics):
        methods.append((cls, "rollout_batch", spans("narx.rollout")))
    for cls, name, make in methods:
        patcher.method(cls, name, make)


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(traced: Tracer, setup: Tracer, overhead_share: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass; fit and generate times also
    draw on the set-up, where the D=2501 workloads identify their model."""
    a = traced.acc
    value_rows = a["kernels.value:rows"]
    jac_rows = a["kernels.jacobian:rows"]
    calls = a["kernels.value:n"] + a["kernels.jacobian:n"]
    return {
        "kernels.fit_s": _median(setup.durations["kernels.fit"] + traced.durations["kernels.fit"]),
        "kernels.calls": calls,
        "kernels.rows": value_rows + jac_rows,
        "kernels.rows_per_call": _ratio(value_rows + jac_rows, calls),
        "kernels.value_s": a["kernels.value:s"],
        "kernels.jacobian_s": a["kernels.jacobian:s"],
        "kernels.value_us_per_row_b1": 1e6 * _ratio(a["kernels.value:b1_s"], a["kernels.value:b1_rows"]),
        "kernels.value_us_per_row_batched": 1e6
        * _ratio(a["kernels.value:batched_s"], a["kernels.value:batched_rows"]),
        "kernels.jacobian_us_per_row": 1e6 * _ratio(a["kernels.jacobian:s"], jac_rows),
        "narx.rollouts": a["narx.rollout:n"],
        "narx.rollout_s": a["narx.rollout:s"],
        "mpc.solves": a["mpc.solve:n"],
        "mpc.iterations": a["mpc:iterations"],
        "mpc.capped": a["mpc:capped"],
        "mpc.capped_iter_share": _ratio(a["mpc:capped_iterations"], a["mpc:iterations"]),
        "mpc.cost_evals": a["mpc.cost:n"],
        "mpc.linesearch_reject_share": _ratio(a["mpc:rejects"], a["mpc.cost:n"]),
        "mpc.gradient_evals": a["mpc.gradient:n"],
        "mpc.gradient_s": a["mpc.gradient:s"],
        "mpc.solve_ms_p50": 1e3 * _pct(traced.durations["mpc.solve"], 50),
        "mpc.solve_ms_p90": 1e3 * _pct(traced.durations["mpc.solve"], 90),
        "mpc.self_s": a["mpc.solve:self"] + a["mpc.cost:self"] + a["mpc.gradient:self"],
        "stability.growth_s": a["stability.growth:s"],
        "stability.grid_solves": a["stability:grid_solves"],
        "stability.grid_failed": a["stability:grid_failed"],
        "stability.verify_s": a["stability.verify:s"],
        "twotank.generate_s": _median(
            setup.durations["twotank.generate"] + traced.durations["twotank.generate"]
        ),
        "twotank.plant_steps": a["twotank.plant:n"],
        "twotank.plant_s": a["twotank.plant:s"],
        "twotank.narx_rows": a["twotank.narx:rows"],
        "twotank.narx_s": a["twotank.narx:s"],
        "bench.constants_s": a["bench.constants:s"],
        "fileio.bytes_written": a["fileio:bytes"],
        "fileio.write_s": a["fileio.write:s"],
        "trace.overhead_share": overhead_share,
    }
