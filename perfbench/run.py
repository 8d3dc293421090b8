"""Run one narxmpc benchmark workload and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload loop_d2501 --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` they are its per-layer metrics.  The lines before it name
every metric with its unit, sample count and quartiles, the output
checks, the behaviour fingerprint and the environment.  End-to-end
times are given at a fixed reference speed, so that the load other
tenants put on a shared host does not show in them (``probes.Gauged``);
the raw wall-clock medians are printed beside them.  A full record
also goes to ``.perfbench/results/`` and, for traced runs, the spans to
``.perfbench/spans/``.  ``--tiny`` shrinks every workload for the smoke
check in ``smoke.py``.

The program is imported from ``src/`` of the checkout; without it the
run exits with status 2 and prints no result.  ``attempted`` counts the
optimal-control solves the run requested and ``failed`` those not
completed; when an output check fails every solve counts as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOAD_NAMES = ("loop_d2501", "certify_d2501", "pipeline_d101")

#: BLAS threads of every run.  One thread gives the same results on any
#: core count.
BLAS_THREADS = 1

#: Set-ups timed per untraced run; ``setup_s`` reports their median.
SETUP_REPEATS = 3


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _pin_threads() -> int:
    """Fix the BLAS and OpenMP pools at ``BLAS_THREADS`` threads.

    The count changes results, not only speed: threaded reductions sum in
    another order, and the last-digit differences decide which solves
    stall at the iteration cap.  At D=2501 the standard episode takes 481
    iterations with one OpenBLAS thread and 1444 with two.
    """
    nproc = len(os.sched_getaffinity(0))
    threads = str(BLAS_THREADS)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    return nproc


def _summary(values) -> dict:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _percentile(values, q) -> float:
    import numpy as np  # not at module level: the thread pins must come first

    return float(np.percentile(values, q))


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, required=True, help="least time the reference passes run (at least min_passes of them)"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke check")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "narxmpc" / "__init__.py").is_file():
        return _fail(f"no narxmpc sources under {src}; run from the root of a checkout")
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")

    nproc = _pin_threads()
    sys.path.insert(0, str(src))
    import narxmpc

    if not Path(narxmpc.__file__).resolve().is_relative_to(src.resolve()):
        return _fail(f"narxmpc was imported from {narxmpc.__file__}, not from {src}")

    from environment import environment
    from workloads import WORKLOADS

    import_s = None
    if not args.trace:
        try:
            import_s = _import_times(src)
        except (OSError, ValueError, subprocess.SubprocessError) as exc:
            return _fail(f"cannot time the import of narxmpc: {exc}")

    scratch = root / ".perfbench" / "tmp" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, args.tiny, scratch)
    try:
        record = (_traced if args.trace else _untraced)(workload, args, import_s)
    finally:
        workload.close()
    record["environment"] = environment(args.seed, nproc)
    return _report(record, args, spec, root)


#: Fresh interpreters that time ``import narxmpc``; ``setup_s`` takes the median.
IMPORT_REPEATS = 3

_IMPORT_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
tic = time.perf_counter()
import narxmpc
import_s = time.perf_counter() - tic
from probes import GAUGE_REFERENCE_S, gauge_burst
print(import_s * GAUGE_REFERENCE_S / gauge_burst(15))
"""


def _import_times(src: Path) -> list[float]:
    """Times (s, at reference speed) of ``import narxmpc`` -- numpy and scipy
    included, as users pay for them -- each in a fresh interpreter."""
    here = Path(__file__).resolve().parent
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(src), str(here)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return times


def _gauged_pass(run):
    """Run one pass under :class:`probes.Gauged` and set its ``scaled_s``."""
    from probes import Gauged

    with Gauged() as g:
        p = run()
    p.scaled_s = g.scaled()
    return p


def _reference_passes(workload, seconds):
    passes = []
    start = time.perf_counter()
    while len(passes) < workload.min_passes or time.perf_counter() - start < seconds:
        passes.append(_gauged_pass(workload.reference))
    return passes


def _untraced(workload, args, import_s) -> dict:
    from probes import Gauged

    setups = []
    for _ in range(SETUP_REPEATS):
        with Gauged() as g:
            workload.setup()
        setups.append(g.scaled())
    with Gauged() as g:
        workload.prepare()
    prepare_s = g.scaled()
    passes = _reference_passes(workload, args.seconds)
    seeded = _gauged_pass(workload.seeded)

    inspections = [workload.inspect(p) for p in passes]
    seeded_inspection = workload.inspect(seeded)
    steps = workload.step_samples(passes)
    setup = _summary(setups)
    imports = _summary(import_s)
    work = _summary([p.scaled_s for p in passes])
    wall = _summary([p.work_s for p in passes])
    setup_s = imports["median"] + setup["median"] + prepare_s
    report = {
        "setup_s": {
            "value": setup_s,
            "unit": "s",
            "n": setup["n"],
            "q1": imports["q1"] + setup["q1"] + prepare_s,
            "q3": imports["q3"] + setup["q3"] + prepare_s,
            "parts": {"import_s": import_s, "repeated_setup_s": setups, "once_s": prepare_s},
        },
        workload.work_name: {
            "value": work["median"],
            "unit": "s",
            "n": work["n"],
            "q1": work["q1"],
            "q3": work["q3"],
        },
        "wall_" + workload.work_name: {
            "value": wall["median"],
            "unit": "s",
            "n": wall["n"],
            "q1": wall["q1"],
            "q3": wall["q3"],
        },
        "step_ms_p50": {"value": 1e3 * _percentile(steps, 50), "unit": "ms", "n": len(steps)},
        "step_ms_p90": {"value": 1e3 * _percentile(steps, 90), "unit": "ms", "n": len(steps)},
        "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB", "n": 1},
    }
    metrics = {
        "setup_s": report["setup_s"]["value"],
        "work_s": work["median"],
        "peak_rss_mb": report["peak_rss_mb"]["value"],
    }
    return _record(workload, inspections, seeded, seeded_inspection, metrics, report)


def _traced(workload, args, import_s) -> dict:
    from probes import Patcher, Tracer, install_tracer, layer_metrics

    patcher = Patcher()
    setup_tracer = Tracer()
    install_tracer(setup_tracer, patcher)
    try:
        workload.setup()
        workload.prepare()
    finally:
        patcher.restore()
    # Untraced passes on both sides of the traced one, so that a drift in
    # machine speed does not read as tracing overhead.
    before = workload.reference()
    tracer = Tracer()
    install_tracer(tracer, patcher)
    try:
        traced = workload.reference()
    finally:
        patcher.restore()
    after = workload.reference()
    seeded = workload.seeded()

    inspections = [workload.inspect(p) for p in (before, traced, after)]
    seeded_inspection = workload.inspect(seeded)
    overhead = traced.work_s / ((before.work_s + after.work_s) / 2) - 1.0
    metrics = layer_metrics(tracer, setup_tracer, overhead)
    report = {"traced_" + workload.work_name: {"value": traced.work_s, "unit": "s", "n": 1}}
    record = _record(workload, inspections, seeded, seeded_inspection, metrics, report)
    record["spans"] = tracer
    return record


def _record(workload, inspections, seeded, seeded_inspection, metrics, report) -> dict:
    """Combine checks, fingerprints and solve counts of every pass."""
    fingerprint = inspections[0].fingerprint
    checks = [c for i in inspections for c in i.checks] + [
        ("seeded: " + name, ok, detail) for name, ok, detail in seeded_inspection.checks
    ]
    same = all(_canonical(i.fingerprint) == _canonical(fingerprint) for i in inspections)
    checks.append(("reference passes give bit-identical fingerprints", same, ""))
    requested = sum(i.requested for i in inspections) + seeded_inspection.requested
    completed = sum(i.completed for i in inspections) + seeded_inspection.completed
    report["fail_share"] = {
        "value": (requested - completed) / requested if requested else 0.0,
        "unit": "ratio",
        "n": requested,
    }
    seeded_s = seeded.work_s if seeded.scaled_s is None else seeded.scaled_s
    report["seeded_" + workload.work_name] = {"value": seeded_s, "unit": "s", "n": 1}
    return {
        "metrics": metrics,
        "report": report,
        "checks": checks,
        "fingerprint": fingerprint,
        "seeded_fingerprint": seeded_inspection.fingerprint,
        "requested": requested,
        "completed": completed,
    }


def _canonical(fingerprint) -> str:
    return json.dumps(fingerprint, sort_keys=True)


def _report(record, args, spec, root) -> int:
    key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[key]}
    metrics = record["metrics"]
    if set(metrics) != set(units):
        missing = sorted(set(units) - set(metrics))
        extra = sorted(set(metrics) - set(units))
        return _fail(f"metrics differ from BENCHMARK.json {key}: missing {missing}, extra {extra}")

    correct = all(ok for _, ok, _ in record["checks"])
    attempted = max(record["requested"], 1)
    failed = attempted - record["completed"] if correct else attempted
    if not correct:
        record["report"]["fail_share"]["value"] = 1.0

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}{' tiny' if args.tiny else ''}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for name, ok, detail in record["checks"]:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail and not ok else ""))
    print("fingerprint " + _canonical(record["fingerprint"]))
    print("seeded_fingerprint " + _canonical(record["seeded_fingerprint"]))
    for name, entry in record["report"].items():
        spread = f", q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}" if "q1" in entry else ""
        print(f"metric {name} = {entry['value']:.6g} {entry['unit']} (n={entry['n']}{spread})")
    for name, value in metrics.items():
        print(f"{key} {name} = {value:.6g} {units[name]}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    out = root / ".perfbench"
    spans = record.pop("spans", None)
    if spans is not None:
        spans.dump(out / "spans" / f"{stem}.json.gz", {"workload": args.workload, "seed": args.seed})
    (out / "results").mkdir(parents=True, exist_ok=True)
    record.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        tiny=args.tiny,
        correct=correct,
        checks=[list(c) for c in record["checks"]],
    )
    (out / "results" / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
