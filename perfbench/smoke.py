"""Tiny-size smoke check of the benchmark harness.

From the root of a checkout::

    python3 perfbench/smoke.py

For every workload it runs ``run.py --tiny`` untraced once and traced
twice, and fails unless

* every run passes its output checks;
* the untraced run emits exactly the end-to-end metrics of
  ``BENCHMARK.json`` with their units, and its record names every
  end-to-end metric (``setup_s``, ``loop_s`` / ``certify_s`` /
  ``pipeline_s``, ``step_ms_p50``, ``step_ms_p90``, ``peak_rss_mb``,
  ``fail_share``) with their units;
* the traced runs emit exactly the per-layer metrics with their units,
  and both give identical counts;

and it checks that ``run.py`` exits non-zero without a result in a
directory that holds only ``BENCHMARK.json`` and ``perfbench/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
REPORT_UNITS = {"setup_s": "s", "step_ms_p50": "ms", "step_ms_p90": "ms", "peak_rss_mb": "MB", "fail_share": "ratio"}
WORK = {"loop_d2501": "loop_s", "certify_d2501": "certify_s", "pipeline_d101": "pipeline_s"}
COUNT_UNITS = {"count", "rows/call", "B"}


def run(args, cwd=ROOT):
    cmd = [sys.executable, str(HERE.relative_to(ROOT) / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc, label):
    if proc.returncode != 0:
        raise SystemExit(f"{label}: exit code {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(condition, message, failures):
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    deterministic = [
        n for n, u in layer.items() if u in COUNT_UNITS or (n.endswith("_share") and n != "trace.overhead_share")
    ]
    failures = []
    for w in (entry["name"] for entry in spec["workloads"]):
        base = ["--workload", w, "--seed", "7", "--seconds", "0", "--tiny"]
        res = result(run(base + ["--trace", "0"]), f"{w} trace 0")
        expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, f"{w}: untraced run correct", failures)
        units = {k: v["unit"] for k, v in res["metrics"].items()}
        expect(units == e2e, f"{w}: end-to-end metrics and units match BENCHMARK.json", failures)
        record = json.loads((ROOT / ".perfbench" / "results" / f"{w}-seed7-trace0-tiny.json").read_text())
        named = {k: v["unit"] for k, v in record["report"].items()}
        want = {**REPORT_UNITS, WORK[w]: "s"}
        expect(all(named.get(k) == u for k, u in want.items()), f"{w}: record names {sorted(want)}", failures)

        traced = [result(run(base + ["--trace", "1"]), f"{w} trace 1") for _ in range(2)]
        for k, res in enumerate(traced):
            units = {n: v["unit"] for n, v in res["metrics"].items()}
            expect(res["correct"], f"{w}: traced run {k + 1} correct", failures)
            expect(units == layer, f"{w}: traced run {k + 1} per-layer metrics and units match", failures)
        counts = [{n: r["metrics"][n]["value"] for n in deterministic} for r in traced]
        expect(counts[0] == counts[1], f"{w}: counts repeat exactly across traced runs", failures)

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "loop_d2501", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
        expect(proc.returncode != 0 and not proc.stdout.strip(), "no sources: non-zero exit, no result", failures)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
