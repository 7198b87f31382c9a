"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload untraced and traced with ``--scale tiny``, checks that
each prints every metric ``BENCHMARK.json`` declares (with its unit) and
reports correct outputs, runs the in-process workloads a second time at
the same seed so the exact-count self-check compares two runs, and checks
that the benchmark fails cleanly where the program's sources are missing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def _check(workload: str, trace: int) -> None:
    proc = _run(workload, trace)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n"
                             f"{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    declared = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        raise AssertionError(f"{workload} trace={trace}: metrics differ from "
                             f"BENCHMARK.json: missing {set(declared) - set(metrics)}, "
                             f"extra {set(metrics) - set(declared)}")
    for name, metric in metrics.items():
        if metric["unit"] != declared[name]:
            raise AssertionError(f"{name}: unit {metric['unit']} != {declared[name]}")
        if not math.isfinite(metric["value"]):
            raise AssertionError(f"{name}: value {metric['value']} is not finite")
        if not trace and metric["value"] <= 0:
            raise AssertionError(f"{workload}: end-to-end {name} is {metric['value']}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{workload} trace={trace}: {result['correct']=} "
                             f"{result['failed']=} {result['attempted']=}\n"
                             f"{proc.stderr[-4000:]}")
    print(f"ok  {workload:<16} trace={trace}  {len(metrics)} metrics")


def _check_bare() -> None:
    """Without the program's sources the benchmark must fail, printing no result."""
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = _run(SPEC["workloads"][0]["name"], 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        raise AssertionError("benchmark did not fail without program sources")
    print("ok  missing sources fail cleanly")


def main() -> int:
    for workload in SPEC["workloads"]:
        name = workload["name"]
        _check(name, 0)
        _check(name, 1)
        if name in ("tune-cold", "insitu-series"):
            _check(name, 0)  # its count check compares against the first run
    _check_bare()
    return 0


if __name__ == "__main__":
    sys.exit(main())
