#!/usr/bin/env python3
"""Smoke test of the benchmark itself; run from the checkout root:

    python3 perfbench/smoke.py

Runs every workload at the tiny size, traced and untraced, and checks
that each run succeeds and prints exactly the metrics BENCHMARK.json
names, with their units.  Then checks that a corrupted expected digest
makes a run fail, and that a directory holding only the benchmark (no
library) exits nonzero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 180
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "0", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            code, result = bench("--workload", workload, "--size", "tiny", "--trace", str(trace))
            if code != 0 or result is None or set(result) != RESULT_KEYS or not result["correct"]:
                problems.append(f"{label}: exit {code}, result {result}")
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{label}: metrics {sorted(set(got) ^ set(want[trace]))} differ")
            print(f"ok {label}")

    code, result = bench("--workload", "queries", "--size", "tiny", "--expect-digest", "0" * 64)
    if code == 0 or result is None or result["correct"] or result["failed"] < 1:
        problems.append(f"corrupted digest not reported: exit {code}, result {result}")
    else:
        print("ok corrupted digest fails the run")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        code, result = bench("--workload", "enumerate", cwd=bare)
    finally:
        shutil.rmtree(bare)
    if code == 0 or result is not None:
        problems.append(f"run without the library: exit {code}, result {result}")
    else:
        print("ok run without the library exits nonzero")

    for line in problems:
        print(f"FAIL {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
