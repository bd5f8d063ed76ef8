"""Reduced-size smoke run of the benchmark itself (about a minute).

Runs every workload at smoke size (eps x4: a quarter of the nodes and of the
steps) for the minimum number of passes, untraced and traced, and checks
that each run is correct and reports exactly the metrics BENCHMARK.json
declares.  Usage, from the root of a checkout:

    python3 bench/smoke.py
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {w["name"]: w["why"] for w in spec["workloads"]}
    errors = []
    if declared != workloads.WHY:
        errors.append("BENCHMARK.json workloads differ from workloads.WHY")
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "0", "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                errors.append(f"{workload} trace {trace}: exit {proc.returncode} "
                              f"{proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(lines[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if not result["correct"] or result["failed"]:
                errors.append(f"{workload} trace {trace}: not correct: {lines[-2]}")
            if got != expected[trace]:
                errors.append(f"{workload} trace {trace}: metrics {sorted(set(got) ^ set(expected[trace]))} "
                              f"differ from BENCHMARK.json")
            print(f"{workload:<14} trace {trace}: attempted {result['attempted']} "
                  f"failed {result['failed']} metrics {len(got)}")
    for e in errors:
        print(f"FAIL {e}")
    print("smoke run passed" if not errors else "smoke run FAILED")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
