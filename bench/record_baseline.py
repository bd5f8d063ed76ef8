"""Record the benchmark's baseline: repeated runs of every workload, their
spread, and one traced run each.  Writes bench/baseline.json.

    python3 bench/record_baseline.py --commit <id>

Seeds 1..10 each run every workload once, untraced, for run_seconds of
BENCHMARK.json; the workload order rotates with the seed, so the workloads
interleave across repetitions.  For each end-to-end metric the spread is
(q3 - q1) / median over the ten run medians, with quartiles as
`statistics.quantiles(values, n=4)` gives them; it is marked steady when
below a third of the metric's bound in BENCHMARK.json.  Then one traced run
per workload, with seed 1, gives the per-layer numbers.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import workloads

SEEDS = range(1, 11)
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Which end-to-end metric each per-layer metric should move, on which workload.
LAYER_EFFECTS = {
    "mesh.build_ms": "setup_s on all workloads",
    "madelung.init_ms": "setup_s on all workloads",
    "madelung.recover_us, madelung.recover_calls": "wall_s on dense_output only",
    "nls.potential_us, nls.potential_calls, nls.potential_gbs_computed":
        "wall_s and node_steps_per_s on riemann_steps and periodic_lake; no change on dense_output",
    "nls.dispersive_us, nls.dispersive_calls":
        "wall_s on periodic_lake and on the degree-2 run of riemann_steps",
    "nls.factorize_ms, nls.factorizations":
        "setup_s everywhere; wall_s and peak_rss_mb on dense_output",
    "nls.step_us_p50, nls.step_us_p99":
        "wall_s on the stepping workloads; p99 catches factorizations inside steps",
    "exact.sample_ms, exact.sample_calls":
        "wall_s on dense_output (Python loop over nodes); no change on periodic_lake (closed form)",
    "diagnostics.energy_us, diagnostics.error_ms": "wall_s on dense_output",
    "app.parse_ms": "setup_s",
    "app.emit_ms, app.emit_mb_per_s, app.output_mb, app.snapshots": "wall_s on dense_output",
    "trace.overhead_frac": "none; bounds how far the per-layer numbers can be trusted",
}


def bench(workload: str, seed: int, seconds: float, trace: int):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=240, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "runs": values}


def versions() -> dict:
    out = subprocess.run([sys.executable, "-c",
                          "import numpy, scipy; print(numpy.__version__, scipy.__version__)"],
                         capture_output=True, text=True, check=True).stdout.split()
    return {"python": platform.python_version(), "numpy": out[0], "scipy": out[1],
            "cpus": os.cpu_count(), "machine": platform.machine()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--commit", required=True, help="id of the measured commit")
    parser.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {w: [] for w in workloads.WORKLOADS}
    details = {}
    failures = 0
    for seed in SEEDS:
        order = workloads.WORKLOADS[seed % 3:] + workloads.WORKLOADS[:seed % 3]
        for w in order:
            detail, result = bench(w, seed, seconds, 0)
            failures += result["failed"]
            runs[w].append({k: m["value"] for k, m in result["metrics"].items()})
            details.setdefault(w, detail)
            print(f"seed {seed:>2} {w:<14} correct {result['correct']}  " +
                  "  ".join(f"{k} {m['value']:.5g}" for k, m in result["metrics"].items()),
                  flush=True)

    out = {"commit": args.commit, "host": versions(), "run_seconds": seconds,
           "seeds": list(SEEDS), "failed_runs": failures,
           "layer_effects": LAYER_EFFECTS, "workloads": {}}
    steady = True
    for w in workloads.WORKLOADS:
        e2e = {}
        for name, bound in bounds.items():
            s = spread([r[name] for r in runs[w]])
            s["bound"] = bound
            s["steady"] = s["spread"] < bound / 3
            steady &= s["steady"]
            e2e[name] = s
            print(f"{w:<14} {name:<18} median {s['median']:.5g}  spread {s['spread']:.4f}"
                  f"  bound {bound}  {'ok' if s['steady'] else 'NOT STEADY'}")
        detail, result = bench(w, 1, seconds, 1)
        out["workloads"][w] = {
            "why": workloads.WHY[w],
            "scenarios": [{k: s[k] for k in ("name", "nodes", "steps")}
                          for s in details[w]["scenarios"]],
            "end_to_end": e2e,
            "per_layer_seed1": {k: m["value"] for k, m in result["metrics"].items()},
        }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}; failed runs {failures}; "
          f"{'all spreads steady' if steady else 'SOME SPREADS NOT STEADY'}")
    return 0 if steady and not failures else 1


if __name__ == "__main__":
    sys.exit(main())
