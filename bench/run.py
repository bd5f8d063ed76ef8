"""swnls benchmark: end-to-end and per-layer timings of `swnls run`.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {riemann_steps,periodic_lake,dense_output}
                         --seed N --seconds S --trace {0,1} [--smoke]

Each pass is a fresh process (`one_pass.py`) that imports swnls from the
checkout's `src`, runs every scenario of the workload through
`swnls.app.cli_main(["run", <scenario.json>, "--out", <dir>])`, and checks
the outputs.  Passes repeat, one after another (a closed loop, one client),
until `--seconds` have passed; each pass writes into its own directory under
`.bench_out/`, which is deleted after the pass.

--trace 0 reports the end-to-end metrics.  The timings are taken from the
fastest pass (least wall_s and setup_s, most node_steps_per_s): on a shared
host the CPU speed drifts by up to 2x over seconds, and the fastest of a
dozen passes moves less from run to run than their median.  Memory and
accuracy are the median over the passes.  The table gives median, quartiles
and count of every timing.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics from the traced ones, plus the tracing overhead; the table also
gives median, quartiles and count of every span's duration.  The spans are
written to `.bench_out/spans-<workload>-seed<N>.json`.

Output: a human-readable table (median, quartiles and sample count of every
timing), then one JSON line with details (seed, node and step counts), then
the result line {"correct", "attempted", "failed", "metrics"}.  attempted
and failed count scenario runs; failed / attempted is the fail fraction.
A metric that could not be measured (the program no longer has a function
the benchmark hooks) is left out of "metrics", named under "missing" in the
details line, and makes the result not correct; it is never reported as 0.
If swnls cannot be imported from the checkout, the benchmark prints no
result and exits with code 1.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads
from layers import layer_metrics
from one_pass import EXIT_NO_PROGRAM, FIRST_STEP

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_out")
CHILD = os.path.join(HERE, "one_pass.py")

BUDGET_S = 170.0     # a run, with its last pass, ends within this
GIVE_UP_S = 120.0    # no pass starts after this, even short of the minimum
MIN_UNTRACED = 3
MIN_TRACED = 2       # two dense_output passes give >= 12 step samples beyond p99

# name: (unit, statistic over the passes that the metric reports)
END_TO_END = {"wall_s": ("s", min), "node_steps_per_s": ("node_steps/s", max),
              "setup_s": ("s", min), "peak_rss_mb": ("MB", statistics.median),
              "h_l1_err": ("1", statistics.median)}


class NoProgram(Exception):
    """swnls could not be imported from the checkout."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_pass(scenarios: list, traced: bool, env: dict, timeout: float):
    """One pass in a fresh process; returns its result dict, or None if the
    process died without one."""
    os.makedirs(WORK, exist_ok=True)
    pass_dir = tempfile.mkdtemp(prefix="pass-", dir=WORK)
    try:
        entries = []
        for i, (doc, expect, rtol) in enumerate(scenarios):
            path = os.path.join(pass_dir, f"scenario{i}.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            entries.append({"file": path, "expect": expect, "rtol": rtol})
        task_path = os.path.join(pass_dir, "task.json")
        with open(task_path, "w") as fh:
            json.dump({"src": SRC, "dir": pass_dir, "trace": traced,
                       "scenarios": entries}, fh)
        try:
            proc = subprocess.run([sys.executable, CHILD, task_path], env=env, cwd=ROOT,
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"pass timed out after {timeout:.0f} s", file=sys.stderr)
            return None
        if proc.returncode == EXIT_NO_PROGRAM:
            raise NoProgram(proc.stderr.strip())
        result_path = os.path.join(pass_dir, "result.json")
        if proc.returncode != 0 or not os.path.isfile(result_path):
            print(f"pass died (exit {proc.returncode}): {proc.stderr.strip()[-500:]}",
                  file=sys.stderr)
            return None
        with open(result_path) as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)


def summary(values: list) -> dict:
    if not values:
        return {"n": 0}
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) >= 2 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "n": len(values)}


def end_to_end(passes: list) -> dict:
    """Per-pass end-to-end values, as lists over the passes."""
    vals = {name: [] for name in END_TO_END}
    for p in passes:
        vals["wall_s"].append(p["wall_s"])
        if p["setup_s"] is not None:
            vals["setup_s"].append(p["setup_s"])
        vals["peak_rss_mb"].append(p["peak_rss_mb"])
        vals["node_steps_per_s"].append(
            sum(s["nodes"] * s["steps"] for s in p["scenarios"]) / p["wall_s"])
        terms = [s["h_l1"] for s in p["scenarios"]]
        if all(t is not None for t in terms):
            vals["h_l1_err"].append(sum(terms))
    return vals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced size (eps x4) for a quick check of the benchmark")
    args = parser.parse_args(argv)

    scenarios = workloads.scenarios(args.workload, args.seed, smoke=args.smoke)
    env = child_env()
    start = time.monotonic()
    untraced, traced = [], []
    attempted = failed = 0
    problems = []
    k = 0
    while True:
        elapsed = time.monotonic() - start
        short = len(untraced) < MIN_UNTRACED if not args.trace else (
            len(untraced) < MIN_TRACED or len(traced) < MIN_TRACED)
        if elapsed >= GIVE_UP_S or (elapsed >= args.seconds and not short):
            break
        is_traced = bool(args.trace) and k % 2 == 1
        k += 1
        try:
            result = run_pass(scenarios, is_traced, env, BUDGET_S - elapsed)
        except NoProgram as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        attempted += len(scenarios)
        if result is None:
            failed += len(scenarios)
            problems.append("pass died")
            continue
        for s in result["scenarios"]:
            if s["problems"]:
                failed += 1
                problems.extend(f"{s['name']}: {p}" for p in s["problems"])
        (traced if is_traced else untraced).append(result)

    if not untraced:
        print("error: no pass completed", file=sys.stderr)
        return 1
    e2e = end_to_end(untraced)
    stats = {name: summary(v) for name, v in e2e.items()}
    first = untraced[0]["scenarios"]
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "passes": len(untraced) + len(traced),
              "scenarios": [{k: s[k] for k in ("name", "nodes", "steps", "h_l1")}
                            for s in first],
              "end_to_end": stats, "problems": problems[:20]}

    print(f"workload {args.workload}  seed {args.seed}  untraced passes {len(untraced)}"
          f"  traced passes {len(traced)}  fail_frac {failed / attempted:g} ({failed}/{attempted})")
    for s in first:
        print(f"  {s['name']:<18} nodes {s['nodes']:>6}  steps {s['steps']:>5}")
    for name, st in stats.items():
        unit = END_TO_END[name][0]
        if not st["n"]:
            print(f"  {name:<18} not measured")
            continue
        print(f"  {name:<18} median {st['median']:.6g} {unit}  q1 {st['q1']:.6g}  "
              f"q3 {st['q3']:.6g}  min {st['min']:.6g}  max {st['max']:.6g}  n {st['n']}")
    for p in problems[:20]:
        print(f"  FAIL {p}")

    if args.trace:
        missing_targets = sorted({t for p in traced for t in p["missing_targets"]})
        layer, missing, durations = layer_metrics(
            [{"spans": p["spans"], "wall_s": p["wall_s"],
              "snapshot_bytes": sum(s["snapshot_bytes"] for s in p["scenarios"]),
              "output_bytes": sum(s["output_bytes"] for s in p["scenarios"])}
             for p in traced], missing_targets)
        if traced:
            traced_wall = statistics.median(p["wall_s"] for p in traced)
            layer["trace.overhead_frac"] = (traced_wall / stats["wall_s"]["median"] - 1.0, "1")
        else:
            missing.append("trace.overhead_frac")
        if missing_targets:
            print(f"  swnls has no {', '.join(missing_targets)}: update bench/spans.py TARGETS")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
        span_us = {name: summary([1e6 * t for t in v]) for name, v in sorted(durations.items())}
        for name, st in span_us.items():
            print(f"  span {name:<22} median {st['median']:.6g} us  "
                  f"q1 {st['q1']:.6g}  q3 {st['q3']:.6g}  n {st['n']}")
        for name, (v, u) in layer.items():
            print(f"  {name:<32} {v:.6g} {u}")
        os.makedirs(WORK, exist_ok=True)
        spans_path = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.json")
        with open(spans_path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "span_fields": ["name", "start_s", "end_s", "parent", "attr"],
                       "passes": [{"wall_s": p["wall_s"], "spans": p["spans"]}
                                  for p in traced]}, fh)
        detail["per_layer"] = {name: m["value"] for name, m in metrics.items()}
        detail["span_us"] = span_us
        detail["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        metrics = {name: {"value": statistic(e2e[name]), "unit": unit}
                   for name, (unit, statistic) in END_TO_END.items() if e2e[name]}
        missing = [name for name in END_TO_END if not e2e[name]]
        if "setup_s" in missing:
            print(f"  setup_s not measured: swnls.nls has no {FIRST_STEP}; "
                  f"update FIRST_STEP in bench/one_pass.py")

    for name in missing:
        print(f"  MISSING {name}")
    detail["missing"] = missing
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0 and not missing, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
