"""Per-layer metrics built from the spans of traced passes (see spans.py).

A metric whose spans were not recorded is never reported as 0: its name goes
in the returned list of missing metrics instead.  That happens when the
program no longer has a traced function, or never calls it.  Self-time
shares need every target wrapped, because the self time of an unwrapped
function is counted in its caller's span; so when any target is missing,
every share is missing too.
"""
from __future__ import annotations

import statistics

from spans import ERROR, ROOT, TARGETS


def layer_metrics(passes: list, missing_targets: list) -> tuple:
    """Per-layer metrics pooled over traced passes, and the span durations.

    Each pass is a dict with "spans" (as recorded by Tracer), "wall_s" (the
    summed root spans) and "snapshot_bytes"/"output_bytes" written;
    `missing_targets` lists the targets the tracer could not wrap.  Timings
    are medians over all calls; counts are per pass.  Returns the metrics as
    {name: (value, unit)}, the names of the metrics that could not be
    measured, and the durations in seconds as {span name: list}.
    """
    n = len(passes)
    dur = {}
    attrs = {}
    self_time = {}
    wall = 0.0
    for p in passes:
        spans = p["spans"]
        wall += p["wall_s"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, attr) in enumerate(spans):
            dur.setdefault(name, []).append(end - start)
            attrs.setdefault(name, []).append(attr)
            if name != ERROR:
                self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[i]

    def d(name):
        return dur.get(name, [])

    median = statistics.median
    disp = list(zip(d("nls.dispersive"), attrs.get("nls.dispersive", [])))
    solves = [t for t, fact in disp if not fact]
    facts = [t for t, fact in disp if fact]
    pot = d("nls.potential")
    steps = d("nls.step")
    emits = d("app.emit")

    metrics, missing = {}, []

    def put(name, unit, measured, value):
        if measured:
            metrics[name] = (value(), unit)
        else:
            missing.append(name)

    def timing(name, span, scale, unit):
        put(name, unit, d(span), lambda: scale * median(d(span)))

    def calls(name, span):
        put(name, "count", d(span), lambda: len(d(span)) / n)

    timing("mesh.build_ms", "mesh.build", 1e3, "ms")
    timing("madelung.init_ms", "madelung.init", 1e3, "ms")
    timing("madelung.recover_us", "madelung.recover", 1e6, "us")
    calls("madelung.recover_calls", "madelung.recover")
    timing("nls.potential_us", "nls.potential", 1e6, "us")
    calls("nls.potential_calls", "nls.potential")
    put("nls.potential_gbs_computed", "GB/s", pot,
        lambda: sum(attrs["nls.potential"]) / sum(pot) / 1e9)
    put("nls.dispersive_us", "us", solves, lambda: 1e6 * median(solves))
    calls("nls.dispersive_calls", "nls.dispersive")
    put("nls.factorize_ms", "ms", solves and facts,
        lambda: 1e3 * median([t - median(solves) for t in facts]))
    put("nls.factorizations", "count", facts, lambda: len(facts) / n)
    put("nls.step_us_p50", "us", len(steps) >= 2,
        lambda: 1e6 * statistics.quantiles(steps, n=100)[49])
    put("nls.step_us_p99", "us", len(steps) >= 2,
        lambda: 1e6 * statistics.quantiles(steps, n=100)[98])
    timing("exact.sample_ms", "exact.sample", 1e3, "ms")
    calls("exact.sample_calls", "exact.sample")
    timing("diagnostics.energy_us", "diagnostics.energy", 1e6, "us")
    timing("diagnostics.error_ms", ERROR, 1e3, "ms")
    timing("app.parse_ms", "app.parse", 1e3, "ms")
    timing("app.emit_ms", "app.emit", 1e3, "ms")
    put("app.emit_mb_per_s", "MB/s", emits,
        lambda: sum(p["snapshot_bytes"] for p in passes) / sum(emits) / 1e6)
    put("app.output_mb", "MB", emits,
        lambda: sum(p["output_bytes"] for p in passes) / n / 1e6)
    calls("app.snapshots", "app.emit")

    complete = not missing_targets and wall > 0.0
    names = sorted({name for _, _, name in TARGETS} | {ROOT})
    for name in names:
        put(f"{name}.share", "1", complete and name in self_time,
            lambda name=name: self_time[name] / wall)
    for layer in sorted({name.split(".")[0] for name in names}):
        own = [k for k in self_time if k.split(".")[0] == layer]
        put(f"{layer}.share", "1", complete and own,
            lambda own=own: sum(self_time[k] for k in own) / wall)
    return metrics, missing, dur
