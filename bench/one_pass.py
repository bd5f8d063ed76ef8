"""One benchmark pass in a fresh process: run a workload's scenarios through
`swnls run`, time set-up, and check every output.

Usage: python3 one_pass.py <task.json>

The task names the checkout's `src` directory, the pass directory holding
the scenario files, and whether to trace.  The result goes to `result.json`
in the pass directory.  Exit code 3 means the program under test could not
be imported from `src`; a scenario that fails is reported in the result,
never by the exit code.

Order inside the pass: `import swnls` (this script loads numpy only after
it, so the import is timed as a user pays it), then the timed `cli_main`
runs (the end-to-end wall time), then peak RSS, then the checks.

Set-up time is taken from the timed runs themselves: in an untraced pass,
`nls.strang_step` is replaced for its first call only by a wrapper that
notes when that call returns, so a run's set-up is everything from the start
of `cli_main` to the end of its first time step (argument parsing, scenario
parse, mesh, bathymetry, initial field, sponge, and the first dispersive
factorization).  The pass's `setup_s` is the import time plus the set-up of
every run.  If the program no longer has the hooked function, `setup_s` is
reported as null, not guessed.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import re
import resource
import sys
from time import perf_counter

from spans import ERROR, ROOT, Tracer

MASS_DRIFT_MAX = 1e-10
# The CSV headers are part of the command-line contract, so they are spelled
# out here rather than read from the program.
SNAPSHOT_HEADER = "x,h_num,h_ref,q_num,q_ref,re_psi,im_psi,b,eta_num,eta_ref"
DIAGNOSTICS_HEADER = "t,mass,energy_total,energy_fisher,energy_potential"
EXIT_NO_PROGRAM = 3
# The end of the first call of this function of swnls.nls ends a run's set-up.
FIRST_STEP = "strang_step"


def fail_import(message: str):
    print(message, file=sys.stderr)
    sys.exit(EXIT_NO_PROGRAM)


def import_program(src: str):
    t0 = perf_counter()
    try:
        import swnls
        from swnls import app, diagnostics, madelung, mesh, nls
    except ImportError as err:
        fail_import(f"cannot import swnls from {src}: {err}")
    elapsed = perf_counter() - t0
    if os.path.dirname(os.path.dirname(os.path.abspath(swnls.__file__))) != os.path.abspath(src):
        fail_import(f"swnls was imported from {swnls.__file__}, not from {src}")
    modules = {"swnls.app": app, "swnls.diagnostics": diagnostics,
               "swnls.madelung": madelung, "swnls.mesh": mesh, "swnls.nls": nls}
    return modules, elapsed


def run_cli(app, nls, tracer, scenario_file: str, out_dir: str):
    """One `swnls run`; returns (exit code or exception text, stdout, seconds,
    seconds to the end of the first time step or None when not measured).

    Untraced, the first step is timed by a wrapper that puts the original
    function back as soon as it is called, so later steps run untouched.
    """
    argv = ["run", scenario_file, "--out", out_dir]
    stdout, stderr = io.StringIO(), io.StringIO()
    step = getattr(nls, FIRST_STEP, None)
    first_step_end = []
    hooked = tracer is None and step is not None
    if hooked:
        def first_step(*args, **kwargs):
            setattr(nls, FIRST_STEP, step)
            out = step(*args, **kwargs)
            first_step_end.append(perf_counter())
            return out

        setattr(nls, FIRST_STEP, first_step)
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if tracer is None:
                rc = app.cli_main(argv)
            else:
                rc = tracer.call(ROOT, app.cli_main, argv)
    except Exception as err:  # a crash of the program is a failed run, not a benchmark error
        rc = f"{type(err).__name__}: {err}"
    elapsed = perf_counter() - t0
    if hooked:
        setattr(nls, FIRST_STEP, step)  # in case the run took no step
    setup = first_step_end[0] - t0 if first_step_end else None
    return rc, stdout.getvalue() + stderr.getvalue(), elapsed, setup


def rebuild(app, scenario_file: str):
    """The scenario, its mesh, bathymetry, initial field and sponge, for the checks."""
    with open(scenario_file) as fh:
        scenario = app.parse_scenario(fh.read())
    mesh = scenario.build_mesh()
    return (scenario, mesh, scenario.bathymetry_values(mesh.coords),
            scenario.initial_field(mesh), scenario.sponge_profile(mesh))


def read_csv(path: str, header: str, problems: list):
    import numpy as np

    if not os.path.isfile(path):
        problems.append(f"missing {os.path.basename(path)}")
        return None
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
        if first != header:
            problems.append(f"{os.path.basename(path)}: header {first!r}")
            return None
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if not np.all(np.isfinite(data)):
        problems.append(f"{os.path.basename(path)}: non-finite value")
    return data


def check(modules, tracer, setup, out_dir: str, expect, rtol: float, problems: list):
    """Check one scenario's output files; returns its L1 height error term."""
    import numpy as np

    app, diagnostics, madelung = (modules["swnls.app"], modules["swnls.diagnostics"],
                                  modules["swnls.madelung"])
    scenario, mesh, b, wave0, sponge = setup
    times = scenario.output.times
    interior = app.interior_mask(scenario, mesh)
    idx = np.flatnonzero(interior)[np.argsort(mesh.coords[interior], kind="stable")]
    ncols = len(SNAPSHOT_HEADER.split(","))

    final = None
    for i in range(len(times)):
        data = read_csv(os.path.join(out_dir, f"snapshot_{i:04d}.csv"),
                        SNAPSHOT_HEADER, problems)
        if data is not None and data.shape != (idx.size, ncols):
            problems.append(f"snapshot_{i:04d}.csv: shape {data.shape}, "
                            f"expected {(idx.size, ncols)}")
            data = None
        final = data
    diag = read_csv(os.path.join(out_dir, "diagnostics.csv"), DIAGNOSTICS_HEADER, problems)
    if diag is not None and diag.shape[0] != len(times):
        problems.append(f"diagnostics.csv: {diag.shape[0]} rows for {len(times)} times")
    if final is None or problems:
        return None
    if not np.array_equal(final[:, 0], mesh.coords[idx]):
        problems.append("final snapshot rows are not the interior nodes in increasing x")
        return None

    h = np.full(mesh.num_nodes, np.nan)
    q = np.full(mesh.num_nodes, np.nan)
    h[idx], q[idx] = final[:, 1], final[:, 3]
    if sponge is None:
        m0 = diagnostics.energy(wave0, b, scenario.g).mass
        m1 = float(np.sum(mesh.mass * h))
        if not abs(m1 - m0) <= MASS_DRIFT_MAX * abs(m0):
            problems.append(f"relative mass drift {abs(m1 - m0) / abs(m0):.3e} "
                            f"> {MASS_DRIFT_MAX:g}")

    t = times[-1]
    state = madelung.HydroState(mesh, h, q, np.zeros_like(h), t)

    def error():
        return diagnostics.error_norm(state, lambda x, tt: app.reference_samples(scenario, x, tt).h,
                                      app.default_error_window(scenario, t))

    report = error() if tracer is None else tracer.call(ERROR, error)
    if not abs(report.value - expect) <= rtol * expect:
        problems.append(f"h_l1_err {report.value:.6e} differs from {expect:.6e} "
                        f"by more than {rtol:g} relative")
    return report.value


def file_bytes(out_dir: str, prefix: str = "") -> int:
    if not os.path.isdir(out_dir):
        return 0
    return sum(os.path.getsize(os.path.join(out_dir, f))
               for f in os.listdir(out_dir) if f.startswith(prefix))


def main(task_path: str) -> None:
    with open(task_path) as fh:
        task = json.load(fh)
    modules, import_s = import_program(task["src"])
    app, nls = modules["swnls.app"], modules["swnls.nls"]
    tracer = Tracer() if task["trace"] else None
    if tracer is not None:
        tracer.install(modules)

    runs = []
    wall = 0.0
    setup_s = import_s
    for i, sc in enumerate(task["scenarios"]):
        out_dir = os.path.join(task["dir"], f"out{i}")
        rc, text, elapsed, setup = run_cli(app, nls, tracer, sc["file"], out_dir)
        wall += elapsed
        setup_s = None if setup is None or setup_s is None else setup_s + setup
        runs.append((rc, text, out_dir))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    results = []
    for sc, (rc, text, out_dir) in zip(task["scenarios"], runs):
        setup = rebuild(app, sc["file"])
        problems = []
        h_l1 = None
        if rc != 0:
            problems.append(f"swnls run failed ({rc}): {text.strip()[-300:]}")
        else:
            h_l1 = check(modules, tracer, setup, out_dir, sc["expect"], sc["rtol"], problems)
        steps = re.search(r"\bsteps=(\d+)\b", text)
        if steps is None and not problems:
            problems.append("swnls run did not report its step count")
        results.append({
            "name": setup[0].name,
            "nodes": setup[1].num_nodes,
            "steps": int(steps.group(1)) if steps else 0,
            "h_l1": h_l1,
            "problems": problems,
            "output_bytes": file_bytes(out_dir),
            "snapshot_bytes": file_bytes(out_dir, "snapshot_"),
        })

    result = {"import_s": import_s, "setup_s": setup_s, "wall_s": wall,
              "peak_rss_mb": peak_rss_mb, "scenarios": results,
              "spans": tracer.spans if tracer is not None else None,
              "missing_targets": tracer.missing if tracer is not None else None}
    with open(os.path.join(task["dir"], "result.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
