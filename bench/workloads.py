"""Benchmark workloads: the scenario documents each workload feeds to `swnls run`.

Every scenario is written in the public JSON scenario format with only the
keys the built-ins need, so a workload is an input file a user could write.
Scenario names are the built-in names on purpose: `app.default_error_window`
chooses the error window by name, and the accuracy gate uses that window.

`riemann_steps` and `periodic_lake` are fixed and ignore the seed.  The seed
draws the output times of `dense_output`.

Sizes: `--smoke` runs every scenario at 4x the eps, which divides nodes and
steps by four each; the gate then compares against the smoke values below.
"""
from __future__ import annotations

import random

WORKLOADS = ("riemann_steps", "periodic_lake", "dense_output")

# Why each workload is in the benchmark.  Each sentence is repeated as the
# workload's "why" in BENCHMARK.json.
WHY = {
    "riemann_steps": "stepping-bound Neumann runs: two unsponged degree-1 dam "
                     "breaks and a degree-2 one exercise potential fusion and "
                     "banded solves; the sponge run is where fusion cannot apply",
    "periodic_lake": "the dispersive solve on a periodic matrix whose corner "
                     "blocks cause LU fill, with a closed-form reference so "
                     "exact sampling does almost no work",
    "dense_output": "60 seeded output times: CSV emission, reference sampling "
                    "and one shortened-step factorization per output dominate, "
                    "the reverse of the stepping workloads",
}

# Accuracy gate: the L1 height error of each scenario's final snapshot over
# the scenario's default error window, measured on the seed code.  A run
# whose term differs by more than the relative tolerance fails.  The fixed
# workloads repeat to rounding, so their tolerance only admits rounding-level
# changes (a reordered sum, another factorization).  For dense_output the
# reference is the value at the evenly spaced times 0.01, 0.02, ..., 0.6;
# over seeds 1..40 the seeded times move it by at most 1.0e-5 relative
# (2.2e-5 at smoke size), so its tolerance is 1e-4.
EXPECTED_L1 = {
    "full": {
        "riemann_steps": (1.0010984956e-2, 4.5267332512e-2, 1.7696383531e-2),
        "periodic_lake": (7.0484444247e-3,),
        "dense_output": (1.8723366840e-2,),
    },
    "smoke": {
        "riemann_steps": (3.0992324447e-2, 1.5615490241e-1, 5.3473017752e-2),
        "periodic_lake": (3.1412446703e-2,),
        "dense_output": (4.1193084244e-2,),
    },
}
RTOL = {"riemann_steps": 1e-6, "periodic_lake": 1e-6, "dense_output": 1e-4}

DENSE_FINAL_TIME = 0.6
DENSE_INTERIOR_TIMES = 59


def _riemann(name: str, eps: float, states: tuple, times: list, *,
             boundary: str = "neumann", degree: int = 1,
             sponge_omega: float | None = None) -> dict:
    h_left, u_left, h_right, u_right = states
    doc = {
        "name": name,
        "physics": {"g": 1.0, "eps": eps},
        "init": {"recipe": "riemann_tanh", "h_left": h_left, "u_left": u_left,
                 "h_right": h_right, "u_right": u_right},
        "domain": {"half_width": 2.0, "boundary": boundary},
        "output": {"times": times},
    }
    if sponge_omega is not None:
        doc["sponge"] = {"omega": sponge_omega}
    if degree != 1:
        doc["discretization"] = {"degree": degree}
    return doc


def _lake(name: str, eps: float, b_max: float, times: list) -> dict:
    return {
        "name": name,
        "physics": {"g": 1.0, "eps": eps},
        "init": {"recipe": "softplus_surface", "surface": "constant", "level": 1.0},
        "bathymetry": {"kind": "gaussian_bump", "b_max": b_max},
        "domain": {"half_width": 2.0, "boundary": "periodic"},
        "output": {"times": times},
    }


def dense_times(seed: int) -> list:
    """59 interior output times uniform in (0, 0.6), sorted, then 0.6."""
    rng = random.Random(seed)
    times = []
    while len(times) < DENSE_INTERIOR_TIMES:
        t = rng.uniform(0.0, DENSE_FINAL_TIME)
        if 0.0 < t < DENSE_FINAL_TIME:
            times.append(t)
    return sorted(times) + [DENSE_FINAL_TIME]


def scenarios(workload: str, seed: int, smoke: bool = False) -> list:
    """The workload's scenario documents, each paired with its gate values.

    Returns a list of (document, expected L1 term, relative tolerance).
    """
    scale = 4.0 if smoke else 1.0
    if workload == "riemann_steps":
        docs = [
            _riemann("dam_break_dry", 0.01 * scale, (1.0, 0.0, 0.0, 0.0), [0.6]),
            _riemann("vacuum_generation", 0.01 * scale, (1.0, -3.0, 2.0, 3.0), [0.3],
                     boundary="sponge_neumann", sponge_omega=3.0),
            _riemann("dam_break_dry", 0.02 * scale, (1.0, 0.0, 0.0, 0.0), [0.6],
                     degree=2),
        ]
    elif workload == "periodic_lake":
        docs = [_lake("lake_at_rest_dry", 0.01 * scale, 1.1, [1.0])]
    elif workload == "dense_output":
        docs = [_riemann("dam_break_wet", 0.02 * scale, (1.0, 0.0, 0.2, 0.0),
                         dense_times(seed))]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    expected = EXPECTED_L1["smoke" if smoke else "full"][workload]
    return [(doc, ref, RTOL[workload]) for doc, ref in zip(docs, expected)]
