"""Command-line front end: scenario files, built-in benchmark setups,
snapshot/diagnostics CSV emission and the convergence-sweep driver.

Scenario files are JSON documents with sections physics, init, bathymetry,
domain, sponge, discretization and output; ``parse_scenario`` validates them
strictly (unknown keys rejected) and ``serialize_scenario`` round-trips every
scenario exactly.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import diagnostics, exact, madelung, mesh as meshmod, nls

FLAT = "flat"
PARABOLIC = "parabolic"
GAUSSIAN_BUMP = "gaussian_bump"
TABULATED = "tabulated"

BOUNDARY_NEUMANN = "neumann"
BOUNDARY_PERIODIC = "periodic"
BOUNDARY_SPONGE = "sponge_neumann"

SNAPSHOT_HEADER = "x,h_num,h_ref,q_num,q_ref,re_psi,im_psi,b,eta_num,eta_ref"
DIAGNOSTICS_HEADER = "t,mass,energy_total,energy_fisher,energy_potential"
# Snapshot rows formatted per write; bounds the text held in memory at once.
_EMIT_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class RiemannInitSpec:
    h_left: float
    u_left: float
    h_right: float
    u_right: float
    delta_over_eps: float = 1.2


@dataclass(frozen=True)
class SurfaceInitSpec:
    surface: str  # "thacker" or "constant"
    level: float = 1.0
    delta_over_eps: float = 1.2


@dataclass(frozen=True)
class BathymetrySpec:
    kind: str = FLAT
    b_max: float = 0.0
    x: tuple = ()
    values: tuple = ()


@dataclass(frozen=True)
class DomainSpec:
    half_width: float = 2.0
    boundary: str = BOUNDARY_NEUMANN


@dataclass(frozen=True)
class SpongeSpec:
    omega: float = 0.0
    n_wavelengths: int = 16
    reduction: float = 1e-6


@dataclass(frozen=True)
class DiscretizationSpec:
    degree: int = 1
    dx_over_eps: float = 0.05
    dt_equals_dx: bool = True
    num_elements: Optional[int] = None
    dt: Optional[float] = None
    solver: str = nls.DIRECT
    solver_tol: float = 1e-10


@dataclass(frozen=True)
class OutputSpec:
    times: tuple = (0.0,)
    fields: tuple = ("height", "discharge")
    directory: str = "out"


@dataclass(frozen=True)
class Scenario:
    """Complete problem description; everything a run needs, all serializable."""

    name: str
    g: float
    eps: float
    init: object  # RiemannInitSpec | SurfaceInitSpec
    bathymetry: BathymetrySpec = BathymetrySpec()
    domain: DomainSpec = DomainSpec()
    sponge: Optional[SpongeSpec] = None
    discretization: DiscretizationSpec = DiscretizationSpec()
    output: OutputSpec = OutputSpec()

    def __post_init__(self):
        if not self.eps > 0.0:
            raise ValueError(f"physics.eps must be positive, got {self.eps}")
        if not self.g > 0.0:
            raise ValueError(f"physics.g must be positive, got {self.g}")
        if not self.domain.half_width > 0.0:
            raise ValueError(f"domain.half_width must be positive, got {self.domain.half_width}")
        if self.domain.boundary not in (BOUNDARY_NEUMANN, BOUNDARY_PERIODIC, BOUNDARY_SPONGE):
            raise ValueError(f"domain.boundary unknown: {self.domain.boundary!r}")
        if self.domain.boundary == BOUNDARY_SPONGE:
            if self.sponge is None:
                raise ValueError("domain.boundary sponge_neumann requires a sponge section")
            if self.sponge.omega == 0.0:
                raise ValueError("sponge.omega must be nonzero")
            if not 0.0 < self.sponge.reduction < 1.0:
                raise ValueError(f"sponge.reduction must lie in (0,1), got {self.sponge.reduction}")
        times = self.output.times
        if len(times) == 0:
            raise ValueError("output.times must not be empty")
        if any(t < 0.0 for t in times) or any(b < a for a, b in zip(times, times[1:])):
            raise ValueError(f"output.times must be nondecreasing and nonnegative: {times}")
        if isinstance(self.init, RiemannInitSpec):
            if self.init.h_left < 0.0 or self.init.h_right < 0.0:
                raise ValueError("init heights must be nonnegative")
            if not self.init.delta_over_eps > 0.0:
                raise ValueError("init.delta_over_eps must be positive")
        elif isinstance(self.init, SurfaceInitSpec):
            if self.init.surface not in ("thacker", "constant"):
                raise ValueError(f"init.surface unknown: {self.init.surface!r}")
            if not self.init.delta_over_eps > 0.0:
                raise ValueError("init.delta_over_eps must be positive")
        else:
            raise ValueError(f"unsupported init spec {type(self.init).__name__}")
        if self.bathymetry.kind == TABULATED:
            x = self.bathymetry.x
            if len(x) < 2 or len(x) != len(self.bathymetry.values):
                raise ValueError("'bathymetry.x' and 'bathymetry.values' must be "
                                 "equal-length tables")
            if any(b <= a for a, b in zip(x, x[1:])):
                raise ValueError(f"'bathymetry.x' must be strictly increasing: {x}")
        if not 1 <= self.discretization.degree <= meshmod.MAX_DEGREE:
            raise ValueError(f"discretization.degree out of range: {self.discretization.degree}")
        if self.discretization.num_elements is None and not self.discretization.dx_over_eps > 0.0:
            raise ValueError("discretization.dx_over_eps must be positive")
        if not self.discretization.dt_equals_dx and self.discretization.dt is None:
            raise ValueError("discretization.dt required when dt_equals_dx is false")

    # --- derived quantities -------------------------------------------------

    @property
    def delta(self) -> float:
        return self.init.delta_over_eps * self.eps

    def interior_elements(self) -> int:
        if self.discretization.num_elements is not None:
            return self.discretization.num_elements
        width = 2.0 * self.domain.half_width
        m = max(1, round(width / (self.discretization.dx_over_eps * self.eps)))
        return int(m)

    @property
    def dx(self) -> float:
        return 2.0 * self.domain.half_width / self.interior_elements()

    @property
    def dt(self) -> float:
        if self.discretization.dt is not None:
            return self.discretization.dt
        return self.dx

    def sponge_geometry(self) -> tuple[float, float, int]:
        """(ell, sigma_max, layer element count); layer rounded up to whole elements."""
        ell, sigma_max = nls.sponge_params(self.eps, self.sponge.omega,
                                           self.sponge.n_wavelengths,
                                           self.sponge.reduction)
        layers = math.ceil(ell / self.dx - 1e-9)
        return ell, sigma_max, layers

    def build_mesh(self) -> meshmod.Mesh1D:
        L = self.domain.half_width
        m = self.interior_elements()
        if self.domain.boundary == BOUNDARY_SPONGE:
            _, _, layers = self.sponge_geometry()
            pad = layers * self.dx
            return meshmod.build_mesh(-(L + pad), L + pad, m + 2 * layers,
                                      self.discretization.degree, meshmod.NEUMANN)
        topology = (meshmod.PERIODIC if self.domain.boundary == BOUNDARY_PERIODIC
                    else meshmod.NEUMANN)
        return meshmod.build_mesh(-L, L, m, self.discretization.degree, topology)

    def bathymetry_values(self, x: np.ndarray) -> np.ndarray:
        spec = self.bathymetry
        x = np.asarray(x, dtype=float)
        if spec.kind == FLAT:
            return np.zeros_like(x)
        if spec.kind == PARABOLIC:
            return x * x
        if spec.kind == GAUSSIAN_BUMP:
            return spec.b_max * np.exp(-10.0 * x * x)
        if spec.kind == TABULATED:
            return np.interp(x, np.asarray(spec.x, dtype=float),
                             np.asarray(spec.values, dtype=float))
        raise ValueError(f"unknown bathymetry kind {spec.kind!r}")

    def surface_values(self, x: np.ndarray) -> np.ndarray:
        if not isinstance(self.init, SurfaceInitSpec):
            raise ValueError("surface_values requires a surface init")
        x = np.asarray(x, dtype=float)
        if self.init.surface == "thacker":
            return np.maximum(0.5 - math.sqrt(2.0) * x, self.bathymetry_values(x))
        return np.full_like(x, self.init.level)

    def initial_field(self, m: meshmod.Mesh1D) -> madelung.WaveField:
        if isinstance(self.init, RiemannInitSpec):
            params = madelung.InitParams(recipe=madelung.RIEMANN_TANH,
                                         h_left=self.init.h_left, u_left=self.init.u_left,
                                         h_right=self.init.h_right, u_right=self.init.u_right,
                                         delta=self.delta)
            return madelung.init_riemann(m, params, self.eps)
        return madelung.init_softplus_surface(m, self.surface_values,
                                              self.bathymetry_values,
                                              self.delta, self.eps)

    def sponge_profile(self, m: meshmod.Mesh1D) -> Optional[nls.SpongeProfile]:
        if self.domain.boundary != BOUNDARY_SPONGE:
            return None
        ell, sigma_max, _ = self.sponge_geometry()
        return nls.build_sponge(m, self.domain.half_width, ell, sigma_max,
                                omega=self.sponge.omega,
                                n_wavelengths=self.sponge.n_wavelengths,
                                reduction=self.sponge.reduction)

    def solver_config(self) -> nls.SolverConfig:
        return nls.SolverConfig(g=self.g, eps=self.eps, dt=self.dt,
                                solver=self.discretization.solver,
                                tol=self.discretization.solver_tol)


# --- parsing and serialization ----------------------------------------------

_SECTION_KEYS = {
    "name": None,
    "physics": {"g", "eps"},
    "init": {"recipe", "h_left", "u_left", "h_right", "u_right", "delta_over_eps",
             "surface", "level"},
    "bathymetry": {"kind", "b_max", "x", "values"},
    "domain": {"half_width", "boundary"},
    "sponge": {"omega", "n_wavelengths", "reduction"},
    "discretization": {"degree", "dx_over_eps", "dt_equals_dx", "num_elements",
                       "dt", "solver", "solver_tol"},
    "output": {"times", "fields", "directory"},
}


def _check_keys(section: str, data: dict, allowed: set):
    for key in data:
        if key not in allowed:
            raise ValueError(f"unknown key '{section}.{key}' in scenario document")


def _require(section: str, data: dict, key: str):
    if key not in data:
        raise ValueError(f"missing required key '{section}.{key}' in scenario document")
    return data[key]


def _number(section: str, key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"key '{section}.{key}' must be a number, got {value!r}")
    return float(value)


def _integer(section: str, key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"key '{section}.{key}' must be an integer, got {value!r}")
    return value


def _boolean(section: str, key: str, value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"key '{section}.{key}' must be true or false, got {value!r}")
    return value


def _numbers(section: str, key: str, value) -> tuple:
    if not isinstance(value, list):
        raise ValueError(f"key '{section}.{key}' must be a list of numbers, got {value!r}")
    return tuple(_number(section, f"{key}[]", v) for v in value)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a JSON scenario document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"scenario document is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ValueError("scenario document must be a JSON object")
    _check_keys("<top>", doc, set(_SECTION_KEYS))

    name = doc.get("name", "scenario")
    physics = _require("<top>", doc, "physics")
    _check_keys("physics", physics, _SECTION_KEYS["physics"])
    g = _number("physics", "g", _require("physics", physics, "g"))
    eps = _number("physics", "eps", _require("physics", physics, "eps"))

    init_doc = _require("<top>", doc, "init")
    _check_keys("init", init_doc, _SECTION_KEYS["init"])
    recipe = _require("init", init_doc, "recipe")
    delta_over_eps = _number("init", "delta_over_eps",
                             init_doc.get("delta_over_eps", 1.2))
    if recipe == madelung.RIEMANN_TANH:
        init = RiemannInitSpec(
            h_left=_number("init", "h_left", _require("init", init_doc, "h_left")),
            u_left=_number("init", "u_left", _require("init", init_doc, "u_left")),
            h_right=_number("init", "h_right", _require("init", init_doc, "h_right")),
            u_right=_number("init", "u_right", _require("init", init_doc, "u_right")),
            delta_over_eps=delta_over_eps)
    elif recipe == madelung.SOFTPLUS_SURFACE:
        init = SurfaceInitSpec(surface=_require("init", init_doc, "surface"),
                               level=_number("init", "level", init_doc.get("level", 1.0)),
                               delta_over_eps=delta_over_eps)
    else:
        raise ValueError(f"unknown value for 'init.recipe': {recipe!r}")

    bath_doc = doc.get("bathymetry", {"kind": FLAT})
    _check_keys("bathymetry", bath_doc, _SECTION_KEYS["bathymetry"])
    kind = bath_doc.get("kind", FLAT)
    if kind not in (FLAT, PARABOLIC, GAUSSIAN_BUMP, TABULATED):
        raise ValueError(f"unknown value for 'bathymetry.kind': {kind!r}")
    bathymetry = BathymetrySpec(kind=kind,
                                b_max=_number("bathymetry", "b_max", bath_doc.get("b_max", 0.0)),
                                x=_numbers("bathymetry", "x", bath_doc.get("x", [])),
                                values=_numbers("bathymetry", "values",
                                                bath_doc.get("values", [])))

    dom_doc = _require("<top>", doc, "domain")
    _check_keys("domain", dom_doc, _SECTION_KEYS["domain"])
    domain = DomainSpec(half_width=_number("domain", "half_width",
                                           _require("domain", dom_doc, "half_width")),
                        boundary=_require("domain", dom_doc, "boundary"))

    sponge = None
    if "sponge" in doc:
        sp_doc = doc["sponge"]
        _check_keys("sponge", sp_doc, _SECTION_KEYS["sponge"])
        sponge = SpongeSpec(omega=_number("sponge", "omega", _require("sponge", sp_doc, "omega")),
                            n_wavelengths=_integer("sponge", "n_wavelengths",
                                                   sp_doc.get("n_wavelengths", 16)),
                            reduction=_number("sponge", "reduction", sp_doc.get("reduction", 1e-6)))

    disc_doc = doc.get("discretization", {})
    _check_keys("discretization", disc_doc, _SECTION_KEYS["discretization"])
    ne = disc_doc.get("num_elements")
    discretization = DiscretizationSpec(
        degree=_integer("discretization", "degree", disc_doc.get("degree", 1)),
        dx_over_eps=_number("discretization", "dx_over_eps", disc_doc.get("dx_over_eps", 0.05)),
        dt_equals_dx=_boolean("discretization", "dt_equals_dx",
                              disc_doc.get("dt_equals_dx", True)),
        num_elements=None if ne is None else _integer("discretization", "num_elements", ne),
        dt=None if disc_doc.get("dt") is None else _number("discretization", "dt", disc_doc["dt"]),
        solver=disc_doc.get("solver", nls.DIRECT),
        solver_tol=_number("discretization", "solver_tol", disc_doc.get("solver_tol", 1e-10)))

    out_doc = _require("<top>", doc, "output")
    _check_keys("output", out_doc, _SECTION_KEYS["output"])
    output = OutputSpec(times=_numbers("output", "times", _require("output", out_doc, "times")),
                        fields=tuple(out_doc.get("fields", ("height", "discharge"))),
                        directory=out_doc.get("directory", "out"))

    return Scenario(name=name, g=g, eps=eps, init=init, bathymetry=bathymetry,
                    domain=domain, sponge=sponge, discretization=discretization,
                    output=output)


def serialize_scenario(s: Scenario) -> str:
    """JSON text whose parse reproduces the scenario exactly."""
    doc = {"name": s.name, "physics": {"g": s.g, "eps": s.eps}}
    if isinstance(s.init, RiemannInitSpec):
        doc["init"] = {"recipe": madelung.RIEMANN_TANH,
                       "h_left": s.init.h_left, "u_left": s.init.u_left,
                       "h_right": s.init.h_right, "u_right": s.init.u_right,
                       "delta_over_eps": s.init.delta_over_eps}
    else:
        doc["init"] = {"recipe": madelung.SOFTPLUS_SURFACE, "surface": s.init.surface,
                       "level": s.init.level, "delta_over_eps": s.init.delta_over_eps}
    doc["bathymetry"] = {"kind": s.bathymetry.kind}
    if s.bathymetry.kind == GAUSSIAN_BUMP:
        doc["bathymetry"]["b_max"] = s.bathymetry.b_max
    if s.bathymetry.kind == TABULATED:
        doc["bathymetry"]["x"] = list(s.bathymetry.x)
        doc["bathymetry"]["values"] = list(s.bathymetry.values)
    doc["domain"] = {"half_width": s.domain.half_width, "boundary": s.domain.boundary}
    if s.sponge is not None:
        doc["sponge"] = {"omega": s.sponge.omega,
                         "n_wavelengths": s.sponge.n_wavelengths,
                         "reduction": s.sponge.reduction}
    disc = {"degree": s.discretization.degree,
            "dx_over_eps": s.discretization.dx_over_eps,
            "dt_equals_dx": s.discretization.dt_equals_dx,
            "solver": s.discretization.solver,
            "solver_tol": s.discretization.solver_tol}
    if s.discretization.num_elements is not None:
        disc["num_elements"] = s.discretization.num_elements
    if s.discretization.dt is not None:
        disc["dt"] = s.discretization.dt
    doc["discretization"] = disc
    doc["output"] = {"times": list(s.output.times), "fields": list(s.output.fields),
                     "directory": s.output.directory}
    return json.dumps(doc, indent=2)


# --- builtins -----------------------------------------------------------------

def builtin_names() -> list[str]:
    return list(_BUILTINS)


def builtin_scenario(name: str) -> Scenario:
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown builtin scenario {name!r}; "
                         f"choose from {', '.join(_BUILTINS)}") from None
    return factory()


def _riemann(name, hL, uL, hR, uR, *, eps=0.01, boundary=BOUNDARY_NEUMANN,
             half_width=2.0, times=(0.6,), sponge=None, discretization=None):
    return Scenario(name=name, g=1.0, eps=eps,
                    init=RiemannInitSpec(hL, uL, hR, uR),
                    bathymetry=BathymetrySpec(kind=FLAT),
                    domain=DomainSpec(half_width=half_width, boundary=boundary),
                    sponge=sponge,
                    discretization=discretization or DiscretizationSpec(),
                    output=OutputSpec(times=times, directory=os.path.join("out", name)))


_BUILTINS = {
    "dam_break_dry": lambda: _riemann("dam_break_dry", 1.0, 0.0, 0.0, 0.0),
    "dam_break_wet": lambda: _riemann("dam_break_wet", 1.0, 0.0, 0.2, 0.0),
    "vacuum_generation": lambda: _riemann("vacuum_generation", 1.0, -3.0, 2.0, 3.0,
                                          boundary=BOUNDARY_SPONGE, times=(0.3,),
                                          sponge=SpongeSpec(omega=3.0)),
    "oscillating_lake": lambda: Scenario(
        name="oscillating_lake", g=1.0, eps=0.01,
        init=SurfaceInitSpec(surface="thacker"),
        bathymetry=BathymetrySpec(kind=PARABOLIC),
        domain=DomainSpec(half_width=2.0, boundary=BOUNDARY_NEUMANN),
        output=OutputSpec(times=(2.0, 3.0, 4.0), directory=os.path.join("out", "oscillating_lake"))),
    "lake_at_rest_wet": lambda: Scenario(
        name="lake_at_rest_wet", g=1.0, eps=0.01,
        init=SurfaceInitSpec(surface="constant", level=1.0),
        bathymetry=BathymetrySpec(kind=GAUSSIAN_BUMP, b_max=0.9),
        domain=DomainSpec(half_width=2.0, boundary=BOUNDARY_PERIODIC),
        output=OutputSpec(times=(1.0,), directory=os.path.join("out", "lake_at_rest_wet"))),
    "lake_at_rest_dry": lambda: Scenario(
        name="lake_at_rest_dry", g=1.0, eps=0.01,
        init=SurfaceInitSpec(surface="constant", level=1.0),
        bathymetry=BathymetrySpec(kind=GAUSSIAN_BUMP, b_max=1.1),
        domain=DomainSpec(half_width=2.0, boundary=BOUNDARY_PERIODIC),
        output=OutputSpec(times=(1.0,), directory=os.path.join("out", "lake_at_rest_dry"))),
    # constant-height plane wave: the only setup with a closed-form wave
    # solution, used for temporal-order verification.  eps must divide the
    # carrier so the phase is periodic on [-pi, pi]: 1/eps integer.
    "plane_wave": lambda: _riemann("plane_wave", 1.0, 1.0, 1.0, 1.0,
                                   eps=0.1, boundary=BOUNDARY_PERIODIC,
                                   half_width=math.pi, times=(1.0,)),
}


# --- reference sampling and snapshot emission ---------------------------------

@dataclass(eq=False)
class ReferenceSamples:
    """Exact-solution samples at the nodes; nan where no reference exists."""

    h: np.ndarray
    q: np.ndarray
    eta: np.ndarray


def reference_samples(scenario: Scenario, x: np.ndarray, t: float) -> ReferenceSamples:
    """Sample the matching dispersionless reference for a scenario, if any."""
    x = np.asarray(x, dtype=float)
    nan = np.full_like(x, np.nan)
    if isinstance(scenario.init, RiemannInitSpec) and scenario.bathymetry.kind == FLAT:
        data = exact.RiemannData(scenario.init.h_left, scenario.init.u_left,
                                 scenario.init.h_right, scenario.init.u_right,
                                 scenario.g)
        structure = exact.classify(data)
        h, u = exact.sample_profile(data, structure, x, t)
        return ReferenceSamples(h=h, q=h * u, eta=h)
    if isinstance(scenario.init, SurfaceInitSpec):
        if scenario.init.surface == "thacker" and scenario.bathymetry.kind == PARABOLIC:
            h, eta = exact.thacker_exact(x, t)
            return ReferenceSamples(h=h, q=nan.copy(), eta=eta)
        if scenario.init.surface == "constant" and scenario.init.level == 1.0:
            h, u = exact.lake_at_rest_exact(x, scenario.bathymetry_values)
            return ReferenceSamples(h=h, q=h * u, eta=h + scenario.bathymetry_values(x))
    return ReferenceSamples(h=nan.copy(), q=nan.copy(), eta=nan.copy())


def emit_snapshot(state: tuple, refs: ReferenceSamples, path: str, *,
                  bathymetry: np.ndarray, interior: np.ndarray) -> None:
    """Write one snapshot CSV (17 significant digits, nan for missing refs).

    ``interior`` masks out sponge-layer nodes; rows are emitted in increasing x.
    Rows are formatted ``_EMIT_BLOCK_ROWS`` at a time with one ``%`` operation
    per block; ``"%.17g" % v`` is the same text as ``f"{v:.17g}"`` for every
    float, so the bytes do not depend on the block size.
    """
    wave, hydro = state
    x = wave.mesh.coords
    order = np.argsort(x[interior], kind="stable")
    idx = np.flatnonzero(interior)[order]
    b = np.asarray(bathymetry)
    columns = (x, hydro.h, refs.h, hydro.q, refs.q, wave.psi.real, wave.psi.imag,
               b, hydro.h + b, refs.eta)
    table = np.column_stack([col[idx] for col in columns])
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    try:
        with open(path, "w") as fh:
            fh.write(SNAPSHOT_HEADER + "\n")
            for start in range(0, len(table), _EMIT_BLOCK_ROWS):
                block = table[start:start + _EMIT_BLOCK_ROWS]
                fh.write((row * len(block)) % tuple(block.ravel().tolist()))
    except OSError as err:
        raise RuntimeError(f"failed to write snapshot {path}: {err}") from err


def interior_mask(scenario: Scenario, m: meshmod.Mesh1D) -> np.ndarray:
    if scenario.domain.boundary != BOUNDARY_SPONGE:
        return np.ones(m.num_nodes, dtype=bool)
    L = scenario.domain.half_width
    return np.abs(m.coords) <= L + 1e-9 * max(1.0, L)


def default_error_window(scenario: Scenario, t: float) -> tuple[float, float]:
    """Comparison window for sweeps: scenario-specific, shock regions excluded."""
    L = scenario.domain.half_width
    if scenario.name == "dam_break_wet":
        data = exact.RiemannData(scenario.init.h_left, scenario.init.u_left,
                                 scenario.init.h_right, scenario.init.u_right,
                                 scenario.g)
        structure = exact.classify(data)
        return (-1.2, structure.right_head * t - 0.2)
    if scenario.name == "vacuum_generation":
        return (-1.5, 1.5)
    return (-L, L)


def run_and_write(scenario: Scenario, out_dir: Optional[str] = None) -> nls.RunResult:
    """Run a scenario, write snapshot CSVs, the diagnostics log and the
    effective scenario document into the output directory."""
    out_dir = out_dir or scenario.output.directory
    os.makedirs(out_dir, exist_ok=True)
    result = nls.run(scenario)
    interior = interior_mask(scenario, result.mesh)
    with open(os.path.join(out_dir, "scenario_used.json"), "w") as fh:
        fh.write(serialize_scenario(scenario) + "\n")
    for i, ((wave, hydro), t) in enumerate(zip(result.snapshots, scenario.output.times)):
        refs = reference_samples(scenario, result.mesh.coords, t)
        emit_snapshot((wave, hydro), refs,
                      os.path.join(out_dir, f"snapshot_{i:04d}.csv"),
                      bathymetry=result.bathymetry, interior=interior)
    with open(os.path.join(out_dir, "diagnostics.csv"), "w") as fh:
        fh.write(DIAGNOSTICS_HEADER + "\n")
        for t, rep in zip(scenario.output.times, result.energies):
            fh.write(f"{t:.17g},{rep.mass:.17g},{rep.total:.17g},"
                     f"{rep.fisher:.17g},{rep.potential:.17g}\n")
    return result


def sweep(scenario: Scenario, eps_list: list[float], norm: str = diagnostics.L1,
          field_name: str = diagnostics.HEIGHT,
          out_dir: Optional[str] = None) -> tuple[list[tuple[float, float]], float]:
    """Run the scenario at each eps, measure the final-time error in the
    scenario's default window, and fit the convergence order."""
    rows = []
    for eps in eps_list:
        sc = replace(scenario, eps=eps)
        result = nls.run(sc)
        t_final = sc.output.times[-1]
        wave, hydro = result.snapshots[-1]
        window = default_error_window(sc, t_final)

        def ref(x, t, _sc=sc):
            refs = reference_samples(_sc, x, t)
            return {"height": refs.h, "discharge": refs.q, "surface": refs.eta}[field_name]

        report = diagnostics.error_norm(hydro, ref, window, kind=norm,
                                        field=field_name,
                                        bathymetry=result.bathymetry,
                                        tag=f"{sc.name}:exact")
        rows.append((eps, report.value))
        print(f"eps={eps:<10g} {norm}({field_name}) over "
              f"[{window[0]:.4g}, {window[1]:.4g}] = {report.value:.6e}")
    order = diagnostics.convergence_order(rows)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "error_table.csv"), "w") as fh:
            fh.write(f"eps,error_{norm}_{field_name}\n")
            for eps, val in rows:
                fh.write(f"{eps:.17g},{val:.17g}\n")
    print(f"fitted convergence order: {order:.3f}")
    return rows, order


# --- CLI ----------------------------------------------------------------------

def _resolve_scenario(token: str) -> Scenario:
    if token in _BUILTINS:
        return builtin_scenario(token)
    if os.path.exists(token):
        with open(token) as fh:
            return parse_scenario(fh.read())
    raise ValueError(f"no builtin or scenario file named {token!r}")


def cli_main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="swnls",
                                     description="Dispersive wave-function solver "
                                                 "for 1D shallow water benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write CSV output")
    p_run.add_argument("scenario", help="builtin name or scenario file path")
    p_run.add_argument("--eps", type=float, default=None)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--tfinal", type=float, default=None)
    p_run.add_argument("--solver", choices=(nls.DIRECT, nls.ITERATIVE), default=None)

    p_sweep = sub.add_parser("sweep", help="eps-convergence sweep of a builtin")
    p_sweep.add_argument("scenario", help="builtin name or scenario file path")
    p_sweep.add_argument("--eps-list", required=True,
                         help="comma-separated eps values, e.g. 0.08,0.04,0.02")
    p_sweep.add_argument("--norm", choices=(diagnostics.L1, diagnostics.L2, diagnostics.LINF),
                         default=diagnostics.L1)
    p_sweep.add_argument("--field", choices=(diagnostics.HEIGHT, diagnostics.DISCHARGE,
                                             diagnostics.SURFACE),
                         default=diagnostics.HEIGHT)
    p_sweep.add_argument("--out", default=None)

    sub.add_parser("list", help="list builtin scenarios")

    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code) if err.code else 0

    try:
        if args.command == "list":
            for name in builtin_names():
                print(name)
            return 0
        scenario = _resolve_scenario(args.scenario)
        if args.command == "run":
            if args.eps is not None:
                scenario = replace(scenario, eps=args.eps)
            if args.tfinal is not None:
                scenario = replace(scenario, output=replace(scenario.output,
                                                            times=(args.tfinal,)))
            if args.solver is not None:
                scenario = replace(scenario,
                                   discretization=replace(scenario.discretization,
                                                          solver=args.solver))
            out_dir = args.out or scenario.output.directory
            result = run_and_write(scenario, out_dir)
            print(f"{scenario.name}: eps={scenario.eps:g} "
                  f"elements={result.mesh.num_elements} steps={result.steps_taken} "
                  f"-> {out_dir}")
            return 0
        # sweep
        try:
            eps_list = [float(tok) for tok in args.eps_list.split(",") if tok]
        except ValueError:
            raise ValueError(f"--eps-list must be comma-separated numbers, "
                             f"got {args.eps_list!r}") from None
        if not eps_list:
            raise ValueError("--eps-list must contain at least one value")
        sweep(scenario, eps_list, norm=args.norm, field_name=args.field,
              out_dir=args.out)
        return 0
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RuntimeError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())
