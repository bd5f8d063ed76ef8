"""Command-line front end: scenario files, built-in benchmark setups,
snapshot/diagnostics CSV emission and the convergence-sweep driver.

Scenario files are JSON documents with sections physics, init, bathymetry,
domain, sponge, discretization and output.  Their schema is the ``Scenario``
dataclass and its spec dataclasses: ``parse_scenario`` reads each section
from its dataclass's fields (unknown keys rejected, keys without a default
required) and ``serialize_scenario`` writes them back, so every scenario
round-trips exactly.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass, replace
from typing import ClassVar, Optional, Union, get_args, get_origin, get_type_hints

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
# Most mesh nodes a run can hold: a complex128 array's byte count must fit in
# a signed machine word.
_MAX_NODES = sys.maxsize // 16
# A sweep error at most this fraction of the numerical field's own norm is
# rounding, and fits no convergence order.
_ROUNDING_LEVEL = 1e-10


# Default initial smoothing width delta, in units of eps, of both init recipes.
DELTA_OVER_EPS = 1.2


@dataclass(frozen=True)
class RiemannInitSpec:
    recipe: ClassVar[str] = "riemann_tanh"
    h_left: float
    u_left: float
    h_right: float
    u_right: float
    delta_over_eps: float = DELTA_OVER_EPS


@dataclass(frozen=True)
class SurfaceInitSpec:
    recipe: ClassVar[str] = "softplus_surface"
    surface: str  # "thacker" or "constant"
    level: float = 1.0
    delta_over_eps: float = DELTA_OVER_EPS


@dataclass(frozen=True)
class BathymetrySpec:
    kind: str = FLAT
    b_max: float = 0.0  # read for gaussian_bump only
    x: tuple = ()       # x and values: read for tabulated only
    values: tuple = ()


@dataclass(frozen=True)
class DomainSpec:
    half_width: float
    boundary: str


@dataclass(frozen=True)
class SpongeSpec:
    omega: float
    n_wavelengths: int = 16
    reduction: float = 1e-6


@dataclass(frozen=True)
class DiscretizationSpec:
    degree: int = 1
    dx_over_eps: float = 0.05
    dt: Optional[float] = None  # None: dt = dx


@dataclass(frozen=True)
class OutputSpec:
    times: tuple
    directory: str = "out"


@dataclass(frozen=True, kw_only=True)
class Scenario:
    """Complete problem description; everything a run needs, all serializable.

    The fields and those of the spec dataclasses are the scenario file's
    schema: a field's type is its key's JSON type, its default makes the key
    optional.  g and eps sit in the file's physics section.
    """

    name: str = "scenario"
    g: float
    eps: float
    init: Union[RiemannInitSpec, SurfaceInitSpec]
    bathymetry: BathymetrySpec = BathymetrySpec()
    domain: DomainSpec
    sponge: Optional[SpongeSpec] = None
    discretization: DiscretizationSpec = DiscretizationSpec()
    output: OutputSpec

    def __post_init__(self):
        for key, value in _float_values("physics", self):
            if not abs(value) <= sys.float_info.max:
                raise ValueError(f"{key} must be a finite number, got {value!r}")
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
            # an integer beyond the largest float cannot size the layer
            if not 1 <= self.sponge.n_wavelengths <= sys.float_info.max:
                raise ValueError(f"sponge.n_wavelengths must be >= 1 and a finite "
                                 f"number, got {self.sponge.n_wavelengths}")
        elif self.sponge is not None:
            raise ValueError("a sponge section is read only with domain.boundary "
                             "sponge_neumann")
        times = self.output.times
        if len(times) == 0:
            raise ValueError("output.times must not be empty")
        if min(times) < 0.0 or any(b < a for a, b in zip(times, times[1:])):
            raise ValueError(f"output.times must be nonnegative and nondecreasing: {times}")
        if not self.output.directory:
            raise ValueError("output.directory must not be empty")
        if isinstance(self.init, RiemannInitSpec):
            for key, h in (("h_left", self.init.h_left), ("h_right", self.init.h_right)):
                if h < 0.0:
                    raise ValueError(f"init.{key} must be nonnegative, got {h}")
        elif isinstance(self.init, SurfaceInitSpec):
            if self.init.surface not in ("thacker", "constant"):
                raise ValueError(f"init.surface unknown: {self.init.surface!r}")
            if self.init.level != 1.0 and self.init.surface != "constant":
                raise ValueError(f"'init.level' is read only for surface constant, "
                                 f"not {self.init.surface}")
        else:
            raise ValueError(f"unsupported init spec {type(self.init).__name__}")
        if not self.init.delta_over_eps > 0.0:
            raise ValueError("init.delta_over_eps must be positive")
        kind = self.bathymetry.kind
        if kind not in (FLAT, PARABOLIC, GAUSSIAN_BUMP, TABULATED):
            raise ValueError(f"unknown value for 'bathymetry.kind': {kind!r}")
        if self.bathymetry.b_max != 0.0 and kind != GAUSSIAN_BUMP:
            raise ValueError(f"'bathymetry.b_max' is read only for kind {GAUSSIAN_BUMP}, "
                             f"not {kind}")
        if kind == TABULATED:
            x = self.bathymetry.x
            if len(x) < 2 or len(x) != len(self.bathymetry.values):
                raise ValueError("'bathymetry.x' and 'bathymetry.values' must be "
                                 "equal-length tables")
            if any(b <= a for a, b in zip(x, x[1:])):
                raise ValueError(f"'bathymetry.x' must be strictly increasing: {x}")
        else:
            for key in ("x", "values"):
                if getattr(self.bathymetry, key):
                    raise ValueError(f"'bathymetry.{key}' is read only for kind "
                                     f"{TABULATED}, not {kind}")
        if not 1 <= self.discretization.degree <= meshmod.MAX_DEGREE:
            raise ValueError(f"discretization.degree out of range: {self.discretization.degree}")
        if not self.discretization.dx_over_eps > 0.0:
            raise ValueError("discretization.dx_over_eps must be positive")
        if self.discretization.dt is not None and not self.discretization.dt > 0.0:
            raise ValueError(f"discretization.dt must be positive, got {self.discretization.dt}")
        nodes, keys = self._mesh_size()
        if not nodes <= _MAX_NODES:
            raise ValueError(f"the mesh would have {nodes:.6g} nodes, not a finite count "
                             f"of at most {_MAX_NODES}, the most an array can hold; it is "
                             f"sized by {keys}")
        if (isinstance(self.init, RiemannInitSpec)
                and self.domain.boundary == BOUNDARY_PERIODIC):
            # the initial phase phi0/eps jumps by (u_left + u_right)*half_width/eps
            # across the periodic seam, which must be n whole turns of 2*pi
            n = ((self.init.u_left + self.init.u_right) * self.domain.half_width
                 / (2.0 * math.pi * self.eps))
            if not (math.isfinite(n) and abs(n - round(n)) <= 1e-9 * max(1.0, abs(n))):
                raise ValueError(f"physics.eps {self.eps!r} breaks the initial phase at "
                                 f"the periodic seam: (u_left + u_right)*half_width/"
                                 f"(2*pi*eps) is {n!r} turns, not a whole number")

    # --- derived quantities -------------------------------------------------

    @property
    def delta(self) -> float:
        return self.init.delta_over_eps * self.eps

    def _element_count(self) -> float:
        return 2.0 * self.domain.half_width / (self.discretization.dx_over_eps * self.eps)

    def interior_elements(self) -> int:
        return max(1, round(self._element_count()))

    @property
    def dx(self) -> float:
        return 2.0 * self.domain.half_width / self.interior_elements()

    @property
    def dt(self) -> float:
        if self.discretization.dt is not None:
            return self.discretization.dt
        return self.dx

    def _sponge_width(self) -> float:
        sp = self.sponge
        return sp.n_wavelengths * 2.0 * np.pi * self.eps / abs(sp.omega)

    def sponge_geometry(self) -> tuple[float, float, int]:
        """(ell, sigma_max, layer element count) of each absorbing layer: ell
        spans n_wavelengths carrier periods 2*pi*eps/|omega|, sigma_max damps
        one crossing by `reduction`, and the layer is rounded up to whole elements."""
        sp = self.sponge
        ell = self._sponge_width()
        sigma_max = -(2.0 * self.eps * abs(sp.omega) / ell) * np.log(sp.reduction)
        layers = math.ceil(ell / self.dx - 1e-9)
        return ell, float(sigma_max), layers

    def _mesh_size(self) -> tuple[float, str]:
        """The mesh's node count, computed in floating point from the inputs of
        _mesh_extent before its rounding to whole elements (so nan or inf where
        they overflow), and the keys that size it."""
        elements = max(self._element_count(), 1.0)  # max keeps a nan count
        keys = ("domain.half_width, discretization.dx_over_eps, discretization.degree, "
                "physics.eps")
        if self.domain.boundary == BOUNDARY_SPONGE:
            # two layers of ell/dx elements each, with dx = 2*half_width/elements
            elements += elements * self._sponge_width() / self.domain.half_width
            keys += ", sponge.n_wavelengths, sponge.omega"
        nodes = elements * self.discretization.degree + (self.domain.boundary != BOUNDARY_PERIODIC)
        return nodes, keys

    def _mesh_extent(self) -> tuple[float, int, str]:
        """(half-length, element count, topology) of the mesh, sponge layers included."""
        L = self.domain.half_width
        m = self.interior_elements()
        if self.domain.boundary == BOUNDARY_SPONGE:
            _, _, layers = self.sponge_geometry()
            return L + layers * self.dx, m + 2 * layers, meshmod.NEUMANN
        topology = (meshmod.PERIODIC if self.domain.boundary == BOUNDARY_PERIODIC
                    else meshmod.NEUMANN)
        return L, m, topology

    def build_mesh(self) -> meshmod.Mesh1D:
        half, elements, topology = self._mesh_extent()
        return meshmod.build_mesh(-half, half, elements, self.discretization.degree, topology)

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
            return madelung.init_riemann(m, self.init.h_left, self.init.u_left,
                                         self.init.h_right, self.init.u_right,
                                         self.delta, self.eps)
        return madelung.init_softplus_surface(m, self.surface_values,
                                              self.bathymetry_values,
                                              self.delta, self.eps)

    def sponge_profile(self, m: meshmod.Mesh1D) -> Optional[np.ndarray]:
        """Nodal damping sigma, None without a sponge: 0 for |x| <= half_width,
        a quintic smoothstep over the layer width ell, sigma_max beyond it."""
        if self.domain.boundary != BOUNDARY_SPONGE:
            return None
        ell, sigma_max, _ = self.sponge_geometry()
        s = np.clip((np.abs(m.coords) - self.domain.half_width) / ell, 0.0, 1.0)
        return sigma_max * s**3 * (6.0 * s * s - 15.0 * s + 10.0)


def _float_values(section: str, spec):
    """(key, value) for each float, or number in a tuple, held by a field of
    the spec dataclass instance `spec` or of the specs nested in it; a nested
    spec's section is its field name, so Scenario's own g and eps are
    "physics"."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        if is_dataclass(value):
            yield from _float_values(f.name, value)
        elif isinstance(value, tuple):
            yield from ((f"{section}.{f.name}", v) for v in value)
        elif isinstance(value, float):
            yield f"{section}.{f.name}", value


# --- parsing and serialization ----------------------------------------------

_INIT_SPECS = {spec.recipe: spec for spec in (RiemannInitSpec, SurfaceInitSpec)}
# Scenario fields that the document keeps in its physics section.
_PHYSICS = ("g", "eps")


def _number(section: str, key: str, value) -> float:
    # abs(value) <= max also refuses an integer too large to be a float
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ValueError(f"key '{section}.{key}' must be a finite number, got {value!r}")
    return float(value)


def _integer(section: str, key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"key '{section}.{key}' must be an integer, got {value!r}")
    return value


def _string(section: str, key: str, value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"key '{section}.{key}' must be a string, got {value!r}")
    return value


def _numbers(section: str, key: str, value) -> tuple:
    if not isinstance(value, list):
        raise ValueError(f"key '{section}.{key}' must be a list of numbers, got {value!r}")
    return tuple(_number(section, f"{key}[]", v) for v in value)


_CHECKS = {float: _number, int: _integer, str: _string, tuple: _numbers}


def _object(section: str, data) -> dict:
    if not isinstance(data, dict):
        raise ValueError(f"section '{section}' must be a JSON object, got {data!r}")
    return data


def _read(section: str, data, spec, names=None) -> dict:
    """Checked values for the fields of the dataclass `spec` (those in
    `names` if given) from the JSON object `data`.

    A key that names no such field is rejected, and a field without a default
    is required.  The field's type annotation picks the check.
    """
    _object(section, data)
    specs = [f for f in fields(spec) if names is None or f.name in names]
    known = {f.name for f in specs}
    for key in data:
        if key not in known:
            raise ValueError(f"unknown key '{section}.{key}' in scenario document")
    hints = get_type_hints(spec)
    values = {}
    for f in specs:
        if f.name in data:
            values[f.name] = _value(section, f.name, hints[f.name], data[f.name])
        elif f.default is MISSING:
            raise ValueError(f"missing required key '{section}.{f.name}' in scenario document")
    return values


def _value(section: str, key: str, kind, value):
    if get_origin(kind) is Union:
        options = get_args(kind)
        if type(None) not in options:  # the init section, told apart by its recipe
            return _init(key, value)
        if value is None:
            return None
        (kind,) = (t for t in options if t is not type(None))
    if is_dataclass(kind):
        return kind(**_read(key, value, kind))
    return _CHECKS[kind](section, key, value)


def _init(section: str, data):
    rest = dict(_object(section, data))
    if "recipe" not in rest:
        raise ValueError(f"missing required key '{section}.recipe' in scenario document")
    recipe = rest.pop("recipe")
    spec = _INIT_SPECS.get(recipe) if isinstance(recipe, str) else None
    if spec is None:
        raise ValueError(f"unknown value for '{section}.recipe': {recipe!r}")
    return spec(**_read(section, rest, spec))


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a JSON scenario document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"scenario document is not valid JSON: {err}") from err
    doc = dict(_object("<top>", doc))
    if "physics" not in doc:
        raise ValueError("missing required key '<top>.physics' in scenario document")
    physics = doc.pop("physics")
    top = {f.name for f in fields(Scenario)} - set(_PHYSICS)
    return Scenario(**_read("physics", physics, Scenario, _PHYSICS),
                    **_read("<top>", doc, Scenario, top))


def serialize_scenario(s: Scenario) -> str:
    """JSON text whose parse reproduces the scenario exactly; keys whose
    value is None are left out."""
    doc = asdict(s)
    doc["init"] = {"recipe": s.init.recipe, **doc["init"]}
    doc = {"name": doc.pop("name"), "physics": {key: doc.pop(key) for key in _PHYSICS},
           **doc}
    doc = {section: ({k: v for k, v in body.items() if v is not None}
                     if isinstance(body, dict) else body)
           for section, body in doc.items() if body is not None}
    return json.dumps(doc, indent=2)


# --- builtins -----------------------------------------------------------------

def builtin_names() -> list[str]:
    return list(_BUILTINS)


def builtin_scenario(name: str) -> Scenario:
    """The named built-in; one shared value, safe since scenarios are frozen."""
    try:
        return _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown builtin scenario {name!r}; "
                         f"choose from {', '.join(_BUILTINS)}") from None


def _builtin(name, init, *, bathymetry=BathymetrySpec(), boundary=BOUNDARY_NEUMANN,
             half_width=2.0, eps=0.01, times=(0.6,), sponge=None) -> Scenario:
    """A built-in scenario: g = 1 and output under out/<name>."""
    return Scenario(name=name, g=1.0, eps=eps, init=init, bathymetry=bathymetry,
                    domain=DomainSpec(half_width=half_width, boundary=boundary),
                    sponge=sponge,
                    output=OutputSpec(times=times, directory=os.path.join("out", name)))


_BUILTINS = {sc.name: sc for sc in (
    _builtin("dam_break_dry", RiemannInitSpec(1.0, 0.0, 0.0, 0.0)),
    _builtin("dam_break_wet", RiemannInitSpec(1.0, 0.0, 0.2, 0.0)),
    _builtin("vacuum_generation", RiemannInitSpec(1.0, -3.0, 2.0, 3.0),
             boundary=BOUNDARY_SPONGE, times=(0.3,), sponge=SpongeSpec(omega=3.0)),
    _builtin("oscillating_lake", SurfaceInitSpec(surface="thacker"),
             bathymetry=BathymetrySpec(kind=PARABOLIC), times=(2.0, 3.0, 4.0)),
    _builtin("lake_at_rest_wet", SurfaceInitSpec(surface="constant"),
             bathymetry=BathymetrySpec(kind=GAUSSIAN_BUMP, b_max=0.9),
             boundary=BOUNDARY_PERIODIC, times=(1.0,)),
    _builtin("lake_at_rest_dry", SurfaceInitSpec(surface="constant"),
             bathymetry=BathymetrySpec(kind=GAUSSIAN_BUMP, b_max=1.1),
             boundary=BOUNDARY_PERIODIC, times=(1.0,)),
    # constant-height plane wave: the only setup with a closed-form wave
    # solution, used for temporal-order verification.  eps must divide the
    # carrier so the phase is periodic on [-pi, pi]: 1/eps integer, which
    # Scenario checks.
    _builtin("plane_wave", RiemannInitSpec(1.0, 1.0, 1.0, 1.0), eps=0.1,
             boundary=BOUNDARY_PERIODIC, half_width=math.pi, times=(1.0,)),
)}


# --- reference sampling and snapshot emission ---------------------------------

@dataclass(eq=False)
class ReferenceSamples:
    """Exact-solution samples at the nodes; nan where no reference exists."""

    h: np.ndarray
    q: np.ndarray
    eta: np.ndarray


def _riemann_problem(scenario: Scenario) -> tuple[exact.RiemannData, exact.WaveStructure]:
    """The Riemann problem of a scenario with a Riemann init, and its waves."""
    init = scenario.init
    data = exact.RiemannData(init.h_left, init.u_left, init.h_right, init.u_right, scenario.g)
    return data, exact.classify(data)


def reference_samples(scenario: Scenario, x: np.ndarray, t: float) -> ReferenceSamples:
    """Sample the matching dispersionless reference for a scenario, if any."""
    x = np.asarray(x, dtype=float)
    nan = np.full_like(x, np.nan)
    if isinstance(scenario.init, RiemannInitSpec) and scenario.bathymetry.kind == FLAT:
        h, u = exact.sample_profile(*_riemann_problem(scenario), x, t)
        return ReferenceSamples(h=h, q=h * u, eta=h)
    if isinstance(scenario.init, SurfaceInitSpec):
        if scenario.init.surface == "thacker" and scenario.bathymetry.kind == PARABOLIC:
            h, eta = exact.thacker_exact(x, t)
            return ReferenceSamples(h=h, q=nan.copy(), eta=eta)
        if scenario.init.surface == "constant" and scenario.init.level == 1.0:
            b = scenario.bathymetry_values(x)
            h, u = exact.lake_at_rest_exact(b)
            return ReferenceSamples(h=h, q=h * u, eta=h + b)
    return ReferenceSamples(h=nan.copy(), q=nan.copy(), eta=nan.copy())


def _write_csv(path: str, header: str, table: np.ndarray) -> None:
    """Write ``header`` and one row per row of the 2-D ``table``, every value
    as ``"%.17g"``.

    Rows are formatted ``_EMIT_BLOCK_ROWS`` at a time with one ``%`` operation
    per block; ``"%.17g" % v`` is the same text as ``f"{v:.17g}"`` for every
    float, so the bytes do not depend on the block size.
    """
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, len(table), _EMIT_BLOCK_ROWS):
            block = table[start:start + _EMIT_BLOCK_ROWS]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def emit_snapshot(state: tuple, refs: ReferenceSamples, path: str, *,
                  bathymetry: np.ndarray, interior: np.ndarray) -> None:
    """Write one snapshot CSV (17 significant digits, nan for missing refs).

    ``interior`` masks out sponge-layer nodes; rows are emitted in increasing x.
    """
    wave, hydro = state
    x = wave.mesh.coords
    idx = np.flatnonzero(interior)  # mesh nodes are ordered left to right
    b = np.asarray(bathymetry)
    columns = (x, hydro.h, refs.h, hydro.q, refs.q, wave.psi.real, wave.psi.imag,
               b, hydro.h + b, refs.eta)
    _write_csv(path, SNAPSHOT_HEADER, np.column_stack([col[idx] for col in columns]))


def interior_mask(scenario: Scenario, m: meshmod.Mesh1D) -> np.ndarray:
    if scenario.domain.boundary != BOUNDARY_SPONGE:
        return np.ones(m.num_nodes, dtype=bool)
    L = scenario.domain.half_width
    return np.abs(m.coords) <= L + 1e-9 * max(1.0, L)


def default_error_window(scenario: Scenario, t: float) -> tuple[float, float]:
    """Comparison window for sweeps, chosen by scenario name.

    For a ``dam_break_wet`` Riemann problem with a right shock the window
    ends 0.2 left of the shock, so the oscillatory wavetrain is excluded but
    the shock-influenced plateau is not: there h tends to the two-invariant
    state h_m, not to the entropy star state the exact reference gives
    (README, "Validity regime").
    """
    L = scenario.domain.half_width
    if scenario.name == "dam_break_wet" and isinstance(scenario.init, RiemannInitSpec):
        _, structure = _riemann_problem(scenario)
        if structure.right_wave == exact.SHOCK:
            return (-1.2, structure.right_head * t - 0.2)
    if scenario.name == "vacuum_generation":
        return (-1.5, 1.5)
    return (-L, L)


def _run(scenario: Scenario) -> nls.RunResult:
    """nls.run, with running out of memory reported against the mesh size."""
    try:
        return nls.run(scenario)
    except MemoryError as err:
        nodes, keys = scenario._mesh_size()
        raise MemoryError(f"out of memory for a mesh of {nodes:.6g} nodes, sized by "
                          f"{keys}: {err}") from None


def run_and_write(scenario: Scenario, out_dir: Optional[str] = None) -> nls.RunResult:
    """Run a scenario, write snapshot CSVs, the diagnostics log and the
    effective scenario document into the output directory."""
    out_dir = out_dir or scenario.output.directory
    result = _run(scenario)
    os.makedirs(out_dir, exist_ok=True)
    interior = interior_mask(scenario, result.mesh)
    with open(os.path.join(out_dir, "scenario_used.json"), "w") as fh:
        fh.write(serialize_scenario(scenario) + "\n")
    for i, ((wave, hydro), t) in enumerate(zip(result.snapshots, scenario.output.times)):
        refs = reference_samples(scenario, result.mesh.coords, t)
        emit_snapshot((wave, hydro), refs,
                      os.path.join(out_dir, f"snapshot_{i:04d}.csv"),
                      bathymetry=result.bathymetry, interior=interior)
    _write_csv(os.path.join(out_dir, "diagnostics.csv"), DIAGNOSTICS_HEADER,
               np.array([(t, rep.mass, rep.total, rep.fisher, rep.potential)
                         for t, rep in zip(scenario.output.times, result.energies)]))
    return result


def sweep(scenario: Scenario, eps_list: list[float], norm: str = diagnostics.L1,
          field_name: str = diagnostics.HEIGHT,
          out_dir: Optional[str] = None) -> tuple[list[tuple[float, float]], Optional[float]]:
    """Run the scenario at each eps, measure the final-time error in the
    scenario's default window, and fit the convergence order.

    No order (None) is fitted when a run's error is at rounding level, at
    most ``_ROUNDING_LEVEL`` times the same norm of its numerical field: the
    slope of such errors measures rounding, not convergence.

    The dispersionless reference and the window do not depend on eps.  A
    request that cannot give an order is refused before the first run: an eps
    the scenario rejects, fewer than two eps or a repeated one, or a field
    without a reference.
    """
    try:
        scenarios = [replace(scenario, eps=eps) for eps in eps_list]
    except ValueError as err:
        raise ValueError(f"--eps-list for {scenario.name}: {err}") from None
    if len(eps_list) < 2 or len(set(eps_list)) < len(eps_list):
        raise ValueError(f"--eps-list for {scenario.name} must hold at least two "
                         f"distinct values, got {eps_list}")
    t_final = scenario.output.times[-1]
    window = default_error_window(scenario, t_final)

    def ref(x, t):
        refs = reference_samples(scenario, x, t)
        return {diagnostics.HEIGHT: refs.h, diagnostics.DISCHARGE: refs.q,
                diagnostics.SURFACE: refs.eta}[field_name]

    if np.isnan(ref(np.array(window), t_final)).any():
        raise ValueError(f"--field {field_name}: {scenario.name} has no {field_name} "
                         f"reference")
    rows = []
    rounding = False
    for sc in scenarios:
        result = _run(sc)
        _, hydro = result.snapshots[-1]
        report = diagnostics.error_norm(hydro, ref, window, kind=norm,
                                        field=field_name,
                                        bathymetry=result.bathymetry)
        rows.append((sc.eps, report.value))
        size = diagnostics.error_norm(hydro, lambda x, t: np.zeros_like(x), window,
                                      kind=norm, field=field_name,
                                      bathymetry=result.bathymetry)
        rounding |= report.value <= _ROUNDING_LEVEL * size.value
        print(f"eps={sc.eps:<10g} {norm}({field_name}) over "
              f"[{window[0]:.4g}, {window[1]:.4g}] = {report.value:.6e}")
    order = None if rounding else diagnostics.convergence_order(rows)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        _write_csv(os.path.join(out_dir, "error_table.csv"),
                   f"eps,error_{norm}_{field_name}", np.array(rows))
    if order is None:
        print("no convergence order: errors at rounding level")
    else:
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
        sweep(scenario, eps_list, norm=args.norm, field_name=args.field,
              out_dir=args.out)
        return 0
    except (ValueError, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RuntimeError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())
