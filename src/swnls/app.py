"""Command-line front end: scenario files, built-in benchmark setups,
snapshot/diagnostics CSV emission and the convergence-sweep driver.

Scenario files are JSON documents with sections physics, init, bathymetry,
domain, sponge, discretization and output.  Their schema is the ``Scenario``
dataclass and its spec dataclasses: ``parse_scenario`` reads each section
from its dataclass's fields (unknown keys rejected, keys without a default
required), ``Scenario`` checks the values, and ``serialize_scenario`` writes
them back, so every scenario round-trips exactly.
"""
# No `from __future__ import annotations`: the dataclasses are the schema, and
# `_fields` reads their annotations as types at run time.
import argparse
import itertools
import json
import math
import mmap
import multiprocessing
import os
import shutil
import signal
import sys
import tempfile
import threading
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass, replace
from multiprocessing import connection
from typing import Callable, ClassVar, Literal, NamedTuple, Optional, Union, get_args, get_origin

import numpy as np

from . import csvtext, diagnostics, exact, madelung, mesh as meshmod, nls

FLAT = "flat"
PARABOLIC = "parabolic"
GAUSSIAN_BUMP = "gaussian_bump"
TABULATED = "tabulated"

BOUNDARY_NEUMANN = meshmod.NEUMANN
BOUNDARY_PERIODIC = meshmod.PERIODIC
BOUNDARY_SPONGE = "sponge_neumann"

SNAPSHOT_HEADER = "x,h_num,h_ref,q_num,q_ref,re_psi,im_psi,b,eta_num,eta_ref"
DIAGNOSTICS_HEADER = "t,mass,energy_total,energy_fisher,energy_potential"
# Snapshot rows formatted per write; bounds the text held in memory at once.
_EMIT_BLOCK_ROWS = 1024
# Most snapshot writer processes a run starts: more were never measured.
_MAX_WRITERS = 2
# Most mesh nodes a run can hold: a complex128 array's byte count must fit in
# a signed machine word.
_MAX_NODES = sys.maxsize // 16
# A sweep error at most this fraction of the numerical field's own norm is
# rounding, and fits no convergence order.
_ROUNDING_LEVEL = 1e-10


# Default initial smoothing width delta, in units of eps, of both init recipes.
DELTA_OVER_EPS = 1.2
# Scenario fields that the document keeps in its physics section.
_PHYSICS = ("g", "eps")
# The scenario keys whose values must be positive.
_POSITIVE = ("physics.g", "physics.eps", "init.delta_over_eps", "domain.half_width",
             "discretization.dx_over_eps", "discretization.dt")


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
    surface: Literal["thacker", "constant"]
    level: float = 1.0
    delta_over_eps: float = DELTA_OVER_EPS


@dataclass(frozen=True)
class BathymetrySpec:
    kind: Literal[FLAT, PARABOLIC, GAUSSIAN_BUMP, TABULATED] = FLAT
    b_max: float = 0.0  # read for gaussian_bump only
    x: tuple = ()       # x and values: read for tabulated only
    values: tuple = ()


@dataclass(frozen=True)
class DomainSpec:
    half_width: float
    boundary: Literal[BOUNDARY_NEUMANN, BOUNDARY_PERIODIC, BOUNDARY_SPONGE]


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


class MeshLayout(NamedTuple):
    """A run's mesh, counted exactly: round(2*half_width / (dx_over_eps*eps))
    interior elements of width dx, at least one, and `layers` more in each
    absorbing layer, whose width ell spans n_wavelengths carrier periods
    2*pi*eps/|omega| and whose sigma_max damps one crossing by `reduction`
    (0, 0.0 and 0.0 without a sponge).  A count whose rounding would overflow
    stays the float nan or inf, and so does `nodes`."""

    elements: int
    layers: int
    dx: float
    ell: float
    sigma_max: float
    nodes: int
    keys: str  # the scenario keys that size the mesh


def _count_text(n) -> str:
    """n to 6 significant digits; a count beyond the largest float, which "%g"
    cannot convert when it is an integer, only as beyond it."""
    return f"over {sys.float_info.max:.6g}" if n > sys.float_info.max else f"{n:.6g}"


def _quotient(a: float, b: float) -> float:
    """a / b; inf where b is 0, the limit for a > 0."""
    return a / b if b else math.inf


def _options(hint) -> tuple:
    """The types an annotation allows, NoneType where Optional; for a Literal,
    one "type": the tuple of its values."""
    return (get_args(hint),) if get_origin(hint) is Literal else get_args(hint) or (hint,)


def _fields(spec: type) -> tuple:
    """(field, `_options` of its annotation) for each field of the dataclass `spec`."""
    return tuple((f, _options(f.type)) for f in fields(spec))


# The value each scalar annotation of a scenario field admits, as a refusal names it.
_KINDS = {str: "a string", int: "an integer", float: "a finite number",
          tuple: "a tuple of finite numbers (a list in a scenario file)"}


def _admits(kind, value) -> bool:
    if isinstance(kind, tuple):  # a Literal's values
        return isinstance(value, str) and value in kind
    if kind is str:
        return isinstance(value, str)
    if kind is tuple:
        return isinstance(value, tuple) and all(_admits(float, v) for v in value)
    # never a bool; abs(value) <= max also refuses an integer too large to be a float
    return (isinstance(value, (int, float) if kind is float else int)
            and not isinstance(value, bool) and abs(value) <= sys.float_info.max)


def _check_values(section: Optional[str], spec) -> None:
    """Refuse, naming its key, a value of the spec dataclass instance `spec`
    that its field's annotation does not admit (None only where Optional), or
    a nonpositive one for a key in _POSITIVE.  A nested spec's section is its
    field name; Scenario's own keys are name, physics.g and physics.eps."""
    for f, options in _fields(type(spec)):
        value = getattr(spec, f.name)
        key = (f"{section}." if section else "physics." if f.name in _PHYSICS else "") + f.name
        if value is None and type(None) in options:
            continue
        if is_dataclass(options[0]):
            if not isinstance(value, options):
                raise ValueError(f"{key} must be a section, got {value!r}")
            _check_values(f.name, value)
        elif not _admits(options[0], value):
            expected = _KINDS.get(options[0]) or f"one of {', '.join(options[0])}"
            raise ValueError(f"{key} must be {expected}, got {value!r}")
        elif key in _POSITIVE and not value > 0.0:
            raise ValueError(f"{key} must be positive, got {value}")


@dataclass(frozen=True, kw_only=True)
class Scenario:
    """Complete problem description; everything a run needs, all serializable.

    The fields and those of the spec dataclasses are the scenario file's
    schema: a field's type is its key's JSON type, its default makes the key
    optional.  g and eps sit in the file's physics section.  Construction
    checks every value against its annotation, for files and code alike.
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
        _check_values(None, self)
        if self.domain.boundary == BOUNDARY_SPONGE:
            if self.sponge is None:
                raise ValueError("domain.boundary sponge_neumann requires a sponge section")
            if not 0.0 < self.sponge.reduction < 1.0:
                raise ValueError(f"sponge.reduction must lie in (0,1), got {self.sponge.reduction}")
        elif self.sponge is not None:
            raise ValueError("a sponge section is read only with domain.boundary "
                             "sponge_neumann")
        times = self.output.times
        if not times or min(times) < 0.0 or any(b < a for a, b in zip(times, times[1:])):
            raise ValueError(f"output.times must be nonempty, nonnegative and "
                             f"nondecreasing: {times}")
        if not self.output.directory:
            raise ValueError("output.directory must not be empty")
        if isinstance(self.init, RiemannInitSpec):
            for key, h in (("h_left", self.init.h_left), ("h_right", self.init.h_right)):
                if h < 0.0:
                    raise ValueError(f"init.{key} must be nonnegative, got {h}")
        elif self.init.level != 1.0 and self.init.surface != "constant":
            raise ValueError(f"'init.level' is read only for surface constant, "
                             f"not {self.init.surface}")
        kind = self.bathymetry.kind
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
        lay = self.layout()  # exact counts, nan or inf where rounding would overflow
        least = 2 if self.domain.boundary == BOUNDARY_PERIODIC else 1
        if not (lay.nodes <= _MAX_NODES and lay.elements >= least):
            raise ValueError(f"the mesh would have {_count_text(lay.nodes)} nodes and "
                             f"{lay.elements:.6g} interior elements, but a mesh holds at "
                             f"most {_MAX_NODES} nodes (the most an array can) and a "
                             f"periodic one at least 2 elements; it is sized by {lay.keys}")
        if self.domain.boundary == BOUNDARY_SPONGE and not (
                lay.layers >= 1 and lay.sigma_max <= sys.float_info.max):
            raise ValueError(f"a sponge layer needs at least 1 element and a finite peak damping, "
                             f"but has {lay.layers} (width {lay.ell:.6g}) and {lay.sigma_max:.6g}; "
                             f"it is sized by {lay.keys}, sponge.reduction")
        half = self.domain.half_width + lay.layers * lay.dx
        if not (math.isfinite(self.delta) and math.isfinite(_quotient(half, self.delta))):
            # both inits evaluate x/delta at every node
            raise ValueError(f"init.delta_over_eps {self.init.delta_over_eps!r} makes the "
                             f"smoothing width delta {self.delta!r}; delta must be finite, and "
                             f"x/delta finite at every node, up to |x| = {half:.6g}")
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

    def layout(self) -> MeshLayout:
        """The mesh layout, computed on each call."""
        L = self.domain.half_width
        count = _quotient(2.0 * L, self.discretization.dx_over_eps * self.eps)
        elements = max(1, round(count)) if math.isfinite(count) else count
        dx = 2.0 * L / elements
        layers, ell, sigma_max = 0, 0.0, 0.0
        keys = "domain.half_width, discretization.dx_over_eps, discretization.degree, physics.eps"
        if self.domain.boundary == BOUNDARY_SPONGE:
            sp = self.sponge
            ell = _quotient(sp.n_wavelengths * 2.0 * np.pi * self.eps, abs(sp.omega))
            sigma_max = float(-_quotient(2.0 * self.eps * abs(sp.omega), ell)
                              * np.log(sp.reduction))
            count = _quotient(ell, dx) - 1e-9
            layers = math.ceil(count) if math.isfinite(count) else count
            keys += ", sponge.n_wavelengths, sponge.omega"
        nodes = ((elements + 2 * layers) * self.discretization.degree
                 + (self.domain.boundary != BOUNDARY_PERIODIC))
        return MeshLayout(elements, layers, dx, ell, sigma_max, nodes, keys)

    @property
    def dx(self) -> float:
        return self.layout().dx

    @property
    def dt(self) -> float:
        return self.dx if self.discretization.dt is None else self.discretization.dt

    def build_mesh(self) -> meshmod.Mesh1D:
        lay = self.layout()
        half = self.domain.half_width + lay.layers * lay.dx
        topology = (meshmod.PERIODIC if self.domain.boundary == BOUNDARY_PERIODIC
                    else meshmod.NEUMANN)
        return meshmod.build_mesh(-half, half, lay.elements + 2 * lay.layers,
                                  self.discretization.degree, topology)

    def bathymetry_values(self, x: np.ndarray) -> np.ndarray:
        spec = self.bathymetry
        x = np.asarray(x, dtype=float)
        if spec.kind == FLAT:
            return np.zeros_like(x)
        if spec.kind == PARABOLIC:
            return x * x
        if spec.kind == GAUSSIAN_BUMP:
            return spec.b_max * np.exp(-10.0 * x * x)
        # TABULATED, the one kind left that the annotation admits
        return np.interp(x, np.asarray(spec.x, dtype=float),
                         np.asarray(spec.values, dtype=float))

    def surface_depth(self, x: np.ndarray) -> np.ndarray:
        """Initial surface (level or Thacker plane) minus bed, unclipped: < 0 on dry bed."""
        x = np.asarray(x, dtype=float)
        surface = (exact.thacker_plane(x, 0.0, self.g) if self.init.surface == "thacker"
                   else self.init.level)
        return surface - self.bathymetry_values(x)

    def initial_field(self, m: meshmod.Mesh1D) -> madelung.WaveField:
        if isinstance(self.init, RiemannInitSpec):
            return madelung.init_riemann(m, self.init.h_left, self.init.u_left,
                                         self.init.h_right, self.init.u_right,
                                         self.delta, self.eps)
        return madelung.init_softplus_surface(m, self.surface_depth(m.coords),
                                              self.delta, self.eps)

    def sponge_profile(self, m: meshmod.Mesh1D) -> Optional[np.ndarray]:
        """Nodal damping sigma, None without a sponge: 0 for |x| <= half_width,
        a quintic smoothstep over the layer width ell, sigma_max beyond it."""
        if self.domain.boundary != BOUNDARY_SPONGE:
            return None
        lay = self.layout()
        s = np.clip((np.abs(m.coords) - self.domain.half_width) / lay.ell, 0.0, 1.0)
        return lay.sigma_max * s**3 * (6.0 * s * s - 15.0 * s + 10.0)


# --- parsing and serialization ----------------------------------------------

def _object(section: str, data) -> dict:
    if not isinstance(data, dict):
        raise ValueError(f"section '{section}' must be a JSON object, got {data!r}")
    return data


def _read(section: str, data, spec, names=None) -> dict:
    """Values for the fields of the dataclass `spec` (those in `names` if
    given) from the JSON object `data`.

    A key that names no such field is rejected, and a field without a default
    is required.  The values themselves are checked by Scenario.
    """
    _object(section, data)
    specs = [(f, options) for f, options in _fields(spec) if names is None or f.name in names]
    known = {f.name for f, _ in specs}
    for key in data:
        if key not in known:
            raise ValueError(f"unknown key '{section}.{key}' in scenario document")
    values = {}
    for f, options in specs:
        if f.name in data:
            values[f.name] = _value(f.name, options, data[f.name])
        elif f.default is MISSING:
            raise ValueError(f"missing required key '{section}.{f.name}' in scenario document")
    return values


def _value(key: str, options: tuple, value):
    """A JSON value for the field `key` allowing the types `options`: a section
    read into its spec, a list made a tuple, any other value as it is."""
    specs = [t for t in options if is_dataclass(t)]
    if value is None or not specs:
        return tuple(value) if isinstance(value, list) else value
    if len(specs) > 1:  # the init section, told apart by its recipe
        value = dict(_object(key, value))
        if "recipe" not in value:
            raise ValueError(f"missing required key '{key}.recipe' in scenario document")
        recipe = value.pop("recipe")
        specs = [spec for spec in specs if spec.recipe == recipe]
        if not specs:
            raise ValueError(f"unknown value for '{key}.recipe': {recipe!r}")
    return specs[0](**_read(key, value, specs[0]))


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict, refusing a key given twice, of which
    json.loads would keep the last one."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate key '{key}' in scenario document")
        doc[key] = value
    return doc


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a JSON scenario document."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
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
    """A built-in scenario: g = 1 and output in <name> under OutputSpec's default directory."""
    return Scenario(name=name, g=1.0, eps=eps, init=init, bathymetry=bathymetry,
                    domain=DomainSpec(half_width=half_width, boundary=boundary),
                    sponge=sponge,
                    output=OutputSpec(times=times,
                                      directory=os.path.join(OutputSpec.directory, name)))


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
    init = scenario.init
    if (isinstance(init, RiemannInitSpec) and scenario.bathymetry.kind == FLAT
            # a periodic init with two states jumps again, unsmoothed, at the
            # seam, which the single Riemann problem does not model
            and (scenario.domain.boundary != BOUNDARY_PERIODIC
                 or (init.h_left, init.u_left) == (init.h_right, init.u_right))):
        h, u = exact.sample_profile(*_riemann_problem(scenario), x, t)
        return ReferenceSamples(h=h, q=h * u, eta=h)
    if isinstance(init, SurfaceInitSpec):
        if init.surface == "thacker" and scenario.bathymetry.kind == PARABOLIC:
            h, eta = exact.thacker_exact(x, t, scenario.g)
            return ReferenceSamples(h=h, q=nan.copy(), eta=eta)
        if init.surface == "constant":
            b = scenario.bathymetry_values(x)
            h, u = exact.lake_at_rest_exact(b, init.level)
            return ReferenceSamples(h=h, q=h * u, eta=h + b)
    return ReferenceSamples(h=nan.copy(), q=nan.copy(), eta=nan.copy())


def _write_csv(path: str, header: str, table: np.ndarray,
               formatter: csvtext.Formatter) -> None:
    """Write ``header`` and one row per row of the 2-D ``table``, every value
    as ``"%.17g"``.

    Rows are formatted ``_EMIT_BLOCK_ROWS`` at a time by ``formatter``, which
    writes each value on its own, so the bytes do not depend on the block
    size, and its work arrays serve every block and every later table.
    """
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, len(table), _EMIT_BLOCK_ROWS):
            fh.write(formatter.text(table[start:start + _EMIT_BLOCK_ROWS]))


# Each sweep field (--field's choices, the first its default) and the prefix of
# its snapshot columns <prefix>_num and <prefix>_ref, which is also its
# ReferenceSamples attribute.
_FIELDS = {"height": "h", "discharge": "q", "surface": "eta"}


def _snapshot_columns(wave, hydro, refs: ReferenceSamples, b: np.ndarray) -> dict:
    """Every snapshot column at every node, keyed by its header name."""
    return {"x": wave.mesh.coords, "h_num": hydro.h, "h_ref": refs.h, "q_num": hydro.q,
            "q_ref": refs.q, "re_psi": wave.psi.real, "im_psi": wave.psi.imag, "b": b,
            "eta_num": hydro.h + b, "eta_ref": refs.eta}


def emit_snapshot(state: tuple, refs: ReferenceSamples, path: str, *,
                  bathymetry: np.ndarray, interior: np.ndarray,
                  writers: "SnapshotWriters") -> None:
    """Build one snapshot table (17 significant digits, nan for missing refs)
    and hand it to ``writers``, a run's ``SnapshotWriters``, to write.

    ``interior`` holds the indices of the rows' nodes in increasing order, so
    sponge-layer nodes are left out and rows come in increasing x.
    """
    columns = _snapshot_columns(*state, refs, np.asarray(bathymetry))
    table = np.column_stack([columns[name][interior] for name in SNAPSHOT_HEADER.split(",")])
    writers.write(path, table)


def interior_mask(scenario: Scenario, m: meshmod.Mesh1D) -> np.ndarray:
    """True at the nodes of the interior elements, False in the sponge layers."""
    lay = scenario.layout()
    i = np.arange(m.num_nodes) - lay.layers * m.degree
    return (0 <= i) & (i <= lay.elements * m.degree)


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


# --- snapshot writer processes ------------------------------------------------

def _writer_count(outputs: int) -> int:
    """How many writer processes a run with ``outputs`` output times starts.

    0 (the run writes its snapshots itself) for one output time, when this
    process may use one CPU only, when it runs other Python threads (a fork
    copies their locks in whatever state they are) or off Linux; else one per
    usable CPU, at most ``outputs - 1`` and at most ``_MAX_WRITERS``.  Native
    threads are not counted: numpy's OpenBLAS stops its own before a fork
    (its ``pthread_atfork`` handler) and starts them again when next needed.
    The CPUs counted are those this process may run on, busy or not.
    """
    if outputs < 2 or sys.platform != "linux" or threading.active_count() > 1:
        return 0
    cpus = len(os.sched_getaffinity(0))
    return 0 if cpus < 2 else min(cpus, outputs - 1, _MAX_WRITERS)


def _writer_loop(conn, tables: np.ndarray) -> None:
    """A writer process: write the table in each slot it is sent, all with one
    formatter's work arrays, and send back the slot, or the exception that
    stopped it."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt stops the run, which kills us
    signal.signal(signal.SIGTERM, signal.SIG_DFL)  # not the run's handler, forked with us
    parent = os.getppid()
    formatter = csvtext.Formatter()
    while True:
        if not conn.poll(1.0):
            if os.getppid() != parent:  # the run died without killing us
                return
            continue
        slot, path = conn.recv()
        try:
            _write_csv(path, SNAPSHOT_HEADER, tables[slot], formatter)
        except Exception as err:
            conn.send(err)
            return
        conn.send(slot)


@dataclass(eq=False)
class _Writer:
    process: multiprocessing.Process
    conn: connection.Connection
    pending: dict  # slot -> path of each write sent and not yet reported, oldest first


class SnapshotWriters:
    """The writer processes of one run: each snapshot table handed to
    ``write`` is formatted and written by one of them while the run steps on.

    The processes are forked at the first ``write``, so they run this
    process's code as it is, with nothing to import.  Tables reach them
    through a shared-memory ring of two slots per process: ``write`` copies
    the table into a free slot, waiting for one if need be, which bounds the
    memory held, and sends the slot and the path.  (Sending the table itself
    over the pipe blocks the run until a busy writer reads it: on
    ``dense_output`` a run spent 0.12-0.23 s so, and took 1.14x as long.)
    ``close`` waits for every write and stops the processes; ``terminate``
    stops them at once.  A worker's exception is raised again here, with its
    type and message; a worker that ends without reporting raises
    ``ChildProcessError``.  With ``count`` 0, ``write`` writes in this
    process.
    """

    def __init__(self, count: int):
        self._count = count
        self._workers: list[_Writer] = []
        self._tables = None
        self._free: list[int] = []
        self._formatter = csvtext.Formatter()  # writes in this process when count is 0

    def write(self, path: str, table: np.ndarray) -> None:
        if not self._count:
            _write_csv(path, SNAPSHOT_HEADER, table, self._formatter)
            return
        if self._tables is None:
            self._start(table.shape)
        for w in self._workers:
            self._drain(w)
        while not self._free:
            self._collect()
        slot = self._free.pop()
        self._tables[slot] = table
        w = min(self._workers, key=lambda w: len(w.pending))
        w.pending[slot] = path
        try:
            w.conn.send((slot, path))
        except OSError:
            w.process.join(5)  # its process is ending: raise what ended it
            self._drain(w)
            raise

    def close(self) -> None:
        while any(w.pending for w in self._workers):
            self._collect()
        self.terminate()

    def terminate(self) -> None:
        for w in self._workers:
            w.process.kill()
        for w in self._workers:
            w.process.join()
            w.process.close()
            w.conn.close()
        self._workers = []

    def _start(self, shape: tuple) -> None:
        ctx = multiprocessing.get_context("fork")
        slots = 2 * self._count
        ring = mmap.mmap(-1, slots * math.prod(shape) * np.dtype(np.float64).itemsize)
        self._tables = np.frombuffer(ring, dtype=np.float64).reshape(slots, *shape)
        self._free = list(range(slots))
        for _ in range(self._count):
            conn, child = ctx.Pipe()
            process = ctx.Process(target=_writer_loop, args=(child, self._tables),
                                  name="swnls-writer", daemon=True)
            process.start()
            child.close()
            self._workers.append(_Writer(process, conn, {}))

    def _collect(self) -> None:
        """Wait for a report or the end of a busy worker, and take it."""
        busy = [w for w in self._workers if w.pending]
        connection.wait([w.conn for w in busy] + [w.process.sentinel for w in busy])
        for w in busy:
            self._drain(w)

    def _drain(self, w: _Writer) -> None:
        """Take every report ``w`` has sent, and raise if its process ended."""
        alive = w.process.is_alive()  # before reading: all a dead worker sent is read below
        while True:
            try:
                if not w.conn.poll():
                    break
                report = w.conn.recv()
            except (EOFError, ConnectionError):  # its process has closed its end
                break
            if isinstance(report, BaseException):
                raise report
            del w.pending[report]
            self._free.append(report)
        if not alive:
            doing = f" while writing {next(iter(w.pending.values()))}" if w.pending else ""
            raise ChildProcessError(f"snapshot writer process exited with code "
                                    f"{w.process.exitcode}{doing}")


def _run(scenario: Scenario, on_snapshot: Optional[Callable] = None) -> nls.RunResult:
    """nls.run, with running out of memory reported against the mesh size."""
    try:
        return nls.run(scenario, on_snapshot)
    except MemoryError as err:
        lay = scenario.layout()
        raise MemoryError(f"out of memory for a mesh of {lay.nodes:.6g} nodes, sized by "
                          f"{lay.keys}: {err}") from None


def _missing_root(path: str) -> Optional[str]:
    """The outermost directory on `path` that does not exist yet, or None."""
    missing = None
    path = os.path.abspath(path)
    while not os.path.lexists(path):
        missing, path = path, os.path.dirname(path)
    return missing


def run_and_write(scenario: Scenario, out_dir: str) -> nls.RunResult:
    """Run a scenario, write snapshot CSVs, the diagnostics log and the
    effective scenario document into `out_dir`.

    Each snapshot is handed off as the run reaches it, to the run's writer
    processes (``_writer_count``) or else written at once, into a staging
    directory inside `out_dir`, and every file takes its name there only once
    the run has succeeded and every write has ended.  A run that fails stops
    its writers, then removes the staging directory, or every directory it
    created, so it leaves the file system as it found it.
    """
    created = _missing_root(out_dir)
    staging = None
    writers = SnapshotWriters(_writer_count(len(scenario.output.times)))
    try:
        os.makedirs(out_dir, exist_ok=True)
        staging = tempfile.mkdtemp(prefix=".swnls-staging-", dir=out_dir)
        index = itertools.count()
        fixed = None  # (bathymetry, interior rows): the same at every snapshot

        def write_snapshot(wave, hydro):
            nonlocal fixed
            m = wave.mesh
            if fixed is None:
                fixed = (scenario.bathymetry_values(m.coords),
                         np.flatnonzero(interior_mask(scenario, m)))
            emit_snapshot((wave, hydro), reference_samples(scenario, m.coords, wave.time),
                          os.path.join(staging, f"snapshot_{next(index):04d}.csv"),
                          bathymetry=fixed[0], interior=fixed[1], writers=writers)

        result = _run(scenario, write_snapshot)
        with open(os.path.join(staging, "scenario_used.json"), "w") as fh:
            fh.write(serialize_scenario(scenario) + "\n")
        _write_csv(os.path.join(staging, "diagnostics.csv"), DIAGNOSTICS_HEADER,
                   np.array([(t, rep.mass, rep.total, rep.fisher, rep.potential)
                             for t, rep in zip(scenario.output.times, result.energies)]),
                   csvtext.Formatter())
        writers.close()
        for name in os.listdir(staging):
            os.replace(os.path.join(staging, name), os.path.join(out_dir, name))
        os.rmdir(staging)
    except BaseException:
        writers.terminate()  # before the staging directory goes: no write may land after
        if created or staging:  # the directories this run made, or else its staging one
            shutil.rmtree(created or staging, ignore_errors=True)
        raise
    return result


def sweep(scenario: Scenario, eps_list: list[float], *, norm: str, field_name: str,
          out_dir: Optional[str] = None) -> tuple[list[tuple[float, float]], Optional[float]]:
    """Run the scenario at each eps, measure the final-time error of the
    field's snapshot column <f>_num against <f>_ref in the scenario's default
    window, and fit the convergence order.

    No order (None) is fitted when a run's error is at rounding level, at
    most ``_ROUNDING_LEVEL`` times the same norm of its numerical field: the
    slope of such errors measures rounding, not convergence.

    The dispersionless reference and the window do not depend on eps.  A
    request that cannot give an order is refused before the first run: an
    unknown norm or field, an eps the scenario rejects, fewer than two eps or
    a repeated one, or a field without a reference.
    """
    if norm not in diagnostics.NORMS:
        raise ValueError(f"--norm must be one of {', '.join(diagnostics.NORMS)}, got {norm!r}")
    if field_name not in _FIELDS:
        raise ValueError(f"--field must be one of {', '.join(_FIELDS)}, got {field_name!r}")
    prefix = _FIELDS[field_name]
    try:
        scenarios = [replace(scenario, eps=eps) for eps in eps_list]
    except ValueError as err:
        raise ValueError(f"--eps-list for {scenario.name}: {err}") from None
    if len(eps_list) < 2 or len(set(eps_list)) < len(eps_list):
        raise ValueError(f"--eps-list for {scenario.name} must hold at least two "
                         f"distinct values, got {eps_list}")
    t_final = scenario.output.times[-1]
    window = lo, hi = default_error_window(scenario, t_final)
    if not -scenario.domain.half_width <= lo < hi <= scenario.domain.half_width:
        raise ValueError(f"{scenario.name}: its error window [{lo:.4g}, {hi:.4g}] is not "
                         f"inside domain.half_width {scenario.domain.half_width:g}")
    if np.isnan(getattr(reference_samples(scenario, np.array(window), t_final), prefix)).any():
        raise ValueError(f"--field {field_name}: {scenario.name} has no {field_name} "
                         f"reference")
    rows = []
    rounding = False
    for sc in scenarios:
        result = _run(sc)
        wave, hydro = result.final
        refs = reference_samples(sc, result.mesh.coords, hydro.time)
        columns = _snapshot_columns(wave, hydro, refs, result.bathymetry)
        num = columns[f"{prefix}_num"]
        error = diagnostics.windowed_norm(result.mesh, num - columns[f"{prefix}_ref"],
                                          window, norm).value
        rows.append((sc.eps, error))
        rounding |= error <= _ROUNDING_LEVEL * diagnostics.windowed_norm(
            result.mesh, num, window, norm).value
        print(f"eps={sc.eps:<10g} {norm}({field_name}) over "
              f"[{window[0]:.4g}, {window[1]:.4g}] = {error:.6e}")
    order = None if rounding else diagnostics.convergence_order(rows)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        _write_csv(os.path.join(out_dir, "error_table.csv"),
                   f"eps,error_{norm}_{field_name}", np.array(rows), csvtext.Formatter())
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
    p_sweep.add_argument("--norm", choices=diagnostics.NORMS, default=diagnostics.L1)
    p_sweep.add_argument("--field", choices=tuple(_FIELDS), default=next(iter(_FIELDS)))
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
        if args.out == "":
            raise ValueError(f"--out for {scenario.name} must not be empty")
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
            eps_list = [float(tok) for tok in args.eps_list.split(",")]
        except ValueError:
            raise ValueError(f"--eps-list for {scenario.name} must be comma-separated numbers, "
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


def _terminated(signum, frame) -> None:
    """Stop on SIGTERM as a failed run stops: the exception unwinds through
    ``run_and_write``, which stops the writers and removes what the run made."""
    print(f"stopped by {signal.Signals(signum).name}", file=sys.stderr)
    raise SystemExit(128 + signum)


def main() -> None:
    signal.signal(signal.SIGTERM, _terminated)
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
