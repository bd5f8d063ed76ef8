"""Scenario parsing, builtins, snapshot emission and the CLI."""
import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from swnls import app
from swnls.app import (BOUNDARY_NEUMANN, BOUNDARY_PERIODIC, BOUNDARY_SPONGE,
                       BathymetrySpec, DiscretizationSpec, DomainSpec, OutputSpec,
                       RiemannInitSpec, Scenario, SpongeSpec, SurfaceInitSpec,
                       builtin_names, builtin_scenario, cli_main, parse_scenario,
                       reference_samples, run_and_write, serialize_scenario)
from swnls.mesh import MAX_DEGREE
from test_csvtext import BOUNDARY_VALUES

MINIMAL_DOC = """
{
  "name": "mini",
  "physics": {"g": 1.0, "eps": 0.05},
  "init": {"recipe": "riemann_tanh", "h_left": 1.0, "u_left": 0.0,
           "h_right": 0.5, "u_right": 0.0},
  "domain": {"half_width": 1.0, "boundary": "neumann"},
  "output": {"times": [0.1]}
}
"""


def test_builtin_list_is_the_documented_seven():
    assert builtin_names() == ["dam_break_dry", "dam_break_wet", "vacuum_generation",
                               "oscillating_lake", "lake_at_rest_wet",
                               "lake_at_rest_dry", "plane_wave"]


@pytest.mark.parametrize("name, eps, half_width, boundary, times", [
    ("dam_break_dry", 0.01, 2.0, BOUNDARY_NEUMANN, (0.6,)),
    ("dam_break_wet", 0.01, 2.0, BOUNDARY_NEUMANN, (0.6,)),
    ("vacuum_generation", 0.01, 2.0, BOUNDARY_SPONGE, (0.3,)),
    ("oscillating_lake", 0.01, 2.0, BOUNDARY_NEUMANN, (2.0, 3.0, 4.0)),
    ("lake_at_rest_wet", 0.01, 2.0, BOUNDARY_PERIODIC, (1.0,)),
    ("lake_at_rest_dry", 0.01, 2.0, BOUNDARY_PERIODIC, (1.0,)),
    ("plane_wave", 0.1, math.pi, BOUNDARY_PERIODIC, (1.0,)),
])
def test_builtin_defaults(name, eps, half_width, boundary, times):
    sc = builtin_scenario(name)
    assert sc.name == name and sc.g == 1.0 and sc.eps == eps
    assert sc.domain == DomainSpec(half_width=half_width, boundary=boundary)
    assert sc.output.times == times
    assert sc.output.directory == os.path.join("out", name)
    assert builtin_scenario(name) is sc


def test_builtin_dam_break_dry_parameters():
    sc = builtin_scenario("dam_break_dry")
    assert isinstance(sc.init, RiemannInitSpec)
    assert (sc.init.h_left, sc.init.u_left, sc.init.h_right, sc.init.u_right) == (1, 0, 0, 0)
    assert sc.domain.boundary == BOUNDARY_NEUMANN
    assert sc.output.times == (0.6,)
    assert sc.g == 1.0 and sc.eps == 0.01
    # resolution contract dx = 0.05*eps, dt = dx
    assert sc.layout().elements == 8000
    assert sc.dt == sc.dx
    assert round(sc.output.times[-1] / sc.dt) == 1200


def test_builtin_vacuum_generation_parameters():
    sc = builtin_scenario("vacuum_generation")
    assert sc.domain.boundary == BOUNDARY_SPONGE
    assert sc.sponge.omega == 3.0
    assert sc.sponge.n_wavelengths == 16
    assert sc.sponge.reduction == 1e-6
    assert sc.output.times == (0.3,)
    assert sc.domain.half_width == 2.0
    lay = sc.layout()
    ell, sigma_max, layers = lay.ell, lay.sigma_max, lay.layers
    assert ell == pytest.approx(16 * 2 * math.pi * 0.01 / 3.0, rel=1e-15)
    assert layers * sc.dx >= ell - 1e-12


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("scale", [1, 4, 8])
@pytest.mark.parametrize("name", builtin_names())
def test_layout_counts_the_mesh_it_builds(name, scale, degree):
    from dataclasses import replace
    sc = builtin_scenario(name)
    disc = replace(sc.discretization, degree=degree)
    if name == "plane_wave":
        # its carrier closes at the seam only for 1/eps whole: coarsen dx_over_eps,
        # which gives the mesh of eps*scale
        sc = replace(sc, discretization=replace(disc, dx_over_eps=disc.dx_over_eps * scale))
    else:
        sc = replace(sc, eps=sc.eps * scale, discretization=disc)
    m = sc.build_mesh()
    lay = sc.layout()
    assert lay.nodes == m.num_nodes
    interior = app.interior_mask(sc, m)
    if sc.domain.boundary != BOUNDARY_SPONGE:
        assert interior.all()
        return
    # the interior's end nodes round to within an ulp or two of -L and L
    L = sc.domain.half_width
    np.testing.assert_array_equal(interior, np.abs(m.coords) <= L + 1e-9 * lay.dx)
    assert np.abs(np.abs(m.coords[interior][[0, -1]]) - L).max() <= 4 * np.spacing(L)


@pytest.mark.parametrize("name, eps", [("lake_at_rest_dry", "100"), ("plane_wave", "1e300")])
def test_periodic_mesh_of_one_element_is_refused(tmp_path, capsys, name, eps):
    out = tmp_path / "out"
    assert cli_main(["run", name, "--eps", eps, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "1 interior elements" in err and "at least 2 elements" in err
    for key in ("domain.half_width", "discretization.dx_over_eps", "discretization.degree",
                "physics.eps"):
        assert key in err
    assert not out.exists()


def test_builtin_lake_scenarios():
    wet = builtin_scenario("lake_at_rest_wet")
    dry = builtin_scenario("lake_at_rest_dry")
    assert wet.bathymetry.b_max == 0.9 and dry.bathymetry.b_max == 1.1
    assert wet.domain.boundary == BOUNDARY_PERIODIC
    assert isinstance(wet.init, SurfaceInitSpec) and wet.init.level == 1.0


def test_unknown_builtin_raises():
    with pytest.raises(ValueError, match="unknown builtin"):
        builtin_scenario("dam_break_diagonal")


@pytest.mark.parametrize("name", ["dam_break_dry", "dam_break_wet", "vacuum_generation",
                                  "oscillating_lake", "lake_at_rest_wet",
                                  "lake_at_rest_dry", "plane_wave"])
def test_round_trip_serialization(name):
    sc = builtin_scenario(name)
    assert parse_scenario(serialize_scenario(sc)) == sc


def test_parse_applies_defaults():
    sc = parse_scenario(MINIMAL_DOC)
    assert sc.init.delta_over_eps == 1.2
    assert sc.discretization.degree == 1
    assert sc.discretization.dx_over_eps == 0.05
    assert sc.bathymetry.kind == "flat"
    assert sc.delta == pytest.approx(1.2 * 0.05)


def test_parse_rejects_unknown_keys():
    doc = json.loads(MINIMAL_DOC)
    doc["physics"]["gravity"] = 9.81
    with pytest.raises(ValueError, match="physics.gravity"):
        parse_scenario(json.dumps(doc))
    doc = json.loads(MINIMAL_DOC)
    doc["viscosity"] = 0.1
    with pytest.raises(ValueError, match="viscosity"):
        parse_scenario(json.dumps(doc))


@pytest.mark.parametrize("text, key", [
    # json.loads alone would keep the last value: a run at g = 2
    (MINIMAL_DOC.replace('"g": 1.0', '"g": 1.0, "g": 2.0'), "g"),
    (MINIMAL_DOC.replace('"output"', '"physics": {"g": 2.0, "eps": 0.05},\n  "output"'),
     "physics"),
], ids=["in_a_section", "a_section"])
def test_parse_rejects_duplicate_keys(tmp_path, capsys, text, key):
    with pytest.raises(ValueError, match=f"duplicate key '{key}'"):
        parse_scenario(text)
    path = tmp_path / "duplicate.json"
    path.write_text(text)
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"'{key}'" in err
    assert not (tmp_path / "out").exists()


def test_parse_rejects_missing_and_invalid_values():
    doc = json.loads(MINIMAL_DOC)
    del doc["physics"]["eps"]
    with pytest.raises(ValueError, match="physics.eps"):
        parse_scenario(json.dumps(doc))
    doc = json.loads(MINIMAL_DOC)
    del doc["physics"]
    with pytest.raises(ValueError, match="missing required key '<top>.physics'"):
        parse_scenario(json.dumps(doc))
    doc = json.loads(MINIMAL_DOC)
    doc["domain"] = 5
    with pytest.raises(ValueError, match="section 'domain' must be a JSON object"):
        parse_scenario(json.dumps(doc))
    doc = json.loads(MINIMAL_DOC)
    del doc["init"]["recipe"]
    with pytest.raises(ValueError, match="missing required key 'init.recipe'"):
        parse_scenario(json.dumps(doc))
    doc = json.loads(MINIMAL_DOC)
    doc["physics"]["eps"] = -0.01
    with pytest.raises(ValueError, match="physics.eps"):
        parse_scenario(json.dumps(doc))
    doc = json.loads(MINIMAL_DOC)
    doc["physics"]["eps"] = "small"
    with pytest.raises(ValueError, match="physics.eps"):
        parse_scenario(json.dumps(doc))
    doc = json.loads(MINIMAL_DOC)
    doc["init"]["recipe"] = "step_function"
    with pytest.raises(ValueError, match="init.recipe"):
        parse_scenario(json.dumps(doc))
    doc = json.loads(MINIMAL_DOC)
    doc["output"]["times"] = [0.2, 0.1]
    with pytest.raises(ValueError, match="output.times"):
        parse_scenario(json.dumps(doc))
    with pytest.raises(ValueError, match="JSON"):
        parse_scenario("not json at all {{{")
    # integer keys take JSON integers only: nothing is truncated or coerced
    for section, key, value in (("discretization", "degree", 2.9),
                                ("discretization", "degree", True),
                                ("discretization", "degree", "3"),
                                ("discretization", "degree", 2.0),
                                ("sponge", "n_wavelengths", 16.5),
                                ("sponge", "n_wavelengths", "16"),
                                # values the run would ignore are refused
                                ("init", "level", 1.0),
                                ("bathymetry", "b_max", 0.5),
                                ("bathymetry", "x", [0.0, 1.0]),
                                ("bathymetry", "values", [0.0, 1.0]),
                                ("output", "directory", 5)):
        doc = json.loads(MINIMAL_DOC)
        doc.setdefault(section, {"omega": 3.0} if section == "sponge" else {})[key] = value
        with pytest.raises(ValueError, match=f"{section}.{key}"):
            parse_scenario(json.dumps(doc))
    # a tabulated bed needs strictly increasing abscissae
    for x in ([1.0, 0.0, -1.0], [-1.0, 0.0, 0.0]):
        doc = json.loads(MINIMAL_DOC)
        doc["bathymetry"] = {"kind": "tabulated", "x": x, "values": [0.0, 0.5, 0.0]}
        with pytest.raises(ValueError, match="bathymetry.x"):
            parse_scenario(json.dumps(doc))
    doc = json.loads(MINIMAL_DOC)
    doc["bathymetry"] = {"kind": "tabulated", "x": [-1.0, "0", 1.0], "values": [0.0, 0.5, 0.0]}
    with pytest.raises(ValueError, match="bathymetry.x"):
        parse_scenario(json.dumps(doc))
    doc = json.loads(MINIMAL_DOC)
    doc["name"] = 5
    with pytest.raises(ValueError, match="name"):
        parse_scenario(json.dumps(doc))
    # a sponge section is read only with a sponge_neumann boundary
    doc = json.loads(MINIMAL_DOC)
    doc["sponge"] = {"omega": 3.0}
    with pytest.raises(ValueError, match="sponge"):
        parse_scenario(json.dumps(doc))


def test_integer_for_a_float_key_is_kept_as_written(tmp_path):
    # an integer is a number: it runs as its float does, and is echoed as written
    def run(doc, name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["run", str(path), "--out", str(tmp_path / name)]) == 0
        return {f: (tmp_path / name / f).read_text()
                for f in ("snapshot_0000.csv", "diagnostics.csv", "scenario_used.json")}

    doc = json.loads(MINIMAL_DOC)
    floats = run(doc, "floats")
    doc["physics"]["g"], doc["domain"]["half_width"], doc["init"]["h_left"] = 1, 1, 1
    ints = run(doc, "ints")
    assert ints["snapshot_0000.csv"] == floats["snapshot_0000.csv"]
    assert ints["diagnostics.csv"] == floats["diagnostics.csv"]
    used = json.loads(ints["scenario_used.json"])
    assert (used["physics"]["g"], used["domain"]["half_width"], used["init"]["h_left"]) == (1, 1, 1)
    assert isinstance(used["physics"]["g"], int)
    assert parse_scenario(ints["scenario_used.json"]) == parse_scenario(floats["scenario_used.json"])


def test_removed_keys_and_solver_flag_are_rejected(tmp_path, capsys):
    for section, key, value in (("discretization", "solver", "direct"),
                                ("discretization", "solver_tol", 1e-10),
                                ("discretization", "dt_equals_dx", True),
                                ("output", "fields", ["height", "discharge"]),
                                ("discretization", "num_elements", 400)):
        doc = json.loads(MINIMAL_DOC)
        doc.setdefault(section, {})[key] = value
        with pytest.raises(ValueError, match=f"unknown key '{section}.{key}'"):
            parse_scenario(json.dumps(doc))
    assert cli_main(["run", "dam_break_dry", "--solver", "direct",
                     "--out", str(tmp_path / "out")]) == 2
    assert "--solver" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_readme_example_scenario_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (example,) = re.findall(r"```json\n(.*?)```", readme, re.S)
    sc = parse_scenario(example)
    assert sc.name == "custom_dam_break"
    assert parse_scenario(serialize_scenario(sc)) == sc


_POSITIVE = st.floats(min_value=1e-3, max_value=1e3)
_REAL = st.floats(min_value=-1e3, max_value=1e3)
# a fixed alphabet (quote, backslash, non-ASCII) avoids building Hypothesis's
# unicode tables on a first run
_TEXT = st.text(alphabet='ab_/ "\\\u00e9', max_size=12)
_TABLES = st.integers(2, 6).flatmap(lambda n: st.tuples(
    st.lists(_REAL, min_size=n, max_size=n, unique=True).map(lambda v: tuple(sorted(v))),
    st.lists(_REAL, min_size=n, max_size=n).map(tuple)))


def _read_only_when(draw, read, values, unset):
    """A value for a field that only some bed kinds or boundaries read.

    Where it is not read it is mostly left unset, and sometimes set: the
    Scenario constructor must refuse that.
    """
    if read or draw(st.integers(0, 7)) == 0:
        return draw(values)
    return unset


@st.composite
def _scenarios(draw):
    if draw(st.booleans()):
        init = RiemannInitSpec(draw(st.floats(0.0, 10.0)), draw(_REAL),
                               draw(st.floats(0.0, 10.0)), draw(_REAL), draw(_POSITIVE))
    else:
        surface = draw(st.sampled_from(["thacker", "constant"]))
        init = SurfaceInitSpec(surface, _read_only_when(draw, surface == "constant", _REAL, 1.0),
                               draw(_POSITIVE))
    kind = draw(st.sampled_from([app.FLAT, app.PARABOLIC, app.GAUSSIAN_BUMP, app.TABULATED]))
    b_max = _read_only_when(draw, kind == app.GAUSSIAN_BUMP, _REAL, 0.0)
    x, values = _read_only_when(draw, kind == app.TABULATED, _TABLES, ((), ()))
    boundary = draw(st.sampled_from([BOUNDARY_NEUMANN, BOUNDARY_PERIODIC, BOUNDARY_SPONGE]))
    sponge = _read_only_when(draw, boundary == BOUNDARY_SPONGE,
                             st.builds(SpongeSpec, omega=_POSITIVE,
                                       n_wavelengths=st.integers(1, 64),
                                       reduction=st.floats(1e-12, 0.5)), None)
    discretization = DiscretizationSpec(
        degree=draw(st.integers(1, MAX_DEGREE)), dx_over_eps=draw(_POSITIVE),
        dt=draw(st.none() | _POSITIVE))
    times = draw(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=5))
    try:
        return Scenario(name=draw(_TEXT), g=draw(_POSITIVE),
                        eps=draw(_POSITIVE), init=init,
                        bathymetry=BathymetrySpec(kind=kind, b_max=b_max, x=x, values=values),
                        domain=DomainSpec(half_width=draw(_POSITIVE), boundary=boundary),
                        sponge=sponge, discretization=discretization,
                        output=OutputSpec(times=tuple(sorted(times)),
                                          directory=draw(_TEXT.filter(bool))))
    except ValueError:
        reject()


@settings(deadline=None)
@given(_scenarios())
def test_parse_serialize_round_trip_property(sc):
    assert parse_scenario(serialize_scenario(sc)) == sc


def test_cli_rejects_coerced_values_with_exit_code_2(tmp_path, capsys):
    doc = json.loads(MINIMAL_DOC)
    doc["discretization"] = {"degree": 2.9}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "discretization.degree" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    doc = json.loads(MINIMAL_DOC)
    doc["output"]["directory"] = 5
    path.write_text(json.dumps(doc))
    assert cli_main(["run", str(path)]) == 2
    assert "output.directory" in capsys.readouterr().err


_SPONGE = {"domain": {"half_width": 1.0, "boundary": "sponge_neumann"},
           "sponge": {"omega": 3.0}}
_SURFACE = {"init": {"recipe": "softplus_surface", "surface": "constant"}}


@pytest.mark.parametrize("key, value, sections", [
    ("physics.g", 0.0, {}),
    ("domain.half_width", -1.0, {}),
    ("domain.boundary", "reflective", {}),
    ("sponge.omega", 0.0, _SPONGE),
    ("sponge.reduction", 1.0, _SPONGE),
    ("sponge.n_wavelengths", 0, _SPONGE),
    ("output.times", [], {}),
    ("init.h_left", -0.1, {}),
    ("init.h_right", -0.1, {}),
    ("init.delta_over_eps", 0.0, {}),
    ("init.delta_over_eps", -1.0, _SURFACE),
    ("init.surface", "wavy", _SURFACE),
    ("bathymetry.kind", "reef", {}),
    ("discretization.degree", 0, {}),
    ("discretization.degree", MAX_DEGREE + 1, {}),
    ("discretization.dx_over_eps", 0.0, {}),
    ("output.directory", "", {}),
    ("discretization.dt", 0.0, {}),
    ("discretization.dt", -0.01, {}),
    ("init.level", 2.0, {"init": {"recipe": "softplus_surface", "surface": "thacker"}}),
    # a periodic mesh of one element: 2*half_width/(dx_over_eps*eps) rounds to 1 or 0
    ("physics.eps", 100.0, {"domain": {"half_width": 1.0, "boundary": "periodic"}}),
    ("physics.eps", 1e300, {"domain": {"half_width": 1.0, "boundary": "periodic"}}),
    # a number where a list is expected, a list of lists where one of numbers is
    ("output.times", 0.5, {}),
    ("bathymetry.x", [[0.0], [1.0]], {"bathymetry": {"kind": "tabulated",
                                                     "values": [0.0, 1.0]}}),
])
def test_cli_rejects_invalid_value_before_the_run(tmp_path, capsys, key, value, sections):
    doc = json.loads(MINIMAL_DOC)
    doc.update(json.loads(json.dumps(sections)))
    doc["output"]["directory"] = str(tmp_path / "out")
    section, name = key.split(".")
    doc.setdefault(section, {})[name] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert key in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, argv, sections", [
    ("output.times", ["--tfinal", "nan"], {}),
    ("output.times", ["--tfinal", "inf"], {}),
    ("physics.eps", ["--eps", "inf"], {}),
    ("output.times", [], {"output": {"times": [math.nan]}}),
    ("discretization.dt", [], {"discretization": {"dt": math.inf}}),
    ("init.u_left", [], {"init": {"recipe": "riemann_tanh", "h_left": 1.0,
                                  "u_left": -math.inf, "h_right": 0.5, "u_right": 0.0}}),
    ("domain.half_width", [], {"domain": {"half_width": 10**400, "boundary": "neumann"}}),
    # finite values whose element count 2*half_width/(dx_over_eps*eps) is not finite
    ("domain.half_width", [], {"domain": {"half_width": 1e307, "boundary": "neumann"}}),
    ("physics.eps", ["--eps", "1e-310"], {}),
    # inf/inf: a count that is nan, not inf
    ("domain.half_width", [], {"physics": {"g": 1.0, "eps": 1e10},
                               "domain": {"half_width": 1e308, "boundary": "neumann"},
                               "discretization": {"dx_over_eps": 1e300}}),
    # a sponge layer whose element count is not finite
    ("sponge.omega", [], {"domain": {"half_width": 1.0, "boundary": "sponge_neumann"},
                          "sponge": {"omega": 1e-320}}),
    ("sponge.n_wavelengths", [], {"domain": {"half_width": 1.0, "boundary": "sponge_neumann"},
                                  "sponge": {"omega": 3.0, "n_wavelengths": 10**400}}),
    # finite counts, but more nodes than an array can hold
    ("sponge.omega", [], {"domain": {"half_width": 1.0, "boundary": "sponge_neumann"},
                          "sponge": {"omega": 1e-300}}),
    ("domain.half_width", [], {"domain": {"half_width": 1e300, "boundary": "neumann"}}),
    ("domain.half_width", [], {"domain": {"half_width": 1e300, "boundary": "periodic"}}),
    # a mesh an array can hold but memory cannot: 4e15 nodes, refused at once
    ("physics.eps", ["--eps", "1e-14"], {}),
    # dx_over_eps*eps below the smallest float: an element count of inf, not 2/0
    ("physics.eps", ["--eps", "5e-324"], {}),
    # a finite element count whose node count (degree 4) is an integer beyond
    # the largest float, which "%g" cannot format
    ("domain.half_width", [], {"domain": {"half_width": 1e305, "boundary": "neumann"},
                               "discretization": {"degree": 4}}),
    # a sponge layer whose width ell underflows to 0: 0 elements, peak damping inf
    ("sponge.omega", [], {"physics": {"g": 1.0, "eps": 1e-300},
                          "domain": {"half_width": 1e-300, "boundary": "sponge_neumann"},
                          "discretization": {"dx_over_eps": 1e300},
                          "sponge": {"omega": 1e30}, "output": {"times": [0.0]}}),
    # a sponge layer narrower than 1e-9 elements rounds to 0 elements
    ("sponge.omega", [], {"domain": {"half_width": 1.0, "boundary": "sponge_neumann"},
                          "sponge": {"omega": 1e13}}),
    # one layer element, but a peak damping omega^2/(n_wavelengths*pi)*ln(1/reduction)
    # that overflows to inf
    ("sponge.omega", [], {"physics": {"g": 1.0, "eps": 1.0},
                          "domain": {"half_width": 1e-98, "boundary": "sponge_neumann"},
                          "discretization": {"dx_over_eps": 1e-100},
                          "sponge": {"omega": 1e200, "n_wavelengths": 10**91},
                          "output": {"times": [0.0]}}),
    # a smoothing width delta_over_eps*eps that underflows to 0, for both inits
    ("init.delta_over_eps", ["--eps", "0.08"],
     {"init": {"recipe": "riemann_tanh", "h_left": 1.0, "u_left": 0.0, "h_right": 0.5,
               "u_right": 0.0, "delta_over_eps": 5e-324}}),
    ("init.delta_over_eps", ["--eps", "0.08"],
     {"init": {"recipe": "softplus_surface", "surface": "constant", "delta_over_eps": 5e-324}}),
    # a subnormal width whose x/delta overflows: a non-finite initial phase
    ("init.delta_over_eps", ["--eps", "0.08"],
     {"init": {"recipe": "riemann_tanh", "h_left": 1.0, "u_left": 0.0, "h_right": 0.5,
               "u_right": 0.5, "delta_over_eps": 1e-309}}),
    # not a number, but refused the same way: an empty --out, which would
    # otherwise write to output.directory
    ("--out", ["--out", ""], {}),
], ids=["tfinal_nan", "tfinal_inf", "eps_inf", "times_nan", "dt_inf", "u_left_minus_inf",
        "half_width_beyond_float", "element_count_half_width", "element_count_eps",
        "element_count_nan", "layer_count_omega", "layer_count_n_wavelengths", "mesh_size_omega",
        "mesh_size_half_width", "mesh_size_periodic", "mesh_beyond_memory",
        "element_width_underflow", "node_count_beyond_float", "sponge_width_underflow",
        "sponge_under_one_element", "sponge_damping_overflow", "delta_underflow_riemann",
        "delta_underflow_surface", "delta_subnormal_phase", "empty_out"])
def test_cli_rejects_non_finite_numbers(tmp_path, capsys, key, argv, sections):
    doc = json.loads(MINIMAL_DOC)
    doc.update(sections)
    doc["output"]["directory"] = str(tmp_path / "out")
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(doc))  # NaN and Infinity, which json.loads reads back
    assert cli_main(["run", str(path), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert key in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("builtin, key, value", [
    ("dam_break_dry", "physics.g", math.inf),
    ("dam_break_dry", "domain.half_width", math.inf),
    ("dam_break_dry", "discretization.dt", math.inf),
    ("dam_break_dry", "discretization.dx_over_eps", math.inf),
    ("dam_break_dry", "init.h_left", math.nan),
    ("dam_break_dry", "init.delta_over_eps", math.inf),
    ("vacuum_generation", "sponge.omega", math.inf),
    ("lake_at_rest_wet", "bathymetry.b_max", -math.inf),
])
def test_scenario_rejects_non_finite_fields(builtin, key, value):
    from dataclasses import replace
    sc = builtin_scenario(builtin)
    section, name = key.split(".")
    with pytest.raises(ValueError, match=re.escape(key)):
        if section == "physics":
            replace(sc, **{name: value})
        else:
            replace(sc, **{section: replace(getattr(sc, section), **{name: value})})


@pytest.mark.parametrize("field, value", [
    ("physics.eps", 0), ("physics.eps", -1), ("physics.g", 0), ("discretization.dt", 0),
])
def test_scenario_refuses_nonpositive_integers(field, value):
    # a Scenario built in code may hold an int where the file holds a float
    from dataclasses import replace
    sc = builtin_scenario("dam_break_dry")
    section, name = field.split(".")
    with pytest.raises(ValueError, match=re.escape(f"{field} must be positive")):
        if section == "physics":
            replace(sc, **{name: value})
        else:
            replace(sc, **{section: replace(getattr(sc, section), **{name: value})})


@pytest.mark.parametrize("key, change", [
    ("physics.g", {"g": "1"}),
    ("physics.eps", {"eps": True}),
    ("discretization.degree", {"discretization": DiscretizationSpec(degree=2.5)}),
    ("discretization.degree", {"discretization": DiscretizationSpec(degree=True)}),
    ("sponge.n_wavelengths", {"sponge": SpongeSpec(omega=3.0, n_wavelengths=2.5)}),
    ("name", {"name": 5}),
    ("output.directory", {"output": OutputSpec(times=(0.3,), directory=5)}),
    ("output.times", {"output": OutputSpec(times=[0.3])}),
    ("output.times", {"output": OutputSpec(times=("0.3",))}),
    ("output.times", {"output": OutputSpec(times=(0.3, True))}),
    ("init", {"init": 5}),
], ids=["g_string", "eps_bool", "degree_float", "degree_bool", "n_wavelengths_float",
        "name_int", "directory_int", "times_list", "times_strings", "times_bool", "init_int"])
def test_scenario_refuses_wrong_types(key, change):
    # a Scenario built in code is held to the types a scenario file is
    from dataclasses import replace
    with pytest.raises(ValueError, match=f"^{re.escape(key)} must be "):
        replace(builtin_scenario("vacuum_generation"), **change)


@pytest.mark.parametrize("case", ["out_below_file", "scenario_is_directory"])
def test_cli_file_system_errors_exit_2(tmp_path, capsys, case):
    tiny = ["--eps", "0.08", "--tfinal", "0.05"]
    if case == "out_below_file":
        (tmp_path / "file").write_text("")
        named = str(tmp_path / "file" / "out")
        argv = ["run", "dam_break_dry", *tiny, "--out", named]
    else:
        argv, named = ["run", str(tmp_path), *tiny], str(tmp_path)
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


def test_cli_numeric_failure_exits_1(tmp_path, monkeypatch, capsys):
    from swnls import nls
    sc = _tiny_scenario(tmp_path)  # output at t = 0, then at t = 0.05
    scenario_file = tmp_path / "tiny.json"
    scenario_file.write_text(serialize_scenario(sc))
    old = tmp_path / "old"
    old.mkdir()
    (old / "snapshot_0000.csv").write_bytes(b"x\n1\n")
    (old / "diagnostics.csv").write_bytes(b"t\n0\n")
    staged = []
    wait_s = 0.0

    def non_finite_step(*args, **kwargs):
        # a writer process may still be writing the t = 0 snapshot: wait, bounded, for it
        deadline = time.monotonic() + wait_s
        while True:
            found = [p for p in tmp_path.rglob("snapshot_0000.csv") if p.parent.name != "old"]
            if found or time.monotonic() >= deadline:
                break
            time.sleep(0.01)
        staged.extend(found)
        out = real_step(*args, **kwargs)
        out.psi[0] = np.nan
        return out

    real_step = nls.strang_step
    monkeypatch.setattr(nls, "strang_step", non_finite_step)
    for argv, out in (
            (["dam_break_dry", "--eps", "0.08", "--tfinal", "0.05"], tmp_path / "out"),
            # the t = 0 snapshot is written before the first step fails
            ([str(scenario_file)], tmp_path / "new" / "out"),
            ([str(scenario_file)], old)):
        staged.clear()
        wait_s = 0.0 if "--tfinal" in argv else 5.0
        assert cli_main(["run", *argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: ") and "step 1 " in err
        assert len(staged) == (0 if "--tfinal" in argv else 1)
        assert multiprocessing.active_children() == []
    # no directory the runs made, no staging file, and the old files as they were
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old", "tiny.json"]
    assert sorted(p.name for p in old.iterdir()) == ["diagnostics.csv", "snapshot_0000.csv"]
    assert (old / "snapshot_0000.csv").read_bytes() == b"x\n1\n"
    assert (old / "diagnostics.csv").read_bytes() == b"t\n0\n"
    # and a run that succeeds leaves only its own files
    monkeypatch.setattr(nls, "strang_step", real_step)
    assert cli_main(["run", str(scenario_file), "--out", str(old)]) == 0
    assert sorted(p.name for p in old.iterdir()) == [
        "diagnostics.csv", "scenario_used.json", "snapshot_0000.csv", "snapshot_0001.csv"]
    assert (old / "snapshot_0000.csv").read_bytes() != b"x\n1\n"


@pytest.mark.parametrize("outputs, cpus, platform, threads, expected", [
    (1, 8, "linux", 1, 0),   # one output time: nothing to overlap
    (60, 1, "linux", 1, 0),  # one usable CPU
    (60, 8, "darwin", 1, 0),
    (60, 8, "linux", 2, 0),  # a fork would copy the other thread's locks
    (2, 8, "linux", 1, 1),
    (60, 2, "linux", 1, 2),
    (60, 8, "linux", 1, 2),  # at most _MAX_WRITERS
])
def test_writer_count_rule(monkeypatch, outputs, cpus, platform, threads, expected):
    import threading
    monkeypatch.setattr(sys, "platform", platform)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(threading, "active_count", lambda: threads)
    assert app._writer_count(outputs) == expected


def _pool_documents(tmp_path):
    """A dam break with 9 output times and a sponge run with 4, as scenario files."""
    from dataclasses import replace
    files = []
    for name, times in (("dam_break_wet", tuple(0.0125 * k for k in range(9))),
                        ("vacuum_generation", (0.0, 0.01, 0.02, 0.05))):
        sc = builtin_scenario(name)
        sc = replace(sc, eps=0.08, output=replace(sc.output, times=times))
        path = tmp_path / f"{name}.json"
        path.write_text(serialize_scenario(sc))
        files.append(path)
    return files


def test_writer_processes_write_the_same_bytes(tmp_path, monkeypatch):
    pooled = []  # the shape of each table a writer process was sent
    real_write = app.SnapshotWriters.write

    def write(self, path, table):
        if self._count:
            pooled.append(table.shape)
        real_write(self, path, table)

    monkeypatch.setattr(app.SnapshotWriters, "write", write)
    for doc in _pool_documents(tmp_path):
        trees = {}
        for count in (0, 2):
            monkeypatch.setattr(app, "_writer_count", lambda outputs: count)
            out = tmp_path / f"{doc.stem}-{count}"
            assert cli_main(["run", str(doc), "--out", str(out)]) == 0
            assert multiprocessing.active_children() == []
            trees[count] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(trees[0]) == len(json.loads(doc.read_text())["output"]["times"]) + 2
        assert trees[2] == trees[0]
    # the pool wrote every snapshot of both documents, and left the sponge rows out
    assert len(pooled) == 9 + 4
    assert pooled[-1][0] < builtin_scenario("vacuum_generation").layout().nodes


@pytest.mark.skipif(sys.platform != "linux", reason="writer processes start on Linux only")
def test_writers_fork_a_single_threaded_process(tmp_path, monkeypatch):
    # a fork copies other threads' locks as they are, and Python 3.12 warns at a
    # fork of a process running other threads, native ones included: numpy's
    # OpenBLAS must have stopped its threads when the writers fork
    threads = []
    real_start = app.SnapshotWriters._start

    def start(self, shape):
        real_start(self, shape)
        threads.append(len(os.listdir("/proc/self/task")))

    monkeypatch.setattr(app.SnapshotWriters, "_start", start)
    monkeypatch.setattr(app, "_writer_count", lambda outputs: 2)
    doc = _pool_documents(tmp_path)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        assert cli_main(["run", str(doc), "--out", str(tmp_path / "out")]) == 0
    assert threads == [1]
    assert multiprocessing.active_children() == []


def _fail_in_writer(how):
    """A `_write_csv` that fails at the third snapshot, in a writer process only."""
    real_write, main_pid = app._write_csv, os.getpid()

    def write_csv(path, header, table):
        if path.endswith("snapshot_0002.csv") and os.getpid() != main_pid:
            if how == "oserror":
                raise OSError(28, "No space left on device", path)
            os._exit(9)
        real_write(path, header, table)

    return write_csv


@pytest.mark.parametrize("how, message", [("oserror", "No space left on device"),
                                          ("exit", "exited with code 9")])
def test_writer_failure_exits_2_and_leaves_nothing(tmp_path, monkeypatch, capsys, how,
                                                   message):
    doc = _pool_documents(tmp_path)[0]
    monkeypatch.setattr(app, "_writer_count", lambda outputs: 2)
    monkeypatch.setattr(app, "_write_csv", _fail_in_writer(how))
    old = tmp_path / "old"
    old.mkdir()
    (old / "snapshot_0002.csv").write_bytes(b"x\n1\n")
    for out in (old, tmp_path / "new" / "out"):
        assert cli_main(["run", str(doc), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert os.path.join(out.name, ".swnls-staging-") in err and "snapshot_0002.csv" in err
        assert multiprocessing.active_children() == []
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["old", "dam_break_wet.json", "vacuum_generation.json"])
    assert [p.name for p in old.iterdir()] == ["snapshot_0002.csv"]
    assert (old / "snapshot_0002.csv").read_bytes() == b"x\n1\n"


def test_writer_that_ends_before_its_table_is_sent_exits_2(tmp_path, monkeypatch, capsys):
    # the writer chosen for the first snapshot is killed after write() has
    # drained it, so sending it the slot fails: the run names the exit code
    # and the file, and leaves nothing behind
    doc = _pool_documents(tmp_path)[0]
    monkeypatch.setattr(app, "_writer_count", lambda outputs: 2)
    real_drain, killed = app.SnapshotWriters._drain, []

    def drain(self, w):
        real_drain(self, w)
        if not killed:
            w.process.kill()
            w.process.join()
            killed.append(w.process.exitcode)

    monkeypatch.setattr(app.SnapshotWriters, "_drain", drain)
    old = tmp_path / "old"
    old.mkdir()
    for out in (old, tmp_path / "new" / "out"):
        killed.clear()
        assert cli_main(["run", str(doc), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert killed == [-9]
        assert err.startswith("error: snapshot writer process exited with code -9 while writing ")
        assert os.path.join(out.name, ".swnls-staging-") in err and "snapshot_0000.csv" in err
        assert multiprocessing.active_children() == []
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["old", "dam_break_wet.json", "vacuum_generation.json"])
    assert list(old.iterdir()) == []


def test_interrupted_run_stops_its_writers(tmp_path, monkeypatch):
    from swnls import nls
    doc = _pool_documents(tmp_path)[0]
    sc = parse_scenario(doc.read_text())
    monkeypatch.setattr(app, "_writer_count", lambda outputs: 2)
    real_step, calls = nls.dispersive_step, []

    def interrupted(*args, **kwargs):
        calls.append(1)
        if len(calls) == 10:  # t = 0.04, past four snapshots
            assert len(multiprocessing.active_children()) == 2
            raise KeyboardInterrupt
        return real_step(*args, **kwargs)

    monkeypatch.setattr(nls, "dispersive_step", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_and_write(sc, str(tmp_path / "out"))
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "out").exists()


def _long_run_document(tmp_path) -> Path:
    """A dam break with 40 output times, seconds long: it has writer processes
    and time to be stopped."""
    from dataclasses import replace
    sc = builtin_scenario("dam_break_wet")
    sc = replace(sc, output=replace(sc.output, times=tuple(0.1 * k for k in range(40))))
    doc = tmp_path / "long.json"
    doc.write_text(serialize_scenario(sc))
    return doc


def _child_pids(pid: int) -> list:
    """The ids of the processes whose parent is ``pid``."""
    children = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):  # not a process, or it ended meanwhile
            continue
        if int(fields[1]) == pid:
            children.append(int(entry))
    return children


def _live(pid: int) -> bool:
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _start_staged_run(doc: Path, out: Path):
    """Start `python -m swnls.app run` of ``doc`` into ``out``, and wait until it
    has staged its second snapshot: the process and its children's ids."""
    proc = subprocess.Popen([sys.executable, "-m", "swnls.app", "run", str(doc), "--out",
                             str(out)], env=_module_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=doc.parent,
                            start_new_session=True)
    deadline = time.monotonic() + 60.0
    while not list(out.glob(".swnls-staging-*/snapshot_0001.csv")):
        assert proc.poll() is None, proc.communicate()
        assert time.monotonic() < deadline
        time.sleep(0.005)
    return proc, _child_pids(proc.pid)


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc")
def test_sigterm_stops_a_run_like_a_failure(tmp_path):
    # exit 143 (128 + SIGTERM), the writers stopped, and the file system as it
    # was: a new output directory gone, an existing one's files untouched.  The
    # last run's whole process group is signalled, writers included, as a
    # service manager does: the writers die quietly, and one line is printed
    doc = _long_run_document(tmp_path)
    old = tmp_path / "old"
    old.mkdir()
    (old / "snapshot_0000.csv").write_bytes(b"x\n1\n")
    (old / "diagnostics.csv").write_bytes(b"t\n0\n")
    writers_expected = 2 if len(os.sched_getaffinity(0)) >= 2 else 0
    for out, group in ((tmp_path / "new" / "out", False), (old, False),
                       (tmp_path / "new" / "out", True)):
        proc, writers = _start_staged_run(doc, out)
        assert len(writers) == writers_expected
        if group:
            os.killpg(proc.pid, signal.SIGTERM)
        else:
            proc.send_signal(signal.SIGTERM)
        stdout, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 143
        assert (stdout, stderr) == ("", "stopped by SIGTERM\n")
        assert not any(_live(pid) for pid in writers)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["long.json", "old"]
    assert sorted(p.name for p in old.iterdir()) == ["diagnostics.csv", "snapshot_0000.csv"]
    assert (old / "snapshot_0000.csv").read_bytes() == b"x\n1\n"
    assert (old / "diagnostics.csv").read_bytes() == b"t\n0\n"


@pytest.mark.skipif(sys.platform != "linux" or len(os.sched_getaffinity(0)) < 2,
                    reason="writer processes start on Linux, with 2 usable CPUs")
def test_writers_leave_when_their_run_is_killed(tmp_path):
    # a SIGKILLed run cannot stop its writers: they must end by themselves
    proc, writers = _start_staged_run(_long_run_document(tmp_path), tmp_path / "out")
    assert len(writers) == 2 and all(_live(pid) for pid in writers)
    proc.kill()
    deadline = time.monotonic() + 2.5
    while any(_live(pid) for pid in writers) and time.monotonic() < deadline:
        time.sleep(0.02)
    assert not any(_live(pid) for pid in writers)
    proc.communicate(timeout=60)
    # nor remove its staging directory
    assert len(list((tmp_path / "out").glob(".swnls-staging-*"))) == 1


def test_main_exits_with_cli_code(monkeypatch, capsys):
    for argv, code in ((["list"], 0), (["run", "no_such_builtin"], 2)):
        monkeypatch.setattr(sys, "argv", ["swnls", *argv])
        with pytest.raises(SystemExit) as exit_info:
            app.main()
        assert exit_info.value.code == code
    assert capsys.readouterr().out.splitlines() == builtin_names()


def sponge_scenario(eps, omega, n_wavelengths=16, reduction=1e-6, half_width=2.0):
    return Scenario(g=1.0, eps=eps, init=RiemannInitSpec(1.0, 0.0, 1.0, 0.0),
                    domain=DomainSpec(half_width=half_width, boundary=BOUNDARY_SPONGE),
                    sponge=SpongeSpec(omega=omega, n_wavelengths=n_wavelengths,
                                      reduction=reduction),
                    output=OutputSpec(times=(0.0,)))


def test_layout_sponge_width_and_peak_damping():
    lay = sponge_scenario(0.01, 3.0, 16, 1e-6).layout()
    ell, sigma_max = lay.ell, lay.sigma_max
    assert ell == pytest.approx(16 * 2 * np.pi * 0.01 / 3.0, rel=1e-15)
    assert ell == pytest.approx(0.335, abs=1e-3)
    assert sigma_max == pytest.approx((0.06 / ell) * (-np.log(1e-6)), rel=1e-15)
    assert sigma_max == pytest.approx(2.4737, abs=1e-4)


def test_layout_sponge_without_damping_requested():
    sigma_max = sponge_scenario(0.01, 3.0, 16, reduction=1.0 - 1e-12).layout().sigma_max
    assert sigma_max == pytest.approx(0.0, abs=1e-9)


def test_sponge_profile_quintic_smoothstep():
    # ell = 2*pi*eps/omega = 0.5 and dx = 0.05*eps = 0.005: nodes at L + ell/2 and L + ell
    L = 1.0
    sc = sponge_scenario(0.1, 0.4 * np.pi, n_wavelengths=1, half_width=L)
    lay = sc.layout()
    ell, smax, layers = lay.ell, lay.sigma_max, lay.layers
    assert ell == pytest.approx(0.5, rel=1e-15) and layers == 100
    m = sc.build_mesh()
    assert m.b == pytest.approx(L + ell, rel=1e-12)
    sigma = sc.sponge_profile(m)
    x = m.coords
    assert np.all(sigma[np.abs(x) <= L] == 0.0)
    assert sigma[np.argmin(np.abs(x - (L + ell)))] == pytest.approx(smax, rel=1e-12)
    assert sigma[np.argmin(np.abs(x - (L + 0.5 * ell)))] == pytest.approx(0.5 * smax, rel=1e-12)
    # monotone nondecreasing in |x| on each side
    right = sigma[x >= 0.0][np.argsort(x[x >= 0.0])]
    assert np.all(np.diff(right) >= -1e-15)
    assert np.all(sigma >= 0.0)


def test_sponge_boundary_requires_sponge_section():
    doc = json.loads(MINIMAL_DOC)
    doc["domain"]["boundary"] = "sponge_neumann"
    with pytest.raises(ValueError, match="sponge"):
        parse_scenario(json.dumps(doc))


def _tiny_scenario(tmp_path, **kw):
    from dataclasses import replace
    sc = builtin_scenario("dam_break_dry")
    sc = replace(sc, eps=0.08,
                 output=replace(sc.output, times=kw.pop("times", (0.0, 0.05)),
                                directory=str(tmp_path / "out")))
    return sc


def test_run_and_write_outputs(tmp_path):
    sc = _tiny_scenario(tmp_path)
    out = sc.output.directory
    result = run_and_write(sc, out)
    files = sorted(os.listdir(out))
    assert files == ["diagnostics.csv", "scenario_used.json", "snapshot_0000.csv",
                     "snapshot_0001.csv"]
    header = open(os.path.join(out, "snapshot_0000.csv")).readline().strip()
    assert header == "x,h_num,h_ref,q_num,q_ref,re_psi,im_psi,b,eta_num,eta_ref"
    diag_header = open(os.path.join(out, "diagnostics.csv")).readline().strip()
    assert diag_header == "t,mass,energy_total,energy_fisher,energy_potential"
    # the t=0 snapshot height must match the tanh profile at the nodes
    rows = np.genfromtxt(os.path.join(out, "snapshot_0000.csv"), delimiter=",",
                         names=True)
    x = rows["x"]
    assert np.all(np.diff(x) > 0)
    h0 = 0.5 + 0.5 * np.tanh(x / sc.delta) * (0.0 - 1.0)
    assert np.max(np.abs(rows["h_num"] - h0)) <= 1e-13
    assert not np.any(np.isnan(rows["h_num"]))
    assert not np.any(np.isnan(rows["q_num"]))
    # 17-significant-digit formatting round-trips the stored values
    second_line = open(os.path.join(out, "snapshot_0001.csv")).readlines()[1]
    vals = second_line.strip().split(",")
    assert float(vals[0]) == result.mesh.coords[0]
    # diagnostics.csv: the per-row f-string text of the energy reports
    expected = app.DIAGNOSTICS_HEADER + "\n" + "".join(
        f"{t:.17g},{rep.mass:.17g},{rep.total:.17g},{rep.fisher:.17g},{rep.potential:.17g}\n"
        for t, rep in zip(sc.output.times, result.energies))
    assert open(os.path.join(out, "diagnostics.csv")).read() == expected


def test_snapshot_determinism(tmp_path):
    sc = _tiny_scenario(tmp_path)
    run_and_write(sc, str(tmp_path / "a"))
    run_and_write(sc, str(tmp_path / "b"))
    for name in ("snapshot_0000.csv", "snapshot_0001.csv", "diagnostics.csv"):
        a = open(tmp_path / "a" / name, "rb").read()
        b = open(tmp_path / "b" / name, "rb").read()
        assert a == b


_DEFAULT_BLOCK_ROWS = app._EMIT_BLOCK_ROWS


def _row_loop_text(columns, idx):
    """Per-row f-string formatting: the byte reference for emit_snapshot."""
    return "".join(",".join(f"{col[j]:.17g}" for col in columns) + "\n" for j in idx)


@pytest.mark.parametrize("block_rows", [1, 7, _DEFAULT_BLOCK_ROWS, 10**6])
def test_emit_snapshot_matches_row_loop_bytes(tmp_path, monkeypatch, block_rows):
    from types import SimpleNamespace
    from swnls.mesh import NEUMANN, build_mesh
    monkeypatch.setattr(app, "_EMIT_BLOCK_ROWS", block_rows)
    m = build_mesh(-3.0, 3.0, 1000, 3, NEUMANN)  # degree 3: two nodes inside each element
    interior = np.flatnonzero(np.abs(m.coords) <= 2.0)  # sponge-style rows
    rng = np.random.default_rng(7)
    n = m.num_nodes
    h, q, b, h_ref, q_ref = (rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
                             for _ in range(5))
    special = [np.nan, -0.0, 5e-324, 1e300, -1e300, np.inf, -np.inf, 0.0, 0.1, 1 / 3,
               *BOUNDARY_VALUES]
    nodes = interior[:len(special)]
    for arr in (h, q, b, h_ref, q_ref):
        arr[nodes] = special
        special = special[1:] + special[:1]
    psi = h.astype(complex)
    psi.imag = q[::-1]
    eta_ref = np.full(n, np.nan)
    wave = SimpleNamespace(mesh=m, psi=psi)
    hydro = SimpleNamespace(h=h, q=q)
    refs = app.ReferenceSamples(h=h_ref, q=q_ref, eta=eta_ref)
    path = tmp_path / "snap.csv"
    app.emit_snapshot((wave, hydro), refs, str(path), bathymetry=b, interior=interior,
                      writers=app.SnapshotWriters(0))

    idx = interior[np.argsort(m.coords[interior], kind="stable")]
    assert idx.size > _DEFAULT_BLOCK_ROWS
    columns = (m.coords, h, h_ref, q, q_ref, psi.real, psi.imag, b, h + b, eta_ref)
    expected = app.SNAPSHOT_HEADER + "\n" + _row_loop_text(columns, idx)
    assert path.read_bytes() == expected.encode()


def test_snapshot_excludes_sponge_nodes(tmp_path):
    from dataclasses import replace
    sc = builtin_scenario("vacuum_generation")
    sc = replace(sc, eps=0.08, output=replace(sc.output, times=(0.05,),
                                              directory=str(tmp_path / "vac")))
    result = run_and_write(sc, sc.output.directory)
    assert result.mesh.b > 2.0  # the mesh itself extends into the layers
    rows = np.genfromtxt(os.path.join(sc.output.directory, "snapshot_0000.csv"),
                         delimiter=",", names=True)
    assert rows["x"].min() >= -2.0 - 1e-9
    assert rows["x"].max() <= 2.0 + 1e-9


def test_reference_samples_nan_when_unknown(tmp_path):
    # Riemann data over a bump has no exact reference: nan sentinels
    from dataclasses import replace
    sc = builtin_scenario("dam_break_dry")
    sc = replace(sc, bathymetry=app.BathymetrySpec(kind="gaussian_bump", b_max=0.2))
    refs = reference_samples(sc, np.linspace(-1, 1, 5), 0.3)
    assert np.all(np.isnan(refs.h)) and np.all(np.isnan(refs.eta))
    sc2 = builtin_scenario("oscillating_lake")
    refs2 = reference_samples(sc2, np.linspace(-1, 1, 5), 2.0)
    assert not np.any(np.isnan(refs2.h))
    assert np.all(np.isnan(refs2.q))  # lake discharge reference not provided


@pytest.mark.parametrize("init", [
    {"recipe": "softplus_surface", "surface": "constant"},
    {"recipe": "riemann_tanh", "h_left": 1.0, "u_left": 0.0, "h_right": 0.0, "u_right": 0.0},
], ids=["surface_init", "dry_right"])
def test_sweep_named_wet_bed_without_right_shock_uses_full_domain(tmp_path, capsys, init):
    doc = json.loads(MINIMAL_DOC)
    doc["name"], doc["init"] = "dam_break_wet", init
    path = tmp_path / "dam_break_wet.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["sweep", str(path), "--eps-list", "0.08,0.04"]) == 0
    assert capsys.readouterr().out.count("over [-1, 1] =") == 2


def test_default_error_window_for_named_scenarios():
    wet = builtin_scenario("dam_break_wet")
    lo, hi = app.default_error_window(wet, 0.6)
    assert lo == -1.2
    assert hi == pytest.approx(0.948034388654238 * 0.6 - 0.2, rel=1e-12)  # golden shock speed
    assert app.default_error_window(builtin_scenario("vacuum_generation"), 0.3) == (-1.5, 1.5)
    assert app.default_error_window(builtin_scenario("dam_break_dry"), 0.6) == (-2.0, 2.0)


@pytest.mark.parametrize("name", ["lake_at_rest_wet", "lake_at_rest_dry"])
def test_reference_samples_lake_at_rest(name):
    from dataclasses import replace
    x = np.linspace(-2.0, 2.0, 81)
    for level in (1.0, 2.0):
        sc = builtin_scenario(name)
        sc = replace(sc, init=replace(sc.init, level=level))
        b = sc.bathymetry_values(x)
        refs = reference_samples(sc, x, 1.0)
        np.testing.assert_array_equal(refs.h, np.maximum(level - b, 0.0))
        np.testing.assert_array_equal(refs.q, np.zeros_like(x))
        np.testing.assert_array_equal(refs.eta, refs.h + b)


@pytest.mark.parametrize("g", [1.0, 2.0])
def test_oscillating_lake_follows_its_reference_at_the_scenario_g(g):
    # the reference rocks with w = sqrt(2g); one fixed at g = 1 gave L1 0.796 at g = 2.
    # dt sits inside the step bound dt <= dx/sqrt(g*h_max), h_max ~ 1.012
    from dataclasses import replace
    from swnls import diagnostics, nls
    sc = builtin_scenario("oscillating_lake")
    sc = replace(sc, g=g, eps=0.02, output=replace(sc.output, times=(1.0,)))
    sc = replace(sc, discretization=replace(sc.discretization,
                                            dt=0.9 * sc.dx / math.sqrt(1.1 * g)))
    _, hydro = nls.run(sc).final
    err = diagnostics.error_norm(hydro, lambda x, t: reference_samples(sc, x, t).h,
                                 (-2.0, 2.0))
    assert err.value <= 2e-2


def test_oscillating_lake_starts_with_the_exact_mass():
    # the unclipped depth 1 - (x + 1/sqrt(2))^2 holds 4/3; clipping the surface
    # at the bed would add a film of delta*ln 2 on the dry bowl
    sc = builtin_scenario("oscillating_lake")
    assert sc.eps == 0.01
    m = sc.build_mesh()
    psi = sc.initial_field(m).psi
    mass = np.sum(m.mass * np.abs(psi) ** 2)
    assert mass == pytest.approx(4.0 / 3.0, rel=1e-3)


def test_tabulated_bathymetry():
    doc = json.loads(MINIMAL_DOC)
    doc["bathymetry"] = {"kind": "tabulated", "x": [-1.0, 0.0, 1.0],
                         "values": [0.0, 0.5, 0.0]}
    sc = parse_scenario(json.dumps(doc))
    assert sc.bathymetry_values(np.array([-0.5])) == pytest.approx(0.25)
    doc["bathymetry"] = {"kind": "tabulated", "x": [0.0], "values": [0.0]}
    with pytest.raises(ValueError):
        parse_scenario(json.dumps(doc))


def test_cli_list(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == builtin_names()


def _module_env() -> dict:
    """The environment in which `python -m swnls.app` imports this swnls."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(app.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_module_entry_point(tmp_path):
    # `python -m swnls.app` runs the CLI, exit codes included
    env = _module_env()
    listed = subprocess.run([sys.executable, "-m", "swnls.app", "list"], env=env,
                            capture_output=True, text=True, cwd=tmp_path)
    assert listed.returncode == 0
    assert listed.stdout.splitlines() == builtin_names()
    refused = subprocess.run([sys.executable, "-m", "swnls.app", "run", "dam_break_dry",
                              "--out", ""], env=env, capture_output=True, text=True,
                             cwd=tmp_path)
    assert refused.returncode == 2
    assert refused.stderr.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_cli_run_and_exit_codes(tmp_path, capsys):
    # a Neumann mesh, the sponge layer, the periodic mesh's factorization and
    # the softplus surface init over the parabolic bowl
    for name in ("dam_break_dry", "vacuum_generation", "lake_at_rest_dry", "oscillating_lake"):
        out = tmp_path / name
        rc = cli_main(["run", name, "--eps", "0.08", "--tfinal", "0.05", "--out", str(out)])
        assert rc == 0
        # its three files and nothing else: no staging leftovers
        assert sorted(os.listdir(out)) == [
            "diagnostics.csv", "scenario_used.json", "snapshot_0000.csv"]
    assert cli_main(["run", "no_such_builtin"]) == 2
    assert cli_main(["sweep", "dam_break_dry", "--eps-list", "abc"]) == 2


def test_cli_run_scenario_file(tmp_path):
    path = tmp_path / "mini.json"
    doc = json.loads(MINIMAL_DOC)
    doc["output"] = {"times": [0.02], "directory": str(tmp_path / "mini_out")}
    path.write_text(json.dumps(doc))
    assert cli_main(["run", str(path)]) == 0
    assert (tmp_path / "mini_out" / "snapshot_0000.csv").exists()


@pytest.mark.parametrize("name, argv, option", [
    ("dam_break_dry", ["--eps-list", "0.08"], "--eps-list"),
    ("dam_break_dry", ["--eps-list", "0.08,0.08"], "--eps-list"),
    ("dam_break_dry", ["--eps-list", "0.08,-1"], "--eps-list"),
    ("oscillating_lake", ["--eps-list", "0.16,0.08", "--field", "discharge"],
     "--field discharge: oscillating_lake has no discharge reference"),
    # the carrier of a periodic Riemann init must close at the seam: 1/eps whole
    ("plane_wave", ["--eps-list", "0.3,0.15"], "--eps-list"),
    ("dam_break_dry", ["--eps-list", "0.16,,0.08,"], "--eps-list"),
    # the last --out wins: an empty one, which would write no error table
    ("dam_break_dry", ["--eps-list", "0.08,0.04", "--out", ""], "--out"),
], ids=["one_eps", "repeated_eps", "negative_eps", "field_without_reference",
        "periodic_phase_jump", "empty_entries", "empty_out"])
def test_cli_sweep_refuses_before_running(tmp_path, monkeypatch, capsys, name, argv, option):
    def no_run(scenario):
        pytest.fail(f"nls.run called at eps={scenario.eps}")

    monkeypatch.setattr(app.nls, "run", no_run)
    out = tmp_path / "sweep_out"
    assert cli_main(["sweep", name, "--out", str(out), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert option in err and name in err
    assert not out.exists()


def test_cli_sweep_refuses_a_window_outside_the_domain(tmp_path, monkeypatch, capsys):
    # the window of vacuum_generation is [-1.5, 1.5], chosen by name
    from dataclasses import replace
    sc = builtin_scenario("vacuum_generation")
    sc = replace(sc, domain=replace(sc.domain, half_width=1.0))
    path = tmp_path / "vacuum_generation.json"
    path.write_text(serialize_scenario(sc))

    def no_run(scenario):
        pytest.fail(f"nls.run called at eps={scenario.eps}")

    monkeypatch.setattr(app.nls, "run", no_run)
    out = tmp_path / "sweep_out"
    assert cli_main(["sweep", str(path), "--eps-list", "0.02,0.01", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "[-1.5, 1.5]" in err and "domain.half_width" in err
    assert not out.exists()


def test_cli_sweep_refuses_a_periodic_seam_jump(tmp_path, monkeypatch, capsys):
    # two different states on a periodic mesh jump again, unsmoothed, at the
    # seam, which the Riemann reference does not model: no reference at all
    from dataclasses import replace
    doc = json.loads(MINIMAL_DOC)
    doc["name"] = "seam_jump"
    doc["domain"] = {"half_width": 2.0, "boundary": "periodic"}
    path = tmp_path / "seam_jump.json"
    path.write_text(json.dumps(doc))

    def no_run(scenario):
        pytest.fail(f"nls.run called at eps={scenario.eps}")

    monkeypatch.setattr(app.nls, "run", no_run)
    out = tmp_path / "sweep_out"
    assert cli_main(["sweep", str(path), "--eps-list", "0.04,0.02,0.01",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--field height" in err and "seam_jump has no height reference" in err
    assert not out.exists()
    sc = parse_scenario(json.dumps(doc))
    refs = reference_samples(sc, np.linspace(-2.0, 2.0, 9), 0.1)
    assert np.isnan(refs.h).all() and np.isnan(refs.q).all() and np.isnan(refs.eta).all()
    # the same states on a Neumann mesh, and equal states on a periodic one, keep theirs
    neumann = replace(sc, domain=replace(sc.domain, boundary=BOUNDARY_NEUMANN))
    assert np.isfinite(reference_samples(neumann, np.linspace(-2.0, 2.0, 9), 0.1).h).all()
    wave = builtin_scenario("plane_wave")
    assert np.isfinite(reference_samples(wave, np.linspace(-3.0, 3.0, 9), 0.5).h).all()


def test_cli_sweep(tmp_path, capsys):
    # the error window: the whole domain, or dam_break_wet's, chosen by name
    for name, eps_list, window in (("dam_break_dry", "0.08,0.04", "[-2, 2]"),
                                   ("dam_break_wet", "0.16,0.08", "[-1.2, ")):
        rc = cli_main(["sweep", name, "--eps-list", eps_list, "--out", str(tmp_path / name)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fitted convergence order" in out
        assert out.count(f"L1(height) over {window}") == 2
        table = (tmp_path / name / "error_table.csv").read_text().splitlines()
        assert table[0] == "eps,error_L1_height"
        assert len(table) == 3


@pytest.mark.parametrize("argv, errors, window, order", [
    (["dam_break_dry", "--field", "discharge", "--norm", "L2"],
     ("4.917454e-02", "3.346736e-02"), "[-2, 2]", "0.555"),
    (["oscillating_lake", "--field", "surface", "--norm", "Linf"],
     ("8.252902e-02", "5.369869e-02"), "[-2, 2]", "0.620"),
    (["lake_at_rest_dry", "--field", "surface"],
     ("1.886755e-01", "8.514982e-02"), "[-2, 2]", "1.148"),
    (["dam_break_wet"], ("6.345534e-02", "4.119377e-02"), "[-1.2, 0.3688]", "0.623"),
], ids=["discharge_L2", "surface_Linf", "surface_L1_dry_lake", "height_L1_wet_window"])
def test_cli_sweep_prints_each_field_and_norm(tmp_path, capsys, argv, errors, window, order):
    # each sweep measures the snapshot's own <f>_num against <f>_ref columns
    norm = argv[argv.index("--norm") + 1] if "--norm" in argv else "L1"
    field = argv[argv.index("--field") + 1] if "--field" in argv else "height"
    out = tmp_path / "sweep_out"
    assert cli_main(["sweep", *argv, "--eps-list", "0.16,0.08", "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"eps={eps:<10g} {norm}({field}) over {window} = {err}"
        for eps, err in zip((0.16, 0.08), errors)] + [f"fitted convergence order: {order}"]
    table = (out / "error_table.csv").read_text().splitlines()
    assert table[0] == f"eps,error_{norm}_{field}"
    assert [float(row.split(",")[1]) for row in table[1:]] == pytest.approx(
        [float(err) for err in errors], rel=1e-6)


@pytest.mark.parametrize("kwargs, message", [
    ({"norm": "L3", "field_name": "height"}, "--norm must be one of L1, L2, Linf, got 'L3'"),
    ({"norm": "L1", "field_name": "vorticity"},
     "--field must be one of height, discharge, surface, got 'vorticity'"),
], ids=["unknown_norm", "unknown_field"])
def test_sweep_refuses_an_unknown_norm_or_field_before_running(monkeypatch, kwargs, message):
    # the CLI's choices guard both; a library call reaches the check
    def no_run(scenario):
        pytest.fail(f"nls.run called at eps={scenario.eps}")

    monkeypatch.setattr(app.nls, "run", no_run)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        app.sweep(builtin_scenario("dam_break_dry"), [0.16, 0.08], **kwargs)


def test_cli_sweep_fits_no_order_from_rounding_level_errors(tmp_path, capsys):
    # the plane wave's height stays 1 to rounding at every eps
    out = tmp_path / "sweep_out"
    assert cli_main(["sweep", "plane_wave", "--eps-list", "0.2,0.1", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "no convergence order: errors at rounding level" in printed
    assert "fitted convergence order" not in printed
    assert len((out / "error_table.csv").read_text().splitlines()) == 3
    sc = builtin_scenario("plane_wave")
    rows, order = app.sweep(sc, [0.2, 0.1], norm="L1", field_name="height")
    assert order is None and all(0.0 < err < 1e-11 for _, err in rows)


def test_periodic_riemann_phase_must_close_at_the_seam(tmp_path, capsys):
    from dataclasses import replace
    out = tmp_path / "pw"
    assert cli_main(["run", "plane_wave", "--eps", "0.3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "physics.eps" in err
    assert not out.exists()
    sc = builtin_scenario("plane_wave")
    for eps in (1.0 / 3.0, 0.05, 0.01):  # 3, 20 and 100 carrier turns
        assert replace(sc, eps=eps).eps == eps
    # only the phase is checked: no carrier, or a closed domain, takes any eps
    replace(sc, eps=0.3, init=RiemannInitSpec(1.0, 1.0, 0.5, -1.0))
    replace(sc, eps=0.3, domain=DomainSpec(half_width=math.pi, boundary=BOUNDARY_NEUMANN))
    # a number of turns that overflows is refused with the same message
    for u in (1e308, -1e308):
        with pytest.raises(ValueError, match="physics.eps .* turns, not a whole number"):
            replace(sc, init=RiemannInitSpec(1.0, u, 1.0, u))


def test_plane_wave_builtin_end_to_end(tmp_path):
    # the temporal-order oracle: constant height, constant velocity, periodic
    from dataclasses import replace
    sc = builtin_scenario("plane_wave")
    sc = replace(sc, output=replace(sc.output, times=(0.25,),
                                    directory=str(tmp_path / "pw")))
    result = run_and_write(sc, sc.output.directory)
    _, hydro = result.final
    assert np.max(np.abs(hydro.h - 1.0)) <= 1e-10
    # discrete derivative of the carrier has a sinc bias ~ (kappa*dx/eps)^2/6
    theta = sc.dx / sc.eps
    assert np.max(np.abs(hydro.u - 1.0)) <= 0.2 * theta**2
    rows = np.genfromtxt(os.path.join(sc.output.directory, "snapshot_0000.csv"),
                         delimiter=",", names=True)
    assert np.allclose(rows["h_ref"], 1.0) and np.allclose(rows["q_ref"], 1.0)
