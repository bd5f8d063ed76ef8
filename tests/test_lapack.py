"""The ctypes binding of zgttrf, ztbsv and zaxpy, and where scipy is imported."""
import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from swnls import app, lapack, nls
from swnls.app import DiscretizationSpec
from swnls.mesh import NEUMANN, Mesh1D, build_mesh

NUMPY_OPENBLAS = lapack._numpy_openblas()


def _libraries() -> list:
    """Every source present here, the live one first."""
    found = [lapack.LIBRARY]
    for other in (NUMPY_OPENBLAS, lapack._scipy_cython()):
        if other is not None and other.name != lapack.LIBRARY.name:
            found.append(other)
    return found


LIBRARIES = _libraries()


def _scipy_modules_after_run(tmp_path, scenario: str, *options) -> list:
    """The scipy modules loaded in a fresh process that imports swnls.app and
    runs the scenario through cli_main."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(app.__file__)))
    script = ("import json, sys\n"
              "from swnls import app\n"
              f"rc = app.cli_main(['run', {scenario!r}, *{list(options)!r}, '--out', "
              f"{str(tmp_path / 'out')!r}])\n"
              "assert rc == 0, rc\n"
              "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.skipif(lapack.BACKEND != "numpy-openblas",
                    reason=f"the {lapack.BACKEND} source imports scipy itself")
def test_a_degree_1_run_imports_no_scipy(tmp_path):
    assert _scipy_modules_after_run(tmp_path, "dam_break_dry", "--eps", "0.08",
                                    "--tfinal", "0.05") == []


def test_a_degree_2_run_imports_superlu(tmp_path):
    # the import moved into the branch that factorizes with SuperLU
    sc = replace(app.builtin_scenario("dam_break_dry"), eps=0.08,
                 discretization=DiscretizationSpec(degree=2))
    sc = replace(sc, output=replace(sc.output, times=(0.05,)))
    doc = tmp_path / "degree2.json"
    doc.write_text(app.serialize_scenario(sc))
    loaded = _scipy_modules_after_run(tmp_path, str(doc))
    assert "scipy.sparse" in loaded and "scipy.sparse.linalg" in loaded


@pytest.mark.skipif(NUMPY_OPENBLAS is None, reason="numpy's OpenBLAS is not present here")
@pytest.mark.parametrize("name", ["dam_break_dry", "lake_at_rest_dry", "vacuum_generation",
                                  "plane_wave"])
def test_both_sources_give_the_same_bits(monkeypatch, name):
    # the midpoint step of the built-in's mesh and step size, chained: psi
    # after 1 and after 500 solves, from numpy's OpenBLAS and from scipy's
    # Cython pointers
    sc = app.builtin_scenario(name)
    mesh = sc.build_mesh()
    assert mesh.degree == 1 and mesh.num_nodes > 2
    beta = 0.25 * sc.eps * sc.dt
    psi0 = sc.initial_field(mesh).psi
    chains = []
    for library in (NUMPY_OPENBLAS, lapack._scipy_cython()):
        monkeypatch.setattr(lapack, "LIBRARY", library)
        step = nls._MidpointStep(mesh, beta)
        psi = step(psi0)
        after = [psi]
        for _ in range(499):
            psi = step(psi)
        chains.append(after + [psi])
    for got, want in zip(*chains):
        assert np.array_equal(got.view(np.float64), want.view(np.float64))


@pytest.mark.parametrize("library", LIBRARIES, ids=lambda library: library.name)
def test_zgttrf_reports_interchanges_and_a_zero_pivot(library):
    # [[1, 2, 0], [4, 3, 5], [0, 6, 7]]: in the first two columns the
    # largest entry is below the diagonal, so rows 1 and 2, then the new row 2
    # and row 3, swap; two swaps keep the sign of det = prod(U's diagonal).
    # A zero column gives info = 2
    dl, d, du = (np.array(v, dtype=complex) for v in ([4, 6], [1, 3, 7], [2, 5]))
    ipiv, info = library.zgttrf(dl, d, du)
    assert info == 0 and list(ipiv) == [2, 3, 3]
    a = np.array([[1, 2, 0], [4, 3, 5], [0, 6, 7]], dtype=complex)
    assert np.isclose(np.linalg.det(a), np.prod(d), rtol=1e-14)
    dl, d, du = (np.array(v, dtype=complex) for v in ([1, 0], [1, 0, 1], [0, 1]))
    assert library.zgttrf(dl, d, du)[1] == 2


@pytest.mark.parametrize("library", LIBRARIES, ids=lambda library: library.name)
@pytest.mark.parametrize("bands, message", [
    # a subdiagonal 10 times the diagonal: zgttrf takes it as the pivot
    ((np.zeros(6), np.full(5, 10.0), 0.0), "interchanged rows"),
    # an empty first column (the mass is set to 0 there): U's first pivot is 0
    ((np.zeros(6), np.zeros(5), 0.0), "is singular"),
])
def test_the_midpoint_step_refuses_what_the_binding_reports(monkeypatch, library, bands,
                                                           message):
    # the factorization refused through the bound routine itself, not a stub
    monkeypatch.setattr(lapack, "LIBRARY", library)
    monkeypatch.setattr(Mesh1D, "stiffness_bands", lambda mesh: bands)
    mesh = build_mesh(-1.0, 1.0, 5, 1, NEUMANN)
    mass = mesh.mass.copy()
    mass[0] = 0.0
    with pytest.raises(RuntimeError, match=message):
        nls._MidpointStep(replace(mesh, mass=mass), 1.0)


@pytest.mark.parametrize("library", LIBRARIES, ids=lambda library: library.name)
def test_zgttrf_refuses_bands_of_the_wrong_size_or_type(library):
    d = np.ones(4, dtype=complex)
    with pytest.raises(ValueError, match="complex128 bands of 3, 4 and 3"):
        library.zgttrf(np.ones(4, dtype=complex), d, np.ones(3, dtype=complex))
    with pytest.raises(ValueError, match="complex128 bands"):
        library.zgttrf(np.ones(3), d, np.ones(3, dtype=complex))


def test_bind_refuses_a_non_contiguous_array():
    x = np.ones(8, dtype=complex)[::2]
    with pytest.raises(ValueError, match="contiguous"):
        lapack.LIBRARY.bind(lapack.LIBRARY.zaxpy, 4, np.ones(1, dtype=complex), x, 1, x, 1)
