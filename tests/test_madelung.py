"""Initial-data recipes and hydrodynamic recovery."""
import numpy as np
import pytest

from swnls.madelung import (WaveField, init_riemann,
                            init_softplus_surface, recover,
                            riemann_phase_profile, softplus_depth)
from swnls.mesh import NEUMANN, PERIODIC, build_mesh


def riemann_params(hL=1.0, uL=0.0, hR=0.0, uR=0.0, delta=0.012):
    return hL, uL, hR, uR, delta


@pytest.fixture
def mesh():
    return build_mesh(-2.0, 2.0, 400, 1, NEUMANN)


def test_riemann_midpoint_height(mesh):
    w = init_riemann(mesh, *riemann_params(hL=1.0, hR=0.0), eps=0.01)
    j = np.argmin(np.abs(mesh.coords))
    assert mesh.coords[j] == 0.0
    assert abs(w.psi[j]) ** 2 == pytest.approx(0.5, abs=1e-14)


def test_riemann_zero_velocity_is_real(mesh):
    w = init_riemann(mesh, *riemann_params(hL=1.0, hR=0.3), eps=0.01)
    assert np.max(np.abs(w.psi.imag)) == 0.0


def test_riemann_phase_at_origin():
    # linear term vanishes at x=0, leaving (uR-uL)/2 * delta * log 2
    val = riemann_phase_profile(np.array(0.0), -3.0, 3.0, 0.012)
    assert val == pytest.approx(3.0 * 0.012 * np.log(2.0), rel=1e-14)
    assert val == pytest.approx(0.024953, abs=1e-6)


def test_riemann_phase_derivative_matches_tanh():
    # the closed form must differentiate to the tanh velocity profile
    delta, uL, uR = 0.37, -1.3, 2.1
    x = np.linspace(-2.0, 2.0, 401)
    step = 1e-6
    num = (riemann_phase_profile(x + step, uL, uR, delta)
           - riemann_phase_profile(x - step, uL, uR, delta)) / (2 * step)
    expected = 0.5 * (uR + uL) + 0.5 * (uR - uL) * np.tanh(x / delta)
    assert np.max(np.abs(num - expected)) <= 1e-8


def test_riemann_rejects_bad_inputs(mesh):
    with pytest.raises(ValueError):
        init_riemann(mesh, *riemann_params(hL=-0.1), eps=0.01)
    with pytest.raises(ValueError):
        init_riemann(mesh, *riemann_params(delta=0.0), eps=0.01)
    with pytest.raises(ValueError):
        init_riemann(mesh, *riemann_params(), eps=-1.0)


def test_softplus_surface_rejects_bad_inputs(mesh):
    depth = np.ones(mesh.num_nodes)
    with pytest.raises(ValueError, match="delta must be positive"):
        init_softplus_surface(mesh, depth, delta=0.0, eps=0.01)
    with pytest.raises(ValueError, match="eps must be positive"):
        init_softplus_surface(mesh, depth, delta=0.012, eps=-1.0)


def test_softplus_depth_limits():
    delta = 0.05
    assert softplus_depth(np.array(0.0), delta) == pytest.approx(delta * np.log(2.0), rel=1e-14)
    d = 1.0
    assert softplus_depth(np.array(d), delta) == pytest.approx(d, rel=np.exp(-d / delta) * 1.1)
    small = softplus_depth(np.array(-d), delta)
    assert 0.0 < small <= delta * np.exp(-d / delta) * 1.0000001


def test_softplus_surface_field(mesh):
    delta = 0.012
    x = mesh.coords
    depth = 0.5 - np.sqrt(2.0) * x - x * x  # the oscillating lake at t = 0, unclipped
    w = init_softplus_surface(mesh, depth, delta=delta, eps=0.01)
    assert np.max(np.abs(w.psi.imag)) == 0.0
    assert np.all(np.abs(w.psi) > 0.0)  # softplus keeps the height positive
    assert w.time == 0.0
    # deep in the dry region the height decays like delta*exp(depth/delta)
    dry = depth < -10.0 * delta
    assert dry.any()
    assert np.all(np.abs(w.psi[dry]) ** 2 < delta * np.exp(-10.0))


def test_recover_vacuum_and_constant(mesh):
    w0 = WaveField(mesh, np.zeros(mesh.num_nodes, dtype=complex), 0.01)
    s0 = recover(w0)
    assert np.all(s0.h == 0.0) and np.all(s0.q == 0.0) and np.all(s0.u == 0.0)

    wA = WaveField(mesh, np.full(mesh.num_nodes, 1.7, dtype=complex), 0.01)
    sA = recover(wA)
    assert np.allclose(sA.h, 1.7**2, rtol=1e-15)
    assert np.max(np.abs(sA.q)) <= 1e-13


def test_recover_plane_wave_discharge():
    eps, kappa, h0 = 0.05, 0.7, 1.3
    m = build_mesh(-1.0, 1.0, 2000, 1, NEUMANN)
    w = WaveField(m, np.sqrt(h0) * np.exp(1j * kappa * m.coords / eps), eps)
    s = recover(w)
    assert np.allclose(s.h, h0, rtol=1e-13)
    interior = slice(1, -1)
    assert np.max(np.abs(s.q[interior] - h0 * kappa)) <= 2e-4 * h0 * kappa
    assert np.max(np.abs(s.u[interior] - kappa)) <= 2e-4 * kappa


def test_recover_gauge_invariance(mesh):
    w = init_riemann(mesh, *riemann_params(hL=1.0, uL=0.5, hR=0.4, uR=-0.2), eps=0.02)
    s1 = recover(w)
    s2 = recover(w.copy_with(np.exp(1.23j) * w.psi))
    scale = np.max(np.abs(s1.q)) + np.max(s1.h)
    assert np.max(np.abs(s2.h - s1.h)) <= 1e-13 * scale
    assert np.max(np.abs(s2.q - s1.q)) <= 1e-13 * scale


def test_recover_conjugation_antisymmetry(mesh):
    w = init_riemann(mesh, *riemann_params(hL=1.0, uL=-3.0, hR=2.0, uR=3.0), eps=0.05)
    s = recover(w)
    s_conj = recover(w.copy_with(np.conj(w.psi)))
    assert np.array_equal(s_conj.q, -s.q)


def test_recover_consistency_with_init():
    # h reproduces the tanh profile at the nodes; q converges to h0*phi0'
    # at second order away from the boundary
    hL, uL, hR, uR, delta, eps = 1.0, 0.3, 0.5, -0.4, 0.5, 0.1
    errs = []
    for M in (100, 200, 400):
        m = build_mesh(-2.0, 2.0, M, 1, NEUMANN)
        w = init_riemann(m, *riemann_params(hL, uL, hR, uR, delta), eps)
        s = recover(w)
        h0 = 0.5 * (hL + hR) + 0.5 * (hR - hL) * np.tanh(m.coords / delta)
        assert np.max(np.abs(s.h - h0)) <= 1e-13 * np.max(h0)
        du = 0.5 * (uR + uL) + 0.5 * (uR - uL) * np.tanh(m.coords / delta)
        errs.append(np.max(np.abs((s.q - h0 * du))[1:-1]))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 1.8), orders


def test_recover_never_negative(mesh):
    rng = np.random.default_rng(11)
    psi = rng.normal(size=mesh.num_nodes) + 1j * rng.normal(size=mesh.num_nodes)
    s = recover(WaveField(mesh, psi, 0.01))
    assert np.all(s.h >= 0.0)


def test_vacuum_velocity_threshold():
    # u is zeroed where h <= eps^2 even though q there may be nonzero noise
    m = build_mesh(-1.0, 1.0, 50, 1, PERIODIC)
    eps = 0.1
    psi = np.full(m.num_nodes, 1e-3 * eps, dtype=complex)
    s = recover(WaveField(m, psi, eps))
    assert np.all(s.u == 0.0)
