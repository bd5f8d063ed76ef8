"""Energy reports, windowed error norms and convergence-order fitting."""
import numpy as np
import pytest

from swnls.diagnostics import (EnergyReport, convergence_order, energy,
                               error_norm, windowed_norm)
from swnls.madelung import WaveField, recover
from swnls.mesh import NEUMANN, PERIODIC, build_mesh
from swnls.nls import Stepper, strang_step


def test_energy_constant_field():
    m = build_mesh(-2.0, 2.0, 16, 1, NEUMANN)
    A, g = 1.3, 1.0
    rep = energy(WaveField(m, np.full(m.num_nodes, A, dtype=complex), 0.1),
                 np.zeros(m.num_nodes), g)
    assert rep.total == pytest.approx(0.5 * g * A**4 * 4.0, rel=1e-13)
    assert rep.fisher == 0.0
    assert rep.total - rep.potential - rep.fisher == pytest.approx(0.0, abs=1e-15)  # kinetic
    assert rep.mass == pytest.approx(A**2 * 4.0, rel=1e-13)


def test_energy_vacuum():
    m = build_mesh(-1.0, 1.0, 8, 2, NEUMANN)
    rep = energy(WaveField(m, np.zeros(m.num_nodes, dtype=complex), 0.1),
                 np.zeros(m.num_nodes), 1.0)
    assert rep == EnergyReport(0.0, 0.0, 0.0, 0.0)


def test_energy_plane_wave_kinetic():
    # kinetic part approximates (1/2) h0 kappa^2 |Omega|; Fisher term vanishes
    eps, kappa, h0, g = 0.1, 0.8, 1.5, 1.0
    m = build_mesh(-1.0, 1.0, 4000, 1, NEUMANN)
    psi = np.sqrt(h0) * np.exp(1j * kappa * m.coords / eps)
    rep = energy(WaveField(m, psi, eps), np.zeros(m.num_nodes), g)
    assert rep.fisher <= 1e-20
    kinetic = rep.total - rep.potential - rep.fisher
    assert kinetic == pytest.approx(0.5 * h0 * kappa**2 * 2.0, rel=1e-5)


def test_energy_includes_bathymetry_term():
    m = build_mesh(-2.0, 2.0, 32, 1, NEUMANN)
    A, g = 0.9, 2.0
    b = m.coords**2
    rep = energy(WaveField(m, np.full(m.num_nodes, A, dtype=complex), 0.1), b, g)
    expected_bed = g * A**2 * float(np.sum(m.mass * b))
    assert rep.potential == pytest.approx(0.5 * g * A**4 * 4.0 + expected_bed, rel=1e-13)


def test_mass_conserved_over_run_without_damping():
    m = build_mesh(-1.0, 1.0, 200, 1, PERIODIC)
    eps = 0.1
    psi = np.sqrt(1 + 0.3 * np.cos(np.pi * m.coords)) * np.exp(
        1j * 0.2 * np.sin(np.pi * m.coords) / eps)
    w = WaveField(m, psi, eps)
    b = np.zeros(m.num_nodes)
    stepper = Stepper(m, g=1.0, eps=eps, dt=0.005)
    m0 = energy(w, b, 1.0).mass
    for _ in range(200):
        w = strang_step(w, b, None, stepper, 0.005)
    assert abs(energy(w, b, 1.0).mass - m0) <= 1e-10 * m0


def test_mass_monotone_under_damping():
    m = build_mesh(-1.0, 1.0, 100, 1, NEUMANN)
    eps = 0.05
    sponge = np.where(np.abs(m.coords) > 0.5, 1.0, 0.0)
    psi = np.exp(-m.coords**2 / 0.08) * np.exp(1j * m.coords / eps)
    w = WaveField(m, psi.astype(complex), eps)
    b = np.zeros(m.num_nodes)
    stepper = Stepper(m, g=1.0, eps=eps, dt=0.0025)
    masses = [np.sum(m.mass * np.abs(w.psi) ** 2)]
    for _ in range(100):
        w = strang_step(w, b, sponge, stepper, 0.0025)
        masses.append(np.sum(m.mass * np.abs(w.psi) ** 2))
    masses = np.array(masses)
    assert np.all(masses[1:] <= masses[:-1] * (1 + 1e-12))


def test_energy_drift_scales_with_dt_squared():
    m = build_mesh(-1.0, 1.0, 200, 1, PERIODIC)
    eps = 0.1
    psi0 = np.sqrt(1 + 0.3 * np.cos(np.pi * m.coords)) * np.exp(
        1j * 0.2 * np.sin(np.pi * m.coords) / eps)
    b = np.zeros(m.num_nodes)
    drifts = []
    for dt in (0.01, 0.005):
        w = WaveField(m, psi0.copy(), eps)
        stepper = Stepper(m, g=1.0, eps=eps, dt=dt)
        e0 = energy(w, b, 1.0).total
        worst = 0.0
        for _ in range(round(0.5 / dt)):
            w = strang_step(w, b, None, stepper, dt)
            worst = max(worst, abs(energy(w, b, 1.0).total - e0) / abs(e0))
        drifts.append(worst)
    ratio = drifts[0] / drifts[1]
    assert 3.0 <= ratio <= 5.0, ratio


def test_error_norm_zero_when_exact():
    m = build_mesh(-2.0, 2.0, 100, 1, NEUMANN)
    w = WaveField(m, np.full(m.num_nodes, 1.0, dtype=complex), 0.1)
    state = recover(w)
    rep = error_norm(state, lambda x, t: np.ones_like(x), (-2.0, 2.0))
    assert rep.value == 0.0


def test_error_norm_constant_offset():
    # aligned window: L1 of a constant offset c is exactly c * window length
    m = build_mesh(-2.0, 2.0, 100, 1, NEUMANN)
    c = 0.37
    w = WaveField(m, np.sqrt(1.0 + c) * np.ones(m.num_nodes, dtype=complex), 0.1)
    state = recover(w)
    rep = error_norm(state, lambda x, t: np.ones_like(x), (-1.0, 1.0), kind="L1")
    # the covered length is the L1 norm of ones
    assert windowed_norm(m, np.ones(m.num_nodes), (-1.0, 1.0), "L1").value == pytest.approx(
        2.0, rel=1e-12)
    assert rep.value == pytest.approx(c * 2.0, rel=1e-12)
    assert rep == windowed_norm(m, state.h - 1.0, (-1.0, 1.0), "L1")


@pytest.mark.parametrize("topology", [NEUMANN, PERIODIC])
@pytest.mark.parametrize("window, length", [
    ((1.0, 2.0), 1.0),    # the last element, which wraps to node 0 when periodic
    ((-2.0, 1.6), 3.5),   # all but the last element
    ((-2.0, 2.0), 4.0),
    ((-0.6, 0.6), 1.0),
], ids=["last_two", "all_but_last", "whole_mesh", "interior"])
def test_windowed_norm_takes_whole_elements_by_index(topology, window, length):
    # 8 elements of width 0.5 on [-2, 2]; element e spans [-2 + e/2, -1.5 + e/2]
    m = build_mesh(-2.0, 2.0, 8, 1, topology)
    ones = np.ones(m.num_nodes)
    assert windowed_norm(m, ones, window, "L1").value == pytest.approx(length, rel=1e-12)


@pytest.mark.parametrize("topology", [NEUMANN, PERIODIC])
@pytest.mark.parametrize("window", [(-5.0, 5.0), (-2.5, 1.0), (1.0, 2.1)])
def test_windowed_norm_refuses_a_window_outside_the_mesh(topology, window):
    m = build_mesh(-2.0, 2.0, 8, 1, topology)
    with pytest.raises(ValueError, match="outside domain"):
        windowed_norm(m, np.ones(m.num_nodes), window, "L1")


def test_norm_inequalities():
    m = build_mesh(-2.0, 2.0, 128, 1, NEUMANN)
    rng = np.random.default_rng(21)
    diff = rng.normal(size=m.num_nodes)
    window = (-1.5, 0.75)
    l1 = windowed_norm(m, diff, window, "L1").value
    l2 = windowed_norm(m, diff, window, "L2").value
    linf = windowed_norm(m, diff, window, "Linf").value
    length = windowed_norm(m, np.ones(m.num_nodes), window, "L1").value
    assert l1 / length <= linf * (1 + 1e-12)
    assert l2**2 <= linf * l1 * (1 + 1e-12)


def test_error_norm_validation():
    m = build_mesh(-2.0, 2.0, 64, 1, NEUMANN)
    w = WaveField(m, np.ones(m.num_nodes, dtype=complex), 0.1)
    state = recover(w)
    with pytest.raises(ValueError):
        error_norm(state, lambda x, t: np.ones_like(x), (-3.0, 1.0))  # outside domain
    with pytest.raises(ValueError):
        error_norm(state, lambda x, t: np.ones_like(x), (1.0, 1.0))  # empty window
    with pytest.raises(ValueError, match="contains no whole element"):
        error_norm(state, lambda x, t: np.ones_like(x), (0.01, 0.05))  # elements are 1/16 wide
    with pytest.raises(ValueError, match="does not match node count"):
        error_norm(state, lambda x, t: np.ones(3), (-1.0, 1.0))
    with pytest.raises(ValueError):
        error_norm(state, lambda x, t: np.ones_like(x), (-1.0, 1.0), kind="L3")


def test_convergence_order_exact_cases():
    assert convergence_order([(0.04, 0.04 * 3.7), (0.02, 0.02 * 3.7)]) == pytest.approx(1.0)
    assert convergence_order([(0.04, 0.5), (0.02, 0.5)]) == pytest.approx(0.0, abs=1e-14)
    assert convergence_order([(0.08, 6.4e-3), (0.04, 1.6e-3), (0.02, 4e-4)]) == pytest.approx(2.0)


def test_convergence_order_validation():
    with pytest.raises(ValueError):
        convergence_order([(0.04, 0.1)])
    with pytest.raises(ValueError):
        convergence_order([(0.04, 0.1), (0.02, 0.0)])
    with pytest.raises(ValueError):
        convergence_order([(0.04, 0.1), (0.04, 0.2)])
    with pytest.raises(ValueError):
        convergence_order([(-0.04, 0.1), (0.02, 0.2)])
