"""Strang splitting, Crank-Nicolson dispersive step and sponge layers."""
import numpy as np
import pytest
import scipy.linalg

from swnls.app import (BOUNDARY_SPONGE, DomainSpec, OutputSpec, RiemannInitSpec, Scenario,
                       SpongeSpec)
from swnls.madelung import WaveField
from swnls.mesh import NEUMANN, PERIODIC, build_mesh, discrete_inner_product
from swnls.nls import (SolverConfig, dispersive_step, potential_half_step, run,
                       strang_step)


def make_field(mesh, psi, eps):
    return WaveField(mesh, np.asarray(psi, dtype=complex), eps)


def norm_h(mesh, psi):
    return discrete_inner_product(mesh, psi, psi).real


# --- sponge sizing and profile (app.Scenario) -----------------------------------


def sponge_scenario(eps, omega, n_wavelengths=16, reduction=1e-6, half_width=2.0):
    return Scenario(g=1.0, eps=eps, init=RiemannInitSpec(1.0, 0.0, 1.0, 0.0),
                    domain=DomainSpec(half_width=half_width, boundary=BOUNDARY_SPONGE),
                    sponge=SpongeSpec(omega=omega, n_wavelengths=n_wavelengths,
                                      reduction=reduction),
                    output=OutputSpec(times=(0.0,)))


def test_sponge_params_reference_values():
    ell, sigma_max, _ = sponge_scenario(0.01, 3.0, 16, 1e-6).sponge_geometry()
    assert ell == pytest.approx(16 * 2 * np.pi * 0.01 / 3.0, rel=1e-15)
    assert ell == pytest.approx(0.335, abs=1e-3)
    assert sigma_max == pytest.approx((0.06 / ell) * (-np.log(1e-6)), rel=1e-15)
    assert sigma_max == pytest.approx(2.4737, abs=1e-4)


def test_sponge_params_no_damping_requested():
    _, sigma_max, _ = sponge_scenario(0.01, 3.0, 16, reduction=1.0 - 1e-12).sponge_geometry()
    assert sigma_max == pytest.approx(0.0, abs=1e-9)


def test_build_sponge_profile():
    # ell = 2*pi*eps/omega = 0.5 and dx = 0.05*eps = 0.005: nodes at L + ell/2 and L + ell
    L = 1.0
    sc = sponge_scenario(0.1, 0.4 * np.pi, n_wavelengths=1, half_width=L)
    ell, smax, layers = sc.sponge_geometry()
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


# --- potential step -------------------------------------------------------------


def test_potential_step_constant_field():
    m = build_mesh(-1.0, 1.0, 10, 1, PERIODIC)
    A, eps, tau = 1.4, 0.1, 0.02
    cfg = SolverConfig(g=1.0, eps=eps, dt=0.04)
    w = potential_half_step(make_field(m, np.full(m.num_nodes, A), eps),
                            np.zeros(m.num_nodes), None, cfg, tau)
    expected = A * np.exp(-1j * A**2 * tau / eps)
    assert np.allclose(w.psi, expected, rtol=1e-14)


def test_potential_step_preserves_modulus():
    m = build_mesh(-1.0, 1.0, 64, 1, PERIODIC)
    rng = np.random.default_rng(5)
    psi = rng.normal(size=m.num_nodes) + 1j * rng.normal(size=m.num_nodes)
    b = rng.normal(size=m.num_nodes)
    cfg = SolverConfig(g=2.0, eps=0.03, dt=0.01)
    w = potential_half_step(make_field(m, psi, 0.03), b, None, cfg, 0.005)
    assert np.max(np.abs(np.abs(w.psi) - np.abs(psi))) <= 1e-13 * np.max(np.abs(psi))


def test_potential_step_cap_damping_factor():
    m = build_mesh(-1.0, 1.0, 100, 1, NEUMANN)
    sigma = np.random.default_rng(3).uniform(0.0, 3.0, m.num_nodes)
    A, eps, tau = 0.8, 0.05, 0.01
    cfg = SolverConfig(g=1.0, eps=eps, dt=0.02)
    w = potential_half_step(make_field(m, np.full(m.num_nodes, A), eps),
                            np.zeros(m.num_nodes), sigma, cfg, tau)
    expected = A * np.exp(-sigma * tau / eps)
    assert np.allclose(np.abs(w.psi), expected, rtol=1e-13)


# --- dispersive step ------------------------------------------------------------


def test_dispersive_step_constant_unchanged():
    m = build_mesh(-1.0, 1.0, 16, 2, PERIODIC)
    cfg = SolverConfig(g=1.0, eps=0.1, dt=0.01)
    w = dispersive_step(make_field(m, np.full(m.num_nodes, 2.0 + 1.0j), 0.1), m, cfg)
    assert np.allclose(w.psi, 2.0 + 1.0j, rtol=1e-13)


def test_dispersive_step_eigenvector_amplification():
    m = build_mesh(-1.0, 1.0, 12, 1, NEUMANN)
    eps, dt = 0.1, 0.02
    lam, V = scipy.linalg.eigh(m.stiffness.toarray(), np.diag(m.mass))
    j = 5
    v = V[:, j].astype(complex)
    cfg = SolverConfig(g=1.0, eps=eps, dt=dt)
    w = dispersive_step(make_field(m, v, eps), m, cfg)
    beta = eps * lam[j] * dt / 4.0
    r = (1 - 1j * beta) / (1 + 1j * beta)
    assert np.max(np.abs(w.psi - r * v)) <= 1e-13
    assert abs(abs(r) - 1.0) <= 1e-15


@pytest.mark.parametrize("topology", [NEUMANN, PERIODIC])
def test_dispersive_step_norm_conservation(topology):
    m = build_mesh(-2.0, 2.0, 300, 1, topology)
    rng = np.random.default_rng(8)
    psi = rng.normal(size=m.num_nodes) + 1j * rng.normal(size=m.num_nodes)
    cfg = SolverConfig(g=1.0, eps=0.05, dt=0.003)
    n0 = norm_h(m, psi)
    w = dispersive_step(make_field(m, psi, 0.05), m, cfg)
    assert abs(norm_h(m, w.psi) - n0) <= 1e-12 * n0


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(g=1.0, eps=0.1, dt=0.0)
    with pytest.raises(ValueError):
        SolverConfig(g=-1.0, eps=0.1, dt=0.01)


# --- Strang step ----------------------------------------------------------------


def test_strang_constant_solution():
    # spatially constant fields solve the full equation analytically
    m = build_mesh(-1.0, 1.0, 20, 1, PERIODIC)
    A, eps = 1.1, 0.07
    cfg = SolverConfig(g=1.0, eps=eps, dt=0.004)
    w = make_field(m, np.full(m.num_nodes, A), eps)
    b = np.zeros(m.num_nodes)
    for _ in range(25):
        w = strang_step(w, b, None, cfg)
    expected = A * np.exp(-1j * A**2 * w.time / eps)
    assert np.allclose(w.psi, expected, rtol=1e-12)
    assert w.time == pytest.approx(25 * 0.004)


def test_strang_second_order_on_plane_wave():
    # halving dt reduces the final-time solution error by ~4 on a resolved
    # periodic plane wave (exact phase speed mu = kappa^2/2 + g A^2)
    A, kappa, g, eps, T = 1.0, 1.0, 1.0, 0.1, 2.0
    m = build_mesh(-np.pi, np.pi, 8000, 1, PERIODIC)
    b = np.zeros(m.num_nodes)
    mu = 0.5 * kappa**2 + g * A**2
    psi0 = A * np.exp(1j * kappa * m.coords / eps)
    psi_exact = A * np.exp(1j * (kappa * m.coords - mu * T) / eps)
    errs = []
    for nsteps in (100, 200):
        cfg = SolverConfig(g=g, eps=eps, dt=T / nsteps)
        w = make_field(m, psi0, eps)
        for _ in range(nsteps):
            w = strang_step(w, b, None, cfg)
        errs.append(np.sqrt(norm_h(m, w.psi - psi_exact)))
    ratio = errs[0] / errs[1]
    assert 3.4 <= ratio <= 4.6, ratio


def test_strang_mass_decays_under_global_damping():
    m = build_mesh(-1.0, 1.0, 50, 1, PERIODIC)
    eps = 0.1
    cfg = SolverConfig(g=1.0, eps=eps, dt=0.01)
    # damping active everywhere: build the profile by hand
    sponge = np.full(m.num_nodes, 0.5)
    w = make_field(m, np.full(m.num_nodes, 1.0), eps)
    masses = [norm_h(m, w.psi)]
    for _ in range(20):
        w = strang_step(w, np.zeros(m.num_nodes), sponge, cfg)
        masses.append(norm_h(m, w.psi))
    assert np.all(np.diff(masses) < 0.0)


def test_time_reversal_symmetry():
    # conjugate formulation: conjugating before and after a step runs it backwards
    m = build_mesh(-1.0, 1.0, 200, 1, PERIODIC)
    eps = 0.1
    x = m.coords
    psi0 = np.sqrt(1 + 0.3 * np.cos(np.pi * x)) * np.exp(1j * 0.2 * np.sin(np.pi * x) / eps)
    cfg = SolverConfig(g=1.0, eps=eps, dt=0.005)
    b = np.zeros(m.num_nodes)
    w = make_field(m, psi0, eps)
    n = 20
    for _ in range(n):
        w = strang_step(w, b, None, cfg)
    for _ in range(n):
        w = w.copy_with(np.conj(w.psi))
        w = strang_step(w, b, None, cfg)
        w = w.copy_with(np.conj(w.psi))
    rel = np.linalg.norm(w.psi - psi0) / np.linalg.norm(psi0)
    assert rel <= 1e-8, rel


# --- run orchestration ----------------------------------------------------------


class _ToyScenario:
    """Minimal duck-typed scenario for exercising run()."""

    class output:
        times = (0.0,)

    def __init__(self, times=(0.0,), nan_init=False, dt=0.01):
        self.output = type("O", (), {"times": times})()
        self._nan = nan_init
        self._dt = dt
        self.eps = 0.1
        self.g = 1.0

    def build_mesh(self):
        return build_mesh(-1.0, 1.0, 40, 1, PERIODIC)

    def bathymetry_values(self, x):
        return np.zeros_like(x)

    def sponge_profile(self, mesh):
        return None

    def solver_config(self):
        return SolverConfig(g=self.g, eps=self.eps, dt=self._dt)

    def initial_field(self, mesh):
        psi = np.full(mesh.num_nodes, np.nan if self._nan else 1.0, dtype=complex)
        return WaveField(mesh, psi, self.eps)


def test_run_zero_duration_returns_initial_snapshot():
    result = run(_ToyScenario(times=(0.0,)))
    assert len(result.snapshots) == 1
    assert result.steps_taken == 0
    wave, hydro = result.snapshots[0]
    assert wave.time == 0.0
    assert np.allclose(hydro.h, 1.0, rtol=1e-15)


def test_run_lands_exactly_on_output_times():
    # 0.037 is not a multiple of dt=0.01: the last step is shortened
    result = run(_ToyScenario(times=(0.037, 0.05), dt=0.01))
    t0, t1 = (snap[0].time for snap in result.snapshots)
    assert t0 == 0.037 and t1 == 0.05
    assert result.steps_taken == 4 + 2  # 3 full + 1 partial, then 1 full + 1 partial
    # constant field: solution stays the analytic constant-phase rotation
    wave, _ = result.snapshots[-1]
    expected = np.exp(-1j * 0.05 / 0.1)
    assert np.allclose(wave.psi, expected, rtol=1e-12)


def test_run_aborts_on_non_finite_field():
    with pytest.raises(RuntimeError, match="step 1"):
        run(_ToyScenario(times=(0.1,), nan_init=True))


def test_run_keeps_only_the_dt_operator():
    # shortened steps before 0.037, 0.063 and 0.081 are factorized and dropped
    configs = []

    class Recording(_ToyScenario):
        def solver_config(self):
            configs.append(super().solver_config())
            return configs[-1]

    result = run(Recording(times=(0.037, 0.05, 0.063, 0.081), dt=0.01))
    (cfg,) = configs
    op = cfg._dt_operator
    assert op is not None and op.tau == cfg.dt and op.mesh is result.mesh


def test_shortened_step_operator_is_not_kept():
    m = build_mesh(-1.0, 1.0, 20, 1, PERIODIC)
    cfg = SolverConfig(g=1.0, eps=0.1, dt=0.01)
    w = make_field(m, np.exp(1j * np.pi * m.coords), 0.1)
    full = dispersive_step(w, m, cfg)
    assert cfg._dt_operator.tau == 0.01
    kept = cfg._dt_operator
    short = dispersive_step(w, m, cfg, 0.004)
    assert cfg._dt_operator is kept
    assert np.array_equal(dispersive_step(w, m, cfg).psi, full.psi)
    assert not np.allclose(short.psi, full.psi)


# --- rounding amplification at degree >= 2 --------------------------------------


def _perturbation_growth(degree: int) -> float:
    """Growth by t = 0.6 of a 1e-14 relative perturbation of psi0 on the
    dry-bed dam break at eps = 0.04, in the relative discrete L2 norm."""
    from dataclasses import replace
    from swnls.app import builtin_scenario
    sc = builtin_scenario("dam_break_dry")
    sc = replace(sc, eps=0.04, discretization=replace(sc.discretization, degree=degree))
    m = sc.build_mesh()
    b = sc.bathymetry_values(m.coords)
    cfg = sc.solver_config()
    w = sc.initial_field(m)
    noise = np.random.default_rng(0).standard_normal(m.num_nodes)
    p = w.copy_with(w.psi * (1.0 + 1e-14 * noise))

    def rel_diff():
        d = p.psi - w.psi
        return np.sqrt(norm_h(m, d) / norm_h(m, w.psi))

    start = rel_diff()
    for _ in range(round(0.6 / cfg.dt)):
        w = strang_step(w, b, None, cfg)
        p = strang_step(p, b, None, cfg)
    return rel_diff() / start


def test_rounding_perturbation_stays_small_at_degree_1():
    assert _perturbation_growth(1) < 1e3  # measured ~9x


@pytest.mark.xfail(strict=True, reason="degree >= 2 Neumann stepping amplifies rounding "
                   "exponentially (measured ~7e5x by t = 0.6); see README 'Validity regime'")
def test_rounding_perturbation_stays_small_at_degree_2():
    assert _perturbation_growth(2) < 1e3
