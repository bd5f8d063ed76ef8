"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `acceptance N ... PASS/FAIL` line.  Runs are cached so
criteria that reuse the same sweep share the work.

Criterion 6 (wet-bed dam break) lies outside the O(eps) promise, which holds
only without shock formation.  Behind the dispersive shock the plateau tends
to the two-invariant state h_m = ((sqrt(h_L) + sqrt(h_R))/2)^2 ~ 0.5236, not
to the entropy star state h* ~ 0.5079.  The criterion therefore measures the
L1 slope against the dispersionless limit of the regularized system (the
entropy profile left of the two-invariant rarefaction tail, h_m to its
right), requires the wavetrain near the shock to dip below h_R without that
undershoot halving as eps halves, and requires the plateau mean to lie
closer to h_m than to h*.
"""
import math
from dataclasses import replace
from functools import lru_cache

import numpy as np

import oracles
from swnls import app, diagnostics, exact, nls
from swnls.madelung import WaveField
from swnls.mesh import NEUMANN, PERIODIC, build_mesh, gauss_lobatto


def _report(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {num:2d} [{label}]: {status}  {detail}")
    assert ok, f"criterion {num} ({label}) failed: {detail}"


def _builtin(name: str, eps: float, times: tuple) -> app.Scenario:
    sc = app.builtin_scenario(name)
    return replace(sc, eps=eps, output=replace(sc.output, times=times))


@lru_cache(maxsize=None)
def _builtin_run(name: str, eps: float, times: tuple):
    return nls.run(_builtin(name, eps, times))


def _riemann_ref(name: str):
    sc = app.builtin_scenario(name)
    data = exact.RiemannData(sc.init.h_left, sc.init.u_left,
                             sc.init.h_right, sc.init.u_right, sc.g)
    structure = exact.classify(data)

    def ref_h(x, t):
        return exact.sample_profile(data, structure, x, t)[0]

    return data, structure, ref_h


# --- 1: quadrature and assembly -------------------------------------------------

def test_criterion_01_quadrature_and_assembly():
    worst = 0.0
    for k in (1, 2, 3):
        nodes, weights = gauss_lobatto(k)
        for m in range(2 * k):
            exact_m = 2.0 / (m + 1) if m % 2 == 0 else 0.0
            worst = max(worst, abs(np.sum(weights * nodes**m) - exact_m))
    ok = worst <= 1e-12
    for topology in (NEUMANN, PERIODIC):
        mesh = build_mesh(-2.0, 2.0, 9, 2, topology)
        K = mesh.stiffness
        sym = K - K.T
        scale = np.max(np.abs(K.data))
        ok &= sym.nnz == 0 or np.max(np.abs(sym.data)) == 0.0
        ok &= np.max(np.abs(K @ np.ones(mesh.num_nodes))) <= 1e-12 * scale
        ok &= np.linalg.eigvalsh(K.toarray()).min() >= -1e-12 * scale
        ok &= mesh.mass.min() > 0.0
    _report(1, "quadrature/assembly", bool(ok), f"worst moment error {worst:.2e}")


# --- 2: splitting-step invariants ------------------------------------------------

def test_criterion_02_splitting_invariants():
    mesh = build_mesh(-2.0, 2.0, 500, 1, PERIODIC)
    rng = np.random.default_rng(2)
    psi = rng.normal(size=mesh.num_nodes) + 1j * rng.normal(size=mesh.num_nodes)
    b = rng.normal(size=mesh.num_nodes)
    stepper = nls.Stepper(mesh, g=1.0, eps=0.04, dt=0.002)
    w1 = nls.potential_half_step(WaveField(mesh, psi, 0.04), b, None, stepper, 0.001)
    mod_err = np.max(np.abs(np.abs(w1.psi) - np.abs(psi))) / np.max(np.abs(psi))

    n0 = np.sum(mesh.mass * np.conj(psi) * psi).real
    w2 = nls.dispersive_step(WaveField(mesh, psi, 0.04), mesh, stepper, 0.002)
    n1 = np.sum(mesh.mass * np.conj(w2.psi) * w2.psi).real
    cn_err = abs(n1 - n0) / n0

    result = _builtin_run("dam_break_dry", 0.04, (0.0, 0.6))
    m_start = result.energies[0].mass
    m_end = result.energies[-1].mass
    drift = abs(m_end - m_start) / m_start

    ok = mod_err <= 1e-13 and cn_err <= 1e-12 and drift <= 1e-10
    _report(2, "splitting invariants", ok,
            f"modulus {mod_err:.2e}, CN norm {cn_err:.2e}, run drift {drift:.2e}")


# --- 3: temporal order on the plane wave -----------------------------------------

def test_criterion_03_temporal_order():
    A, kappa, g, eps, T = 1.0, 1.0, 1.0, 0.1, 2.0
    mesh = build_mesh(-math.pi, math.pi, 8000, 1, PERIODIC)
    b = np.zeros(mesh.num_nodes)
    mu = 0.5 * kappa**2 + g * A**2
    psi0 = A * np.exp(1j * kappa * mesh.coords / eps)
    psi_exact = A * np.exp(1j * (kappa * mesh.coords - mu * T) / eps)
    errs = []
    for nsteps in (100, 200, 400):
        stepper = nls.Stepper(mesh, g=g, eps=eps, dt=T / nsteps)
        w = WaveField(mesh, psi0.copy(), eps)
        for _ in range(nsteps):
            w = nls.strang_step(w, b, None, stepper, stepper.dt)
        phase_err = abs(np.angle(np.sum(mesh.mass * np.conj(psi_exact) * w.psi)))
        errs.append((T / nsteps, phase_err))
    order = diagnostics.convergence_order(errs)
    ok = 1.8 <= order <= 2.2
    _report(3, "temporal order", ok,
            f"order {order:.3f}, errors {[f'{e:.2e}' for _, e in errs]}")


# --- 4: O(eps) convergence, dry-bed dam break ------------------------------------

def test_criterion_04_dry_bed_convergence():
    _, _, ref_h = _riemann_ref("dam_break_dry")
    rows = []
    for eps in (0.08, 0.04, 0.02):
        result = _builtin_run("dam_break_dry", eps, (0.0, 0.6))
        _, hydro = result.final
        rep = diagnostics.error_norm(hydro, ref_h, (-2.0, 2.0), kind="L1")
        rows.append((eps, rep.value))
    slope = diagnostics.convergence_order(rows)
    ok = 0.7 <= slope <= 1.3
    _report(4, "dry-bed O(eps)", ok,
            f"slope {slope:.3f}, L1 {[f'{v:.3e}' for _, v in rows]}")


# --- 5: vacuum generation ---------------------------------------------------------

def test_criterion_05_vacuum_generation():
    _, _, ref_h = _riemann_ref("vacuum_generation")
    rows = []
    nonneg = True
    for eps in (0.08, 0.04):
        lowest = []  # min h of each snapshot
        result = nls.run(_builtin("vacuum_generation", eps, (0.0, 0.15, 0.3)),
                         lambda wave, hydro: lowest.append(hydro.h.min()))
        nonneg &= len(lowest) == 3 and bool(min(lowest) >= 0.0)
        _, hydro = result.final
        rep = diagnostics.error_norm(hydro, ref_h, (-1.5, 1.5), kind="L1")
        rows.append((eps, rep.value))
    slope = diagnostics.convergence_order(rows)
    ok = 0.7 <= slope <= 1.3 and nonneg
    _report(5, "vacuum generation", ok,
            f"slope {slope:.3f}, h>=0 {nonneg}, L1 {[f'{v:.3e}' for _, v in rows]}")


# --- 6: wet-bed dam break ---------------------------------------------------------

def test_criterion_06_wet_bed():
    data, structure, ref_h = _riemann_ref("dam_break_wet")
    t_final = 0.6
    x_shock = structure.right_head * t_final
    # dispersionless limit: the left fan ends at the speed u - a of the
    # two-invariant state h_m = a~^2 / g, i.e. at u_L + 2 a_L - 3 a~
    a_tilde = 0.25 * (data.u_left + 2 * data.a_left - data.u_right + 2 * data.a_right)
    h_m = a_tilde * a_tilde / data.g
    x_tail = (data.u_left + 2 * data.a_left - 3 * a_tilde) * t_final

    def limit_h(x, t):
        return np.where(x < x_tail, ref_h(x, t), h_m)

    rows = []
    undershoot = {}
    plateau = {}
    for eps in (0.08, 0.04):
        result = _builtin_run("dam_break_wet", eps, (0.0, t_final))
        _, hydro = result.final
        rep = diagnostics.error_norm(hydro, limit_h, (-1.2, x_shock - 0.2), kind="L1")
        rows.append((eps, rep.value))
        x = result.mesh.coords
        near = np.abs(x - x_shock) <= 0.1
        undershoot[eps] = float(data.h_right - hydro.h[near].min())
        flat = (x >= x_tail + 0.1) & (x <= x_shock - 0.2)
        plateau[eps] = float(hydro.h[flat].mean())
    slope = diagnostics.convergence_order(rows)
    # a relaxed (monotone) profile never dips below h_R; the wavetrain does,
    # and its undershoot must not halve as eps halves
    osc_ok = undershoot[0.08] > 0.0 and undershoot[0.04] >= 0.5 * undershoot[0.08]
    plateau_ok = abs(plateau[0.04] - h_m) < abs(plateau[0.04] - structure.h_star)
    ok = (0.7 <= slope <= 1.3) and osc_ok and plateau_ok
    _report(6, "wet-bed dispersionless limit", ok,
            f"slope {slope:.3f} (required [0.7,1.3]), "
            f"L1 {[f'{v:.3e}' for _, v in rows]}, "
            f"undershoot {undershoot[0.08]:.3f}/{undershoot[0.04]:.3f}, "
            f"plateau {plateau[0.08]:.4f}/{plateau[0.04]:.4f} "
            f"(h_m {h_m:.4f}, h* {structure.h_star:.4f})")


# --- 7: well-balanced lake at rest -------------------------------------------------

@lru_cache(maxsize=None)
def _rest_error(name: str, eps: float) -> float:
    result = _builtin_run(name, eps, (1.0,))
    _, hydro = result.final
    b = result.bathymetry
    eta = hydro.h + b
    wet = (1.0 - b) > 0.0
    return float(np.abs(eta[wet] - 1.0).max())


def test_criterion_07_well_balanced():
    errs = {(name, eps): _rest_error(name, eps)
            for name in ("lake_at_rest_wet", "lake_at_rest_dry")
            for eps in (0.04, 0.02)}
    ratio_wet = errs[("lake_at_rest_wet", 0.04)] / errs[("lake_at_rest_wet", 0.02)]
    ratio_dry = errs[("lake_at_rest_dry", 0.04)] / errs[("lake_at_rest_dry", 0.02)]
    dominance = all(errs[("lake_at_rest_dry", e)] >= errs[("lake_at_rest_wet", e)]
                    for e in (0.04, 0.02))
    ok = 1.5 <= ratio_wet <= 3.0 and 1.5 <= ratio_dry <= 3.0 and dominance
    _report(7, "well-balanced O(eps)", ok,
            f"ratios wet {ratio_wet:.2f} dry {ratio_dry:.2f}, "
            f"dry>=wet {dominance}")


# --- 8: oscillating lake ------------------------------------------------------------

def test_criterion_08_oscillating_lake():
    errs = {}
    for eps in (0.02, 0.01):
        result = _builtin_run("oscillating_lake", eps, (2.0,))
        _, hydro = result.final
        eta_ref = exact.thacker_exact(result.mesh.coords, hydro.time, 1.0)[1]
        errs[eps] = diagnostics.windowed_norm(result.mesh, hydro.h + result.bathymetry - eta_ref,
                                              (-2.0, 2.0), "L1").value
    ratio = errs[0.02] / errs[0.01]

    x = np.linspace(-2, 2, 201)
    period = math.sqrt(2.0) * math.pi
    per_err = max(np.max(np.abs(np.subtract(exact.thacker_exact(x, t, 1.0),
                                            exact.thacker_exact(x, t + period, 1.0))))
                  for t in (0.0, 1.3, 2.0))
    ok = 1.4 <= ratio <= 3.0 and per_err <= 1e-12
    _report(8, "oscillating lake", ok,
            f"ratio {ratio:.2f}, exact periodicity {per_err:.1e}")


# --- 9: exact-solution oracles -------------------------------------------------------

def test_criterion_09_exact_oracles():
    d = exact.RiemannData(1.0, 0.0, 0.2, 0.0, 1.0)
    h_star, u_star = exact.star_state(d)
    golden_ok = (abs(h_star - oracles.GOLDEN_H_STAR) <= 1e-10
                 and abs(u_star - oracles.GOLDEN_U_STAR) <= 1e-10
                 and abs(oracles.bisection_star_oracle(d) - oracles.GOLDEN_H_STAR) <= 1e-12)

    residual = abs(oracles.depth(h_star, 1.0, 1.0) + oracles.depth(h_star, 0.2, 1.0))
    res_ok = residual <= 1e-12

    s = exact.classify(d)
    S = s.right_head
    qa, fa = oracles.swe_flux(0.2, 0.0, 1.0)
    qb, fb = oracles.swe_flux(h_star, u_star, 1.0)
    rh = max(abs(S * (0.2 - h_star) - (qa - qb)), abs(S * (qa - qb) - (fa - fb)))
    rh_ok = rh <= 1e-10

    dv = exact.RiemannData(1.0, -3.0, 2.0, 3.0, 1.0)
    sv = exact.classify(dv)
    inv = 0.0
    for xi in np.linspace(sv.left_head + 1e-3, sv.left_tail - 1e-3, 20):
        h, u = oracles.sample(dv, sv, xi, 1.0)
        inv = max(inv, abs(u + 2 * math.sqrt(h) - (dv.u_left + 2 * dv.a_left)))
    for xi in np.linspace(sv.right_tail + 1e-3, sv.right_head - 1e-3, 20):
        h, u = oracles.sample(dv, sv, xi, 1.0)
        inv = max(inv, abs(u - 2 * math.sqrt(h) - (dv.u_right - 2 * dv.a_right)))
    inv_ok = inv <= 1e-12

    sim_ok = all(oracles.sample(dv, sv, 2.0 * x, 2.0 * t) == oracles.sample(dv, sv, x, t)
                 for x, t in ((0.3, 0.5), (-0.9, 0.2), (1.4, 0.7)))

    ok = golden_ok and res_ok and rh_ok and inv_ok and sim_ok
    _report(9, "exact oracles", ok,
            f"star residual {residual:.1e}, RH {rh:.1e}, invariants {inv:.1e}, "
            f"self-similar {sim_ok}")


# --- 10: sponge absorption ------------------------------------------------------------

def test_criterion_10_sponge_absorption():
    eps, omega = 0.02, 3.0
    sc = app.Scenario(g=1.0, eps=eps, init=app.RiemannInitSpec(1.0, 0.0, 1.0, 0.0),
                      domain=app.DomainSpec(half_width=1.0, boundary=app.BOUNDARY_SPONGE),
                      sponge=app.SpongeSpec(omega=omega), output=app.OutputSpec(times=(1.6,)))
    mesh = sc.build_mesh()
    sponge = sc.sponge_profile(mesh)
    x = mesh.coords
    psi0 = np.exp(-x**2 / (2 * 0.15**2)) * np.exp(1j * omega * x / eps)
    w = WaveField(mesh, psi0, eps)
    stepper = nls.Stepper(mesh, sc.g, sc.eps, sc.dt)
    dx = sc.dx
    b = np.zeros(mesh.num_nodes)
    interior = np.abs(x) <= sc.domain.half_width
    peak0 = float(np.abs(psi0).max())
    mass_prev = np.sum(mesh.mass * np.abs(w.psi) ** 2)
    monotone = True
    for _ in range(round(1.6 / dx)):
        w = nls.strang_step(w, b, sponge, stepper, stepper.dt)
        mass = np.sum(mesh.mass * np.abs(w.psi) ** 2)
        monotone &= mass <= mass_prev * (1 + 1e-12)
        mass_prev = mass
    residual = float(np.abs(w.psi[interior]).max()) / peak0
    ok = residual <= 1e-3 and monotone
    _report(10, "sponge absorption", ok,
            f"interior residual {residual:.2e}, mass monotone {monotone}")
