"""Strang splitting, Crank-Nicolson dispersive step and sponge layers."""
import itertools
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from scipy.linalg import blas
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from swnls import app
from swnls import lapack as swnls_lapack
from swnls.app import DiscretizationSpec
from swnls.madelung import WaveField
from swnls.mesh import NEUMANN, PERIODIC, build_mesh
from swnls.nls import Stepper, dispersive_step, potential_half_step, run, strang_step


def make_field(mesh, psi, eps):
    return WaveField(mesh, np.asarray(psi, dtype=complex), eps)


def norm_h(mesh, psi):
    return np.sum(mesh.mass * np.abs(psi) ** 2)


# --- potential step -------------------------------------------------------------


def test_potential_step_constant_field():
    m = build_mesh(-1.0, 1.0, 10, 1, PERIODIC)
    A, eps, tau = 1.4, 0.1, 0.02
    stepper = Stepper(m, g=1.0, eps=eps, dt=0.04)
    w = potential_half_step(make_field(m, np.full(m.num_nodes, A), eps),
                            np.zeros(m.num_nodes), None, stepper, tau)
    expected = A * np.exp(-1j * A**2 * tau / eps)
    assert np.allclose(w.psi, expected, rtol=1e-14)


def test_potential_step_preserves_modulus():
    m = build_mesh(-1.0, 1.0, 64, 1, PERIODIC)
    rng = np.random.default_rng(5)
    psi = rng.normal(size=m.num_nodes) + 1j * rng.normal(size=m.num_nodes)
    b = rng.normal(size=m.num_nodes)
    stepper = Stepper(m, g=2.0, eps=0.03, dt=0.01)
    w = potential_half_step(make_field(m, psi, 0.03), b, None, stepper, 0.005)
    assert np.max(np.abs(np.abs(w.psi) - np.abs(psi))) <= 1e-13 * np.max(np.abs(psi))


def test_potential_step_cap_damping_factor():
    m = build_mesh(-1.0, 1.0, 100, 1, NEUMANN)
    sigma = np.random.default_rng(3).uniform(0.0, 3.0, m.num_nodes)
    A, eps, tau = 0.8, 0.05, 0.01
    stepper = Stepper(m, g=1.0, eps=eps, dt=0.02)
    w = potential_half_step(make_field(m, np.full(m.num_nodes, A), eps),
                            np.zeros(m.num_nodes), sigma, stepper, tau)
    expected = A * np.exp(-sigma * tau / eps)
    assert np.allclose(np.abs(w.psi), expected, rtol=1e-13)


def _complex_exp_half_step(psi, b, sigma, g, eps, tau):
    """The potential half-step written with the complex exp."""
    phase = np.exp(-1j * (g / eps) * (np.abs(psi) ** 2 + b) * tau)
    if sigma is not None:
        phase = phase * np.exp(-sigma * tau / eps)
    return phase * psi


def _assert_bitwise_equal(got, expected):
    assert got.dtype == expected.dtype == np.complex128
    bad = np.nonzero(got.view(np.int64) != expected.view(np.int64))[0]
    assert bad.size == 0, (bad.size, got.view(float)[bad[:4]], expected.view(float)[bad[:4]])


# exact zeros of both signs, subnormals, moduli whose square underflows to 0
# (the dry side of dam_break_dry) and ordinary values
_parts = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -3e-200, 1e-160]),
                   st.floats(-1e3, 1e3))


@st.composite
def _nodal_fields(draw):
    """psi, b and sigma at 2 to 40 nodes; sigma up to damping factors that
    underflow to 0."""
    n = draw(st.integers(2, 40))

    def column(elements):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)), dtype=float)

    psi = np.empty(n, dtype=complex)
    psi.real, psi.imag = column(_parts), column(_parts)
    b = column(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-5.0, 5.0)))
    sigma = column(st.one_of(st.just(0.0), st.floats(0.0, 1e6)))
    return psi, b, sigma


@settings(max_examples=300, deadline=None)
@given(fields=_nodal_fields(), g=st.floats(1e-2, 50.0), eps=st.floats(1e-3, 2.0),
       dt=st.floats(1e-6, 0.5), shortened=st.floats(0.0, 1.0, exclude_min=True),
       sponge=st.booleans())
@example(fields=(np.array([0.0, complex(0.0, -0.0), complex(-0.0, 0.0), complex(5e-324, -0.0)]),
                 np.zeros(4), np.zeros(4)),
         g=1.0, eps=0.02, dt=0.008, shortened=1.0, sponge=False)
def test_potential_step_bitwise_equals_complex_exp(fields, g, eps, dt, shortened, sponge):
    # the cos/sin rotation gives the bits of the complex exp, for a half-step
    # tau = dt/2 and for the shortened step before an output time, with and
    # without a sponge
    psi, b, sigma = fields
    sigma = sigma if sponge else None
    m = build_mesh(-1.0, 1.0, psi.size - 1, 1, NEUMANN)
    stepper = Stepper(m, g=g, eps=eps, dt=dt)
    for tau in (0.5 * dt, 0.5 * (shortened * dt)):
        w = potential_half_step(make_field(m, psi, eps), b, sigma, stepper, tau)
        _assert_bitwise_equal(w.psi, _complex_exp_half_step(psi, b, sigma, g, eps, tau))
        if not sponge:  # a rotation: each node keeps its modulus, to rounding
            np.testing.assert_allclose(np.abs(w.psi), np.abs(psi), rtol=1e-15, atol=1e-320)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1), g=st.floats(0.1, 4.0),
       eps=st.floats(0.01, 0.1), owed=st.floats(0.0, 2.0), tau=st.floats(0.0, 2.0),
       sigma_scale=st.one_of(st.none(), st.floats(0.0, 5.0)))
def test_owed_half_step_equals_two_half_steps(n, seed, g, eps, owed, tau, sigma_scale):
    # one half-step over tau that pays owed time first is the two half-steps
    # in turn, sponge damping included: steps up to 2*dt at dt = 0.05*eps (the
    # default dt = dx), depths up to 4, beds within +-1 and sigma up to 5
    # times vacuum_generation's peak damping
    rng = np.random.default_rng(seed)
    m = build_mesh(-1.0, 1.0, n - 1, 1, NEUMANN)
    dt = 0.05 * eps
    stepper = Stepper(m, g=g, eps=eps, dt=dt)
    psi = rng.uniform(0.0, 2.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    psi[rng.uniform(size=n) < 0.2] = 0.0
    b = rng.uniform(-1.0, 1.0, n)
    sigma = None if sigma_scale is None else sigma_scale * rng.uniform(0.0, 2.48, n)
    owed, tau = owed * dt, tau * dt
    w = make_field(m, psi, eps)
    got = potential_half_step(w, b, sigma, stepper, tau, owed=owed).psi
    want = potential_half_step(potential_half_step(w, b, sigma, stepper, owed),
                               b, sigma, stepper, tau).psi
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


@pytest.mark.parametrize("name", ["dam_break_dry", "vacuum_generation"])
def test_potential_step_bitwise_equals_complex_exp_on_a_run(name):
    # the first 30 steps of a dry dam break (exact zeros, then subnormal
    # moduli on the dry side) and of the sponge run, at tau = dt/2 and at a
    # shortened step's half
    from swnls.app import builtin_scenario
    sc = builtin_scenario(name)
    m = sc.build_mesh()
    b = sc.bathymetry_values(m.coords)
    sigma = sc.sponge_profile(m)
    stepper = Stepper(m, sc.g, sc.eps, sc.dt)
    w = sc.initial_field(m)
    for _ in range(30):
        for tau in (0.5 * sc.dt, 0.5 * (0.37 * sc.dt)):
            got = potential_half_step(w, b, sigma, stepper, tau)
            _assert_bitwise_equal(got.psi, _complex_exp_half_step(w.psi, b, sigma, sc.g,
                                                                  sc.eps, tau))
        w = strang_step(w, b, sigma, stepper, sc.dt)


# --- dispersive step ------------------------------------------------------------


def test_dispersive_step_constant_unchanged():
    m = build_mesh(-1.0, 1.0, 16, 2, PERIODIC)
    stepper = Stepper(m, g=1.0, eps=0.1, dt=0.01)
    w = dispersive_step(make_field(m, np.full(m.num_nodes, 2.0 + 1.0j), 0.1), m, stepper, 0.01)
    assert np.allclose(w.psi, 2.0 + 1.0j, rtol=1e-13)


def test_dispersive_step_eigenvector_amplification():
    m = build_mesh(-1.0, 1.0, 12, 1, NEUMANN)
    eps, dt = 0.1, 0.02
    lam, V = scipy.linalg.eigh(m.stiffness.toarray(), np.diag(m.mass))
    j = 5
    v = V[:, j].astype(complex)
    stepper = Stepper(m, g=1.0, eps=eps, dt=dt)
    w = dispersive_step(make_field(m, v, eps), m, stepper, dt)
    beta = eps * lam[j] * dt / 4.0
    r = (1 - 1j * beta) / (1 + 1j * beta)
    assert np.max(np.abs(w.psi - r * v)) <= 1e-13
    assert abs(abs(r) - 1.0) <= 1e-15


@pytest.mark.parametrize("topology", [NEUMANN, PERIODIC])
@settings(max_examples=200, deadline=None)
@given(degree=st.integers(1, 4), elements=st.integers(2, 200),
       eps=st.floats(0.01, 0.2), tau=st.floats(1e-4, 0.05), seed=st.integers(0, 2**32 - 1))
def test_dispersive_step_norm_conservation(topology, degree, elements, eps, tau, seed):
    m = build_mesh(-2.0, 2.0, elements, degree, topology)
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=m.num_nodes) + 1j * rng.normal(size=m.num_nodes)
    stepper = Stepper(m, g=1.0, eps=eps, dt=tau)
    n0 = norm_h(m, psi)
    w = dispersive_step(make_field(m, psi, eps), m, stepper, tau)
    assert abs(norm_h(m, w.psi) - n0) <= 1e-12 * n0


def _sponge_mesh():
    sc = replace(app.builtin_scenario("vacuum_generation"), eps=0.08)
    m = sc.build_mesh()
    assert m.topology == NEUMANN and m.b > sc.domain.half_width  # the layers are in it
    return m


# scipy's own zgttrf; its f2py wrapper, scipy.linalg.lapack.zgttrf, refuses n = 2
SCIPY_LAPACK = swnls_lapack._scipy_cython()


def _ldlt_reference(m, beta, rhs):
    """(M + i*beta*K)^-1 rhs on a degree-1 mesh, with zgttrf's pivot indices:
    L D L^T by BLAS sweeps over band arrays built here, and for a periodic
    matrix the Sherman-Morrison correction for its corners after the shift
    gamma = -d_0, the corrector's subnormal entries set to 0."""
    n = m.num_nodes
    T = sparse.diags(m.mass) + (1j * beta) * m.stiffness
    diag, off = T.diagonal(), T.diagonal(1)
    if m.topology == PERIODIC:
        gamma, corner = -diag[0], T[0, n - 1]
        if n == 2:
            # T[0, 1] sums the off-diagonal and the corner: split it by element
            off, corner = (1j * beta) * m.k_loc[0, 1:], (1j * beta) * m.k_loc[1, 0]
        diag[0] -= gamma
        diag[-1] -= corner * corner / gamma
    multipliers, pivots = off.copy(), diag
    ipiv, info = SCIPY_LAPACK.zgttrf(multipliers, pivots, off.copy())
    assert info == 0
    lower = np.asfortranarray([np.ones(n), np.append(multipliers, 0.0)])
    upper = np.asfortranarray([np.insert(multipliers, 0, 0.0), np.ones(n)])
    inv_pivots = 1.0 / pivots

    def sweep(x):
        x = blas.ztbsv(1, lower, x, lower=1, diag=1)
        return blas.ztbsv(1, upper, x * inv_pivots, lower=0, diag=1)

    y = sweep(rhs)
    if m.topology == PERIODIC:
        u = np.zeros(n, dtype=complex)
        u[0], u[-1] = gamma, corner
        z = sweep(u)
        for part in (z.real, z.imag):
            part[np.abs(part) < np.finfo(np.float64).tiny] = 0.0
        v = corner / gamma
        y = blas.zaxpy(z, y, a=-(y[0] + v * y[-1]) * (1.0 / (1.0 + z[0] + v * z[-1])))
    return y, ipiv


@pytest.mark.parametrize("mesh, solver", [
    # every degree-1 mesh, periodic or Neumann (sponge meshes and the 2-node
    # meshes included), goes to the symmetric tridiagonal solve
    pytest.param(lambda: build_mesh(-1.0, 1.0, 24, 1, PERIODIC), "ldlt", id="periodic-1-ldlt"),
    pytest.param(lambda: build_mesh(-1.0, 1.0, 24, 2, PERIODIC), "MMD_AT_PLUS_A",
                 id="periodic-2-MMD_AT_PLUS_A"),
    pytest.param(lambda: build_mesh(-1.0, 1.0, 24, 3, PERIODIC), "MMD_AT_PLUS_A",
                 id="periodic-3-MMD_AT_PLUS_A"),
    # degree >= 2 Neumann output is rounding-sensitive at dt = dx, so the
    # digits of SuperLU's default ordering are pinned
    pytest.param(lambda: build_mesh(-1.0, 1.0, 24, 2, NEUMANN), "COLAMD",
                 id="neumann-2-COLAMD"),
    pytest.param(lambda: build_mesh(-1.0, 1.0, 24, 1, NEUMANN), "ldlt", id="neumann-1-ldlt"),
    pytest.param(_sponge_mesh, "ldlt", id="sponge-1-ldlt"),
    pytest.param(lambda: build_mesh(-1.0, 1.0, 1, 1, NEUMANN), "ldlt",
                 id="neumann-1-2nodes-ldlt"),
    pytest.param(lambda: build_mesh(-1.0, 1.0, 2, 1, PERIODIC), "ldlt",
                 id="periodic-1-2nodes-ldlt"),
])
def test_dispersive_solve_column_ordering(mesh, solver):
    # the dense solution to rounding, and bitwise, on a degree-1 mesh, twice
    # the midpoint value minus psi from the L D L^T solve, or at degree >= 2
    # the digits of SuperLU's plain Crank-Nicolson solve with the topology's
    # column ordering; the systems are built apart from nls
    m = mesh()
    eps, tau = 0.05, 0.01
    M = sparse.diags(m.mass)
    a, c = eps / tau, 0.25 * eps * eps
    A = ((1j * a) * M - c * m.stiffness).tocsc()
    rng = np.random.default_rng(3)
    psi = rng.normal(size=m.num_nodes) + 1j * rng.normal(size=m.num_nodes)
    rhs = ((1j * a) * M + c * m.stiffness) @ psi
    stepper = Stepper(m, g=1.0, eps=eps, dt=tau)
    got = dispersive_step(make_field(m, psi, eps), m, stepper, tau).psi
    dense = np.linalg.solve(A.toarray(), rhs)
    assert np.linalg.norm(got - dense) <= 1e-12 * np.linalg.norm(dense)
    # A / (i*a) = M + i*beta*K, and A^-1 (2i*a*M psi) = (A / (i*a))^-1 (2*M psi)
    beta = 0.25 * eps * tau
    if solver == "ldlt":
        twice_mid, ipiv = _ldlt_reference(m, beta, 2.0 * m.mass * psi)
        assert np.array_equal(ipiv, np.arange(1, m.num_nodes + 1))
        expected = twice_mid - psi
    else:
        expected = spla.splu(A, permc_spec=solver).solve(rhs)
    assert np.array_equal(got, expected)


@settings(max_examples=200, deadline=None)
@given(topology=st.sampled_from([NEUMANN, PERIODIC]), nodes=st.integers(2, 64),
       log_ratio=st.floats(-4.0, 5.0), seed=st.integers(0, 2**32 - 1))
@example(topology=NEUMANN, nodes=2, log_ratio=5.0, seed=0)
@example(topology=PERIODIC, nodes=2, log_ratio=5.0, seed=0)
def test_symmetric_tridiagonal_solve_matches_the_dense_solve(topology, nodes, log_ratio, seed):
    # beta/h^2 from 1e-4 to 1e5.  zgttrf pivots on no row, and the midpoint
    # step (M + i*beta*K)^-1 (2*M psi) - psi agrees with the dense solve's
    # to 1e-14 relative times the condition number of M + i*beta*K: two
    # backward-stable solves differ by up to about cond * 1.1e-16, which
    # reaches 1e-11 at beta/h^2 = 1e5 (against a refined solution, the dense
    # solve's own error reached 6.5e-12)
    from swnls import nls
    m = build_mesh(-1.0, 1.0, nodes - (topology == NEUMANN), 1, topology)
    assert m.num_nodes == nodes
    beta = 10.0 ** log_ratio * m.element_length ** 2
    T = (sparse.diags(m.mass) + (1j * beta) * m.stiffness).toarray()
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=nodes) + 1j * rng.normal(size=nodes)
    _, ipiv = _ldlt_reference(m, beta, psi)
    assert np.array_equal(ipiv, np.arange(1, nodes + 1))
    got = nls._MidpointStep(m, beta)(psi)
    want = np.linalg.solve(T, 2.0 * m.mass * psi) - psi
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.cond(T) * np.linalg.norm(want)


def test_periodic_correction_vector_holds_no_subnormal(monkeypatch):
    # the Sherman-Morrison corrector z decays geometrically from both ends of
    # a periodic mesh; at 8000 nodes 3566 of its entries have a subnormal
    # part, and the update y -= s*z of every solve (BLAS zaxpy) took 154 us
    # with them and 3.9 us with them set to 0, on a 2-vCPU x86-64 host
    from swnls import nls
    made = []
    real_step = nls._MidpointStep

    def recording_step(*args):
        made.append(real_step(*args))
        return made[-1]

    monkeypatch.setattr(nls, "_MidpointStep", recording_step)
    sc = app.builtin_scenario("lake_at_rest_dry")
    m = sc.build_mesh()
    assert (m.topology, m.num_nodes) == (PERIODIC, 8000)
    Stepper(m, sc.g, sc.eps, sc.dt)
    [step] = made
    assert np.count_nonzero(step.z == 0.0) > 3500  # its flushed middle: 3559 entries
    parts = step.z.view(np.float64)
    assert not np.any((parts != 0.0) & (np.abs(parts) < np.finfo(np.float64).tiny))


@pytest.mark.parametrize("pivots, info, message", [
    ([1, 3, 3, 4, 5], 0, "interchanged rows"),
    ([1, 2, 3, 4, 5], 3, "is singular"),
])
def test_symmetric_tridiagonal_solve_refuses_a_pivoted_or_singular_factorization(
        monkeypatch, pivots, info, message):
    real_zgttrf = swnls_lapack.Library.zgttrf

    def zgttrf(*args, **kwargs):
        real_zgttrf(*args, **kwargs)
        return np.array(pivots, dtype=np.int32), info

    monkeypatch.setattr(swnls_lapack.Library, "zgttrf", zgttrf)
    m = build_mesh(-1.0, 1.0, 5, 1, PERIODIC)
    with pytest.raises(RuntimeError, match=message):
        Stepper(m, g=1.0, eps=0.1, dt=0.01)


def test_stepper_validation():
    m = build_mesh(-1.0, 1.0, 10, 1, PERIODIC)
    for g, eps, dt, name in ((1.0, 0.1, 0.0, "dt"), (-1.0, 0.1, 0.01, "g"),
                             (1.0, 0.0, 0.01, "eps"), (1.0, 0.1, np.nan, "dt")):
        with pytest.raises(ValueError, match=f"^{name} must be positive"):
            Stepper(m, g=g, eps=eps, dt=dt)


def test_dispersive_step_refuses_a_foreign_mesh():
    m = build_mesh(-1.0, 1.0, 10, 1, PERIODIC)
    other = build_mesh(-1.0, 1.0, 10, 1, PERIODIC)
    stepper = Stepper(m, g=1.0, eps=0.1, dt=0.01)
    with pytest.raises(ValueError, match="mesh"):
        dispersive_step(make_field(other, np.ones(other.num_nodes), 0.1), other, stepper, 0.01)


# --- Strang step ----------------------------------------------------------------


def test_strang_constant_solution():
    # spatially constant fields solve the full equation analytically
    m = build_mesh(-1.0, 1.0, 20, 1, PERIODIC)
    A, eps = 1.1, 0.07
    stepper = Stepper(m, g=1.0, eps=eps, dt=0.004)
    w = make_field(m, np.full(m.num_nodes, A), eps)
    b = np.zeros(m.num_nodes)
    for _ in range(25):
        w = strang_step(w, b, None, stepper, 0.004)
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
        stepper = Stepper(m, g=g, eps=eps, dt=T / nsteps)
        w = make_field(m, psi0, eps)
        for _ in range(nsteps):
            w = strang_step(w, b, None, stepper, stepper.dt)
        errs.append(np.sqrt(norm_h(m, w.psi - psi_exact)))
    ratio = errs[0] / errs[1]
    assert 3.4 <= ratio <= 4.6, ratio


def test_strang_mass_decays_under_global_damping():
    m = build_mesh(-1.0, 1.0, 50, 1, PERIODIC)
    eps = 0.1
    stepper = Stepper(m, g=1.0, eps=eps, dt=0.01)
    # damping active everywhere: build the profile by hand
    sponge = np.full(m.num_nodes, 0.5)
    w = make_field(m, np.full(m.num_nodes, 1.0), eps)
    masses = [norm_h(m, w.psi)]
    for _ in range(20):
        w = strang_step(w, np.zeros(m.num_nodes), sponge, stepper, 0.01)
        masses.append(norm_h(m, w.psi))
    assert np.all(np.diff(masses) < 0.0)


# lambda_max * dx^2 of M^-1 K by degree, dx the element length: stepping is
# stable while Q = dt^2 * g * h_max * lambda_max / 4 <= 1 (README, "Validity regime")
_LAMBDA_DX2 = {1: 4.0, 2: 24.0, 3: 74.3, 4: 183.3}


def _return_error(wave, b, stepper, steps):
    """Relative L2 distance to psi0 after `steps` steps, a conjugation, `steps`
    steps and a conjugation: zero in exact arithmetic, since the conjugated
    scheme runs the symmetric Strang step backwards.  Also the relative drift
    of the mass sum(mesh.mass * |psi|^2) over the first `steps` steps, and the
    largest depth |psi|^2 they reach, psi0 included."""
    psi0 = wave.psi
    h_run = np.max(np.abs(psi0) ** 2)
    for _ in range(steps):
        wave = strang_step(wave, b, None, stepper, stepper.dt)
        h_run = max(h_run, np.max(np.abs(wave.psi) ** 2))
    mass0 = norm_h(wave.mesh, psi0)
    drift = abs(norm_h(wave.mesh, wave.psi) - mass0) / mass0
    wave = wave.copy_with(np.conj(wave.psi))
    for _ in range(steps):
        wave = strang_step(wave, b, None, stepper, stepper.dt)
    return np.linalg.norm(np.conj(wave.psi) - psi0) / np.linalg.norm(psi0), drift, h_run


def _smooth_case(degree, topology, eps, depth, ripple, bed, flow, q, dx_over_eps):
    """The wave, nodal bed and stepper of a depth depth*(1 + ripple*cos(pi x)),
    a bed bed*cos(2 pi x) and a phase flow*sin(pi x)/eps on [-1, 1] with g = 1,
    at the dt that gives Q = q at the initial depth."""
    elements = round(2.0 / (dx_over_eps * eps))
    m = build_mesh(-1.0, 1.0, elements, degree, topology)
    x = m.coords
    h = depth * (1.0 + ripple * np.cos(np.pi * x))
    psi0 = np.sqrt(h) * np.exp(1j * flow * np.sin(np.pi * x) / eps)
    dx, g = 2.0 / elements, 1.0
    dt = 2.0 * dx * np.sqrt(q / (g * h.max() * _LAMBDA_DX2[degree]))  # Q = q
    return make_field(m, psi0, eps), bed * np.cos(2.0 * np.pi * x), Stepper(m, g=g, eps=eps, dt=dt)


@settings(max_examples=40, deadline=None)
@given(degree=st.integers(1, 4), topology=st.sampled_from([NEUMANN, PERIODIC]),
       eps=st.floats(0.05, 0.2), depth=st.floats(0.1, 2.0), ripple=st.floats(0.0, 0.5),
       bed=st.floats(-1.0, 1.0), flow=st.floats(-0.5, 0.5), q=st.floats(0.01, 1.0),
       steps=st.integers(10, 300), dx_over_eps=st.just(DiscretizationSpec.dx_over_eps))
@example(1, PERIODIC, 0.1, 1.0, 0.3, 0.0, 0.2, 0.325, 20, 0.1)  # dt = 0.005, 200 elements
@example(1, NEUMANN, 0.05, 2.0, 0.0, 0.0, 0.0, 1.0, 100, 0.05)  # on the bound
def test_time_reversal_symmetry(degree, topology, eps, depth, ripple, bed, flow, q, steps,
                                dx_over_eps):
    # a smooth depth, bed and velocity, no sponge: the forward leg keeps the
    # mass at any step, and the return trip gives back psi0 at any step within
    # the bound at the deepest state the run reaches.  dt is drawn from q at
    # the initial depth, and a bed or a flow can deepen the water past it
    # (2.49x on one draw), so draws whose running Q exceeds 1 are discarded;
    # 1e-9 keeps the on-the-bound example, whose running depth rounds up.
    wave, b, stepper = _smooth_case(degree, topology, eps, depth, ripple, bed, flow, q,
                                    dx_over_eps)
    rel, drift, h_run = _return_error(wave, b, stepper, steps)
    assert drift <= 1e-10, drift
    assume(q * h_run / np.max(np.abs(wave.psi) ** 2) <= 1.0 + 1e-9)
    assert rel <= 1e-10, rel


@pytest.mark.parametrize("h_left, dt_over_dx, q", [(1.0, 1.1, 1.21), (2.0, 1.0, 2.0)])
def test_time_reversal_fails_past_the_step_bound(h_left, dt_over_dx, q):
    # the bound is sharp: past it, rounding grows and a degree-1 Neumann dam
    # break into depth 0.2 at eps 0.04 does not return (measured 3.9e-6 and 1.3)
    sc = replace(app.builtin_scenario("dam_break_wet"), eps=0.04)
    sc = replace(sc, init=replace(sc.init, h_left=h_left),
                 discretization=DiscretizationSpec(dt=dt_over_dx * sc.dx))
    assert sc.dt**2 * sc.g * h_left * _LAMBDA_DX2[1] / (4.0 * sc.dx**2) == pytest.approx(q)
    m = sc.build_mesh()
    stepper = Stepper(m, g=sc.g, eps=sc.eps, dt=sc.dt)
    rel, _, _ = _return_error(sc.initial_field(m), sc.bathymetry_values(m.coords), stepper, 600)
    assert rel > 1e-7, rel


def test_time_reversal_fails_past_the_bound_at_the_running_depth():
    # the bound holds at the deepest state, not the initial one: in bound at
    # t = 0 (Q = 0.8), a bed and a flow deepen the water to a running Q of 2.33,
    # and the return fails (measured 4.9e-4; 6.6e-7 at 300 steps)
    wave, b, stepper = _smooth_case(1, PERIODIC, 0.075, 1.25, 0.25, 0.7, 0.5, 0.8,
                                    DiscretizationSpec.dx_over_eps)
    rel, _, h_run = _return_error(wave, b, stepper, 500)
    assert 0.8 * h_run / np.max(np.abs(wave.psi) ** 2) > 2.0  # the running Q
    assert rel > 1e-7, rel


# --- run orchestration ----------------------------------------------------------


class _ToyScenario:
    """Minimal duck-typed scenario for exercising run()."""

    class output:
        times = (0.0,)

    def __init__(self, times=(0.0,), nan_init=False, dt=0.01, topology=PERIODIC):
        self.output = type("O", (), {"times": times})()
        self._nan = nan_init
        self.dt = dt
        self.eps = 0.1
        self.g = 1.0
        self._topology = topology

    def build_mesh(self):
        return build_mesh(-1.0, 1.0, 40, 1, self._topology)

    def bathymetry_values(self, x):
        return np.zeros_like(x)

    def sponge_profile(self, mesh):
        return None

    def initial_field(self, mesh):
        psi = np.full(mesh.num_nodes, np.nan if self._nan else 1.0, dtype=complex)
        return WaveField(mesh, psi, self.eps)


def test_run_zero_duration_returns_initial_snapshot():
    snapshots = []
    result = run(_ToyScenario(times=(0.0,)), lambda *snap: snapshots.append(snap))
    assert len(snapshots) == 1 and snapshots[0] == result.final
    assert result.steps_taken == 0
    wave, hydro = result.final
    assert wave.time == 0.0
    assert np.allclose(hydro.h, 1.0, rtol=1e-15)


def test_run_lands_exactly_on_output_times():
    # 0.037 is not a multiple of dt=0.01: the last step is shortened
    snapshots = []
    result = run(_ToyScenario(times=(0.037, 0.05), dt=0.01),
                 lambda *snap: snapshots.append(snap))
    t0, t1 = (snap[0].time for snap in snapshots)
    assert t0 == 0.037 and t1 == 0.05
    assert result.steps_taken == 4 + 2  # 3 full + 1 partial, then 1 full + 1 partial
    # constant field: solution stays the analytic constant-phase rotation
    wave, _ = result.final
    assert snapshots[-1] == result.final
    expected = np.exp(-1j * 0.05 / 0.1)
    assert np.allclose(wave.psi, expected, rtol=1e-12)


def _run_peak_bytes(sc) -> int:
    """Peak traced allocation of one nls.run of the scenario."""
    import tracemalloc
    tracemalloc.start()
    try:
        run(sc)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_memory_does_not_grow_with_output_times():
    # a snapshot is psi (complex) plus h, q and u (real): 40 bytes a node
    from swnls.app import builtin_scenario
    sc = replace(builtin_scenario("dam_break_dry"), eps=0.08)
    n = sc.layout().nodes
    run(replace(sc, output=replace(sc.output, times=(0.2,))))  # warm-up, untraced
    peaks = [_run_peak_bytes(replace(sc, output=replace(sc.output, times=times)))
             for times in ((0.2, 0.4), tuple(0.002 * np.arange(1, 201)))]
    assert abs(peaks[1] - peaks[0]) <= 3 * 40 * n, (peaks, n)


def test_run_aborts_on_non_finite_field():
    with pytest.raises(RuntimeError, match="step 1"):
        run(_ToyScenario(times=(0.1,), nan_init=True))


@pytest.mark.parametrize("part, value", [("imag", np.nan), ("real", np.inf), ("imag", -np.inf)])
def test_run_aborts_when_one_part_of_one_node_is_non_finite(monkeypatch, part, value):
    # every step of a run makes one dispersive_step call, chained or not
    from swnls import nls
    real_step = nls.dispersive_step
    calls = []

    def step(*args):
        out = real_step(*args)
        calls.append(1)
        if len(calls) == 3:
            getattr(out.psi, part)[17] = value
        return out

    monkeypatch.setattr(nls, "dispersive_step", step)
    with pytest.raises(RuntimeError, match=r"non-finite wave function after step 3 \(t = 0\.03\)"):
        run(_ToyScenario(times=(0.1,)))


def _count_factorizations(monkeypatch) -> list:
    """The name of each factorization made, "splu" or "zgttrf", in order."""
    factorizations = []
    real_splu = spla.splu
    real_zgttrf = swnls_lapack.Library.zgttrf

    def counting_splu(*args, **kwargs):
        factorizations.append("splu")
        return real_splu(*args, **kwargs)

    def counting_zgttrf(*args, **kwargs):
        factorizations.append("zgttrf")
        return real_zgttrf(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    monkeypatch.setattr(swnls_lapack.Library, "zgttrf", counting_zgttrf)
    return factorizations


def test_run_keeps_only_the_dt_operator(monkeypatch):
    from swnls import nls
    factorizations = _count_factorizations(monkeypatch)
    taus = []
    real_step = nls.dispersive_step

    def recording_step(wave, mesh, stepper, tau):
        taus.append((tau, stepper.dt))
        return real_step(wave, mesh, stepper, tau)

    monkeypatch.setattr(nls, "dispersive_step", recording_step)
    for (times, dt, steps, shortened), topology in itertools.product((
            # no output time is a multiple of dt = 0.01: each is reached by a shortened step
            ((0.037, 0.05, 0.063, 0.081), 0.01, 10, 4),
            # 600 steps of dt sum to 0.3 less an ulp or so: a remainder of
            # roundoff, taken as a full step, not factorized as a shortened one
            ((0.3,), 0.0005, 600, 0)), (PERIODIC, NEUMANN)):  # both zgttrf
        taus.clear()
        factorizations.clear()
        run(_ToyScenario(times=times, dt=dt, topology=topology))
        assert len(taus) == steps
        assert sum(tau != step_dt for tau, step_dt in taus) == shortened
        assert len(factorizations) == 1 + shortened


@pytest.mark.parametrize("name, dx_over_eps, elements", [
    # one Neumann element and two periodic ones: 2 nodes each, factorized
    # by zgttrf as every degree-1 mesh is
    ("dam_break_wet", 80.0, 1),
    ("lake_at_rest_wet", 40.0, 2),
])
def test_two_node_meshes_run_end_to_end(monkeypatch, name, dx_over_eps, elements):
    factorizations = _count_factorizations(monkeypatch)
    sc = app.builtin_scenario(name)
    times = (0.0, 0.237, 0.5, 1.0)
    sc = replace(sc, eps=0.05, discretization=DiscretizationSpec(dx_over_eps=dx_over_eps, dt=0.01),
                 output=replace(sc.output, times=times))
    reached = []
    result = run(sc, lambda wave, hydro: reached.append(wave.time))
    assert (result.mesh.num_elements, result.mesh.num_nodes) == (elements, 2)
    assert reached == list(times)
    # 24 steps to 0.237 and 27 to 0.5, each ending in a shortened step, then 50
    assert result.steps_taken == 101
    assert factorizations == ["zgttrf"] * 3  # dt's and the two shortened steps'
    mass0 = result.energies[0].mass
    assert max(abs(e.mass - mass0) for e in result.energies) <= 1e-12 * mass0

def _strang_loop(sc) -> tuple:
    """The run of a scenario as one strang_step per step: psi at each output
    time, and the step count."""
    from swnls import nls
    mesh = sc.build_mesh()
    b = sc.bathymetry_values(mesh.coords)
    sponge = sc.sponge_profile(mesh)
    stepper = Stepper(mesh, sc.g, sc.eps, sc.dt)
    wave = sc.initial_field(mesh)
    snapshots, steps = [], 0
    for t_out in sc.output.times:
        snap = nls._TIME_SNAP * max(1.0, t_out)
        while (remaining := t_out - wave.time) > snap:
            tau = stepper.dt if remaining > stepper.dt - snap else remaining
            wave = strang_step(wave, b, sponge, stepper, tau)
            steps += 1
        wave.time = t_out
        snapshots.append(wave.psi.copy())
    return snapshots, steps


@pytest.mark.parametrize("name, degree, chained", [
    # degree 1, g = 1, depth <= 1 and dt = dx: Q <= 1, in bound
    ("dam_break_dry", 1, True),      # Neumann
    ("lake_at_rest_dry", 1, True),   # periodic, Sherman-Morrison
    ("vacuum_generation", 1, True),  # a sponge: its damping composes too
    ("dam_break_dry", 2, False),     # degree 2: full Strang steps
])
def test_run_chains_degree_1_steps(monkeypatch, name, degree, chained):
    from swnls import nls
    from swnls.app import builtin_scenario
    sc = replace(builtin_scenario(name), eps=0.08)
    # dt = 0.004: no output time is a multiple of it, so each is reached by a
    # shortened step
    sc = replace(sc, discretization=replace(sc.discretization, degree=degree),
                 output=replace(sc.output, times=(0.01, 0.05, 0.123)))
    expected, steps = _strang_loop(sc)
    potential_calls, step_calls = [], []
    real_potential, real_step = nls.potential_half_step, nls.strang_step

    def counting_potential(*args, **kwargs):
        potential_calls.append(1)
        return real_potential(*args, **kwargs)

    def counting_step(*args, **kwargs):
        step_calls.append(1)
        return real_step(*args, **kwargs)

    monkeypatch.setattr(nls, "potential_half_step", counting_potential)
    monkeypatch.setattr(nls, "strang_step", counting_step)
    snapshots = []
    result = run(sc, lambda wave, hydro: snapshots.append((wave.time, wave.psi.copy())))
    assert result.steps_taken == steps == len(step_calls) == 32
    assert [t for t, _ in snapshots] == list(sc.output.times)
    if chained:
        # one potential half-step per step, and the one owed before each snapshot
        assert len(potential_calls) == steps + len(sc.output.times)
        for (_, got), want in zip(snapshots, expected):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    else:
        assert len(potential_calls) == 2 * steps
        for (_, got), want in zip(snapshots, expected):
            assert np.array_equal(got, want)


def test_shortened_step_operator_is_not_kept(monkeypatch):
    # full steps through one stepper reuse its factorization, bit for bit
    factorizations = _count_factorizations(monkeypatch)
    m = build_mesh(-1.0, 1.0, 20, 1, PERIODIC)
    stepper = Stepper(m, g=1.0, eps=0.1, dt=0.01)
    w = make_field(m, np.exp(1j * np.pi * m.coords), 0.1)
    assert len(factorizations) == 1  # the dt system, in the constructor
    factorizations.clear()
    full = dispersive_step(w, m, stepper, 0.01)
    short = dispersive_step(w, m, stepper, 0.004)
    assert np.array_equal(dispersive_step(w, m, stepper, 0.01).psi, full.psi)
    assert np.array_equal(stepper._dt_solve(w.psi), full.psi)
    assert len(factorizations) == 1  # the shortened step's
    assert not np.allclose(short.psi, full.psi)


# --- rounding amplification past the step-size bound ----------------------------
# Stepping is stable while Q = dt^2 * g * h_max * lambda_max / 4 <= 1, where
# lambda_max * dx^2 = 4 at degree 1 and 24 at degree 2; the dry-bed dam break
# has g = h_max = 1.


def _perturbation_growth(degree: int, dt_over_dx: float = 1.0) -> float:
    """Growth by t = 0.6 of a 1e-14 relative perturbation of psi0 on the
    dry-bed dam break at eps = 0.04 and dt = dt_over_dx * dx, in the relative
    discrete L2 norm."""
    from dataclasses import replace
    from swnls.app import builtin_scenario
    sc = replace(builtin_scenario("dam_break_dry"), eps=0.04)
    sc = replace(sc, discretization=replace(sc.discretization, degree=degree,
                                            dt=dt_over_dx * sc.dx))
    m = sc.build_mesh()
    b = sc.bathymetry_values(m.coords)
    stepper = Stepper(m, sc.g, sc.eps, sc.dt)
    w = sc.initial_field(m)
    noise = np.random.default_rng(0).standard_normal(m.num_nodes)
    p = w.copy_with(w.psi * (1.0 + 1e-14 * noise))

    def rel_diff():
        d = p.psi - w.psi
        return np.sqrt(norm_h(m, d) / norm_h(m, w.psi))

    start = rel_diff()
    for _ in range(round(0.6 / stepper.dt)):
        w = strang_step(w, b, None, stepper, stepper.dt)
        p = strang_step(p, b, None, stepper, stepper.dt)
    return rel_diff() / start


def test_rounding_perturbation_stays_small_at_degree_1():
    assert _perturbation_growth(1) < 1e3  # Q = 1; measured ~9x


@pytest.mark.xfail(strict=True, reason="dt = dx is past the step-size bound at degree 2 "
                   "(Q = dt^2*g*h_max*lambda_max/4 = 6), so stepping amplifies rounding "
                   "exponentially (measured ~7e5x by t = 0.6); see README 'Validity regime'")
def test_rounding_perturbation_stays_small_at_degree_2():
    assert _perturbation_growth(2) < 1e3


def test_rounding_perturbation_stays_small_at_degree_2_within_the_bound():
    assert _perturbation_growth(2, dt_over_dx=0.4) < 1e3  # Q = 0.96; measured ~3.3x
