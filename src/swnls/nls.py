"""Time integration of the dispersive wave equation.

Second-order Strang splitting: analytic nodal half-steps for the nonlinear
potential (with optional complex-absorbing-potential damping inside sponge
layers) around a Crank-Nicolson step for the linear dispersive part.  A
potential half-step rotates psi by the real cosine and sine of one angle
array, which give the same bits as the complex exponential of i times that
angle for less work (see ``potential_half_step``).  The
dispersive system matrix is constant per step size.  ``run`` builds one
``Stepper`` per run, which factorizes the matrix for the regular step dt when
it is made and keeps that factorization as long as it lives; the shortened
step before an output time is factorized by ``dispersive_step`` for that step
only.  ``run`` hands each output time's snapshot to the caller as it reaches
it and keeps only the last, so a run's memory does not grow with the number
of output times.

Repeating the Strang step n times gives P/2 D (P D)^(n-1) P/2, where P is the
potential flow and D the dispersive one: the potential flow is a rotation
that keeps |psi|, so the two half-steps that meet between two steps are one
rotation over their summed duration (McLachlan & Quispel, Acta Numerica 11,
2002).  A sponge's damping shrinks the modulus between them, and the merged
half-step accounts for that exactly (see ``potential_half_step``).  ``run``
takes that form on every degree-1 mesh, which halves the potential steps at a
rounding-level change of the output; its docstring says how.

A degree-1 mesh, Neumann or periodic, also steps in midpoint form (see
``_MidpointStep``): its complex symmetric matrix is factorized as L D L^T by
LAPACK's ``zgttrf`` and solved with no division by two BLAS ``ztbsv``
sweeps, a periodic matrix's corners by a Sherman-Morrison correction, all
three routines called through ``lapack`` with no scipy.  Degree >= 2 runs
take full Strang steps, factorized by SuperLU in the plain Crank-Nicolson
form, the only place ``scipy.sparse`` and SuperLU are imported: their output
at the default step amplifies any change to the order of the arithmetic far
past rounding (README, "Validity regime"), and the benchmark's degree-2 gate
pins its digits.  Both forks test ``mesh.degree == 1`` for that reason.
SuperLU's column ordering depends on the mesh topology; the comment at the
line that chooses it says why.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import diagnostics, lapack
from .madelung import HydroState, WaveField, recover
from .mesh import PERIODIC, Mesh1D

_TIME_SNAP = 1e-12


class _MidpointStep:
    """Crank-Nicolson step psi -> psi' = (M + i*beta*K)^-1 (2*M psi) - psi on a
    degree-1 mesh, its matrix factorized here, once, and solved with no
    division.

    M is diagonal, so ``_crank_nicolson``'s B is 2i*(eps/tau)*M - A: A^-1 B psi
    is a solve for twice the midpoint value, then the extrapolation, with no
    product by B.  Dividing A by i*eps/tau keeps the map and cuts the rounding
    bias: on the oscillating lake to t = 4 the mass drifted by 7.7e-14 so,
    against 2.8e-12 with A itself (unchained, on LAPACK's zgttrs).

    The matrix is complex symmetric, and it factors as L D L^T with no
    pivoting: by induction every pivot keeps Im d_i >= beta/h, the CABS1 of
    the off-diagonal, so LAPACK's zgttrf interchanges no row (Higham, Math.
    Comp. 67, 1998, shows the same for positive definite real and imaginary
    parts); a factorization that did is refused all the same.  zgttrf
    returns the multipliers l_i of L, and because du/d = dl for a symmetric
    matrix, the unit upper factor D^-1 U = L^T has the same l_i.  One
    interleaved buffer [., 1, l_0, 1, l_1, ..., 1, .] holds both unit
    bidiagonals in BLAS band storage: its slices [1:] and [:-1], read as
    (2, n) in Fortran order, are the lower and the upper band.  A solve is
    two BLAS ztbsv sweeps around a product by the reciprocal pivots, in one
    right-hand-side buffer the step owns, through calls bound to it once
    (``lapack.Library.bind``); only the closing subtraction makes new memory.

    A periodic matrix is this tridiagonal T plus two corners c.  With the
    shift gamma = -d_0, it is T' + u v^T for u = (gamma, 0, ..., 0, c) and
    v = (1, 0, ..., 0, c/gamma), T' being T with d_0 - gamma and
    d_{n-1} - c^2/gamma; Sherman-Morrison then gives y = T'^-1 r - z (v^T
    T'^-1 r) / (1 + v^T z) with z = T'^-1 u (Numerical Recipes, section 2.7,
    cyclic tridiagonal systems), exactly so at n = 2 too, where c adds to the
    off-diagonal entry.  z decays geometrically from both ends of the mesh,
    and its parts below the smallest normal float are set to 0: at 8000 nodes
    3566 of its entries have a subnormal part, and the update y -= s*z (BLAS
    zaxpy) took 154 us with them and 3.9 us without, on a 2-vCPU x86-64 host.
    """

    def __init__(self, mesh: Mesh1D, beta: float):
        diagonal, off, corner = mesh.stiffness_bands()
        d = mesh.mass + (1j * beta) * diagonal
        off = (1j * beta) * off
        n = d.size
        periodic = mesh.topology == PERIODIC
        if periodic:
            corner = (1j * beta) * corner
            gamma = -d[0]
            d[0] -= gamma
            d[-1] -= corner * corner / gamma
        library = lapack.LIBRARY
        ipiv, info = library.zgttrf(off, d, off.copy())
        if info != 0:
            raise RuntimeError(f"Crank-Nicolson matrix M + i*beta*K for beta = {beta:.6g} "
                               "is singular")
        if np.any(ipiv != np.arange(1, n + 1)):
            raise RuntimeError(f"Crank-Nicolson matrix M + i*beta*K for beta = {beta:.6g}: zgttrf "
                               "interchanged rows of a matrix that needs no pivoting")
        band = np.ones(2 * n + 1, dtype=complex)
        band[2:-1:2] = off
        self._inv_d = np.divide(1.0, d, out=d)
        self._twice_mass = 2.0 * mesh.mass
        self._rhs = np.empty(n, dtype=complex)
        self._lower_sweep, self._upper_sweep = (
            library.bind(library.ztbsv, uplo, b"N", b"U", n, 1, part.reshape((2, n), order="F"),
                         2, self._rhs, 1)
            for uplo, part in ((b"L", band[1:]), (b"U", band[:-1])))
        self.z = None
        if periodic:
            self._rhs[:] = 0.0
            self._rhs[0], self._rhs[-1] = gamma, corner
            self._solve()
            z = self._rhs.copy()
            parts = z.view(np.float64)
            parts[np.abs(parts) < np.finfo(np.float64).tiny] = 0.0
            self.z = z
            self._v = corner / gamma
            self._inv_denominator = 1.0 / (1.0 + z[0] + self._v * z[-1])
            self._minus_scale = np.zeros(1, dtype=complex)
            self._correct = library.bind(library.zaxpy, n, self._minus_scale, z, 1, self._rhs, 1)

    def _solve(self) -> None:
        """The factorized tridiagonal matrix's inverse times the buffer, in its memory."""
        self._lower_sweep()
        self._rhs *= self._inv_d
        self._upper_sweep()

    def __call__(self, psi: np.ndarray) -> np.ndarray:
        """psi', in new memory."""
        y = np.multiply(self._twice_mass, psi, out=self._rhs)
        self._solve()
        if self.z is not None:
            self._minus_scale[0] = -((y[0] + self._v * y[-1]) * self._inv_denominator)
            self._correct()
        return np.subtract(y, psi)


def _crank_nicolson(mesh: Mesh1D, eps: float, tau: float) -> Callable[[np.ndarray], np.ndarray]:
    """Crank-Nicolson update psi -> psi' of the linear dispersive subflow over tau.

    Solves A psi' = B psi with A = i*(eps/tau)*M - (eps^2/4)*K and
    B = i*(eps/tau)*M + (eps^2/4)*K, factorized here, once (see ``_MidpointStep``).
    """
    if mesh.degree == 1:  # the module docstring says why the degree decides
        return _MidpointStep(mesh, 0.25 * eps * tau)
    import scipy.sparse as sparse
    import scipy.sparse.linalg as spla

    K = mesh.stiffness
    # SuperLU orders a periodic matrix, banded plus two corner blocks, by
    # minimum degree on A^T + A, the usual choice for a structurally symmetric
    # matrix: its solve is several times faster than with SuperLU's default
    # COLAMD, at the same fill.  COLAMD matters on Neumann meshes:
    # MMD_AT_PLUS_A would solve them faster at the same fill, but their output
    # is rounding-sensitive at dt = dx and the benchmark's riemann_steps
    # degree-2 gate (1e-6 relative) pins its digits, which another ordering
    # changes.
    # The cause is the step size, not the degree: the stepping amplifies
    # rounding once Q = dt^2 * g * h_max * lambda_max / 4 exceeds 1, and dt = dx
    # gives Q = 6 at degree 2 on a depth-1 state (README, "Validity regime").
    # Once dt obeys a per-degree stability bound, this choice goes.
    ordering = "MMD_AT_PLUS_A" if mesh.topology == PERIODIC else "COLAMD"
    a = eps / tau
    c = 0.25 * eps * eps
    M = sparse.diags(mesh.mass)
    b_mat = ((1j * a) * M + c * K).tocsr()
    solve = spla.splu(((1j * a) * M - c * K).tocsc(), permc_spec=ordering).solve
    return lambda psi: solve(b_mat @ psi)


class Stepper:
    """One run's time stepping: the mesh, g, eps, the regular step dt and the
    Crank-Nicolson factorization for dt, made here and kept as long as the
    stepper lives."""

    def __init__(self, mesh: Mesh1D, g: float, eps: float, dt: float):
        if not g > 0.0:
            raise ValueError(f"g must be positive, got {g}")
        if not eps > 0.0:
            raise ValueError(f"eps must be positive, got {eps}")
        if not dt > 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.mesh = mesh
        self.g = g
        self.eps = eps
        self.dt = dt
        self._dt_solve = _crank_nicolson(mesh, eps, dt)


def potential_half_step(wave: WaveField, b: np.ndarray,
                        sponge: Optional[np.ndarray], stepper: Stepper,
                        tau: float, owed: float = 0.0) -> WaveField:
    """Exact nodal update of the potential subflow over tau, after the ``owed``
    potential time an earlier step deferred.

    Phase rotation by g*(|psi|^2 + b)*(owed + tau)/eps using the pre-update
    modulus (constant along the subflow), times the closed-form damping factor
    exp(-sigma*(owed + tau)/eps) where a sponge (the nodal sigma) is supplied.
    The two half-steps over owed and tau compose exactly into this one map:
    with a sponge, the owed half-step's damping exp(-2*sigma*owed/eps) shrinks
    |psi|^2 over the second interval, so the rotation uses |psi|^2 averaged
    over the two.  Without a sponge, or with nothing owed, the arithmetic is
    that of one half-step over tau (0.0 + tau is exact).

    The rotation is cos(theta) + i*sin(theta) of one real angle array.  It
    has the bits of the costlier complex exp(-1j*(g/eps)*(|psi|^2 + b)*tau):
    that argument is +0 + i*theta, whose complex exp is (cos theta,
    sin theta), and its complex product with tau adds +0 to the angle, which
    turns an angle of -0 into +0, hence the "+ 0.0".  The damping stays
    numpy's complex-times-real product, which keeps the signs of zeros where
    the damping factor underflows.
    """
    psi = wave.psi
    rho = np.abs(psi) ** 2
    span = owed + tau
    if sponge is not None and owed:
        rho *= (owed + np.exp(-2.0 * sponge * owed / stepper.eps) * tau) / span
    theta = (-(stepper.g / stepper.eps) * (rho + b)) * span + 0.0
    phase = np.empty_like(psi)
    np.cos(theta, out=phase.real)
    np.sin(theta, out=phase.imag)
    if sponge is not None:
        phase *= np.exp(-sponge * span / stepper.eps)
    return wave.copy_with(phase * psi)


def dispersive_step(wave: WaveField, mesh: Mesh1D, stepper: Stepper,
                    tau: float) -> WaveField:
    """One Crank-Nicolson step of the dispersive subflow over tau on the
    stepper's mesh, with the stepper's factorization when tau is its dt; any
    other tau is factorized for this call only."""
    if mesh is not stepper.mesh:
        raise ValueError("dispersive_step: the mesh is not the one the stepper was made for")
    solve = stepper._dt_solve if tau == stepper.dt else _crank_nicolson(mesh, stepper.eps, tau)
    return wave.copy_with(solve(wave.psi))


def strang_step(wave: WaveField, b: np.ndarray, sponge: Optional[np.ndarray], stepper: Stepper,
                tau: float, *, owed: float = 0.0, defer: bool = False) -> WaveField:
    """Advance by tau: half potential, full dispersive, half potential.

    The leading half-step also pays the ``owed`` potential time an earlier
    step deferred; with ``defer`` the closing half-step is left owed, not
    applied, and the field returned is ``tau/2`` of potential flow short.
    """
    out = potential_half_step(wave, b, sponge, stepper, 0.5 * tau, owed=owed)
    out = dispersive_step(out, wave.mesh, stepper, tau)
    if not defer:
        out = potential_half_step(out, b, sponge, stepper, 0.5 * tau)
    out.time = wave.time + tau
    return out


def _check_finite(wave: WaveField, steps: int) -> None:
    if not np.isfinite(wave.psi.view(np.float64)).all():
        raise RuntimeError(f"non-finite wave function after step {steps} "
                           f"(t = {wave.time:.6g})")


@dataclass(eq=False)
class RunResult:
    """The last snapshot plus per-snapshot diagnostics of a completed run."""

    mesh: Mesh1D
    bathymetry: np.ndarray
    final: tuple     # (WaveField, HydroState) at the last requested time
    energies: list   # EnergyReport per snapshot
    steps_taken: int


def run(scenario,
        on_snapshot: Optional[Callable[[WaveField, HydroState], None]] = None) -> RunResult:
    """Run a scenario to each requested output time.

    The scenario provides the setup (see app.Scenario): mesh construction,
    nodal bathymetry, the initial wave field, an optional sponge profile, and
    g, eps and the step dt, from which one Stepper is made for the run.  The
    step before each output time is shortened so snapshots land exactly on
    the requested times; a remainder within roundoff of dt is a full step,
    not a shortened one with a factorization of its own.

    Each snapshot (wave, hydro) goes to ``on_snapshot`` as soon as the run
    reaches its time, in order; only the last is kept, on the result.

    Every step is one ``strang_step``, called through this module.  A
    degree-1 run chains its steps: each defers its closing potential
    half-step, which the next step's leading half-step pays, so the two
    merge into one, and the half-step still owed is paid before each
    snapshot.  Degree >= 2 runs take full Strang steps; the module docstring
    says why.
    """
    mesh = scenario.build_mesh()
    b = scenario.bathymetry_values(mesh.coords)
    sponge = scenario.sponge_profile(mesh)
    stepper = Stepper(mesh, scenario.g, scenario.eps, scenario.dt)
    wave = scenario.initial_field(mesh)

    chain = mesh.degree == 1
    owed = 0.0  # potential time the chain still owes the field
    energies = []
    steps = 0
    for t_out in scenario.output.times:
        snap = _TIME_SNAP * max(1.0, t_out)
        while (remaining := t_out - wave.time) > snap:
            tau = stepper.dt if remaining > stepper.dt - snap else remaining
            wave = strang_step(wave, b, sponge, stepper, tau, owed=owed, defer=chain)
            owed = 0.5 * tau if chain else 0.0
            steps += 1
            _check_finite(wave, steps)
        if owed:
            wave = potential_half_step(wave, b, sponge, stepper, owed)
            owed = 0.0
            _check_finite(wave, steps)
        wave.time = t_out  # snap away accumulated roundoff
        hydro = recover(wave)
        energies.append(diagnostics.energy(wave, b, stepper.g))
        if on_snapshot is not None:
            on_snapshot(wave, hydro)
    return RunResult(mesh=mesh, bathymetry=b, final=(wave, hydro), energies=energies,
                     steps_taken=steps)
