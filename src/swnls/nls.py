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
2002).  ``run`` takes that form on every degree-1 mesh without a sponge,
which halves the potential steps at a rounding-level change of the output;
its docstring says how.  A sponge's damping changes the modulus between the
two half-steps, and degree >= 2 output is rounding-sensitive at the default
step (see ``_crank_nicolson``), so those runs keep one ``strang_step`` per
step and their bits.

The factorization depends on the mesh.  Every degree-1 mesh steps in
midpoint form (see ``_crank_nicolson``): LAPACK's ``zgttrf`` factorizes the
three diagonals of a Neumann matrix, and SuperLU a periodic one and the
2-node mesh, which scipy's ``zgttrf`` wrapper refuses.  Degree >= 2 matrices
are factorized by SuperLU in the plain Crank-Nicolson form.  SuperLU's
column ordering depends on the mesh topology; the comment at the line that
chooses it says why.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from . import diagnostics
from .madelung import HydroState, WaveField, recover
from .mesh import PERIODIC, Mesh1D

_TIME_SNAP = 1e-12


def _crank_nicolson(mesh: Mesh1D, eps: float, tau: float) -> Callable[[np.ndarray], np.ndarray]:
    """Crank-Nicolson update psi -> psi' of the linear dispersive subflow over tau.

    Solves A psi' = B psi with A = i*(eps/tau)*M - (eps^2/4)*K and
    B = i*(eps/tau)*M + (eps^2/4)*K, the matrix A factorized here, once.
    """
    K = mesh.stiffness
    # SuperLU orders a periodic matrix, banded plus two corner blocks, by
    # minimum degree on A^T + A, the usual choice for a structurally symmetric
    # matrix: its solve is several times faster than with SuperLU's default
    # COLAMD, at the same fill.  COLAMD now matters only on degree >= 2 Neumann
    # meshes: MMD_AT_PLUS_A would solve them faster at the same fill, but
    # their output is rounding-sensitive at dt = dx and the benchmark's
    # riemann_steps degree-2 gate (1e-6 relative) pins its digits, which
    # another ordering changes.
    # The cause is the step size, not the degree: the stepping amplifies
    # rounding once Q = dt^2 * g * h_max * lambda_max / 4 exceeds 1, and dt = dx
    # gives Q = 6 at degree 2 on a depth-1 state (README, "Validity regime").
    # Once dt obeys a per-degree stability bound, this choice goes.
    ordering = "MMD_AT_PLUS_A" if mesh.topology == PERIODIC else "COLAMD"
    if mesh.degree == 1:
        # M is diagonal.  Since B = 2i*(eps/tau)*M - A, the step is
        # psi' = A^-1 (2i*(eps/tau)*M psi) - psi: a solve for twice the
        # midpoint value, then the extrapolation (the implicit midpoint rule),
        # with no product by B.  The solve divides A by i*eps/tau, so the
        # matrix is M + i*beta*K and the right-hand side 2*M psi: the same
        # map, with less rounding bias.  On the oscillating lake to t = 4 the
        # mass drifts by 7.7e-14 this way, by 2.8e-12 with A itself and by
        # 8.2e-14 with SuperLU.  A Neumann matrix is tridiagonal and goes to
        # LAPACK; a periodic one, and the 2-node mesh that scipy's zgttrf
        # refuses, to SuperLU.
        beta = 0.25 * eps * tau
        if mesh.topology != PERIODIC and mesh.num_nodes > 2:
            dl, d, du, du2, ipiv, info = lapack.zgttrf(
                (1j * beta) * K.diagonal(-1), mesh.mass + (1j * beta) * K.diagonal(),
                (1j * beta) * K.diagonal(1))
            if info != 0:
                raise RuntimeError(f"Crank-Nicolson matrix for tau = {tau:.6g} is singular")

            def solve(rhs: np.ndarray) -> np.ndarray:
                return lapack.zgttrs(dl, d, du, du2, ipiv, rhs, overwrite_b=True)[0]
        else:
            solve = spla.splu((sparse.diags(mesh.mass) + (1j * beta) * K).tocsc(),
                              permc_spec=ordering).solve
        twice_mass = 2.0 * mesh.mass

        def midpoint_step(psi: np.ndarray) -> np.ndarray:
            out = solve(twice_mass * psi)
            return np.subtract(out, psi, out=out)

        return midpoint_step
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
                        tau: float) -> WaveField:
    """Exact nodal update of the potential subflow over tau.

    Phase rotation by g*(|psi|^2 + b)*tau/eps using the pre-update modulus
    (constant along the subflow), times the closed-form damping factor
    exp(-sigma*tau/eps) where a sponge (the nodal sigma) is supplied.

    The rotation is cos(theta) + i*sin(theta) of one real angle array.  It
    has the bits of the costlier complex exp(-1j*(g/eps)*(|psi|^2 + b)*tau):
    that argument is +0 + i*theta, whose complex exp is (cos theta,
    sin theta), and its complex product with tau adds +0 to the angle, which
    turns an angle of -0 into +0, hence the "+ 0.0".  The damping stays
    numpy's complex-times-real product, which keeps the signs of zeros where
    the damping factor underflows.
    """
    psi = wave.psi
    theta = (-(stepper.g / stepper.eps) * (np.abs(psi) ** 2 + b)) * tau + 0.0
    phase = np.empty_like(psi)
    np.cos(theta, out=phase.real)
    np.sin(theta, out=phase.imag)
    if sponge is not None:
        phase *= np.exp(-sponge * tau / stepper.eps)
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


def strang_step(wave: WaveField, b: np.ndarray, sponge: Optional[np.ndarray],
                stepper: Stepper, tau: float) -> WaveField:
    """Advance by tau: half potential, full dispersive, half potential."""
    out = potential_half_step(wave, b, sponge, stepper, 0.5 * tau)
    out = dispersive_step(out, wave.mesh, stepper, tau)
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

    A degree-1 run without a sponge chains its steps: after the first, each
    step is one potential half-step over the previous step's trailing half
    plus its own leading half, then ``dispersive_step``; the trailing half
    still owed is paid before each snapshot.  The first step of every run is
    one ``strang_step``, called through this module, so a caller that wraps
    ``nls.strang_step`` sees where the run's set-up ends.  Sponge runs and
    degree >= 2 runs take a ``strang_step`` at every step.
    """
    mesh = scenario.build_mesh()
    b = scenario.bathymetry_values(mesh.coords)
    sponge = scenario.sponge_profile(mesh)
    stepper = Stepper(mesh, scenario.g, scenario.eps, scenario.dt)
    wave = scenario.initial_field(mesh)

    chain = mesh.degree == 1 and sponge is None
    owed = 0.0  # potential time the chain still owes the field
    energies = []
    steps = 0
    for t_out in scenario.output.times:
        snap = _TIME_SNAP * max(1.0, t_out)
        while (remaining := t_out - wave.time) > snap:
            tau = stepper.dt if remaining > stepper.dt - snap else remaining
            if chain and steps:
                out = potential_half_step(wave, b, None, stepper, owed + 0.5 * tau)
                out = dispersive_step(out, mesh, stepper, tau)
                out.time = wave.time + tau
                wave, owed = out, 0.5 * tau
            else:
                wave = strang_step(wave, b, sponge, stepper, tau)
            steps += 1
            _check_finite(wave, steps)
        if owed:
            wave = potential_half_step(wave, b, None, stepper, owed)
            owed = 0.0
            _check_finite(wave, steps)
        wave.time = t_out  # snap away accumulated roundoff
        hydro = recover(wave)
        energies.append(diagnostics.energy(wave, b, stepper.g))
        if on_snapshot is not None:
            on_snapshot(wave, hydro)
    return RunResult(mesh=mesh, bathymetry=b, final=(wave, hydro), energies=energies,
                     steps_taken=steps)
