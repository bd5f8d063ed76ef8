"""Time integration of the dispersive wave equation.

Second-order Strang splitting: analytic nodal half-steps for the nonlinear
potential (with optional complex-absorbing-potential damping inside sponge
layers) around a Crank-Nicolson step for the linear dispersive part.  The
dispersive system matrix is constant per step size, so the one for the
regular step dt is factorized once per run and reused; the shortened step
before an output time gets a factorization of its own that is dropped after
that step.  In 1D the banded system always has a sparse LU factorization, so
that is the only solver.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from . import diagnostics
from .madelung import WaveField, recover
from .mesh import Mesh1D

_TIME_SNAP = 1e-12


@dataclass(eq=False)
class SolverConfig:
    """Physics constants and time-stepping parameters for one run."""

    g: float
    eps: float
    dt: float
    _dt_operator: Optional["_DispersiveOperator"] = field(default=None, repr=False)

    def __post_init__(self):
        if not self.g > 0.0:
            raise ValueError(f"g must be positive, got {self.g}")
        if not self.eps > 0.0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")

    def dispersive_operator(self, mesh: Mesh1D, tau: float) -> "_DispersiveOperator":
        """The Crank-Nicolson operator over tau on mesh.

        Only the operator for tau == dt is kept, for the last mesh it was
        asked for; it lives as long as this config.  Any other tau (the
        shortened step before an output time) is factorized for the caller
        and dropped with it.
        """
        if tau != self.dt:
            return _DispersiveOperator(mesh, self.eps, tau)
        op = self._dt_operator
        if op is None or op.mesh is not mesh:
            op = self._dt_operator = _DispersiveOperator(mesh, self.eps, tau)
        return op


def potential_half_step(wave: WaveField, b: np.ndarray,
                        sponge: Optional[np.ndarray], cfg: SolverConfig,
                        tau: float) -> WaveField:
    """Exact nodal update of the potential subflow over tau.

    Phase rotation by g*(|psi|^2 + b)*tau/eps using the pre-update modulus
    (constant along the subflow), times the closed-form damping factor
    exp(-sigma*tau/eps) where a sponge (the nodal sigma) is supplied.
    """
    psi = wave.psi
    phase = np.exp(-1j * (cfg.g / wave.eps) * (np.abs(psi) ** 2 + b) * tau)
    if sponge is not None:
        phase = phase * np.exp(-sponge * tau / wave.eps)
    return wave.copy_with(phase * psi)


class _DispersiveOperator:
    """Crank-Nicolson update for the linear dispersive subflow over a fixed tau.

    Solves [i*(eps/tau)*M - (eps^2/4)*K] psi' = [i*(eps/tau)*M + (eps^2/4)*K] psi
    with the (banded) system matrix factorized once.
    """

    def __init__(self, mesh: Mesh1D, eps: float, tau: float):
        self.mesh = mesh
        self.tau = tau
        a = eps / tau
        c = 0.25 * eps * eps
        M = sparse.diags(mesh.mass)
        K = mesh.stiffness
        self._b_mat = ((1j * a) * M + c * K).tocsr()
        self._solve = spla.factorized(((1j * a) * M - c * K).tocsc())

    def apply(self, psi: np.ndarray) -> np.ndarray:
        return self._solve(self._b_mat @ psi)


def dispersive_step(wave: WaveField, mesh: Mesh1D, cfg: SolverConfig,
                    tau: Optional[float] = None) -> WaveField:
    """One Crank-Nicolson step of the dispersive subflow over tau (default cfg.dt)."""
    tau = cfg.dt if tau is None else tau
    op = cfg.dispersive_operator(mesh, tau)
    return wave.copy_with(op.apply(wave.psi))


def strang_step(wave: WaveField, b: np.ndarray, sponge: Optional[np.ndarray],
                cfg: SolverConfig, tau: Optional[float] = None) -> WaveField:
    """Advance by tau (default cfg.dt): half potential, full dispersive,
    half potential."""
    tau = cfg.dt if tau is None else tau
    out = potential_half_step(wave, b, sponge, cfg, 0.5 * tau)
    out = dispersive_step(out, wave.mesh, cfg, tau)
    out = potential_half_step(out, b, sponge, cfg, 0.5 * tau)
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
    nodal bathymetry, the initial wave field, an optional sponge profile and
    the solver configuration.  The step before each output time is shortened
    so snapshots land exactly on the requested times.
    """
    mesh = scenario.build_mesh()
    b = scenario.bathymetry_values(mesh.coords)
    sponge = scenario.sponge_profile(mesh)
    cfg = scenario.solver_config()
    wave = scenario.initial_field(mesh)

    times = list(scenario.output.times)
    snapshots = []
    energies = []
    steps = 0
    for t_out in times:
        while t_out - wave.time > _TIME_SNAP * max(1.0, t_out):
            tau = min(cfg.dt, t_out - wave.time)
            wave = strang_step(wave, b, sponge, cfg, tau)
            steps += 1
            if not np.all(np.isfinite(wave.psi)):
                raise RuntimeError(f"non-finite wave function after step {steps} "
                                   f"(t = {wave.time:.6g})")
        wave.time = t_out  # snap away accumulated roundoff
        snapshots.append((wave, recover(wave)))
        energies.append(diagnostics.energy(wave, b, cfg.g))
    return RunResult(mesh=mesh, bathymetry=b, snapshots=snapshots, energies=energies,
                     steps_taken=steps)
