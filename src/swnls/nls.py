"""Time integration of the dispersive wave equation.

Second-order Strang splitting: analytic nodal half-steps for the nonlinear
potential (with optional complex-absorbing-potential damping inside sponge
layers) around a Crank-Nicolson step for the linear dispersive part.  The
dispersive system matrix is constant per step size, so the one for the
regular step dt is factorized once per run and reused; the shortened step
before an output time gets a factorization of its own that is dropped after
that step.  An iterative MINRES path is available behind SolverConfig.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .madelung import WaveField, recover
from .mesh import Mesh1D

DIRECT = "direct"
ITERATIVE = "iterative"

_TIME_SNAP = 1e-12


@dataclass(eq=False)
class SpongeProfile:
    """Nodal damping coefficients sigma(x) plus the parameters that sized them.

    sigma vanishes on the interior |x| <= interior_half_width, ramps up with a
    quintic smoothstep over a layer of width ell and saturates at sigma_max.
    """

    sigma: np.ndarray
    ell: float
    sigma_max: float
    omega: float
    n_wavelengths: int
    reduction: float
    interior_half_width: float


@dataclass(eq=False)
class SolverConfig:
    """Physics constants and time-stepping parameters for one run."""

    g: float
    eps: float
    dt: float
    solver: str = DIRECT
    tol: float = 1e-10
    _dt_operator: Optional["_DispersiveOperator"] = field(default=None, repr=False)

    def __post_init__(self):
        if not self.g > 0.0:
            raise ValueError(f"g must be positive, got {self.g}")
        if not self.eps > 0.0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.solver not in (DIRECT, ITERATIVE):
            raise ValueError(f"unknown dispersive solver kind {self.solver!r}")
        if not 0.0 < self.tol <= 1e-6:
            raise ValueError(f"solver tolerance must lie in (0, 1e-6], got {self.tol}")

    def dispersive_operator(self, mesh: Mesh1D, tau: float) -> "_DispersiveOperator":
        """The Crank-Nicolson operator over tau on mesh.

        Only the operator for tau == dt is kept, for the last mesh it was
        asked for; it lives as long as this config.  Any other tau (the
        shortened step before an output time) is factorized for the caller
        and dropped with it.
        """
        if tau != self.dt:
            return _DispersiveOperator(mesh, self.eps, tau, self.solver, self.tol)
        op = self._dt_operator
        if op is None or op.mesh is not mesh:
            op = self._dt_operator = _DispersiveOperator(mesh, self.eps, tau,
                                                         self.solver, self.tol)
        return op


def sponge_params(eps: float, omega: float, n_wavelengths: int,
                  reduction: float = 1e-6) -> tuple[float, float]:
    """Layer width and peak damping for a target one-way amplitude reduction.

    ell spans n_wavelengths periods of the dominant outgoing carrier omega;
    sigma_max is sized so a wave crossing the layer is damped by `reduction`.
    """
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if omega == 0.0:
        raise ValueError("dominant outgoing wavenumber omega must be nonzero")
    if n_wavelengths < 1:
        raise ValueError(f"n_wavelengths must be >= 1, got {n_wavelengths}")
    if not 0.0 < reduction < 1.0:
        raise ValueError(f"reduction must lie in (0, 1), got {reduction}")
    ell = n_wavelengths * 2.0 * np.pi * eps / abs(omega)
    sigma_max = -(2.0 * eps * abs(omega) / ell) * np.log(reduction)
    return float(ell), float(sigma_max)


def build_sponge(mesh: Mesh1D, interior_half_width: float, ell: float,
                 sigma_max: float, omega: float = 0.0, n_wavelengths: int = 0,
                 reduction: float = 1e-6) -> SpongeProfile:
    """Nodal quintic-smoothstep damping profile on the mesh.

    The mesh must cover [-(L+ell), L+ell]; meshes padded slightly beyond
    (e.g. to a whole number of elements) keep sigma = sigma_max there.
    """
    L = float(interior_half_width)
    if not ell > 0.0:
        raise ValueError(f"sponge width ell must be positive, got {ell}")
    pad = 1e-9 * max(1.0, L + ell)
    if mesh.a > -(L + ell) + pad or mesh.b < (L + ell) - pad:
        raise ValueError(f"mesh [{mesh.a}, {mesh.b}] does not cover the sponge extent "
                         f"[-{L + ell}, {L + ell}]")
    s = np.clip((np.abs(mesh.coords) - L) / ell, 0.0, 1.0)
    sigma = sigma_max * s**3 * (6.0 * s * s - 15.0 * s + 10.0)
    sigma[np.abs(mesh.coords) <= L] = 0.0
    return SpongeProfile(sigma=sigma, ell=float(ell), sigma_max=float(sigma_max),
                         omega=float(omega), n_wavelengths=int(n_wavelengths),
                         reduction=float(reduction), interior_half_width=L)


def potential_half_step(wave: WaveField, b: np.ndarray,
                        sponge: Optional[SpongeProfile], cfg: SolverConfig,
                        tau: float) -> WaveField:
    """Exact nodal update of the potential subflow over tau.

    Phase rotation by g*(|psi|^2 + b)*tau/eps using the pre-update modulus
    (constant along the subflow), times the closed-form damping factor
    exp(-sigma*tau/eps) where a sponge is supplied.
    """
    psi = wave.psi
    phase = np.exp(-1j * (cfg.g / wave.eps) * (np.abs(psi) ** 2 + b) * tau)
    if sponge is not None:
        phase = phase * np.exp(-sponge.sigma * tau / wave.eps)
    return wave.copy_with(phase * psi)


class _DispersiveOperator:
    """Crank-Nicolson update for the linear dispersive subflow over a fixed tau.

    Solves [i*(eps/tau)*M - (eps^2/4)*K] psi' = [i*(eps/tau)*M + (eps^2/4)*K] psi.
    The direct path factorizes the (banded) system once; the iterative path
    runs MINRES on the equivalent symmetric real block form with a
    block-diagonal positive-definite preconditioner.
    """

    def __init__(self, mesh: Mesh1D, eps: float, tau: float, solver: str, tol: float):
        self.mesh = mesh
        self.tau = tau
        a = eps / tau
        c = 0.25 * eps * eps
        M = sparse.diags(mesh.mass)
        K = mesh.stiffness
        self._b_mat = ((1j * a) * M + c * K).tocsr()
        self._solver = solver
        self._tol = tol
        self._n = mesh.num_nodes
        if solver == DIRECT:
            A = ((1j * a) * M - c * K).tocsc()
            self._solve = spla.factorized(A)
        else:
            self._block = sparse.bmat([[-c * K, -a * M], [-a * M, c * K]]).tocsr()
            precond = spla.factorized((a * M + c * K).tocsc())
            n = self._n

            def apply_precond(v):
                return np.concatenate([precond(v[:n]), precond(v[n:])])

            self._precond = spla.LinearOperator((2 * n, 2 * n), matvec=apply_precond)

    def apply(self, psi: np.ndarray) -> np.ndarray:
        rhs = self._b_mat @ psi
        if self._solver == DIRECT:
            return self._solve(rhs)
        n = self._n
        rhs_block = np.concatenate([rhs.real, -rhs.imag])
        sol, info = spla.minres(self._block, rhs_block, rtol=self._tol,
                                maxiter=50 * n, M=self._precond)
        if info != 0:
            raise RuntimeError(f"MINRES failed to reach rtol={self._tol} "
                               f"(info={info}) in the dispersive step")
        return sol[:n] + 1j * sol[n:]


def dispersive_step(wave: WaveField, mesh: Mesh1D, cfg: SolverConfig,
                    tau: Optional[float] = None) -> WaveField:
    """One Crank-Nicolson step of the dispersive subflow over tau (default cfg.dt)."""
    tau = cfg.dt if tau is None else tau
    op = cfg.dispersive_operator(mesh, tau)
    return wave.copy_with(op.apply(wave.psi))


def strang_step(wave: WaveField, b: np.ndarray, sponge: Optional[SpongeProfile],
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

    scenario: object
    mesh: Mesh1D
    bathymetry: np.ndarray
    sponge: Optional[SpongeProfile]
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
    from .diagnostics import energy  # deferred import: diagnostics is a consumer otherwise

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
        energies.append(energy(wave, b, cfg.g))
    return RunResult(scenario=scenario, mesh=mesh, bathymetry=b, sponge=sponge,
                     snapshots=snapshots, energies=energies, steps_taken=steps)
