"""Dispersive wave-function solver for the 1D shallow water equations.

Hydrodynamic variables are represented through a complex wave function
(h = |psi|^2, q = eps*Im(conj(psi)*psi_x)) and evolved with a Strang-split
spectral-element scheme; exact dispersionless solutions of the classical
benchmarks serve as references.
"""

from .diagnostics import EnergyReport, ErrorReport, convergence_order, energy, error_norm
from .exact import RiemannData, WaveStructure, classify, lake_at_rest_exact, sample, star_state, thacker_exact
from .madelung import HydroState, WaveField, init_riemann, init_softplus_surface, recover
from .mesh import GaussLobattoRule, Mesh1D, build_mesh, discrete_inner_product, gauss_lobatto
from .nls import RunResult, Stepper, dispersive_step, potential_half_step, run, strang_step

__version__ = "0.1.0"

__all__ = [
    "EnergyReport", "ErrorReport", "convergence_order", "energy", "error_norm",
    "RiemannData", "WaveStructure", "classify", "lake_at_rest_exact", "sample",
    "star_state", "thacker_exact",
    "HydroState", "WaveField", "init_riemann",
    "init_softplus_surface", "recover",
    "GaussLobattoRule", "Mesh1D", "build_mesh", "discrete_inner_product",
    "gauss_lobatto",
    "RunResult", "Stepper", "dispersive_step", "potential_half_step",
    "run", "strang_step",
    "__version__",
]
