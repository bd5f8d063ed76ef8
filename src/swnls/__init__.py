"""Dispersive wave-function solver for the 1D shallow water equations.

Hydrodynamic variables are represented through a complex wave function
(h = |psi|^2, q = eps*Im(conj(psi)*psi_x)) and evolved with a Strang-split
spectral-element scheme; exact dispersionless solutions of the classical
benchmarks serve as references.
"""

__version__ = "0.1.0"
