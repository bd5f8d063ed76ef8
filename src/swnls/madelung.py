"""Wave-function initialization and hydrodynamic recovery.

The complex field psi encodes water height and velocity through
h = |psi|^2 and q = eps * Im(conj(psi) * psi_x).  Initialization recipes
build psi = sqrt(h0) * exp(i*phi0/eps) from smooth regularizations of the
target hydrodynamic data; recovery inverts the map at the mesh nodes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Mesh1D, nodal_derivative


@dataclass(eq=False)
class WaveField:
    """Complex nodal wave function on a mesh, with the dispersion parameter
    eps attached."""

    mesh: Mesh1D
    psi: np.ndarray
    eps: float
    time: float = 0.0

    def copy_with(self, psi: np.ndarray) -> "WaveField":
        return WaveField(self.mesh, psi, self.eps, self.time)


@dataclass(eq=False)
class HydroState:
    """Water height h, discharge q and velocity u recovered at the nodes.

    u is q/h where the height is meaningfully positive (h > eps^2) and 0
    elsewhere; h and q themselves are reported raw.
    """

    mesh: Mesh1D
    h: np.ndarray
    q: np.ndarray
    u: np.ndarray
    time: float = 0.0


def riemann_height_profile(x: np.ndarray, h_left: float, h_right: float,
                           delta: float) -> np.ndarray:
    """Smoothed two-state height: mean plus a tanh transition of width delta."""
    return 0.5 * (h_left + h_right) + 0.5 * (h_right - h_left) * np.tanh(x / delta)


def riemann_phase_profile(x: np.ndarray, u_left: float, u_right: float,
                          delta: float) -> np.ndarray:
    """Velocity potential whose derivative is the tanh-smoothed two-state
    velocity; closed form with an absolute-value kink that the log term makes C1."""
    ax = np.abs(x)
    return (0.5 * (u_right + u_left) * x
            + 0.5 * (u_right - u_left) * delta * (ax / delta + np.log1p(np.exp(-2.0 * ax / delta))))


def init_riemann(mesh: Mesh1D, h_left: float, u_left: float, h_right: float,
                 u_right: float, delta: float, eps: float) -> WaveField:
    """Wave function for two-state Riemann data smoothed over delta:
    sqrt(h0) * exp(i*phi0/eps)."""
    if h_left < 0.0 or h_right < 0.0:
        raise ValueError(f"negative height in Riemann data: h_left={h_left}, "
                         f"h_right={h_right}")
    if not delta > 0.0:
        raise ValueError(f"smoothing width delta must be positive, got {delta}")
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    x = mesh.coords
    h0 = riemann_height_profile(x, h_left, h_right, delta)
    phi0 = riemann_phase_profile(x, u_left, u_right, delta)
    psi = np.sqrt(h0) * np.exp(1j * phi0 / eps)
    return WaveField(mesh, psi, float(eps), 0.0)


def softplus_depth(surface_minus_bed: np.ndarray, delta: float) -> np.ndarray:
    """delta * log(1 + exp(z/delta)), evaluated overflow-safely.

    Positive for every argument, tends to the argument from above for large
    positive values and to 0+ for large negative ones.
    """
    z = np.asarray(surface_minus_bed, dtype=float) / delta
    return delta * (np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))))


def init_softplus_surface(mesh: Mesh1D, depth: np.ndarray, delta: float,
                          eps: float) -> WaveField:
    """Real wave function sqrt(h0) from the nodal depth surface - bed, negative
    where the bed is dry, with h0 its softplus regularization over delta."""
    if not delta > 0.0:
        raise ValueError(f"smoothing width delta must be positive, got {delta}")
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    psi = np.sqrt(softplus_depth(depth, delta)).astype(complex)
    return WaveField(mesh, psi, float(eps), 0.0)


def recover(wave: WaveField) -> HydroState:
    """Recover height and discharge from the wave function.

    h = |psi|^2 nodewise; q = eps * Im(conj(psi) * psi_x) with the element
    derivative averaged at shared element-boundary nodes.
    """
    psi = wave.psi
    h = np.abs(psi) ** 2
    dpsi = nodal_derivative(wave.mesh, psi)
    q = wave.eps * np.imag(np.conj(psi) * dpsi)
    wet = h > wave.eps ** 2
    u = np.where(wet, q / np.where(wet, h, 1.0), 0.0)
    return HydroState(wave.mesh, h, q, u, wave.time)
