"""Conserved-quantity monitors and error measurement.

Energy is evaluated on the wave-function side (gradient form), which stays
well defined in vacuum; besides the total it reports the potential part and
the height-gradient (Fisher) part from |psi|, and no kinetic split.  Error
norms are restricted to whole elements inside the requested window so that
weighted norms equal the restricted quadrature.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .madelung import HydroState, WaveField
from .mesh import element_derivatives

L1 = "L1"
L2 = "L2"
LINF = "Linf"

HEIGHT = "height"
DISCHARGE = "discharge"
SURFACE = "surface"


@dataclass(frozen=True)
class EnergyReport:
    """Total energy, two of its parts and total discrete mass of a wave field."""

    potential: float
    fisher: float
    total: float
    mass: float


class ErrorReport(NamedTuple):
    """A windowed norm."""

    value: float


def energy(wave: WaveField, b: np.ndarray, g: float) -> EnergyReport:
    """Total energy (eps^2/2)|psi_x|^2 + (g/2)|psi|^4 + g*b*|psi|^2, its
    potential part and its Fisher part (eps^2/2)|(|psi|)_x|^2.

    The gradient and Fisher terms are summed elementwise as nonnegative
    quadrature contributions.
    """
    mesh = wave.mesh
    eps = wave.eps
    h = np.abs(wave.psi) ** 2

    dpsi = element_derivatives(mesh, wave.psi)
    gradient = 0.5 * eps * eps * float(np.sum(mesh.weights * np.abs(dpsi) ** 2))
    droot = element_derivatives(mesh, np.abs(wave.psi))
    fisher = 0.5 * eps * eps * float(np.sum(mesh.weights * droot ** 2))

    potential = float(np.sum(mesh.mass * (0.5 * g * h * h + g * np.asarray(b) * h)))
    total = gradient + potential
    mass = float(np.sum(mesh.mass * h))
    return EnergyReport(potential=potential, fisher=fisher, total=total, mass=mass)


def _window_elements(mesh, lo: float, hi: float) -> np.ndarray:
    """Indices of elements fully contained in [lo, hi]; element e spans
    [a + e*h, a + (e+1)*h], h the element length."""
    if not hi > lo:
        raise ValueError(f"empty window [{lo}, {hi}]")
    pad = 1e-9 * max(1.0, mesh.b - mesh.a)
    if lo < mesh.a - pad or hi > mesh.b + pad:
        raise ValueError(f"window [{lo}, {hi}] outside domain [{mesh.a}, {mesh.b}]")
    h = mesh.element_length
    tol = 1e-9 * h
    edges = mesh.a + np.arange(mesh.num_elements + 1) * h
    inside = np.flatnonzero((edges[:-1] >= lo - tol) & (edges[1:] <= hi + tol))
    if inside.size == 0:
        raise ValueError(f"window [{lo}, {hi}] contains no whole element")
    return inside


def windowed_norm(mesh, diff: np.ndarray, window: tuple[float, float],
                  kind: str = L1) -> ErrorReport:
    """Quadrature-weighted norm of a nodal field over the window.

    L1 and L2 weight nodal values with the element quadrature (the restricted
    mass diagonal); Linf is a nodal max.
    """
    lo, hi = window
    elems = _window_elements(mesh, lo, hi)
    vals = diff[mesh.conn[elems]]
    if kind == L1:
        return ErrorReport(float(np.sum(mesh.weights * np.abs(vals))))
    if kind == L2:
        return ErrorReport(float(np.sqrt(np.sum(mesh.weights * np.abs(vals) ** 2))))
    if kind == LINF:
        return ErrorReport(float(np.max(np.abs(vals))))
    raise ValueError(f"unknown norm kind {kind!r}")


def error_norm(state: HydroState, ref: Callable, window: tuple[float, float],
               kind: str = L1, field: str = HEIGHT,
               bathymetry: np.ndarray | None = None) -> ErrorReport:
    """Windowed norm of (numerical - reference) for one hydrodynamic field.

    ``ref(x, t)`` must return the reference values of the chosen field at the
    node coordinates x and time t.  The surface field requires the nodal
    bathymetry to form eta = h + b.
    """
    mesh = state.mesh
    if field == HEIGHT:
        num = state.h
    elif field == DISCHARGE:
        num = state.q
    elif field == SURFACE:
        if bathymetry is None:
            raise ValueError("surface errors need the nodal bathymetry")
        num = state.h + np.asarray(bathymetry)
    else:
        raise ValueError(f"unknown field {field!r}")
    ref_vals = np.asarray(ref(mesh.coords, state.time), dtype=float)
    if ref_vals.shape != num.shape:
        raise ValueError(f"reference shape {ref_vals.shape} does not match "
                         f"node count {num.shape}")
    return windowed_norm(mesh, num - ref_vals, window, kind)


def convergence_order(errors: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of log(error) against log(eps)."""
    if len(errors) < 2:
        raise ValueError("need at least two (eps, error) pairs")
    eps = np.array([e for e, _ in errors], dtype=float)
    vals = np.array([v for _, v in errors], dtype=float)
    if np.any(eps <= 0.0) or np.unique(eps).size != eps.size:
        raise ValueError("eps values must be positive and distinct")
    if np.any(vals <= 0.0):
        raise ValueError("error values must be positive to fit a convergence order")
    slope = np.polyfit(np.log(eps), np.log(vals), 1)[0]
    return float(slope)
