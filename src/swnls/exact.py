"""Exact dispersionless shallow-water reference solutions.

Riemann problems on a flat bottom (dry beds, shocks, rarefactions, vacuum
generation), the oscillating parabolic-bowl lake and the lake-at-rest steady
state.  These closed forms serve as the reference oracles for every benchmark.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

DRY_EVERYWHERE = "dry_everywhere"
SINGLE_RAREFACTION_DRY_RIGHT = "single_rarefaction_dry_right"
SINGLE_RAREFACTION_DRY_LEFT = "single_rarefaction_dry_left"
TWO_RAREFACTIONS_VACUUM = "two_rarefactions_vacuum"

RAREFACTION = "rarefaction"
SHOCK = "shock"

_STAR_MAX_ITER = 100


@dataclass(frozen=True)
class RiemannData:
    """Two constant states (h, u) separated at x = 0, with gravity g."""

    h_left: float
    u_left: float
    h_right: float
    u_right: float
    g: float = 1.0

    def __post_init__(self):
        if self.h_left < 0.0 or self.h_right < 0.0:
            raise ValueError(f"heights must be nonnegative, got {self.h_left}, {self.h_right}")
        if not self.g > 0.0:
            raise ValueError(f"g must be positive, got {self.g}")

    @property
    def a_left(self) -> float:
        return math.sqrt(self.g * self.h_left)

    @property
    def a_right(self) -> float:
        return math.sqrt(self.g * self.h_right)


@dataclass(frozen=True)
class WaveStructure:
    """Classified wave pattern with the star state and all wave speeds.

    For two-wave solutions `kind` is "<left>_<right>" with each side either
    rarefaction or shock; rarefaction sides carry (head, tail) fan speeds,
    shock sides carry the shock speed in both slots.  Vacuum fronts are the
    wet/dry interface speeds where a dry region exists.
    """

    kind: str
    h_star: Optional[float] = None
    u_star: Optional[float] = None
    left_wave: Optional[str] = None
    right_wave: Optional[str] = None
    left_head: Optional[float] = None
    left_tail: Optional[float] = None
    right_head: Optional[float] = None
    right_tail: Optional[float] = None
    vacuum_left: Optional[float] = None
    vacuum_right: Optional[float] = None


def _depth_fn(h: float, h_side: float, g: float) -> float:
    """Depth function: velocity change across one wave family (fan or bore)."""
    if h <= h_side:
        return 2.0 * (math.sqrt(g * h) - math.sqrt(g * h_side))
    return (h - h_side) * math.sqrt(0.5 * g * (h + h_side) / (h * h_side))


def _depth_fn_prime(h: float, h_side: float, g: float) -> float:
    if h <= h_side:
        return math.sqrt(g / h)
    G = math.sqrt(0.5 * g * (h + h_side) / (h * h_side))
    return G - 0.25 * g * (h - h_side) / (G * h * h)


def star_state(d: RiemannData) -> tuple[float, float]:
    """Intermediate (h*, u*) for a two-wave pattern without vacuum.

    Solves f_L(h) + f_R(h) + (u_R - u_L) = 0 by Newton iteration with a
    bisection safeguard on a monotone bracket.
    """
    g = d.g
    du = d.u_right - d.u_left

    def f(h: float) -> float:
        return _depth_fn(h, d.h_left, g) + _depth_fn(h, d.h_right, g) + du

    def fp(h: float) -> float:
        return _depth_fn_prime(h, d.h_left, g) + _depth_fn_prime(h, d.h_right, g)

    scale = max(1.0, abs(d.u_left) + abs(d.u_right) + d.a_left + d.a_right)
    lo = 1e-14 * max(d.h_left, d.h_right, 1.0)
    if f(lo) >= 0.0:
        raise ValueError("star_state called on vacuum-generating data")
    hi = max(d.h_left, d.h_right, lo)
    grow = 0
    while f(hi) <= 0.0:
        hi *= 2.0
        grow += 1
        if grow > 200:
            raise RuntimeError("failed to bracket the star depth")

    # two-rarefaction approximation as the initial guess
    a_star = 0.5 * (d.a_left + d.a_right) - 0.25 * du
    h = max(a_star * a_star / g, lo) if a_star > 0.0 else 0.5 * (lo + hi)
    for _ in range(_STAR_MAX_ITER):
        fh = f(h)
        if fh < 0.0:
            lo = h
        else:
            hi = h
        if abs(fh) <= 1e-13 * scale:
            break
        step = fh / fp(h)
        h_new = h - step
        if not lo < h_new < hi:
            h_new = 0.5 * (lo + hi)
        h = h_new
    else:
        raise RuntimeError(f"star-state iteration did not converge (residual {f(h):.3e})")
    u = 0.5 * (d.u_left + d.u_right) + 0.5 * (_depth_fn(h, d.h_right, g)
                                              - _depth_fn(h, d.h_left, g))
    return h, u


def classify(d: RiemannData) -> WaveStructure:
    """Classify the wave pattern and compute the star state and wave speeds."""
    g = d.g
    if d.h_left <= 0.0 and d.h_right <= 0.0:
        return WaveStructure(kind=DRY_EVERYWHERE)
    if d.h_right <= 0.0:
        return WaveStructure(kind=SINGLE_RAREFACTION_DRY_RIGHT,
                             left_wave=RAREFACTION,
                             left_head=d.u_left - d.a_left,
                             left_tail=d.u_left + 2.0 * d.a_left,
                             vacuum_left=d.u_left + 2.0 * d.a_left)
    if d.h_left <= 0.0:
        return WaveStructure(kind=SINGLE_RAREFACTION_DRY_LEFT,
                             right_wave=RAREFACTION,
                             right_head=d.u_right + d.a_right,
                             right_tail=d.u_right - 2.0 * d.a_right,
                             vacuum_right=d.u_right - 2.0 * d.a_right)
    if d.u_right - d.u_left >= 2.0 * (d.a_left + d.a_right):
        return WaveStructure(kind=TWO_RAREFACTIONS_VACUUM,
                             left_wave=RAREFACTION, right_wave=RAREFACTION,
                             left_head=d.u_left - d.a_left,
                             left_tail=d.u_left + 2.0 * d.a_left,
                             right_head=d.u_right + d.a_right,
                             right_tail=d.u_right - 2.0 * d.a_right,
                             vacuum_left=d.u_left + 2.0 * d.a_left,
                             vacuum_right=d.u_right - 2.0 * d.a_right)

    h_star, u_star = star_state(d)
    a_star = math.sqrt(g * h_star)
    if h_star > d.h_left:
        left_wave = SHOCK
        q = math.sqrt(0.5 * (h_star + d.h_left) * h_star / (d.h_left * d.h_left))
        s = d.u_left - d.a_left * q
        left_head = left_tail = s
    else:
        left_wave = RAREFACTION
        left_head = d.u_left - d.a_left
        left_tail = u_star - a_star
    if h_star > d.h_right:
        right_wave = SHOCK
        q = math.sqrt(0.5 * (h_star + d.h_right) * h_star / (d.h_right * d.h_right))
        s = d.u_right + d.a_right * q
        right_head = right_tail = s
    else:
        right_wave = RAREFACTION
        right_head = d.u_right + d.a_right
        right_tail = u_star + a_star
    return WaveStructure(kind=f"{left_wave}_{right_wave}",
                         h_star=h_star, u_star=u_star,
                         left_wave=left_wave, right_wave=right_wave,
                         left_head=left_head, left_tail=left_tail,
                         right_head=right_head, right_tail=right_tail)


def _left_fan(xi: float, d: RiemannData) -> tuple[float, float]:
    # invariant u + 2a = u_L + 2a_L through the left fan, u - a = xi on rays
    a = (d.u_left + 2.0 * d.a_left - xi) / 3.0
    u = xi + a
    return a * a / d.g, u


def _right_fan(xi: float, d: RiemannData) -> tuple[float, float]:
    # invariant u - 2a = u_R - 2a_R, u + a = xi
    a = (xi - d.u_right + 2.0 * d.a_right) / 3.0
    u = xi - a
    return a * a / d.g, u


def sample(d: RiemannData, structure: WaveStructure, x: float,
           t: float) -> tuple[float, float]:
    """Evaluate (h, u) of the self-similar solution at (x, t)."""
    if t <= 0.0:
        if x < 0.0:
            return d.h_left, d.u_left
        return d.h_right, d.u_right
    xi = x / t
    kind = structure.kind

    if kind == DRY_EVERYWHERE:
        return 0.0, 0.0

    if kind == SINGLE_RAREFACTION_DRY_RIGHT:
        if xi <= structure.left_head:
            return d.h_left, d.u_left
        if xi >= structure.left_tail:
            return 0.0, 0.0
        return _left_fan(xi, d)

    if kind == SINGLE_RAREFACTION_DRY_LEFT:
        if xi >= structure.right_head:
            return d.h_right, d.u_right
        if xi <= structure.right_tail:
            return 0.0, 0.0
        return _right_fan(xi, d)

    if kind == TWO_RAREFACTIONS_VACUUM:
        if xi <= structure.left_head:
            return d.h_left, d.u_left
        if xi < structure.vacuum_left:
            return _left_fan(xi, d)
        if xi <= structure.vacuum_right:
            return 0.0, 0.0
        if xi < structure.right_head:
            return _right_fan(xi, d)
        return d.h_right, d.u_right

    # two-wave pattern with a star region
    if xi < structure.u_star:
        if structure.left_wave == SHOCK:
            if xi <= structure.left_head:
                return d.h_left, d.u_left
            return structure.h_star, structure.u_star
        if xi <= structure.left_head:
            return d.h_left, d.u_left
        if xi >= structure.left_tail:
            return structure.h_star, structure.u_star
        return _left_fan(xi, d)
    if structure.right_wave == SHOCK:
        if xi >= structure.right_head:
            return d.h_right, d.u_right
        return structure.h_star, structure.u_star
    if xi >= structure.right_head:
        return d.h_right, d.u_right
    if xi <= structure.right_tail:
        return structure.h_star, structure.u_star
    return _right_fan(xi, d)


def _select(xi: np.ndarray, branches: list) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate an if/elif chain over an array: each branch is (condition,
    value), condition None means "else", and the value is a constant (h, u)
    pair or a fan function of xi.  The first matching branch wins."""
    h = np.empty_like(xi)
    u = np.empty_like(xi)
    todo = np.ones(xi.shape, dtype=bool)
    for cond, value in branches:
        m = todo if cond is None else todo & cond
        if callable(value):
            h[m], u[m] = value(xi[m])
        else:
            h[m], u[m] = value
        todo &= ~m
    return h, u


def sample_profile(d: RiemannData, structure: WaveStructure, x: np.ndarray,
                   t: float) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized `sample` over an array of positions.

    Follows the branches of `sample` with region masks and applies the same
    fan formulas in the same operation order, so every value is bitwise
    equal to the scalar result.
    """
    x = np.asarray(x, dtype=float)
    left_state = (d.h_left, d.u_left)
    right_state = (d.h_right, d.u_right)
    if t <= 0.0:
        return _select(x, [(x < 0.0, left_state), (None, right_state)])
    xi = x / t
    s = structure
    dry = (0.0, 0.0)

    def left_fan(v):
        return _left_fan(v, d)

    def right_fan(v):
        return _right_fan(v, d)

    if s.kind == DRY_EVERYWHERE:
        return _select(xi, [(None, dry)])
    if s.kind == SINGLE_RAREFACTION_DRY_RIGHT:
        return _select(xi, [(xi <= s.left_head, left_state),
                            (xi >= s.left_tail, dry),
                            (None, left_fan)])
    if s.kind == SINGLE_RAREFACTION_DRY_LEFT:
        return _select(xi, [(xi >= s.right_head, right_state),
                            (xi <= s.right_tail, dry),
                            (None, right_fan)])
    if s.kind == TWO_RAREFACTIONS_VACUUM:
        return _select(xi, [(xi <= s.left_head, left_state),
                            (xi < s.vacuum_left, left_fan),
                            (xi <= s.vacuum_right, dry),
                            (xi < s.right_head, right_fan),
                            (None, right_state)])

    # two-wave pattern with a star region
    star = (s.h_star, s.u_star)
    left = xi < s.u_star
    branches = [(left & (xi <= s.left_head), left_state)]
    if s.left_wave == SHOCK:
        branches.append((left, star))
    else:
        branches += [(left & (xi >= s.left_tail), star), (left, left_fan)]
    branches.append((xi >= s.right_head, right_state))
    if s.right_wave == SHOCK:
        branches.append((None, star))
    else:
        branches += [(xi <= s.right_tail, star), (None, right_fan)]
    return _select(xi, branches)


_SQRT2 = math.sqrt(2.0)


def thacker_exact(x, t: float):
    """Oscillating lake over the parabolic bowl b = x^2: returns (h, eta).

    The free surface stays planar and rocks periodically; dry regions are
    where the plane dips below the bowl.
    """
    x = np.asarray(x, dtype=float)
    b = x * x
    plane = (0.75 - 0.25 * math.cos(2.0 * _SQRT2 * t)
             - _SQRT2 * x * math.cos(_SQRT2 * t))
    eta = np.maximum(plane, b)
    h = eta - b
    if x.ndim == 0:
        return float(h), float(eta)
    return h, eta


def lake_at_rest_exact(x, b: Callable):
    """Steady lake at rest over bathymetry b: h = (1 - b)_+, u = 0."""
    x = np.asarray(x, dtype=float)
    h = np.maximum(1.0 - np.asarray(b(x), dtype=float), 0.0)
    u = np.zeros_like(h)
    if x.ndim == 0:
        return float(h), float(u)
    return h, u
