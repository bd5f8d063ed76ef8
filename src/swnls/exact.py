"""Exact dispersionless shallow-water reference solutions.

Riemann problems on a flat bottom (dry beds, shocks, rarefactions, vacuum
generation), the oscillating parabolic-bowl lake and the lake-at-rest steady
state.  These closed forms serve as the reference oracles for every benchmark.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

RAREFACTION = "rarefaction"
SHOCK = "shock"


@dataclass(frozen=True)
class RiemannData:
    """Two constant states (h, u) separated at x = 0, with gravity g."""

    h_left: float
    u_left: float
    h_right: float
    u_right: float
    g: float

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

    Each side's wave is rarefaction, shock or None (a dry side); rarefaction
    sides carry (head, tail) fan speeds, shock sides the shock speed in both
    slots.  h_star is None where the star region is dry (a dry side or
    vacuum), and there the tail of the fan next to it is the wet/dry front.
    """

    h_star: Optional[float] = None
    u_star: Optional[float] = None
    left_wave: Optional[str] = None
    right_wave: Optional[str] = None
    left_head: Optional[float] = None
    left_tail: Optional[float] = None
    right_head: Optional[float] = None
    right_tail: Optional[float] = None


def _depth_fn(h: float, h_side: float, g: float) -> float:
    """Depth function: velocity change across one wave family (fan or bore)."""
    if h <= h_side:
        return 2.0 * (math.sqrt(g * h) - math.sqrt(g * h_side))
    return (h - h_side) * math.sqrt(0.5 * g * (h + h_side) / (h * h_side))


def star_state(d: RiemannData) -> tuple[float, float]:
    """Intermediate (h*, u*) for a two-wave pattern without vacuum.

    The depth-function sum f(h) = f_L(h) + f_R(h) + (u_R - u_L) increases
    with h and is negative at h = 0 unless the data generate vacuum.  At the
    two-rarefaction depth h_fans it is zero when both waves are fans and
    positive otherwise, since above h_K a bore's depth function is at least a
    fan's (Toro, Shock-Capturing Methods for Free-Surface Shallow Flows, ch. 5).
    So h* = h_fans when h_fans <= min(h_L, h_R), and otherwise bisection on
    [0, h_fans] down to adjacent floats finds it.  Data with a dry side, or
    that generate vacuum, have no such star state: ValueError.
    """
    if d.h_left == 0.0 or d.h_right == 0.0:
        raise ValueError(f"star_state called on data with a dry side (h_left {d.h_left}, "
                         f"h_right {d.h_right}): they have no two-wave star state")
    g = d.g
    du = d.u_right - d.u_left
    a_fans = 0.5 * (d.a_left + d.a_right) - 0.25 * du
    if a_fans <= 0.0:  # the same test as u_R - u_L >= 2 (a_L + a_R)
        raise ValueError("star_state called on vacuum-generating data: no two-wave star state")
    h = a_fans * a_fans / g
    if h > min(d.h_left, d.h_right):
        lo = 0.0
        while lo < (mid := 0.5 * (lo + h)) < h:
            if _depth_fn(mid, d.h_left, g) + _depth_fn(mid, d.h_right, g) + du < 0.0:
                lo = mid
            else:
                h = mid
    u = 0.5 * (d.u_left + d.u_right) + 0.5 * (_depth_fn(h, d.h_right, g)
                                              - _depth_fn(h, d.h_left, g))
    return h, u


def _wave(d: RiemannData, side: float, h_star: float,
          u_star: float) -> tuple[str, float, float]:
    """(wave, head, tail) of the wave joining the left (side -1) or right
    (side +1) state of `d` to the star state; a fan into h* = 0 ends at the
    wet/dry front u*."""
    h, u, a = ((d.h_left, d.u_left, d.a_left) if side < 0.0
               else (d.h_right, d.u_right, d.a_right))
    if h_star > h:
        q = math.sqrt(0.5 * (h_star + h) * h_star / (h * h))
        speed = u + side * a * q
        return SHOCK, speed, speed
    return RAREFACTION, u + side * a, u_star + side * math.sqrt(d.g * h_star)


def classify(d: RiemannData) -> WaveStructure:
    """Classify the wave pattern and compute the star state and wave speeds.

    A dry side, or the vacuum between two fans, is a star state h* = 0 with
    u* = u_L + 2 a_L seen from the left and u* = u_R - 2 a_R from the right.
    """
    if d.h_left <= 0.0 and d.h_right <= 0.0:
        return WaveStructure()
    h_star = u_star = None
    left = right = (None, None, None)
    if d.h_right <= 0.0:
        left = _wave(d, -1.0, 0.0, d.u_left + 2.0 * d.a_left)
    elif d.h_left <= 0.0:
        right = _wave(d, 1.0, 0.0, d.u_right - 2.0 * d.a_right)
    elif d.u_right - d.u_left >= 2.0 * (d.a_left + d.a_right):
        left = _wave(d, -1.0, 0.0, d.u_left + 2.0 * d.a_left)
        right = _wave(d, 1.0, 0.0, d.u_right - 2.0 * d.a_right)
    else:
        h_star, u_star = star_state(d)
        left, right = _wave(d, -1.0, h_star, u_star), _wave(d, 1.0, h_star, u_star)
    return WaveStructure(h_star=h_star, u_star=u_star,
                         left_wave=left[0], left_head=left[1], left_tail=left[2],
                         right_wave=right[0], right_head=right[1], right_tail=right[2])


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


def sample_profile(d: RiemannData, structure: WaveStructure, x: np.ndarray,
                   t: float) -> tuple[np.ndarray, np.ndarray]:
    """(h, u) of the self-similar solution at time t over an array of positions.

    Every structure is one layout, left state | left wave | star state |
    right wave | right state: a missing wave adds no region, a rarefaction
    its fan, a shock none, and a dry side or vacuum is the star state (0, 0).
    Each point takes the first region, in layout order, whose condition it
    meets, and the star state where it meets none; a fan is evaluated only at
    its own points.  It is tested against the scalar oracle `sample` in
    tests/oracles.py, whose fans are these: values are bitwise equal except
    on a ray that rounding merges with another (a side ~1e-30 times shallower).
    """
    x = np.asarray(x, dtype=float)
    # floats, as a scenario file's integer heights would otherwise give integer arrays
    left_state = (float(d.h_left), float(d.u_left))
    right_state = (float(d.h_right), float(d.u_right))
    if t <= 0.0:
        return tuple(np.where(x < 0.0, l, r) for l, r in zip(left_state, right_state))
    xi = x / t
    s = structure
    regions = []  # (condition, state or fan) in layout order
    if s.left_wave is not None:
        regions.append((xi <= s.left_head, left_state))
        if s.left_wave == RAREFACTION:
            regions.append((xi < s.left_tail, _left_fan))
    if s.right_wave is not None:
        regions.append((xi >= s.right_head, right_state))
        if s.right_wave == RAREFACTION:
            regions.append((xi > s.right_tail, _right_fan))
    star = (0.0, 0.0) if s.h_star is None else (s.h_star, s.u_star)
    h, u = np.full(xi.shape, star[0]), np.full(xi.shape, star[1])
    free = np.ones(xi.shape, dtype=bool)  # points no region has taken yet
    for condition, fill in regions:
        taken = condition & free
        free &= ~condition
        h[taken], u[taken] = fill(xi[taken], d) if callable(fill) else fill
    return h, u


_SQRT2 = math.sqrt(2.0)


def thacker_plane(x, t: float, g: float):
    """Planar free surface 0.75 - cos(2wt)/4 - sqrt(2) x cos(wt), w = sqrt(2g), of the
    oscillating lake over the bowl b = x^2 (W. C. Thacker, J. Fluid Mech. 107, 1981)."""
    omega = math.sqrt(2.0 * g)
    return 0.75 - 0.25 * math.cos(2.0 * omega * t) - _SQRT2 * x * math.cos(omega * t)


def thacker_exact(x, t: float, g: float):
    """Oscillating lake over the parabolic bowl b = x^2: returns (h, eta).

    The free surface is `thacker_plane`, which rocks with period
    pi*sqrt(2/g); dry regions are where the plane dips below the bowl.
    """
    x = np.asarray(x, dtype=float)
    b = x * x
    eta = np.maximum(thacker_plane(x, t, g), b)
    return eta - b, eta


def lake_at_rest_exact(b, level: float):
    """Lake at rest at surface `level` over the bed values b: h = (level - b)_+, u = 0."""
    h = np.maximum(level - np.asarray(b, dtype=float), 0.0)
    return h, np.zeros_like(h)
