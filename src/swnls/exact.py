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
    shock sides carry the shock speed in both slots.  Where a dry region
    exists, the tail of the fan next to it is the wet/dry front.
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
    [0, h_fans] down to adjacent floats finds it.
    """
    g = d.g
    du = d.u_right - d.u_left
    a_fans = 0.5 * (d.a_left + d.a_right) - 0.25 * du
    if a_fans <= 0.0:  # the same test as u_R - u_L >= 2 (a_L + a_R)
        raise ValueError("star_state called on vacuum-generating data")
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
    """(kind, head, tail) of the wave joining the left (side -1) or right
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
        return WaveStructure(kind=DRY_EVERYWHERE)
    h_star = u_star = None
    left = right = (None, None, None)
    if d.h_right <= 0.0:
        kind = SINGLE_RAREFACTION_DRY_RIGHT
        left = _wave(d, -1.0, 0.0, d.u_left + 2.0 * d.a_left)
    elif d.h_left <= 0.0:
        kind = SINGLE_RAREFACTION_DRY_LEFT
        right = _wave(d, 1.0, 0.0, d.u_right - 2.0 * d.a_right)
    elif d.u_right - d.u_left >= 2.0 * (d.a_left + d.a_right):
        kind = TWO_RAREFACTIONS_VACUUM
        left = _wave(d, -1.0, 0.0, d.u_left + 2.0 * d.a_left)
        right = _wave(d, 1.0, 0.0, d.u_right - 2.0 * d.a_right)
    else:
        h_star, u_star = star_state(d)
        left, right = _wave(d, -1.0, h_star, u_star), _wave(d, 1.0, h_star, u_star)
        kind = f"{left[0]}_{right[0]}"
    return WaveStructure(kind=kind, h_star=h_star, u_star=u_star,
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
        if xi < structure.left_tail:
            return _left_fan(xi, d)
        if xi <= structure.right_tail:
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
                            (xi < s.left_tail, left_fan),
                            (xi <= s.right_tail, dry),
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
