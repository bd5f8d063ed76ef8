"""Independent oracles the tests compare `swnls.exact` against.

The scalar, branch-by-branch Riemann sampler `sample` with the structure label
`kind` it branches on, a plain bisection for the star depth, the depth
function and flux it needs, and the golden star state frozen from that
bisection.  No run, sweep or CLI path reads these.
"""
import math

from swnls.exact import SHOCK, RiemannData, WaveStructure, _left_fan, _right_fan

# Golden star state for (hL,uL,hR,uR) = (1,0,0.2,0), g=1, frozen from the
# independent bisection oracle below (200 bisections on [hR, hL]).
GOLDEN_H_STAR = 0.507871434456667
GOLDEN_U_STAR = 0.574698018724920
GOLDEN_SHOCK_SPEED = 0.948034388654238

DRY_EVERYWHERE = "dry_everywhere"
SINGLE_RAREFACTION_DRY_RIGHT = "single_rarefaction_dry_right"
SINGLE_RAREFACTION_DRY_LEFT = "single_rarefaction_dry_left"
TWO_RAREFACTIONS_VACUUM = "two_rarefactions_vacuum"


def kind(structure: WaveStructure) -> str:
    """The structure's label, derived from its waves and whether it has a star
    state: "<left>_<right>" for a two-wave pattern with a star state."""
    if structure.left_wave is None and structure.right_wave is None:
        return DRY_EVERYWHERE
    if structure.right_wave is None:
        return SINGLE_RAREFACTION_DRY_RIGHT
    if structure.left_wave is None:
        return SINGLE_RAREFACTION_DRY_LEFT
    if structure.h_star is None:
        return TWO_RAREFACTIONS_VACUUM
    return f"{structure.left_wave}_{structure.right_wave}"


def depth(h, hK, g):
    """Depth function: velocity change across one wave family (fan or bore)."""
    if h <= hK:
        return 2.0 * (math.sqrt(g * h) - math.sqrt(g * hK))
    return (h - hK) * math.sqrt(0.5 * g * (h + hK) / (h * hK))


def bisection_star_oracle(d: RiemannData, iters: int = 200) -> float:
    """Plain bisection on the monotone depth-function sum, from the bracket
    [min(h_L, h_R), max(h_L, h_R)] widened by doubling and for a fixed count;
    independent of `star_state`'s closed-form bracket and stopping rule."""

    def f(h):
        return depth(h, d.h_left, d.g) + depth(h, d.h_right, d.g) + (d.u_right - d.u_left)

    lo, hi = min(d.h_left, d.h_right), max(d.h_left, d.h_right)
    if f(lo) > 0.0:
        lo = 1e-12
    while f(hi) < 0.0:
        hi *= 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def swe_flux(h, u, g):
    return h * u, h * u * u + 0.5 * g * h * h


def sample(d: RiemannData, structure: WaveStructure, x: float,
           t: float) -> tuple[float, float]:
    """Evaluate (h, u) of the self-similar solution at (x, t)."""
    if t <= 0.0:
        if x < 0.0:
            return d.h_left, d.u_left
        return d.h_right, d.u_right
    xi = x / t
    label = kind(structure)

    if label == DRY_EVERYWHERE:
        return 0.0, 0.0

    if label == SINGLE_RAREFACTION_DRY_RIGHT:
        if xi <= structure.left_head:
            return d.h_left, d.u_left
        if xi >= structure.left_tail:
            return 0.0, 0.0
        return _left_fan(xi, d)

    if label == SINGLE_RAREFACTION_DRY_LEFT:
        if xi >= structure.right_head:
            return d.h_right, d.u_right
        if xi <= structure.right_tail:
            return 0.0, 0.0
        return _right_fan(xi, d)

    if label == TWO_RAREFACTIONS_VACUUM:
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
