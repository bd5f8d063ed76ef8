"""Exact Riemann, oscillating-lake and lake-at-rest reference solutions."""
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (DRY_EVERYWHERE, GOLDEN_H_STAR, GOLDEN_SHOCK_SPEED, GOLDEN_U_STAR,
                     SINGLE_RAREFACTION_DRY_LEFT, SINGLE_RAREFACTION_DRY_RIGHT,
                     TWO_RAREFACTIONS_VACUUM, bisection_star_oracle, depth, kind, sample,
                     swe_flux)
from swnls.exact import (RAREFACTION, SHOCK, RiemannData, classify, lake_at_rest_exact,
                         sample_profile, star_state, thacker_exact, thacker_plane)

_wet_depths = st.floats(0.01, 4.0)
_depths = st.one_of(st.just(0.0), _wet_depths)
_speeds = st.floats(-8.0, 8.0)
_gravities = st.floats(0.5, 10.0)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


# --- classification -------------------------------------------------------------


def test_classify_dry_bed_right():
    s = classify(RiemannData(1.0, 0.0, 0.0, 0.0, 1.0))
    assert kind(s) == SINGLE_RAREFACTION_DRY_RIGHT
    assert s.left_head == pytest.approx(-1.0)
    assert s.left_tail == pytest.approx(2.0)


def test_classify_dry_bed_left_mirror():
    s = classify(RiemannData(0.0, 0.0, 1.0, 0.0, 1.0))
    assert kind(s) == SINGLE_RAREFACTION_DRY_LEFT
    assert s.right_head == pytest.approx(1.0)
    assert s.right_tail == pytest.approx(-2.0)


def test_classify_vacuum_generation():
    # 2(aL + aR) = 2(1 + sqrt 2) ~ 4.83 < uR - uL = 6
    s = classify(RiemannData(1.0, -3.0, 2.0, 3.0, 1.0))
    assert kind(s) == TWO_RAREFACTIONS_VACUUM
    assert s.left_tail == pytest.approx(-1.0)
    assert s.right_tail == pytest.approx(3.0 - 2.0 * math.sqrt(2.0))


def test_classify_rarefaction_shock():
    s = classify(RiemannData(1.0, 0.0, 0.2, 0.0, 1.0))
    assert kind(s) == "rarefaction_shock"
    assert s.left_wave == RAREFACTION and s.right_wave == SHOCK


def test_classify_two_shocks():
    s = classify(RiemannData(1.0, 1.0, 1.0, -1.0, 1.0))
    assert kind(s) == "shock_shock"
    assert s.h_star > 1.0


def test_classify_dry_everywhere():
    s = classify(RiemannData(0.0, 0.0, 0.0, 0.0, 1.0))
    assert kind(s) == DRY_EVERYWHERE
    assert sample(RiemannData(0.0, 0.0, 0.0, 0.0, 1.0), s, 0.3, 1.0) == (0.0, 0.0)


# --- star state -----------------------------------------------------------------


def test_star_state_matches_frozen_golden_values():
    d = RiemannData(1.0, 0.0, 0.2, 0.0, 1.0)
    oracle = bisection_star_oracle(d)
    assert oracle == pytest.approx(GOLDEN_H_STAR, abs=1e-12)
    h_star, u_star = star_state(d)
    assert h_star == pytest.approx(GOLDEN_H_STAR, abs=1e-10)
    assert u_star == pytest.approx(GOLDEN_U_STAR, abs=1e-10)
    assert 0.2 < h_star < 1.0


@settings(max_examples=300, deadline=None)
@given(h_left=_wet_depths, u_left=_speeds, h_right=_wet_depths, u_right=_speeds,
       g=_gravities)
@example(1.0, 0.0, 0.2, 0.0, 1.0)
@example(0.3, -0.5, 2.0, 0.4, 9.81)
@example(1.0, 1.0, 1.0, -1.0, 1.0)
def test_star_state_residual(h_left, u_left, h_right, u_right, g):
    d = RiemannData(h_left, u_left, h_right, u_right, g)
    assume(kind(classify(d)) != TWO_RAREFACTIONS_VACUUM)
    h_star, _ = star_state(d)
    a_fans = 0.5 * (d.a_left + d.a_right) - 0.25 * (u_right - u_left)
    assert 0.0 < h_star <= a_fans * a_fans / g
    res = depth(h_star, h_left, g) + depth(h_star, h_right, g) + u_right - u_left
    scale = max(1.0, abs(u_left) + abs(u_right) + d.a_left + d.a_right)
    assert abs(res) <= 1e-12 * scale


@pytest.mark.parametrize("data", [RiemannData(0.0, 0.0, 1.0, 0.0, 1.0),
                                  RiemannData(1.0, 0.0, 0.0, 0.0, 1.0),
                                  RiemannData(1.0, -3.0, 2.0, 3.0, 1.0)],
                         ids=["dry_left", "dry_right", "vacuum"])
def test_star_state_refuses_a_dry_side(data):
    with pytest.raises(ValueError, match="no two-wave star state"):
        star_state(data)


def test_star_state_equal_states_is_identity():
    h, u = star_state(RiemannData(0.7, 0.25, 0.7, 0.25, 1.0))
    assert h == pytest.approx(0.7, rel=1e-12)
    assert u == pytest.approx(0.25, rel=1e-12)


def test_star_state_symmetric_collision_has_zero_velocity():
    _, u = star_state(RiemannData(0.9, 0.8, 0.9, -0.8, 1.0))
    assert u == pytest.approx(0.0, abs=1e-13)


def test_classify_shock_speed_matches_golden():
    s = classify(RiemannData(1.0, 0.0, 0.2, 0.0, 1.0))
    assert s.right_head == pytest.approx(GOLDEN_SHOCK_SPEED, abs=1e-10)


# --- sampling -------------------------------------------------------------------


def test_sample_dry_bed_fan_formula():
    d = RiemannData(1.0, 0.0, 0.0, 0.0, 1.0)
    s = classify(d)
    h, u = sample(d, s, 0.5, 1.0)
    assert h == pytest.approx((2.0 - 0.5) ** 2 / 9.0, rel=1e-14)
    assert u == pytest.approx(2.0 * (1.0 + 0.5) / 3.0, rel=1e-14)
    # cross-check the fan ray: xi = u - sqrt(g h)
    assert u - math.sqrt(h) == pytest.approx(0.5, rel=1e-13)
    assert sample(d, s, -1.5, 1.0) == (1.0, 0.0)
    assert sample(d, s, 2.5, 1.0) == (0.0, 0.0)


def test_sample_at_time_zero_returns_raw_data():
    d = RiemannData(1.0, 0.3, 0.2, -0.1, 1.0)
    s = classify(d)
    assert sample(d, s, -0.5, 0.0) == (1.0, 0.3)
    assert sample(d, s, 0.5, 0.0) == (0.2, -0.1)


def test_sample_vacuum_region():
    d = RiemannData(1.0, -3.0, 2.0, 3.0, 1.0)
    s = classify(d)
    # x/t = 0 lies between the vacuum fronts -1 and 3 - 2 sqrt(2)
    assert sample(d, s, 0.0, 0.3) == (0.0, 0.0)
    h, u = sample(d, s, -1.8, 1.0)  # inside the left fan
    assert h > 0.0
    assert u + 2.0 * math.sqrt(h) == pytest.approx(-3.0 + 2.0, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(h_left=_depths, u_left=_speeds, h_right=_depths, u_right=_speeds, g=_gravities)
@example(1.0, 0.0, 0.2, 0.0, 1.0)
@example(0.2, 0.0, 1.0, 0.0, 1.0)
@example(1.0, 1.0, 1.0, -1.0, 1.0)
@example(0.5, 0.3, 1.7, -0.2, 9.81)
def test_rankine_hugoniot_for_all_shocks(h_left, u_left, h_right, u_right, g):
    d = RiemannData(h_left, u_left, h_right, u_right, g)
    s = classify(d)
    for wave, speed, ha, ua in ((s.left_wave, s.left_head, h_left, u_left),
                                (s.right_wave, s.right_head, h_right, u_right)):
        if wave != SHOCK:
            continue
        hb, ub = s.h_star, s.u_star
        qa, fa = swe_flux(ha, ua, g)
        qb, fb = swe_flux(hb, ub, g)
        # each jump condition to rounding of the terms it balances
        assert abs(speed * (hb - ha) - (qb - qa)) <= 1e-12 * (
            abs(speed) * (ha + hb) + abs(qa) + abs(qb))
        assert abs(speed * (qb - qa) - (fb - fa)) <= 1e-12 * (
            abs(speed) * (abs(qa) + abs(qb)) + abs(fa) + abs(fb))
        # compressive: depth increases in the direction of flow through the shock
        assert hb > ha


@settings(max_examples=300, deadline=None)
@given(h_left=_depths, u_left=_speeds, h_right=_depths, u_right=_speeds, g=_gravities,
       t=st.floats(1e-3, 3.0))
@example(1.0, -3.0, 2.0, 3.0, 1.0, 1.0)
def test_riemann_invariants_through_fans(h_left, u_left, h_right, u_right, g, t):
    d = RiemannData(h_left, u_left, h_right, u_right, g)
    s = classify(d)
    scale = max(1.0, abs(u_left) + abs(u_right) + d.a_left + d.a_right)
    # u + 2a is constant through a left fan, u - 2a through a right one
    for wave, head, tail, sign, u_side, a_side in (
            (s.left_wave, s.left_head, s.left_tail, 1.0, u_left, d.a_left),
            (s.right_wave, s.right_head, s.right_tail, -1.0, u_right, d.a_right)):
        if wave != RAREFACTION:
            continue
        h, u = sample_profile(d, s, np.linspace(head, tail, 13)[1:-1] * t, t)
        invariant = u + sign * 2.0 * np.sqrt(g * h)
        assert np.all(np.abs(invariant - (u_side + sign * 2.0 * a_side)) <= 1e-12 * scale)


def test_fan_characteristic_speed_monotone():
    d = RiemannData(1.0, 0.0, 0.2, 0.0, 1.0)
    s = classify(d)
    xis = np.linspace(s.left_head + 1e-6, s.left_tail - 1e-6, 50)
    speeds = []
    for xi in xis:
        h, u = sample(d, s, xi, 1.0)
        speeds.append(u - math.sqrt(d.g * h))
    assert np.all(np.diff(speeds) > 0.0)


@settings(max_examples=300, deadline=None)
@given(h_left=_depths, u_left=_speeds, h_right=_depths, u_right=_speeds, g=_gravities,
       t=st.floats(1e-3, 3.0), xs=st.lists(st.floats(-20.0, 20.0), max_size=20),
       k=st.integers(-8, 8))
@example(1.0, -3.0, 2.0, 3.0, 1.0, 0.5, [0.3, -0.7, 1.1], 1)
@example(1.0, -3.0, 2.0, 3.0, 1.0, 0.25, [0.3, -0.7, 1.1], 2)
@example(1.0, -3.0, 2.0, 3.0, 1.0, 0.9, [0.3, -0.7, 1.1], -1)
def test_sample_self_similarity_exact(h_left, u_left, h_right, u_right, g, t, xs, k):
    d = RiemannData(h_left, u_left, h_right, u_right, g)
    s = classify(d)
    rays = [v for v in (s.left_head, s.left_tail, s.right_head, s.right_tail, s.u_star)
            if v is not None]
    x = np.array(xs + [r * t for r in rays])
    alpha = 2.0 ** k  # scales x and t without rounding, so x/t is unchanged
    h, u = sample_profile(d, s, x, t)
    h_scaled, u_scaled = sample_profile(d, s, alpha * x, alpha * t)
    assert np.array_equal(_bits(h_scaled), _bits(h))
    assert np.array_equal(_bits(u_scaled), _bits(u))


def test_sample_profile_vectorizes():
    d = RiemannData(1.0, 0.0, 0.0, 0.0, 1.0)
    s = classify(d)
    x = np.linspace(-2, 2, 101)
    h, u = sample_profile(d, s, x, 0.6)
    assert h.shape == x.shape
    assert np.all(h >= 0.0)
    assert np.all(u[h == 0.0] == 0.0)


# one Riemann state (h_left, u_left, h_right, u_right) per structure kind
_KIND_STATES = {
    DRY_EVERYWHERE: (0.0, 0.0, 0.0, 0.0),
    SINGLE_RAREFACTION_DRY_RIGHT: (1.0, 0.0, 0.0, 0.0),
    SINGLE_RAREFACTION_DRY_LEFT: (0.0, 0.0, 1.0, 0.0),
    TWO_RAREFACTIONS_VACUUM: (1.0, -3.0, 2.0, 3.0),
    f"{RAREFACTION}_{RAREFACTION}": (1.0, -1.0, 1.0, 1.0),
    f"{RAREFACTION}_{SHOCK}": (1.0, 0.0, 0.2, 0.0),
    f"{SHOCK}_{RAREFACTION}": (0.2, 0.0, 1.0, 0.0),
    f"{SHOCK}_{SHOCK}": (1.0, 1.0, 1.0, -1.0),
}


def _every_kind(test):
    """Always try each structure kind, at t = 1 (rays hit exactly) and t = 0."""
    for state in _KIND_STATES.values():
        for t in (0.0, 1.0):
            test = example(*state, 1.0, t, [0.5, -0.5])(test)
    return test


def test_kind_states_reach_every_structure_kind():
    for label, state in _KIND_STATES.items():
        assert kind(classify(RiemannData(*state, 1.0))) == label


@settings(max_examples=300, deadline=None)
@given(h_left=_depths, u_left=_speeds, h_right=_depths, u_right=_speeds,
       g=st.floats(0.5, 2.0),
       t=st.one_of(st.just(0.0), st.just(1.0), st.floats(1e-3, 3.0)),
       xs=st.lists(st.floats(-20.0, 20.0), max_size=40))
@_every_kind
def test_sample_profile_bitwise_equals_scalar_sample(h_left, u_left, h_right, u_right,
                                                     g, t, xs):
    d = RiemannData(h_left, u_left, h_right, u_right, g)
    s = classify(d)
    # points exactly on every head, tail, vacuum and contact ray
    rays = [v for v in (s.left_head, s.left_tail, s.right_head, s.right_tail, s.u_star)
            if v is not None]
    x = np.array(xs + [r * t for r in rays] + rays + [0.0, -0.0])
    h, u = sample_profile(d, s, x, t)
    ref = np.array([sample(d, s, float(xj), t) for xj in x], dtype=float).reshape(-1, 2)
    assert np.array_equal(_bits(h), _bits(ref[:, 0]))
    assert np.array_equal(_bits(u), _bits(ref[:, 1]))


# --- Thacker oscillating lake -----------------------------------------------------


def test_thacker_initial_profile():
    x = np.linspace(-2, 2, 41)
    h, eta = thacker_exact(x, 0.0, 1.0)
    assert np.allclose(eta, np.maximum(0.5 - math.sqrt(2.0) * x, x * x), rtol=1e-14)
    assert np.all(h >= 0.0)


def test_thacker_center_always_wet():
    for t in np.linspace(0.0, 10.0, 37):
        h, eta = thacker_exact(0.0, t, 1.0)
        assert eta == pytest.approx(0.75 - 0.25 * math.cos(2 * math.sqrt(2.0) * t), rel=1e-14)
        assert eta >= 0.5
        assert h == eta


def test_thacker_half_period_mirror():
    x = np.linspace(-2, 2, 41)
    t_half = math.pi / math.sqrt(2.0)
    _, eta = thacker_exact(x, t_half, 1.0)
    assert np.allclose(eta, np.maximum(0.5 + math.sqrt(2.0) * x, x * x), atol=1e-13)


@pytest.mark.parametrize("g", [1.0, 2.0, 9.81])
def test_thacker_plane_solves_the_shallow_water_equations(g):
    # a surface A + B x over b = x^2 with a uniform velocity u solves continuity
    # when B' = 2u and A' = -u B, and momentum when u' = -g B
    def coefficients(t):
        a = thacker_plane(0.0, t, g)
        return a, thacker_plane(1.0, t, g) - a

    step = 1e-4
    for t in (0.0, 0.4, 1.3, 5.0):
        (a0, b0), (_, b1), (a2, b2) = (coefficients(t + k * step) for k in (-1, 0, 1))
        da, db = (a2 - a0) / (2.0 * step), (b2 - b0) / (2.0 * step)
        assert da == pytest.approx(-0.5 * db * b1, abs=1e-5 * g)
        assert (b2 - 2.0 * b1 + b0) / step**2 == pytest.approx(-2.0 * g * b1, abs=1e-5 * g * g)
    # the initial surface the scenario reads, bit for bit, at any g
    x = np.linspace(-2.0, 2.0, 41)
    assert np.array_equal(thacker_plane(x, 0.0, g), 0.5 - math.sqrt(2.0) * x)


def test_thacker_periodicity():
    x = np.linspace(-2, 2, 101)
    period = math.sqrt(2.0) * math.pi
    for t in (0.3, 1.7, 4.0):
        h1, eta1 = thacker_exact(x, t, 1.0)
        h2, eta2 = thacker_exact(x, t + period, 1.0)
        assert np.max(np.abs(eta1 - eta2)) <= 1e-12
        assert np.max(np.abs(h1 - h2)) <= 1e-12


# --- lake at rest -----------------------------------------------------------------


def test_lake_at_rest_values():
    bump = lambda bmax: (lambda x: bmax * np.exp(-10.0 * np.asarray(x) ** 2))
    h, u = lake_at_rest_exact(bump(0.9)(0.0), 1.0)
    assert h == pytest.approx(0.1, rel=1e-12) and u == 0.0
    h, u = lake_at_rest_exact(bump(1.1)(0.0), 1.0)
    assert h == 0.0 and u == 0.0
    h, _ = lake_at_rest_exact(bump(1.1)(2.0), 1.0)
    assert h == pytest.approx(1.0, abs=1e-9)
    # a higher lake covers the crest: h = level - b
    h, u = lake_at_rest_exact(bump(1.1)(0.0), 1.5)
    assert h == pytest.approx(0.4, rel=1e-12) and u == 0.0
    h, _ = lake_at_rest_exact(bump(1.1)(0.0), 0.5)
    assert h == 0.0


@pytest.mark.parametrize("d", [RiemannData(1.0, 0.0, 0.2, 0.0, 1.0),
                               RiemannData(0.2, 0.0, 1.0, 0.0, 1.0),
                               RiemannData(1.0, 1.0, 1.0, -1.0, 1.0),
                               RiemannData(1.0, -3.0, 2.0, 3.0, 1.0),
                               RiemannData(0.5, 0.3, 1.7, -0.2, 9.81)])
def test_wave_speeds_ordered(d):
    s = classify(d)
    speeds = [v for v in (s.left_head, s.left_tail, s.right_tail, s.right_head)
              if v is not None]
    assert speeds == sorted(speeds)


def test_riemann_data_validation():
    with pytest.raises(ValueError):
        RiemannData(-1.0, 0.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        RiemannData(1.0, 0.0, 1.0, 0.0, 0.0)
    # g has no default: data without it are refused, not run at g = 1
    with pytest.raises(TypeError):
        RiemannData(1.0, 0.0, 1.0, 0.0)
