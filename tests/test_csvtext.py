"""csvtext.block_text against Python's own "%.17g", value by value."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from swnls import csvtext


def _row_text(block: np.ndarray) -> str:
    """Every value as "%.17g" % v, joined by "," and ended by "\\n" per row."""
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in block.tolist())


def _ties() -> list:
    """Doubles whose scaled value v*10**(16 - E) lies exactly halfway between
    two integers, so "%.17g" rounds them half to even.

    Such a v is an odd multiple of 2**-(17 - E); the first few of them in each
    decade E = -4 .. 15 are tried and kept when Fraction confirms the tie."""
    ties = []
    for exp in range(-4, 16):
        step = Fraction(1, 2 ** (17 - exp))
        first = math.ceil(Fraction(10) ** exp / step) | 1
        for m in range(first, first + 8, 2):
            v = float(m * step)
            scaled = Fraction(v) * 10 ** (16 - exp)
            if Fraction(v) == m * step and scaled.denominator == 2 and 10**16 <= scaled < 10**17:
                ties.append(v)
    return ties


def _below_power_of_ten(k: int) -> float:
    """The largest double below 10**k."""
    p = float(Fraction(10) ** k)
    return p if Fraction(p) < Fraction(10) ** k else math.nextafter(p, 0.0)


TIES = _ties()

# Zeros, nan, inf, the least subnormal, powers of ten 1e-6 .. 1e18 with both
# neighbours, the double below each power of ten in the fixed range, the
# last scientific value before 1e-4, and exact ties, each with both signs.
BOUNDARY_VALUES = [
    sign * v
    for v in [0.0, math.nan, math.inf, 5e-324, 9.9999999999999991e-05]
    + [x for k in range(-6, 19)
       for x in (math.nextafter(10.0 ** k, 0.0), 10.0 ** k, math.nextafter(10.0 ** k, math.inf))]
    + [_below_power_of_ten(k) for k in range(-4, 18)] + TIES
    for sign in (1.0, -1.0)
]


def test_ties_found_in_every_decade():
    assert TIES
    decades = {math.floor(math.log10(v)) for v in TIES}
    assert decades == set(range(-4, 16))


def test_no_fixed_notation_value_rounds_up_to_a_power_of_ten():
    # what lets _significand do without a carry: the double below 10**k is
    # more than half a unit of the 17th digit below it
    for k in range(-4, 18):
        scaled = Fraction(_below_power_of_ten(k)) * Fraction(10) ** (17 - k)
        assert 10**16 <= scaled < 10**17 - Fraction(1, 2)


@pytest.mark.parametrize("cols", [1, 3, 10])
def test_boundary_values_match_percent_g(cols):
    values = np.array(BOUNDARY_VALUES)
    block = np.resize(values, (-(-values.size // cols), cols))
    assert csvtext.block_text(block) == _row_text(block)


_shapes = st.tuples(st.integers(1, 30), st.integers(1, 12))


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, _shapes, elements=st.floats()))
def test_floats_match_percent_g(block):
    assert csvtext.block_text(block) == _row_text(block)


@settings(max_examples=300, deadline=None)
@given(arrays(np.uint64, _shapes, elements=st.integers(0, 2**64 - 1)))
def test_bit_patterns_match_percent_g(bits):
    block = bits.view(np.float64)
    assert csvtext.block_text(block) == _row_text(block)


# short decimals, such as 0.00125 or 3.5e16: trailing zeros, integers, points
_decimals = st.builds(lambda m, k: float(f"{m}e{k}"),
                      st.integers(-10**6, 10**6), st.integers(-12, 17))


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, _shapes, elements=_decimals))
def test_short_decimals_match_percent_g(block):
    assert csvtext.block_text(block) == _row_text(block)
