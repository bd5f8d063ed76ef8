"""csvtext.Formatter's CSV text against Python's own "%.17g", value by value.

The tests read a block's text as ``Formatter().text(block).tobytes().decode("ascii")``
(``_text``), a fresh formatter per block, unless they test its reuse."""
import json
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from swnls import app, csvtext


def _text(block: np.ndarray) -> str:
    """The block's CSV text from a fresh formatter."""
    return csvtext.Formatter().text(block).tobytes().decode("ascii")


def _row_text(block: np.ndarray) -> str:
    """Every value as "%.17g" % v, joined by "," and ended by "\\n" per row."""
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in block.tolist())


def _ties() -> list:
    """Doubles whose scaled value v*10**(16 - E) lies exactly halfway between
    two integers, so "%.17g" rounds them half to even.

    Such a v is an odd multiple of 2**-(17 - E); the first few of them in each
    decade E = -20 .. 22 are tried and kept when Fraction confirms the tie.
    Only E = -8 .. 15 have any: for E >= 16 the odd factor, at least
    10**E / 2**(E - 17), has more bits than a double holds (> 2**53), and for
    E <= -9 even the least, 2**-(17 - E), scales to 5**(16 - E) / 2 > 1e17."""
    ties = []
    for exp in range(-20, 23):
        step = Fraction(2) ** (exp - 17)
        first = math.ceil(Fraction(10) ** exp / step) | 1
        for m in range(first, first + 8, 2):
            v = float(m * step)
            scaled = Fraction(v) * Fraction(10) ** (16 - exp)
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
# In scientific notation: the two doubles around each power of ten from
# 1e-307 to 1e-5 and 1e17 to 1e308 (10**k itself where it is a double), the
# least normal double, the largest subnormal and the largest double.
BOUNDARY_VALUES = [
    sign * v
    for v in [0.0, math.nan, math.inf, 5e-324, 9.9999999999999991e-05]
    + [x for k in range(-6, 19)
       for x in (math.nextafter(10.0 ** k, 0.0), 10.0 ** k, math.nextafter(10.0 ** k, math.inf))]
    + [_below_power_of_ten(k) for k in range(-4, 18)] + TIES
    + [x for k in [*range(-307, -4), *range(17, 309)]
       for x in {_below_power_of_ten(k), math.nextafter(_below_power_of_ten(k), math.inf)}]
    + [sys.float_info.min, math.nextafter(sys.float_info.min, 0.0), sys.float_info.max]
    for sign in (1.0, -1.0)
]


def test_ties_found_in_every_decade():
    assert TIES
    decades = {math.floor(math.log10(v)) for v in TIES}
    assert decades == set(range(-8, 16))  # every decade that has ties (see _ties)


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
    assert _text(block) == _row_text(block)


_shapes = st.tuples(st.integers(1, 30), st.integers(1, 12))


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, _shapes, elements=st.floats()))
def test_floats_match_percent_g(block):
    assert _text(block) == _row_text(block)


@settings(max_examples=300, deadline=None)
@given(arrays(np.uint64, _shapes, elements=st.integers(0, 2**64 - 1)))
def test_bit_patterns_match_percent_g(bits):
    block = bits.view(np.float64)
    assert _text(block) == _row_text(block)


# short decimals, such as 0.00125 or 3.5e16: trailing zeros, integers, points
_decimals = st.builds(lambda m, k: float(f"{m}e{k}"),
                      st.integers(-10**6, 10**6), st.integers(-12, 17))


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, _shapes, elements=_decimals))
def test_short_decimals_match_percent_g(block):
    assert _text(block) == _row_text(block)


def test_formatter_reuses_its_arrays_across_block_shapes():
    rng = np.random.default_rng(3)
    formatter = csvtext.Formatter()
    for rows, cols in [(5, 3), (40, 10), (1, 1), (40, 10), (7, 12), (0, 4)]:
        block = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-30, 30, (rows, cols))
        assert formatter.text(block).tobytes().decode() == _row_text(block)


def _sent_to_percent_g(monkeypatch) -> list:
    """The values csvtext hands to "%.17g" from now on, in order."""
    sent, real = [], csvtext._percent_g

    def record(values):
        sent.extend(values.tolist())
        return real(values)

    monkeypatch.setattr(csvtext, "_percent_g", record)
    return sent


def _near_a_tie(v: float) -> bool:
    """Whether |v| * 10**(16 - E), E = floor(log10|v|), lies within twice
    csvtext's bound of a half-integer, computed exactly: the scaled value is
    within the bound of the one csvtext computes, so only these may be sent
    for being within the bound of a tie."""
    a = Fraction(abs(v))
    e = math.floor(math.log10(abs(v)))
    e += (Fraction(10) ** (e + 1) <= a) - (Fraction(10) ** e > a)
    scaled = a * Fraction(10) ** (16 - e)
    return abs(scaled - math.floor(scaled) - Fraction(1, 2)) <= 2 * csvtext._BOUND


def test_nan_inf_and_subnormals_take_percent_g(monkeypatch):
    sent = _sent_to_percent_g(monkeypatch)
    special = [math.nan, math.inf, -math.inf, 5e-324, -5e-324,
               math.nextafter(sys.float_info.min, 0.0)]
    block = np.array([special + [1.0, 0.0, -2.5e-300, 1e300]])
    assert _text(block) == _row_text(block)
    assert np.array_equal(sent, special, equal_nan=True)


def test_scientific_values_rarely_take_percent_g(monkeypatch):
    # seeded normal values with E in [-300, -5], and the ties of decades -7
    # and -8, where 10**(16 - E) is not a double: those must be sent
    rng = np.random.default_rng(35)
    values = rng.uniform(1.0, 10.0, 10**5) * 10.0 ** rng.integers(-300, -4, 10**5)
    values[rng.random(values.size) < 0.5] *= -1.0
    ties = [v for v in TIES if v < 1e-6]
    block = np.concatenate([values, ties]).reshape(-1, 1)
    sent = _sent_to_percent_g(monkeypatch)
    assert _text(block) == _row_text(block)
    assert len(sent) <= 1e-3 * values.size + len(ties)
    assert set(ties) <= set(sent)
    assert all(_near_a_tie(v) for v in sent)


def test_dense_output_table_rarely_takes_percent_g(tmp_path, monkeypatch):
    # the dense_output benchmark's dam break at t = 0.3: 2.9% of its values
    # are in scientific notation, all of q_num's far field
    doc = {"name": "dam_break_wet", "physics": {"g": 1.0, "eps": 0.02},
           "init": {"recipe": "riemann_tanh", "h_left": 1.0, "u_left": 0.0,
                    "h_right": 0.2, "u_right": 0.0},
           "domain": {"half_width": 2.0, "boundary": "neumann"}, "output": {"times": [0.3]}}
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    sent = _sent_to_percent_g(monkeypatch)
    assert app.cli_main(["run", str(tmp_path / "doc.json"), "--out", str(tmp_path / "out")]) == 0
    text = (tmp_path / "out" / "snapshot_0000.csv").read_text()
    table = np.loadtxt(tmp_path / "out" / "snapshot_0000.csv", delimiter=",", skiprows=1)
    assert text == app.SNAPSHOT_HEADER + "\n" + _row_text(table)
    assert (np.abs(table[table != 0]) < 1e-4).mean() > 0.01
    assert len(sent) <= 1e-3 * table.size
    assert all(_near_a_tie(v) for v in sent)


def test_a_reused_formatter_allocates_little(tmp_path):
    # a 4001x10 table, 3% of its values below 1e-5: after a first call has
    # made the formatter's work arrays (1.6 MB), a call allocates only the
    # indices of its blocks' scientific values and of their digits before
    # the point, a small part of the 0.85 MB of text it writes
    rng = np.random.default_rng(35)
    table = rng.standard_normal((4001, 10)) * 10.0 ** rng.integers(-3, 2, (4001, 10))
    table[rng.random(table.shape) < 0.03] *= 1e-8
    formatter, path = csvtext.Formatter(), tmp_path / "table.csv"
    app._write_csv(path, app.SNAPSHOT_HEADER, table, formatter)
    tracemalloc.start()
    try:
        app._write_csv(path, app.SNAPSHOT_HEADER, table, formatter)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 800_000
    assert peak <= 128 * 1024
    assert path.read_text() == app.SNAPSHOT_HEADER + "\n" + _row_text(table)
