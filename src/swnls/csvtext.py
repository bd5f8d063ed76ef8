"""CSV text of float64 tables, every value exactly as ``"%.17g" % v``.

``"%.17g"`` writes a float in fixed notation when its exponent E, the
exponent of the value rounded to 17 significant digits, is in [-4, 16]: the
17 correctly rounded digits with trailing zeros stripped and a point after
E + 1 of them, or ``0.`` and -E - 1 zeros before them when E < 0.  Python
gets those digits from an arbitrary-precision dtoa (Gay, 1990) for every
value.  ``block_text`` gets the same digits for a whole block at once in
numpy, exactly: the value times 10**(16 - E), a product of two doubles, is
its rounded double plus a rounding error that Dekker's two-product (Numer.
Math. 18, 1971) recovers exactly, so the integer part, the fraction and a
tie are all known.  Zeros
are spelled ``0`` and ``-0``; everything else (nan, inf, scientific notation)
goes through ``"%.17g"`` itself.
"""
from __future__ import annotations

import numpy as np

# 2**27 + 1: Veltkamp's constant, splitting a double into two halves whose
# products are exact.
_SPLIT = 134217729.0
# 10**0 .. 10**21, all exact doubles (5**21 < 2**53).
_POW10 = 10.0 ** np.arange(22)
_GROUP = np.arange(10000, dtype=np.uint16)
# The ASCII digits of every 4-digit group, one uint32 each.
_GROUP_TEXT = (np.stack([_GROUP // 1000, _GROUP // 100 % 10, _GROUP // 10 % 10, _GROUP % 10],
                        axis=1).astype(np.uint8) + ord("0")).view(np.uint32).ravel()
# 1 .. 17, the count of digits up to and including each digit place.
_PLACES = np.arange(1, 18, dtype=np.uint8)[:, None]


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p = a*b rounded and err with a*b == p + err exactly (no under- or
    overflow)."""
    p = a * b
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = _SPLIT * b
    b_hi = c - (c - b)
    b_lo = b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _rounded(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a*10**(16 - e) rounded half to even, and how far e is off: +1 where
    the product is 1e17 or more, -1 where it is under 1e16, else 0."""
    p, err = _two_product(a, _POW10[16 - e])
    # p >= 2**53 is an integer, so the floor of the product is p + floor(err)
    # and its fraction is above, at or below one half as err is against
    # floor(err) + 0.5, exact for the small integer floor(err).
    f = np.floor(err)
    whole = p.astype(np.int64) + f.astype(np.int64)
    half = f + 0.5
    n = whole + ((err > half) | ((err == half) & (whole & 1 == 1)))
    return n, (whole >= 10 ** 17).astype(np.int64) - (whole < 10 ** 16)


def _significand(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n, e) with n in [1e16, 1e17) and n * 10**(e - 16) the value of each
    a in [1e-5, 1e17) correctly rounded to 17 significant digits.

    n never rounds up to 1e17: a double that close below a power of ten
    (within 5e-18 of it, relative) exists only outside [1e-5, 1e17).
    """
    e = np.clip(np.floor(np.log10(a)), -5, 16).astype(np.int64)
    n, off = _rounded(a, e)
    wrong = np.flatnonzero(off)  # log10 rounded across a power of ten
    while wrong.size:
        e[wrong] += off[wrong]
        n[wrong], off_wrong = _rounded(a[wrong], e[wrong])
        wrong = wrong[off_wrong != 0]
    return n, e


def _digits(n: np.ndarray) -> np.ndarray:
    """The 17 decimal digits of each n in [1e16, 1e17) as ASCII, one row per
    digit place."""
    high = n // 10 ** 8
    groups = np.empty((5, n.size), np.int64)  # 000d dddd dddd dddd dddd
    groups[0] = high // 10 ** 8
    groups[2] = high - groups[0] * 10 ** 8
    groups[4] = n - high * 10 ** 8
    groups[1] = groups[2] // 10 ** 4
    groups[2] -= groups[1] * 10 ** 4
    groups[3] = groups[4] // 10 ** 4
    groups[4] -= groups[3] * 10 ** 4
    text = _GROUP_TEXT[groups].view(np.uint8).reshape(5, n.size, 4)
    return text.transpose(0, 2, 1).reshape(20, n.size)[3:]


def block_text(block: np.ndarray) -> str:
    """The rows of the 2-D ``block``, each value as ``"%.17g" % v``, values
    separated by ``,`` and every row ended by ``\\n``."""
    v = np.ascontiguousarray(block, dtype=np.float64).ravel()
    a = np.abs(v)
    neg = np.signbit(v)
    fixed = np.flatnonzero((a >= 1e-5) & (a < 1e17))
    n, e = _significand(a[fixed])
    keep = e >= -4  # e = -5 is scientific notation
    fixed, n, e = fixed[keep], n[keep], e[keep]
    digits = _digits(n)
    significant = ((digits != ord("0")) * _PLACES).max(axis=0)  # trailing zeros stripped
    lead = np.maximum(-e, 0)  # the zeros before the digits
    point = significant > e + 1
    zero = np.flatnonzero(a == 0)
    other = np.ones(v.size, bool)
    other[fixed] = False
    other[zero] = False
    other = np.flatnonzero(other)
    text = np.array(["%.17g" % x for x in v[other].tolist()], dtype="S")

    size = np.empty(v.size, np.int64)  # bytes of each value, its separator included
    size[fixed] = neg[fixed] + lead + np.maximum(significant, e + 1) + point + 1
    size[zero] = neg[zero] + 2
    size[other] = np.char.str_len(text) + 1
    end = np.cumsum(size)
    start = end - size

    # Every byte starts as "0", which leaves the zeros of "0.000" and of a
    # zero value unwritten.  Each digit j goes first where it falls after the
    # point, origin + 1 + j, with j descending.  The digits beyond `significant`
    # (all "0") run past a value's own text, into the separator or into a
    # later value's bytes at a lower digit place, which is written after
    # them; the slack holds those of the last value.  The digits before the
    # point and the point itself go last.
    buf = np.full(end[-1] + 17, ord("0"), np.uint8)
    origin = start[fixed] + neg[fixed] + lead
    for j in range(16, -1, -1):
        buf[origin + (j + 1)] = digits[j]
    for j in range(e.max(initial=-1) + 1):
        integer = np.flatnonzero(e >= j)
        buf[origin[integer] + j] = digits[j][integer]
    buf[(origin + e + 1)[point]] = ord(".")
    buf[start[neg]] = ord("-")  # the "%.17g" text below writes its own sign over it
    chars = text.view(np.uint8).reshape(other.size, text.itemsize)
    used = np.arange(text.itemsize) < size[other, None] - 1
    buf[(start[other, None] + np.arange(text.itemsize))[used]] = chars[used]
    sep = np.full(block.shape, ord(","), np.uint8)
    sep[:, -1] = ord("\n")
    buf[end - 1] = sep.ravel()
    return buf[:end[-1]].tobytes().decode("ascii")
