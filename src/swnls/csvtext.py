"""CSV text of float64 tables, every value exactly as ``"%.17g" % v``.

``"%.17g"`` rounds a value to 17 significant digits, n * 10**(E - 16) with n
in [1e16, 1e17), and writes it in fixed notation when E is in [-4, 16] (the
digits with trailing zeros stripped and a point after E + 1 of them, or
``0.`` and -E - 1 zeros before them when E < 0), else as ``d.dddde±XX``.
Python gets those digits from an arbitrary-precision dtoa (Gay, 1990) for
every value.  ``Formatter`` gets the same digits for a whole block at once
in numpy.  E comes exactly from the binary exponent and a table of the least
double >= each power of ten.  The value times 10**(16 - E) is the value
scaled by a power of two, which is exact, times a double-double mantissa of
10**(16 - E) from a table built at import from exact integers.  Dekker's
two-product (Numer. Math. 18, 1971) gives the rounding error of the leading
product, so the scaled value is known to within 2**-47, and exactly where
10**(16 - E) is a double (E in [-6, 16]).  Rounded to the nearest integer
that gives n, unless the fraction lies within ``_BOUND`` of one half: the
digits of a scaled double-double with a fallback near a rounding boundary,
as in Adams, "Ryu revisited" (OOPSLA 2019).  Those values, nan, inf and
subnormals go through ``"%.17g"`` itself; zeros are spelled ``0`` and ``-0``.
"""
from __future__ import annotations

import numpy as np

# 2**27 + 1: Veltkamp's constant, splitting a double into two halves whose
# products are exact.
_SPLIT = 134217729.0
# The decimal exponents of normal doubles, 2.2e-308 .. 1.8e308.
_E_MIN, _E_MAX = -308, 308
# The scaled value is within 2**-47 of the exact one: 2**-48 from the
# mantissa table's 2**-105 (times a scaled value < 2**57), and 2**-49 from
# each of the two roundings that add its small terms.  A fraction this close
# to one half may round either way, so the value goes through "%.17g".
_BOUND = 2.0 ** -40
_ZERO = ord("0")


def _powers_of_ten(lo: int, hi: int) -> tuple:
    """For 10**j, j = lo .. hi (lo < 0 <= hi): t, c_hi and c_lo with 10**j =
    2**t * c, c in [1, 2) and |c - c_hi - c_lo| < 2**-105, and the least
    double >= 10**j (inf above 1.8e308)."""
    fives = [1]
    for _ in range(max(-lo, hi)):
        fives.append(fives[-1] * 5)
    bits = [f.bit_length() for f in fives]
    # m = c * 2**106 truncated: 10**j = 5**j * 2**j, or 2**j / 5**-j.  Only
    # the powers 5**j < 2**107 leave no fraction.
    m = ([(1 << (bits[k] + 106)) // fives[k] for k in range(-lo, 0, -1)]
         + [fives[k] << 107 >> bits[k] for k in range(hi + 1)])
    j = np.arange(lo, hi + 1)
    b = np.array(bits)[np.abs(j)]
    t = np.where(j < 0, j - b, j + b - 1)
    top = np.array([k >> 54 for k in m])  # the leading 53 bits
    # the next 54, and a last bit for the fraction
    low = np.array([k & ((1 << 54) - 1) for k in m]) * 2 + ((j < 0) | (b > 107))
    rounds_up = (low > 1 << 54) | ((low == 1 << 54) & (top & 1 == 1))  # ties to even
    with np.errstate(over="ignore"):
        return (t, np.ldexp((top + rounds_up).astype(float), -52),
                np.ldexp((low // 2 - (rounds_up << 54)).astype(float), -106),
                np.ldexp((top + (low > 0)).astype(float), t - 52))


def _tables() -> tuple:
    """Per biased binary exponent (a double's 11 exponent bits): the decimal
    exponent of its least value, and the least double >= the next power of
    ten.  Per decimal exponent E - _E_MIN: 10**(16 - E) as t, c_hi, c_hi's
    Veltkamp halves, and c_lo."""
    t, c_hi, c_lo, up = _powers_of_ten(_E_MIN + 1, 16 - _E_MIN)
    up = up[:_E_MAX - _E_MIN]  # 10**-307 .. 10**308
    count = np.searchsorted(up, np.ldexp(1.0, np.arange(1, 2047) - 1023), side="right")
    e_low = np.zeros(2048, np.intp)  # zeros, subnormals, inf and nan get E = 0
    e_low[1:2047] = _E_MIN + count
    e_next = np.full(2048, np.inf)
    e_next[1:2047] = np.append(up, np.inf)[count]
    scale = slice(15 - _E_MAX - _E_MIN, None)  # 10**(16 - E), E = _E_MAX .. _E_MIN
    t, c_hi, c_lo = t[scale][::-1].astype(np.int32), c_hi[scale][::-1], c_lo[scale][::-1]
    c = _SPLIT * c_hi
    hi = c - (c - c_hi)
    return e_low, e_next, t, c_hi, hi, c_hi - hi, c_lo


def _exponent_text() -> np.ndarray:
    """The exponents' text, "e-308" .. "e+308", 5 bytes each: "e-05" and
    the like end in a 0 byte."""
    e = np.arange(_E_MIN, _E_MAX + 1)
    a = np.abs(e)
    short = a < 100
    text = np.zeros((e.size, 5), np.uint8)
    text[:, 0] = ord("e")
    text[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    text[:, 2] = np.where(short, a // 10, a // 100) + _ZERO
    text[:, 3] = np.where(short, a % 10, a // 10 % 10) + _ZERO
    text[:, 4] = np.where(short, 0, a % 10 + _ZERO)
    return text


_E_LOW, _E_NEXT, _SCALE_EXP, _C_HI, _C_HI_HI, _C_HI_LO, _C_LO = _tables()
# The ASCII text of every 4-digit group as two pairs of digits, one uint16
# each with the first digit in the low byte, from those of every 2-digit
# number.  For the group of digits 4k+1 .. 4k+4 of n (k = 0 .. 3): the count
# of digits of n up to the group's last nonzero one, 0 for an all-zero group.
_TWO = np.arange(100)
_TWO_TEXT = (_TWO // 10 + (_TWO % 10 << 8) + _ZERO * 257).astype(np.uint16)
_GROUP_LOW, _GROUP_HIGH = np.repeat(_TWO_TEXT, 100), np.tile(_TWO_TEXT, 100)
_TWO_LAST = np.where(_TWO % 10 > 0, 2, 1) * (_TWO > 0)  # 2-digit: to the last nonzero
_GROUP_LAST = np.where(np.tile(_TWO_LAST, 100) > 0, 2 + np.tile(_TWO_LAST, 100),
                       np.repeat(_TWO_LAST, 100))
_SIGNIFICANT = [np.where(_GROUP_LAST > 0, 4 * k + 1 + _GROUP_LAST, 0).astype(np.int8)
                for k in range(4)]
_EXPONENT_TEXT = _exponent_text()


class Formatter:
    """CSV text of float64 blocks, built in work arrays that this object owns
    and reuses from one block to the next, so that blocks after the first
    allocate nothing of their size.

    ``text(block)`` returns the rows of the 2-D ``block``, each value as
    ``"%.17g" % v``, values separated by ``,`` and every row ended by
    ``\\n``, as a ``uint8`` array that is valid until the next call.  The
    arrays grow to the largest block seen, 152 bytes per value: 1.6 MB for
    a block of 1024 rows of 10.
    """

    def __init__(self):
        self._capacity = 0

    def _allocate(self, count: int) -> None:
        self._capacity = count
        self._f8 = np.empty((8, count))  # reused for the digits as uint16
        self._i8 = np.empty((6, count), np.int64)
        self._i1 = np.empty((6, count), np.int8)
        self._bool = np.empty((5, count), bool)
        self._scale_exp = np.empty(count, np.int32)
        # at most 25 bytes a value ("-1.2345678901234567e-100,"), a byte
        # before the first and 18 after the last (below)
        self._out = np.empty(25 * count + 20, np.uint8)

    def text(self, block: np.ndarray) -> np.ndarray:
        rows, cols = block.shape
        count = rows * cols
        if count == 0:
            return np.empty(0, np.uint8)
        if count > self._capacity:
            self._allocate(count)
        v = np.ascontiguousarray(block, dtype=np.float64).reshape(count)
        a, m, p, x, y, hi, lo, c = self._f8[:, :count]
        index, e, n, q, end, pos = self._i8[:, :count]
        significant, ep, lead, size, extra, byte = self._i1[:, :count]
        neg, special, flag, sci, point = self._bool[:, :count]
        scale_exp = self._scale_exp[:count]

        # E exactly: the decimal exponent of the binary exponent's least
        # value, plus one at or above the power of ten within it
        np.abs(v, out=a)
        np.signbit(v, out=neg)
        np.right_shift(a.view(np.int64), 52, out=index)
        np.take(_E_LOW, index, out=e, mode="clip")
        np.take(_E_NEXT, index, out=x, mode="clip")
        np.greater_equal(a, x, out=flag)
        np.add(e, flag.view(np.uint8), out=e)
        # nan, inf and subnormals go through "%.17g"; inf and nan compute on 0
        np.equal(index, 2047, out=special)
        np.copyto(a, 0.0, where=special)
        np.equal(index, 0, out=flag)
        np.logical_and(flag, a, out=flag)
        np.logical_or(special, flag, out=special)

        # |v| * 10**(16 - E) = (|v| * 2**t) * c = m * (c_hi + c_lo) as p + y:
        # p = m * c_hi rounded, y its rounding error (Dekker) plus m * c_lo
        np.subtract(e, _E_MIN, out=index)
        np.take(_SCALE_EXP, index, out=scale_exp, mode="clip")
        np.ldexp(a, scale_exp, out=m)
        np.take(_C_HI, index, out=c, mode="clip")
        np.multiply(m, c, out=p)
        np.multiply(m, _SPLIT, out=x)
        np.subtract(x, m, out=y)
        np.subtract(x, y, out=hi)
        np.subtract(m, hi, out=lo)
        np.take(_C_HI_HI, index, out=c, mode="clip")
        np.multiply(hi, c, out=x)
        np.subtract(x, p, out=y)
        np.multiply(lo, c, out=x)
        np.add(y, x, out=y)
        np.take(_C_HI_LO, index, out=c, mode="clip")
        np.multiply(hi, c, out=x)
        np.add(y, x, out=y)
        np.multiply(lo, c, out=x)
        np.add(y, x, out=y)
        np.take(_C_LO, index, out=c, mode="clip")
        np.multiply(m, c, out=x)
        np.add(y, x, out=y)
        # p >= 2**53 is an integer, so n = p + round(y), unless y lies within
        # _BOUND of a tie
        np.add(y, 0.5, out=x)
        np.floor(x, out=x)
        np.subtract(y, x, out=y)
        np.abs(y, out=y)
        np.greater(y, 0.5 - _BOUND, out=flag)
        np.logical_or(special, flag, out=special)
        np.copyto(n, p, casting="unsafe")
        np.copyto(q, x, casting="unsafe")
        np.add(n, q, out=n)
        np.copyto(n, 0, where=special)  # all "0" digits; "%.17g" writes over them
        np.equal(n, 10 ** 17, out=flag)
        if flag.any():  # rounded up to the next power of ten
            carry = np.flatnonzero(flag)
            n[carry] = 10 ** 16
            e[carry] += 1

        # The digits as ASCII pairs, one uint16 plane each: "0" and d0, then
        # digits 1-2, 3-4, ..., 15-16, from 4-digit groups.  `significant`
        # counts the digits up to the last nonzero one.
        planes = self._f8.reshape(-1).view(np.uint16)  # the floats are spent
        pairs = planes[:9 * count].reshape(9, count)
        np.floor_divide(n, 10 ** 16, out=q)
        np.copyto(byte, q, casting="unsafe")  # d0
        np.multiply(q, 10 ** 16, out=q)
        np.subtract(n, q, out=n)
        np.floor_divide(n, 10 ** 8, out=q)  # digits 1-8
        np.multiply(q, 10 ** 8, out=pos)
        np.subtract(n, pos, out=n)  # digits 9-16
        np.copyto(pairs[0], byte, casting="unsafe")
        np.left_shift(pairs[0], 8, out=pairs[0])
        np.add(pairs[0], _ZERO * 257, out=pairs[0])
        significant.fill(1)
        for k, eight in ((0, q), (2, n)):
            np.floor_divide(eight, 10 ** 4, out=pos)
            self._group(pos, pairs, k, significant, extra)
            np.multiply(pos, 10 ** 4, out=pos)
            np.subtract(eight, pos, out=eight)
            self._group(eight, pairs, k + 1, significant, extra)

        # The layout.  ep places the point: E in fixed notation, 0 in
        # scientific.  `lead` counts the zeros before the digits, `point`
        # says whether digits follow the point, and `extra` is the length of
        # the exponent's text ("e-05", "e+100").
        np.less(e, -4, out=sci)
        np.greater(e, 16, out=flag)
        np.logical_or(sci, flag, out=sci)
        np.logical_not(sci, out=flag)
        np.copyto(ep, e, casting="unsafe")
        np.multiply(ep, flag.view(np.int8), out=ep)
        np.negative(ep, out=lead)
        np.maximum(lead, 0, out=lead)
        np.add(ep, 1, out=size)
        np.greater(significant, size, out=point)
        np.maximum(size, significant, out=size)
        np.add(size, lead, out=size)
        np.add(size, point.view(np.int8), out=size)
        np.add(size, neg.view(np.int8), out=size)
        np.add(size, 1, out=size)  # the separator
        np.abs(e, out=pos)
        np.greater_equal(pos, 100, out=flag)
        np.add(flag.view(np.int8), 4, out=extra)
        np.multiply(extra, sci.view(np.int8), out=extra)
        np.add(size, extra, out=size)
        fallback = np.flatnonzero(special)
        texts = _percent_g(v[fallback])
        size[fallback] = [len(s) + 1 for s in texts]
        # positions count from 1, so that start - 1 is one; each is `end`
        # plus an offset of a few bytes
        np.cumsum(size, dtype=np.int64, out=end)
        np.add(end, 1, out=end)
        np.add(lead, neg.view(np.int8), out=lead)
        np.subtract(lead, size, out=lead)
        origin = q
        np.add(end, lead, out=origin)

        out = self._out[:(end[-1] + 19) // 2 * 2]  # even, for the uint16 view
        out.fill(_ZERO)
        # The digits first, as if all after the point: d0 at origin + 1, a
        # pair at a time through a uint16 view, from the last pair down.
        # Pairs start at even positions, so where origin + 1 is odd the
        # first pair is "0" and d0, on the value's own first byte, and where
        # it is even every byte moves down one and the last pair ends with a
        # "0".  Every digit beyond a value's own text is "0" and falls on its
        # separator or on a later value's byte at a lower digit place, which
        # is written after it; the slack holds those of the last value.
        moved = planes[9 * count:18 * count].reshape(9, count)
        carried = planes[18 * count:26 * count].reshape(8, count)
        shift, back = planes[26 * count:28 * count].reshape(2, count)
        np.copyto(shift, origin, casting="unsafe")
        np.bitwise_and(shift, 1, out=shift)
        np.left_shift(shift, 3, out=shift)  # 8 where the bytes move down
        np.subtract(16, shift, out=back)  # a shift by 16 gives 0
        np.right_shift(pairs, shift, out=moved)
        np.left_shift(pairs[1:], back, out=carried)
        np.bitwise_or(moved[:8], carried, out=moved[:8])
        np.multiply(shift, (_ZERO << 8) // 8, out=back)  # the closing "0"
        np.bitwise_or(moved[8], back, out=moved[8])
        text16 = out.view(np.uint16)
        np.add(origin, 1, out=pos)
        np.right_shift(pos, 1, out=pos)  # the first pair's index
        for k in range(8, -1, -1):
            text16[k:][pos] = moved[k]

        # Then the digits before the point, one byte down: d0 at origin, or
        # the "0" it covered where E < 0; the point; the sign, which falls
        # on the previous separator where there is none; the exponent; the
        # values "%.17g" writes; and the separators.
        np.greater_equal(ep, 0, out=flag)
        np.multiply(byte, flag.view(np.int8), out=byte)
        np.add(byte, _ZERO, out=byte)
        out[origin] = byte.view(np.uint8)
        digit = pairs.view(np.uint8).reshape(9, count, 2)
        for j in range(1, ep.max() + 1):
            at = np.flatnonzero(ep >= j)
            out[origin[at] + j] = digit[(j + 1) // 2, at, (j + 1) % 2]
        np.add(ep, 1, out=significant)
        np.add(significant, lead, out=significant)
        np.add(end, significant, out=pos)
        out[pos] = ord(".")
        np.subtract(neg.view(np.int8), size, out=significant)
        np.subtract(significant, 1, out=significant)
        np.add(end, significant, out=pos)
        out[pos] = ord("-")
        at = np.flatnonzero(sci)
        if at.size:  # 5 bytes from the "e": "e-05" pads onto its separator
            at_e = end[at] - extra[at] - 1
            out[at_e[:, None] + np.arange(5)] = _EXPONENT_TEXT[e[at] - _E_MIN]
        view = memoryview(out)
        for i, s in zip((end[fallback] - size[fallback]).tolist(), texts):
            view[i:i + len(s)] = s
        separators = byte.view(np.uint8).reshape(rows, cols)
        separators.fill(ord(","))
        separators[:, -1] = ord("\n")
        np.subtract(end, 1, out=pos)
        out[pos] = separators.reshape(count)
        return out[1:end[-1]]

    @staticmethod
    def _group(group, pairs, k, significant, extra) -> None:
        """Group k (0 .. 3) of 4 digits, 4k+1 .. 4k+4: into pairs 2k+1 and
        2k+2, and into the count of digits up to the last nonzero one."""
        np.take(_GROUP_LOW, group, out=pairs[2 * k + 1], mode="clip")
        np.take(_GROUP_HIGH, group, out=pairs[2 * k + 2], mode="clip")
        np.take(_SIGNIFICANT[k], group, out=extra, mode="clip")
        np.maximum(significant, extra, out=significant)


def _percent_g(values: np.ndarray) -> list:
    """The values the numpy path leaves, each as ``"%.17g" % v`` in bytes."""
    return [("%.17g" % f).encode() for f in values.tolist()]
