"""The bytes of ``repr(float(x))`` for a whole float64 array at once.

Values that ``repr`` writes positionally (1e-4 <= x < 1e16), powers of two
aside, take a vectorized path to Python's shortest round-trip digits: of the
decimals strictly within half a gap of x, those with the most trailing zeros,
and of those the nearest, found from S = x * 10**p in [1e16, 1e17) as in Ryu
(Adams, PLDI 2018). Each 10**p used is an exact double, so one Dekker
TwoProduct gives S exactly. Other values, and any decision within ``_MARGIN``
of its threshold (ties included), are left to ``repr`` itself; from about
1e12 up that is more and more of them.

The digits are read four at a time from a table of ASCII quads. With a '0',
a '.' and a NUL row beside them, each text row of a value with P digits
before its point is one of those rows, in the order ``_ORDER[P + 3]``, so a
block costs one row gather per P present. Every temporary array but the
positions left to ``repr`` has the input's size: with arrays sized by counts
that depend on the data, a process writing many sweeps mostly ended with its
heap split and a CSV-sized block more in its peak memory.
"""

from __future__ import annotations

import math

import numpy as np

_SPLITTER = 2.0**27 + 1.0  # Dekker's split of a double into 26-bit halves


def _split(a):
    """(hi, lo) with hi + lo == a, each half 26 bits wide."""
    hi = _SPLITTER * a - (_SPLITTER * a - a)
    return hi, a - hi


# from Python ints: 10**p is an exact double up to p = 22
_POW10 = np.array([float(10**p) for p in range(23)])
_POW10_HI, _POW10_LO = _split(_POW10)
_IPOW10 = np.array([10**p for p in range(18)], dtype=np.int64)
# at binary exponent e = -13..54 (index e + 13), for values in [2**(e-1), 2**e):
# a guess at p, right or one too large, and half the gap between doubles there
_EXPONENTS = range(-13, 55)
_GUESS = np.array([16 - math.floor((e - 1) * math.log10(2)) for e in _EXPONENTS])
_HALF_GAP = np.array([math.ldexp(1.0, e - 54) for e in _EXPONENTS])
_MARGIN = 1e-9  # every distance computed here is off by less than 1e-15
_TEXT = 22  # the longest positional repr: '0.000' and 17 digits
# '%04d' % k as four ASCII bytes in memory order, for k < 10**4
_QUADS = (np.indices((10,) * 4, np.uint8).reshape(4, -1).T + 48).copy().view(np.uint32).ravel()
_DOT = np.frombuffer(b".\0\0\0", np.uint32)
# source rows: 0-2 '0', 3 + j digit j, 20 '.', 21 NUL; text rows for P = -3..16
_ORDER = np.array([
    [0, 20, *[0] * -point, *range(3, 20), *[21] * (3 + point)] if point < 1
    else [*range(3, 3 + point), 20, *range(3 + point, 20), *[21] * 4]
    for point in range(-3, 17)
])
_COLUMNS = np.arange(_TEXT, dtype=np.uint8)[:, None]


def repr_bytes(values: np.ndarray, end: bytes = b"") -> list[bytes]:
    """``[repr(float(x)).encode() + end for x in values]`` for a 1-D float64 array."""
    x = np.asarray(values, dtype=np.float64)
    digits, point, trailing, sure = _shortest(x)
    out = _positional(digits, point, trailing, end)
    for i in np.flatnonzero(~sure).tolist():
        out[i] = repr(x[i].item()).encode() + end
    return out


def _shortest(x: np.ndarray):
    """Per value: its shortest digits as a 17-digit integer with trailing zeros, the
    digits before its point, the trailing zeros, and whether that is certain."""
    mantissa, exponent = np.frexp(x)
    slow = ~((x >= 1e-4) & (x < 1e16)) | (mantissa == 0.5)
    v = np.where(slow, 1.5, x)  # keeps uncertain rows finite and in range
    exponent[slow] = 1
    e = exponent + np.intp(13)  # a non-negative intp indexes fastest
    p = _GUESS[e]
    p -= v * _POW10[p] >= 1e17
    scale = _POW10[p]
    half_gap = scale * _HALF_GAP[e]  # exact: 5**p < 2**53
    # S = hi + lo exactly (Dekker's TwoProduct); hi >= 2**53 is an integer
    hi = v * scale
    (v_hi, v_lo), s_hi, s_lo = _split(v), _POW10_HI[p], _POW10_LO[p]
    lo = ((v_hi * s_hi - hi) + v_hi * s_lo + v_lo * s_hi) + v_lo * s_lo
    floor = np.floor(lo)
    whole = hi.astype(np.int64) + floor.astype(np.int64)
    frac = lo - floor  # S = whole + frac, frac in [0, 1)
    # v round-trips from every decimal strictly within half_gap of S (v is no power
    # of two); an end of that interval within _MARGIN of an integer is left to repr
    below, above = frac - half_gap, frac + half_gap
    sure = ~slow & (whole > _IPOW10[16] - 1) & (_IPOW10[17] > whole)
    ends = np.floor(below), np.floor(above)
    for bound, end in zip((below, above), ends):
        bound -= end
        sure &= (bound > _MARGIN) & (bound < 1.0 - _MARGIN)
    # (low, high]: the integers in the interval, none for an uncertain value
    low, high = (whole + end.astype(np.int64) for end in ends)
    low = np.where(sure, low, high)
    # the most trailing zeros k of an integer in the interval; half_gap > 0.5 makes k >= 0
    trailing = np.zeros(x.size, np.int64)
    for k in range(1, 17):
        more = high // _IPOW10[k] * _IPOW10[k] > low
        if not more.any():
            break
        trailing += more
    # of those integers, repr takes the one nearest S
    unit = _IPOW10[trailing]
    rest = whole % unit
    lean = (rest + rest - unit) + (frac + frac)  # distance down minus distance up
    sure &= (lean > _MARGIN) | (lean < -_MARGIN)
    digits = whole - rest + (lean > 0) * unit
    # 1e17 would need the point one place right; no double here rounds to it, since
    # float(10**k) is never below 10**k
    sure &= _IPOW10[17] > digits
    return digits, 17 - p, trailing, sure


def _positional(digits, point, trailing, end: bytes) -> list[bytes]:
    """'0.000ddd', 'd.ddd' or 'ddd.0', then ``end``, from a column-major uint8 matrix."""
    n = digits.size
    high = digits // 10**8
    low = digits - high * 10**8
    top, mid = high // 10**4, low // 10**4
    first = top // 10**4  # the leading digit, after '000'
    quads = np.empty((6, n), np.uint32)
    for row, quad in zip(quads, (first, top - first * 10**4, high - top * 10**4, mid,
                                 low - mid * 10**4)):
        np.take(_QUADS, quad, out=row)
    quads[5] = _DOT
    source = quads.view(np.uint8).reshape(6, n, 4).transpose(0, 2, 1).reshape(24, n)
    text = np.zeros((_TEXT + len(end), n), np.uint8)
    for position in range(int(point.min(initial=16)), int(point.max(initial=-3)) + 1):
        mask = point == position
        if mask.any():
            text[:_TEXT] += source[_ORDER[position + 3]] * mask.view(np.uint8)
    length = np.maximum(point, 1) + 1 + np.maximum(17 - trailing - point, 1)
    text[:_TEXT] *= length.astype(np.uint8) > _COLUMNS
    at = length * n + np.arange(n)  # each value's first end byte in the flat text
    for byte in end:
        text.reshape(-1)[at] = byte
        at += n
    # NUL-padded rows: numpy's bytes dtype drops the trailing NULs
    return np.ascontiguousarray(text.T).view(f"S{len(text)}").ravel().tolist()
