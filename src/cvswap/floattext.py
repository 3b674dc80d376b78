"""The bytes of ``repr(float(x))`` for a whole float64 array at once.

Values that ``repr`` writes positionally (1e-4 <= x < 1e16), powers of two
aside, take a vectorized path to Python's shortest round-trip digits: of the
decimals strictly within half a gap of x, those with the most trailing zeros,
and of those the nearest, found from S = x * 10**p in [1e16, 1e17) as in Ryu
(Adams, PLDI 2018). Each 10**p used is an exact double, so one Dekker
TwoProduct gives S exactly. Other values, and any decision within ``_MARGIN``
of its threshold (ties included), are left to ``repr`` itself; from about
1e12 up that is more and more of them.

Every temporary array has the input's size: with arrays sized by counts that
depend on the data, a process writing many sweeps mostly ended with its heap
split and a CSV-sized block more in its peak memory.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# from Python ints: 10**p is an exact double up to p = 22
_POW10 = np.array([float(10**p) for p in range(23)])
_IPOW10 = np.array([10**p for p in range(18)], dtype=np.int64)
# at binary exponent e = -13..54 (negative e wraps), for values in [2**(e-1), 2**e):
# a guess at p, right or one too large, and half the gap between doubles there
_EXPONENTS = [*range(55), *range(-13, 0)]
_GUESS = np.array([16 - math.floor((e - 1) * math.log10(2)) for e in _EXPONENTS])
_HALF_GAP = np.array([math.ldexp(1.0, e - 54) for e in _EXPONENTS])
_SPLITTER = 2.0**27 + 1.0  # Dekker's split of a double into 26-bit halves
_MARGIN = 1e-9  # every distance computed here is off by less than 1e-15
_ZEROS = 5  # '0.000': the most zeros ahead of a positional repr's first digit
_TEXT = 22  # the longest positional repr: '0.000' and 17 digits


def repr_bytes(values: np.ndarray, end: bytes = b"") -> list[bytes]:
    """``[repr(float(x)).encode() + end for x in values]`` for a 1-D float64 array."""
    x = np.asarray(values, dtype=np.float64)
    digits, point, trailing, sure = _shortest(x)
    out = _positional(digits, point, trailing, end)
    if not sure.all():
        values = x.tolist()
        for i in itertools.compress(range(x.size), (~sure).tolist()):
            out[i] = repr(values[i]).encode() + end
    return out


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) with hi + lo == a * b exactly (Dekker), barring overflow."""
    hi = a * b
    a_hi, b_hi = (_SPLITTER * t - (_SPLITTER * t - t) for t in (a, b))
    a_lo, b_lo = a - a_hi, b - b_hi
    return hi, ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _shortest(x: np.ndarray):
    """Per value: its shortest digits as a 17-digit integer with trailing zeros, the
    digits before its point, the trailing zeros, and whether that is certain."""
    mantissa, exponent = np.frexp(x)
    slow = ~((x >= 1e-4) & (x < 1e16)) | (mantissa == 0.5)
    v = np.where(slow, 1.5, x)  # keeps uncertain rows finite and in range
    exponent[slow] = 1
    p = _GUESS[exponent]
    p -= v * _POW10[p] >= 1e17
    scale = _POW10[p]
    half_gap = scale * _HALF_GAP[exponent]  # exact: 5**p < 2**53
    hi, lo = _two_product(v, scale)
    # S = whole + frac exactly (hi >= 2**53 is an integer), frac in [0, 1)
    whole = hi.astype(np.int64) + np.floor(lo).astype(np.int64)
    frac = lo - np.floor(lo)
    # v round-trips from every decimal strictly within half_gap of S (v is no power
    # of two); an end of that interval within _MARGIN of an integer is left to repr
    below, above = frac - half_gap, frac + half_gap
    sure = ~slow & (whole > _IPOW10[16] - 1) & (_IPOW10[17] > whole)
    for bound in (below - np.floor(below), above - np.floor(above)):
        sure &= (bound > _MARGIN) & (bound < 1.0 - _MARGIN)
    low = whole + np.floor(below).astype(np.int64)  # the last integer below the interval
    high = whole + np.floor(above).astype(np.int64)  # the last integer in it
    # the most trailing zeros k of an integer in the interval; half_gap > 0.5 makes k >= 0
    trailing = np.zeros(x.size, np.int64)
    for k in range(1, 17):
        more = (high // _IPOW10[k] > low // _IPOW10[k]) & sure
        if not more.any():
            break
        trailing += more
    # of those integers, repr takes the one nearest S
    unit = _IPOW10[trailing]
    rest = whole - whole // unit * unit
    lean = (rest + rest - unit) + (frac + frac)  # distance down minus distance up
    sure &= (lean > _MARGIN) | (lean < -_MARGIN)
    digits = whole - rest + (lean > 0) * unit
    # 1e17 would need the point one place right; no double here rounds to it, since
    # float(10**k) is never below 10**k
    sure &= _IPOW10[17] > digits
    return digits, 17 - p, trailing, sure


def _positional(digits, point, trailing, end: bytes) -> list[bytes]:
    """'0.000ddd', 'd.ddd' or 'ddd.0', then ``end``, from a column-major uint8 matrix."""
    shift = np.maximum(1 - point, 0)  # zeros ahead of the first digit
    lead = point + shift  # characters before the point
    length = lead + 1 + np.maximum(17 - trailing - point, 1)
    width = _TEXT + len(end)
    # column i of ``source``: _ZEROS '0's, the 17 digits of value i, then '0's
    source = np.full((_ZEROS + width, digits.size), ord("0"), np.uint8)
    for row in range(_ZEROS + 16, _ZEROS - 1, -1):
        quotient = digits // 10
        source[row] += (digits - quotient * 10).astype(np.uint8)
        digits = quotient
    # row c of ``ahead`` is text row c - 1 before the point goes in: ``shift``
    # zeros, then the digits (uint8 differences wrap, and their sums wrap back)
    least, most = int(shift.min(initial=0)), int(shift.max(initial=0))
    windows = [source[_ZEROS - 1 - s:_ZEROS + width - s] for s in range(most + 1)]
    ahead = windows[least].copy()
    for s in range(least + 1, most + 1):
        ahead += (windows[s] - windows[s - 1]) * (shift > s - 1).view(np.uint8)
    # the point goes in at row ``lead``, and the rows after it move down by one
    rows = np.arange(digits.size)
    cols = np.arange(width)[:, None]
    text = ahead[1:]
    text += (ahead[:-1] - ahead[1:]) * (cols > lead).view(np.uint8)
    text[lead, rows] = ord(".")
    text *= (length > cols).view(np.uint8)
    for i, byte in enumerate(end):
        text[length + i, rows] = byte
    # NUL-padded rows: numpy's bytes dtype drops the trailing NULs
    return np.ascontiguousarray(text.T).view(f"S{width}").ravel().tolist()
