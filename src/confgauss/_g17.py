"""The text of ``"%.17g" % x`` for a block of float64 values, in numpy.

``grid.export_csv`` writes every value at ``%.17g``, for which CPython's
``%`` takes dtoa's bignum path, several hundred ns a value.  This kernel
forms the same bytes from array arithmetic:

1. k = floor(log10|x|), and y = |x| 10^(16 - k) as a double-double: a
   Dekker product with a hi/lo table of powers of ten, about 1e-14
   absolute error for y < 1e17.  k is picked on the unrounded y (below
   1e16 means k - 1, at or above 1e17 means k + 1); then D = round(y) are
   the 17 significant digits, and a carry to 10^17 is 10^16 with k + 1.
2. The digits come from 4-digit lookup chunks, and ``%g``'s layout
   follows: fixed notation for -4 <= k < 17, else exponential with a 2-
   or 3-digit exponent; trailing zeros and a bare "." dropped.

Where y lies within 1e-9 of a rounding tie, or x is NaN, +-inf or outside
1e-280 < |x| < 1e280, that value alone is formatted by ``"%.17g" % x``;
+-0 are "0" and "-0".

Every value gets ``WIDTH`` byte slots in a fixed layout, and a slot it
does not use holds 0; the writer deletes the 0 bytes of a whole block in
one pass.  Arrays are (slots, values), so that each ufunc's inner loop
runs over the values, not over a short slot axis.
"""

from __future__ import annotations

from functools import cache

import numpy as np

# byte slots of one value: the sign, the "0.000" of a fixed -4 <= k < 0,
# 17 digits with one slot for the point, then "e", the exponent's sign and
# 3 exponent digits
WIDTH = 29
_PREFIX, _MANTISSA, _EXPONENT = 1, 6, 24

# the fast path's range, whose k lie in [-281, 280], and the range |k| <= _K
# of its tables; 10^(16 + _K) times the splitter is finite
_TINY, _HUGE = 1e-280, 1e280
_K = 284

_SPLIT = 134217729.0  # 2^27 + 1: Dekker's splitter of a double

_SLOT18 = np.arange(18, dtype=np.uint8)[:, None]
_RANK17 = np.arange(1, 18, dtype=np.uint8)[:, None]


def _split(a):
    """a = high + low, each of at most 26 significant bits."""
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


@cache
def _tables():
    """Tables by k + _K for k in [-_K, _K]: 10^(16 - k) as the split of its
    nearest double and the rest, ``(high, low, rest)``, to about 2^-106
    relative, from exact integer arithmetic (``float(int)`` and
    ``int / int`` round correctly); the prefix and exponent slots, (5, .);
    the mantissa slot that the point follows (17: none); the digits left
    of a fixed point.  Then the ASCII text of 0000-9999, (4, 10000)."""
    ks = range(-_K, _K + 1)
    power, rest = [], []
    prefix = np.zeros((5, len(ks)), np.uint8)
    exponent = np.zeros((5, len(ks)), np.uint8)
    point = np.zeros(len(ks), np.uint8)
    whole = np.zeros(len(ks), np.uint8)
    for i, k in enumerate(ks):
        if k <= 16:
            p = float(10 ** (16 - k))
            rest.append(float(10 ** (16 - k) - int(p)))
        else:
            den = 10 ** (k - 16)
            p = 1 / den
            a, b = p.as_integer_ratio()
            rest.append((b - a * den) / (b * den))
        power.append(p)
        if 0 <= k < 17:
            point[i], whole[i] = k, k + 1
        elif -4 <= k < 0:
            text = "0." + "0" * (-1 - k)
            prefix[:len(text), i] = list(text.encode())
            point[i] = 17
        else:
            digits = f"{abs(k):02d}"
            exponent[:2, i] = list(b"e-" if k < 0 else b"e+")
            exponent[5 - len(digits):, i] = list(digits.encode())
    chunks = np.frombuffer("".join(f"{c:04d}" for c in range(10000)).encode(),
                           dtype=np.uint8).reshape(10000, 4).T.copy()
    powers = (*_split(np.array(power)), np.array(rest))
    return powers, (prefix, exponent, point, whole), chunks


def _scaled(a, i):
    """a 10^(16 - k), for table indices i = k + _K, as s + t with
    |t| <= ulp(s) / 2: Dekker's exact product of a and the power's nearest
    double, plus a times the power's rest, summed by a fast two-sum."""
    (high, low, rest), _, _ = _tables()
    bh, bl = high[i], low[i]
    p = a * (bh + bl)
    ah, al = _split(a)
    e = (((ah * bh - p) + ah * bl + al * bh) + al * bl) + a * rest[i]
    s = p + e
    return s, e - (s - p)


def _digits(a):
    """(i, D, tie) of positive values a: the table index i = k + _K and
    the 17 digits D in [10^16, 10^17) of a = D 10^(k - 16) rounded, and
    whether a 10^(16 - k) lies within 1e-9 of a rounding tie."""
    i = np.floor(np.log10(a)).astype(np.intp) + _K
    s, t = _scaled(a, i)
    # log10 may be one off near a power of ten; the bounds are doubles, so
    # s - bound is exact where the sign of y - bound is in doubt
    low = (s - 1e16) + t < 0
    high = (s - 1e17) + t >= 0
    off = np.flatnonzero(low | high)
    if off.size:
        i[off] += high[off].astype(np.intp) - low[off]
        s[off], t[off] = _scaled(a[off], i[off])
    r = np.rint(t)
    tie = np.abs(t - r) > 0.5 - 1e-9
    d = s.astype(np.int64) + r.astype(np.int64)
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    i += carry
    return i, d, tie


def g17_slots(x) -> np.ndarray:
    """(WIDTH, n) uint8: the bytes of ``"%.17g" % x[i]`` of the n values
    of ``x``, flattened, in column i, in the slot layout of ``WIDTH``, with
    0 in every unused slot."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    out, rest = fast_slots(x)
    if rest.size:
        text = np.array([("%.17g" % v).encode() for v in x[rest].tolist()], f"S{WIDTH}")
        out[:, rest] = text.view(np.uint8).reshape(rest.size, WIDTH).T
    return out


def _ascii(d):
    """(17, n) uint8: the ASCII digits of the 17-digit integers d."""
    _, _, chunks = _tables()
    digits = np.empty((17, d.size), np.uint8)
    top = d // 10 ** 8
    bottom = (d - top * 10 ** 8).astype(np.int32)  # 8 digits
    top = top.astype(np.int32)  # 9 digits
    lead = top // 10 ** 8
    digits[0] = lead + 48
    for row, chunk in ((1, top // 10 ** 4 - lead * 10 ** 4), (5, top % 10 ** 4),
                       (9, bottom // 10 ** 4), (13, bottom % 10 ** 4)):
        np.take(chunks, chunk, axis=1, out=digits[row:row + 4], mode="clip")
    return digits


def _significand(x):
    """(i, digits, rest): the table index i = k + _K and the ASCII digits
    of each value of x on the fast path, and the indices of the others."""
    a = np.abs(x)
    fast = (a > _TINY) & (a < _HUGE)
    zero = a == 0
    # +-0 and the fallback values run through as 1.0 (k = 0, D = 10^16)
    a[~fast] = 1.0
    i, d, tie = _digits(a)
    d[zero] = 0
    return i, _ascii(d), np.flatnonzero(~(fast | zero) | (fast & tie))


def fast_slots(x):
    """``g17_slots`` of the fast path, and the indices of the values it
    leaves to ``"%.17g" % x``: NaN, +-inf, 0 < |x| <= 1e-280, |x| >= 1e280,
    and y within 1e-9 of a rounding tie.  Their columns hold garbage.

    Slot arithmetic is uint8 arithmetic, modulo 256: ``np.where`` and a
    masked ``np.copyto`` broadcast over the slots take 70-90 ns a value.
    """
    i, digits, rest = _significand(x)
    # significant digits: up to the last nonzero one
    length = ((digits != 48) * _RANK17).max(axis=0)

    _, (prefix, exponent, point, whole), _ = _tables()
    out = np.empty((WIDTH, x.size), np.uint8)
    out[0] = np.uint8(45) * np.signbit(x)
    np.take(prefix, i, axis=1, out=out[_PREFIX:_MANTISSA], mode="clip")
    np.take(exponent, i, axis=1, out=out[_EXPONENT:], mode="clip")
    point = point[i]
    # a digit stays if significant or left of a fixed point
    shifted = np.zeros((19, x.size), np.uint8)
    np.multiply(digits, _RANK17 <= np.maximum(length, whole[i]), out=shifted[1:18])
    # mantissa slot s: digit s up to the point, then the point if digits
    # follow it, then digit s - 1
    at, before = shifted[1:], shifted[:18]
    dot = np.uint8(46) * (length > point + 1)
    mantissa = out[_MANTISSA:_EXPONENT]
    np.subtract(dot, at, out=mantissa)
    mantissa *= _SLOT18 > point
    mantissa += at
    before -= dot  # at is read; before overlaps it
    before *= _SLOT18 > point + 1
    mantissa += before
    return out, rest
