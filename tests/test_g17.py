"""The numpy %.17g kernel of grid.export_csv against CPython's "%.17g" % x."""

import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from confgauss import _g17
from confgauss import grid as G
from confgauss.zoo import make_surface, sample


def _texts(slots):
    return [bytes(col[col != 0]).decode() for col in slots.T]


def _expected(values):
    return ["%.17g" % v for v in np.asarray(values, dtype=float).tolist()]


def _powers_of_ten():
    """Every power of ten from 1e-300 to 1e300 and both of its neighbours."""
    out = []
    for e in range(-300, 301):
        p = float(f"1e{e}")
        out += [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)]
    return out


def _is_tie(x):
    """Whether y = |x| 10^(16 - k) in [10^16, 10^17) is an exact tie."""
    if not np.isfinite(x) or x == 0:
        return False
    y = Fraction(abs(x)) * Fraction(10) ** (16 - int(("%.16e" % x).split("e")[1]))
    y = y * 10 if y < 10 ** 16 else y / 10 if y >= 10 ** 17 else y
    return y.denominator == 2


# exact rounding ties, which CPython rounds half-even; five of the dyadic
# fractions m 2^-p below (2^-25, 3 2^-24, 3 2^-25, 5 2^-24, 7 2^-24) are
# ties whose 10^(16 - k) is not a double
TIES = [2251799813685247.75, 2251799813685246.25]
DYADIC = [m * 2.0 ** -p for m in (1, 3, 5, 7) for p in range(1, 64)]
TABLE = _powers_of_ten() + TIES + DYADIC + [
    1e-12, 1e16, 1e17, 99999999999999999.0, 9.9999999999999995e-05,
    1e-4, 1e-5, 0.1, 0.5, 123.0, 1e22, 1e23, 2.0 ** 53, 2.0 ** 53 + 2,
    1.5e-123, 6.02214076e123, 2.5e-250, 1e250,  # 3-digit exponents
    5e-324, 2.2250738585072014e-308, np.finfo(float).max, 0.0, -0.0,
    np.nan, np.inf, -np.inf,
]


def test_table_matches_cpython():
    values = np.array(TABLE + [-x for x in TABLE])
    assert _texts(_g17.g17_slots(values)) == _expected(values)


def test_table_is_formatted_by_the_fast_path():
    """Only NaN, +-inf, |x| outside (1e-280, 1e280) and the exact ties
    (``TIES``, five of ``DYADIC`` and 999999999999999.875, below 1e15) fall
    back to CPython; every other value of the table, 1e-12 and the
    neighbours of each power of ten included, is the fast path's own
    text."""
    values = np.array(TABLE + [-x for x in TABLE])
    slots, rest = _g17.fast_slots(values)
    a = np.abs(values)
    leave = ~((a > 1e-280) & (a < 1e280)) & (a != 0) | [_is_tie(x) for x in a]
    assert sum(_is_tie(x) for x in a) == 2 * 8
    assert np.array_equal(rest, np.flatnonzero(leave))
    keep = np.flatnonzero(~leave)
    assert _texts(slots[:, keep]) == _expected(values[keep])
    assert "9.9999999999999998e-13" in _texts(slots[:, keep])  # the double 1e-12


def test_random_bit_patterns_match_cpython():
    rng = np.random.default_rng(20)
    values = rng.integers(0, 2 ** 64, 50000, dtype=np.uint64).view(np.float64)
    assert _texts(_g17.g17_slots(values)) == _expected(values)


def test_fixed_notation_range_matches_cpython():
    """Every fixed-notation exponent -4 <= k < 17, its edges, and digit
    strings with every number of trailing zeros."""
    rng = np.random.default_rng(21)
    digits = rng.integers(10 ** 16, 10 ** 17, 4000) // 10 ** rng.integers(0, 17, 4000)
    values = digits * 10.0 ** rng.integers(-22, 20, 4000).astype(float)
    values *= rng.choice([-1.0, 1.0], 4000)
    assert _texts(_g17.g17_slots(values)) == _expected(values)


def test_empty_block():
    assert _g17.g17_slots(np.empty(0)).shape == (_g17.WIDTH, 0)


def test_export_peak_memory_is_one_block():
    """tracemalloc peak of export_csv of a (128, 128, 5) field above its
    inputs: one row block's line buffer and kernel temporaries.  Measured
    1.99 MB (the earlier line-by-line writer: 0.73 MB)."""
    n = 128
    grid = G.fundamental_data(sample(make_surface("torus_revolution"), n)).grid
    field = np.random.default_rng(0).normal(size=(n, n, 5))
    path = os.devnull
    G.export_csv(path, grid, {"Y": field})  # builds the kernel's tables
    tracemalloc.start()
    try:
        G.export_csv(path, grid, {"Y": field})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.4e6


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=40))
def test_floats_match_cpython_property(values):
    """Any doubles, NaN, +-inf, +-0 and subnormals included."""
    assert _texts(_g17.g17_slots(np.array(values))) == _expected(values)
