"""Tests for the sweep grids of _numeric (linspace's bit-for-bit test against
numpy lives with the line grids in test_line)."""

import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magnitude._numeric import geomspace

U = 2.0**-53
DOUBLE_MAX = sys.float_info.max


def geometric_error_bound(start: float, stop: float) -> float:
    """Relative error bound of an interior point of a geometric grid built as
    10 ** linspace(log10(start), log10(stop), num), for normal points.

    Let A = log10(start), B = log10(stop), M = max(|A|, |B|) and u = 2^-53;
    an ulp of a normal double x is at most 2u|x|.  Allow log10 and pow 4
    ulps each: glibc documents 2 ulps for log10 and 1 for pow, and numpy's
    own SIMD log10 is validated to 1 ulp.  Then a = fl(log10 start) is
    within 8u|A|(1 + 8u) of A, and the same holds for b and B.

    Point i, with f = i / (num - 1), is y = fl(fl(i * fl(fl(b - a) / div)) + a),
    or its underflow branch fl(fl(fl(i / div) * fl(b - a)) + a): three
    roundings in the product, one in the sum.  Against Y = A + f (B - A),
        y - Y = (1 - f)(a - A) + f (b - B) + f (b - a) eta + e (sum),
    with |eta| <= 3.01u and |e| <= u.  The first two terms are at most
    8u M (1 + 8u); |b - a| <= 2M (1 + 8u) makes the third at most 6.03u M;
    the sum rounded is at most 1.01M, so the last is at most 1.01u M.
    Hence |y - Y| <= 15.1u M <= 16u M.

    The point 10^y (1 + d), |d| <= 8u, is then within a relative
    exp(ln(10) 16u M)(1 + 8u) - 1 of 10^Y.  For M <= 324 the exponent is
    below 1.3e-12, so expm1 exceeds its argument by a relative 1e-12 at
    most, and the bound returned is 1.01 (16 ln(10) M + 8) u.
    """
    M = max(abs(math.log10(start)), abs(math.log10(stop)))
    return 1.01 * (16.0 * math.log(10.0) * M + 8.0) * U


def checked_indices(num: int) -> list[int]:
    """The first and last 100 points and about 100 spread between them."""
    return sorted(set(range(min(num, 100))) | set(range(max(0, num - 100), num))
                  | set(range(0, num, max(1, num // 100))))


def exponents():
    return st.floats(-300.0, 300.0, allow_nan=False)


class TestGeomspace:
    @settings(max_examples=150, deadline=None)
    @given(lo=exponents(), hi=exponents(), num=st.one_of(st.integers(2, 50), st.integers(2, 10**4)),
           adjacent=st.booleans())
    @example(lo=-300.0, hi=300.0, num=10**4, adjacent=False)
    @example(lo=0.0, hi=1e-9, num=1000, adjacent=False)
    @example(lo=250.0, hi=250.0, num=7, adjacent=True)
    def test_points_within_the_derived_bound_of_the_exact_ones(self, lo, hi, num, adjacent):
        start, stop = 10.0 ** min(lo, hi), 10.0 ** max(lo, hi)
        if adjacent or start == stop:
            stop = math.nextafter(start, math.inf)
        bound = geometric_error_bound(start, stop)
        ours = geomspace(start, stop, num)
        theirs = np.geomspace(start, stop, num).tolist()
        assert len(ours) == num
        assert (ours[0], ours[-1]) == (start, stop)
        with mpmath.workprec(160):
            a, ratio = mpmath.mpf(start), mpmath.mpf(stop) / mpmath.mpf(start)
            for i in checked_indices(num):
                exact = a * ratio ** (mpmath.mpf(i) / (num - 1))
                # numpy's grid meets the same bound: the port is no less
                # accurate than the grid it replaces.
                for name, point in (("geomspace", ours[i]), ("np.geomspace", theirs[i])):
                    assert abs(point - exact) <= bound * exact, (name, i, point, float(exact))

    def test_endpoints_are_start_and_stop(self):
        grid = geomspace(0.5, 8.0, 5)
        assert (grid[0], grid[-1]) == (0.5, 8.0)
        assert grid == pytest.approx([0.5, 1.0, 2.0, 4.0, 8.0], rel=1e-15)
        assert geomspace(3.0, 7.0, 2) == [3.0, 7.0]

    def test_an_interior_power_that_overflows_is_stop(self):
        start = math.nextafter(DOUBLE_MAX, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert geomspace(start, DOUBLE_MAX, 3) == [start, DOUBLE_MAX, DOUBLE_MAX]
            grid = geomspace(1.0, DOUBLE_MAX, 3)
        assert grid[0] == 1.0 and grid[2] == DOUBLE_MAX
        assert grid[1] == pytest.approx(math.sqrt(DOUBLE_MAX), rel=1e-13)

    def test_tiny_starts(self):
        grid = geomspace(5e-324, 1.0, 5)
        assert grid[0] == 5e-324 and grid[-1] == 1.0
        assert all(x > 0.0 for x in grid)
        assert grid == sorted(grid)
