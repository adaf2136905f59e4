"""The scalar helpers of _numeric against 50-digit mpmath.

Each bound is the one its docstring derives from glibc's documented
accuracy (exp and expm1 within 1 ulp, tanh within 2 ulps), with
u = 2^-53; none was fitted to a run.
"""

import math

import mpmath
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from magnitude._numeric import (
    half_x2_over_one_minus_one_plus_x_exp_neg,
    tanh_minus_x,
    tanh_over_x,
    x_over_one_minus_exp_neg,
)
from magnitude.cli import run

U = 2.0**-53


def relative_error(value, exact):
    with mpmath.workdps(50):
        return abs((mpmath.mpf(value) - exact) / exact)


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def chord_ratio(x):
    """(x^2 / 2) / (1 - (1+x) e^{-x}) at 50 digits."""
    with mpmath.workdps(50):
        x = mpmath.mpf(x)
        return x * x / 2 / (1 - (1 + x) * mpmath.exp(-x))


class TestChordRatio:
    @settings(max_examples=400, deadline=None)
    @given(x=log_uniform(1e-8, 100.0))
    @example(x=1e-4)
    @example(x=1e-3)
    @example(x=1e-2)
    @example(x=math.nextafter(2.0, 0.0))
    @example(x=2.0)
    @example(x=100.0)
    def test_within_eight_u(self, x):
        value = half_x2_over_one_minus_one_plus_x_exp_neg(x)
        assert relative_error(value, chord_ratio(x)) <= 8 * U

    def test_limit_at_zero(self):
        assert half_x2_over_one_minus_one_plus_x_exp_neg(0.0) == 1.0
        assert half_x2_over_one_minus_one_plus_x_exp_neg(5e-324) == 1.0

    def test_small_chord_sphere_on_the_command_line(self, capsys):
        # The 2-sphere of radius R with the chord metric is the ratio at 2R;
        # the cancelling direct form printed 1.0000666686104325 here.
        assert run(["sphere", "--dim", "2", "--radius", "5e-5", "--metric", "subspace"]) == 0
        value = float(capsys.readouterr().out)
        assert relative_error(value, chord_ratio(1e-4)) <= 8 * U


class TestTanhMinusX:
    @settings(max_examples=400, deadline=None)
    @given(x=log_uniform(1e-6, 0.1), sign=st.sampled_from([1.0, -1.0]))
    @example(x=0.0999, sign=1.0)
    @example(x=math.nextafter(0.1, 0.0), sign=-1.0)
    def test_series_side_within_six_u(self, x, sign):
        x *= sign
        assume(abs(x) < 0.1)
        with mpmath.workdps(50):
            exact = mpmath.tanh(mpmath.mpf(x)) - x
        assert relative_error(tanh_minus_x(x), exact) <= 6 * U

    @settings(max_examples=200, deadline=None)
    @given(x=log_uniform(0.1, 30.0), sign=st.sampled_from([1.0, -1.0]))
    @example(x=0.1, sign=1.0)
    def test_direct_side_within_five_u_of_x(self, x, sign):
        # tanh(x) - x cancels here, so the bound is absolute: tanh's 4u of
        # |tanh x| and the subtraction's u of |tanh x - x|.
        x *= sign
        with mpmath.workdps(50):
            error = abs(mpmath.mpf(tanh_minus_x(x)) - (mpmath.tanh(mpmath.mpf(x)) - x))
        assert error <= 5 * U * abs(x)

    def test_zero(self):
        assert tanh_minus_x(0.0) == 0.0


class TestQuotients:
    @settings(max_examples=300, deadline=None)
    @given(x=log_uniform(1e-300, 50.0))
    @example(x=0.0999)
    @example(x=0.1)
    def test_tanh_over_x_within_five_u(self, x):
        with mpmath.workdps(50):
            exact = mpmath.tanh(mpmath.mpf(x)) / x
        assert relative_error(tanh_over_x(x), exact) <= 5 * U

    def test_tanh_over_x_limit(self):
        assert tanh_over_x(0.0) == 1.0
        assert tanh_over_x(5e-324) == 1.0

    @settings(max_examples=300, deadline=None)
    @given(x=log_uniform(1e-12, 700.0))
    @example(x=1e-4)
    @example(x=math.nextafter(1e-4, 0.0))
    def test_x_over_one_minus_exp_neg_within_three_u(self, x):
        # The circle's closed form; circle_points_magnitude's bound counts 3u for it.
        with mpmath.workdps(50):
            exact = x / -mpmath.expm1(-mpmath.mpf(x))
        assert relative_error(x_over_one_minus_exp_neg(x), exact) <= 3 * U
