"""The O(N) line routes and the closed-form circle grid against exact sums.

The references sum each grid's magnitude from its exact gaps at 50 digits,
as the benchmark's own references do, without importing them: Leinster's
1 + sum tanh(gap / 2) for points on the line, and n over the similarity
row sum, a two-sided geometric series, for n points on a circle.  Each
computed value must lie within the rounding bound that the library prints
or returns beside it.
"""

import csv

import mpmath
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magnitude import circle_magnitude_closed, circle_points_magnitude
from magnitude.cli import run
from magnitude.line import _LINE_SUM_ROUNDING
from magnitude.spheres import CIRCLE_POINTS_ROUNDING


def line_points(gaps):
    """1 + sum tanh(gap / 2) over (gap, multiplicity) pairs, at 50 digits."""
    with mpmath.workdps(50):
        return 1 + mpmath.fsum(k * mpmath.tanh(mpmath.mpf(g) / 2) for g, k in gaps)


def uniform_grid(length, n):
    """n evenly spaced points on [0, length], endpoints included."""
    with mpmath.workdps(50):
        return line_points([(mpmath.mpf(length) / (n - 1), n - 1)])


def cantor_endpoints(length, depth):
    """Endpoints of the depth-`depth` middle-thirds set of [0, length]: its
    2^depth kept intervals of length l / 3^depth and the 2^(i-1) holes of
    length l / 3^i removed at each round i."""
    with mpmath.workdps(50):
        L = mpmath.mpf(length)
        gaps = [(L / 3**depth, 2**depth)]
        gaps += [(L / 3**i, 2 ** (i - 1)) for i in range(1, depth + 1)]
        return line_points(gaps)


def circle_points(c, n):
    """n evenly spaced points on a circle of circumference c: n over the row
    sum 1 + 2 sum_{k=1}^{(n-1)//2} q^k (+ q^(n/2) for even n), q = e^(-c/n),
    summed as a geometric series with expm1, so that tiny and huge spacings
    keep their digits."""
    with mpmath.workdps(50):
        s = mpmath.mpf(c) / n
        half = (n - 1) // 2
        row = 1 + 2 * mpmath.exp(-s) * mpmath.expm1(-half * s) / mpmath.expm1(-s)
        if n % 2 == 0:
            row += mpmath.exp(-(n // 2) * s)
        return n / row


def cli_value(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return float(out)


def sweep_rows(capsys, tmp_path, spec):
    path = tmp_path / "spec.txt"
    path.write_text(spec)
    out = tmp_path / "out.csv"
    assert run(["sweep", "--spec", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    return list(csv.DictReader(out.read_text().splitlines()))


def within(value, exact, bound):
    with mpmath.workdps(50):
        return abs(mpmath.mpf(value) - exact) <= bound


class TestLineGrids:
    def test_tiny_interval_keeps_every_grid_point(self, capsys):
        # A merge of points closer than 1e-12 printed 1.0000000000045455 here.
        value = cli_value(capsys, "interval", "--length", "1e-11", "--approx", "100")
        exact = uniform_grid(1e-11, 100)
        assert within(value, exact, _LINE_SUM_ROUNDING * value)
        assert value == 1.000000000005

    def test_tiny_cantor_sweep_keeps_every_endpoint(self, capsys, tmp_path):
        rows = sweep_rows(capsys, tmp_path, "space=cantor\nmethod=finite-3\n"
                          "start=1e-11\nstop=3e-11\npoints=3\n")
        assert len(rows) == 3
        for row in rows:
            value, bound = float(row["magnitude"]), float(row["error_estimate"])
            exact = cantor_endpoints(float(row["param_value"]), 3)
            assert bound > 0.0
            assert within(value, exact, bound), row


class TestCircleGrids:
    def test_spacing_that_underflows_prints_one(self, capsys):
        assert cli_value(capsys, "circle", "--circumference", "5e-324", "--points", "3") == 1.0

    def test_trillion_points(self, capsys):
        value = cli_value(capsys, "circle", "--circumference", "20", "--points", "1000000000000")
        assert within(value, circle_points(20.0, 10**12), CIRCLE_POINTS_ROUNDING * value)

    def test_size_costs_nothing(self):
        # The row sum is in closed form, so 10^15 points return at once.
        value = circle_points_magnitude(20.0, 10**15)
        assert within(value, circle_points(20.0, 10**15), CIRCLE_POINTS_ROUNDING * value)

    def test_points_past_the_double_range(self, capsys):
        # 10^400 has no double; the grid's magnitude is the circle's to the last bit.
        n = 10**400
        value = cli_value(capsys, "circle", "--circumference", "1", "--points", str(n))
        assert within(value, circle_points(1.0, n), CIRCLE_POINTS_ROUNDING * value)
        assert value == circle_magnitude_closed(1.0)

    def test_sweep_rows_past_the_double_range(self, capsys, tmp_path):
        n = 10**400
        rows = sweep_rows(capsys, tmp_path, f"space=circle\nmethod=finite-{n}\n"
                          "start=1e-300\nstop=1.7e308\npoints=5\nscale=geometric\n")
        assert len(rows) == 5
        for row in rows:
            value, bound = float(row["magnitude"]), float(row["error_estimate"])
            assert bound > 0.0
            assert within(value, circle_points(float(row["param_value"]), n), bound), row

    @settings(max_examples=300, deadline=None)
    @given(c=st.one_of(st.floats(1e-8, 1e8), st.floats(5e-324, 1.7e308)),
           n=st.one_of(st.integers(1, 60), st.integers(1, 10**12), st.integers(1, 10**400)))
    @example(c=1e-8, n=10**12)
    @example(c=1.7e308, n=10**308)  # 2n has no double, and h = c / (2n) is 0.85
    @example(c=1.7e308, n=10**308 + 1)
    @example(c=1e8, n=10**12 - 1)
    @example(c=4 * 0.4, n=1)  # near the largest odd correction, e^(-2y) tanh(y) at y = 0.4
    @example(c=6.28, n=256)
    @example(c=6.28, n=255)
    @example(c=1e300, n=3)
    def test_formula_against_50_digits(self, c, n):
        value = circle_points_magnitude(c, n)
        assert within(value, circle_points(c, n), CIRCLE_POINTS_ROUNDING * value)
