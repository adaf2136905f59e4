"""Tests for exact weight measures on closed subsets of the line."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from magnitude import (
    HypothesisViolated,
    LineSubset,
    LineWeightMeasure,
    NonpositiveLength,
    NotContained,
    PointOutsideCarrier,
    SingularSystem,
    TooFewPoints,
    cantor_level_measure,
    cantor_level_set,
    cantor_magnitude_iterative,
    cantor_magnitude_series,
    carrier_probe_points,
    finite_approx_line,
    finite_approx_points,
    interval_weight_measure,
    line_points_magnitude,
    magnitude_finite,
    measure_total_mass,
    remove_open_interval,
    weight_equation_residual,
)
from magnitude._numeric import linspace


def max_residual(space, measure, per_interval=100):
    return max(
        abs(weight_equation_residual(space, measure, y))
        for y in carrier_probe_points(space, per_interval)
    )


class TestLineSubset:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            LineSubset(((1.0, 2.0), (0.0, 0.5)))

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            LineSubset(((0.0, 1.0), (1.0, 2.0)))

    def test_degenerate_point_interval_ok(self):
        s = LineSubset(((0.0, 0.0), (1.0, 2.0)))
        assert s.contains(0.0) and not s.contains(0.5)

    def test_measure_validation(self):
        with pytest.raises(ValueError, match="sorted"):
            LineWeightMeasure(atoms=((1.0, 0.5), (0.0, 0.5)))
        with pytest.raises(ValueError, match="duplicates"):
            LineWeightMeasure(atoms=((1.0, 0.5), (1.0, 0.5)))
        with pytest.raises(ValueError, match="disjoint"):
            LineWeightMeasure(densities=((0.0, 2.0, 0.5), (1.0, 3.0, 0.5)))
        with pytest.raises(ValueError, match="positive length"):
            LineWeightMeasure(densities=((1.0, 1.0, 0.5),))


class TestIntervalMeasure:
    def test_mass_is_one_plus_half_length(self):
        # |[0, l]| = 1 + l/2; the atom/density sum reproduces it exactly
        for ell in (0.5, 1.0, 2.0, 10.0):
            _, measure = interval_weight_measure(ell)
            assert measure_total_mass(measure) == 1.0 + ell / 2.0

    def test_mass_two_for_length_two(self):
        _, measure = interval_weight_measure(2.0)
        assert measure_total_mass(measure) == 2.0

    def test_point_limit(self):
        _, measure = interval_weight_measure(1e-12)
        assert measure_total_mass(measure) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nonpositive_length(self):
        for ell in (0.0, -1.0):
            with pytest.raises(NonpositiveLength):
                interval_weight_measure(ell)

    def test_weight_equation_holds_everywhere(self):
        for ell in (0.5, 2.0, 10.0):
            space, measure = interval_weight_measure(ell)
            assert max_residual(space, measure) < 1e-12

    def test_empty_measure_has_zero_mass(self):
        assert measure_total_mass(LineWeightMeasure()) == 0.0


class TestResidual:
    def test_outside_carrier_rejected(self):
        space, measure = interval_weight_measure(1.0)
        with pytest.raises(PointOutsideCarrier):
            weight_equation_residual(space, measure, 1.5)

    def test_dropping_end_atoms_gives_negative_residual(self):
        # density 1/2 alone on [0, 2] at the midpoint: integral is
        # 1 - e^{-1}, so the residual is -e^{-1}
        space = LineSubset(((0.0, 2.0),))
        measure = LineWeightMeasure(densities=((0.0, 2.0, 0.5),))
        r = weight_equation_residual(space, measure, 1.0)
        assert r == pytest.approx(-math.exp(-1.0), rel=1e-14)
        assert r < 0


class TestHoleRemoval:
    def test_middle_third_of_length_three(self):
        space, measure = interval_weight_measure(3.0)
        space, measure = remove_open_interval(space, measure, 1.0, 2.0)
        assert space.intervals == ((0.0, 1.0), (2.0, 3.0))
        # 1 + 3/2 - 1/2 + tanh(1/2) = 2.4621171572600096
        assert measure_total_mass(measure) == pytest.approx(
            2.0 + math.tanh(0.5), rel=1e-15
        )
        assert max_residual(space, measure) < 1e-12

    def test_degenerate_hole_is_identity(self):
        space, measure = interval_weight_measure(3.0)
        space2, measure2 = remove_open_interval(space, measure, 1.5, 1.5)
        assert space2 == space and measure2 == measure

    def test_mass_increment_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            ell = float(rng.uniform(0.5, 8.0))
            space, measure = interval_weight_measure(ell)
            a, b = np.sort(rng.uniform(ell * 0.01, ell * 0.99, size=2))
            before = measure_total_mass(measure)
            space, measure = remove_open_interval(space, measure, float(a), float(b))
            after = measure_total_mass(measure)
            expected = -(b - a) / 2.0 + math.tanh((b - a) / 2.0)
            assert after - before == pytest.approx(expected, abs=1e-15)
            assert max_residual(space, measure, per_interval=25) < 1e-12

    def test_disjoint_holes_commute(self):
        space, measure = interval_weight_measure(3.0)
        s1, m1 = remove_open_interval(*remove_open_interval(space, measure, 0.5, 1.0), 1.5, 2.0)
        s2, m2 = remove_open_interval(*remove_open_interval(space, measure, 1.5, 2.0), 0.5, 1.0)
        assert s1 == s2
        assert m1 == m2
        # mass equals two lemma increments on top of 1 + l/2
        expected = 2.5 + 2.0 * (-0.25 + math.tanh(0.25))
        assert measure_total_mass(m1) == pytest.approx(expected, rel=1e-15)
        assert max_residual(s1, m1) < 1e-12

    def test_not_contained(self):
        space, measure = interval_weight_measure(3.0)
        space, measure = remove_open_interval(space, measure, 1.0, 2.0)
        with pytest.raises(NotContained):
            remove_open_interval(space, measure, 0.5, 2.5)
        with pytest.raises(NotContained):
            remove_open_interval(space, measure, -1.0, 0.5)

    def test_atom_inside_violates_hypothesis(self):
        space, measure = interval_weight_measure(3.0)
        with pytest.raises(HypothesisViolated):
            remove_open_interval(space, measure, 0.0, 1.0)  # atom at 0

    def test_wrong_density_violates_hypothesis(self):
        space = LineSubset(((0.0, 3.0),))
        measure = LineWeightMeasure(
            atoms=((0.0, 0.5), (3.0, 0.5)), densities=((0.0, 3.0, 0.3),)
        )
        with pytest.raises(HypothesisViolated):
            remove_open_interval(space, measure, 1.0, 2.0)


class TestCantor:
    def test_level_measure_rejects_a_negative_depth(self):
        # It returned the bare interval, as every other Cantor function refused.
        with pytest.raises(ValueError, match="need depth >= 0, got -1"):
            cantor_level_measure(1.0, -1)

    def test_series_small_length_tends_to_one(self):
        assert cantor_magnitude_series(1e-9, 1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_series_matches_direct_summation(self):
        # independent oracle: direct term-by-term sum, far past the bound
        for ell in (0.1, 1.0, 3.0, 9.0):
            direct = 1.0 + sum(
                2.0 ** (i - 1) * math.tanh(ell / (2.0 * 3.0**i)) for i in range(1, 200)
            )
            assert cantor_magnitude_series(ell, 1e-13) == pytest.approx(direct, abs=2e-13)

    @pytest.mark.parametrize("ell", [1e-3, 3.0, 1e3, 1e200, 1e300, 1.7e308])
    def test_series_against_50_digit_sum(self, ell):
        # lengths past ~1e294 used to overflow 3.0**i before the tail bound was met
        with mpmath.workdps(50):
            L = mpmath.mpf(ell)
            total, i = mpmath.mpf(1), 0
            while True:
                i += 1
                term = 2 ** (i - 1) * mpmath.tanh(L / (2 * mpmath.mpf(3) ** i))
                total += term
                if term < total * mpmath.mpf(10) ** -40:
                    break
            expected = float(total)
        assert cantor_magnitude_series(ell, 1e-12) == pytest.approx(expected, rel=1e-12)

    def test_series_truncation_respects_tail_bound(self):
        # the returned partial sum is within tol of the full series
        full = 1.0 + sum(
            2.0 ** (i - 1) * math.tanh(3.0 / (2.0 * 3.0**i)) for i in range(1, 200)
        )
        for tol in (0.3, 1e-3, 1e-8):
            assert abs(cantor_magnitude_series(3.0, tol) - full) <= tol

    def test_series_vs_iterative_depth_60(self):
        for ell in (0.1, 1.0, 3.0, 9.0):
            s = cantor_magnitude_series(ell, 1e-13)
            it = cantor_magnitude_iterative(ell, 60)
            assert abs(s - it) < 1e-12

    def test_iterative_depth_zero_is_interval(self):
        for ell in (0.5, 3.0):
            assert cantor_magnitude_iterative(ell, 0) == 1.0 + ell / 2.0

    def test_iterative_depth_one(self):
        # single removal from [0, 3]: 1 + 1 + tanh(1/2)
        assert cantor_magnitude_iterative(3.0, 1) == pytest.approx(
            2.0 + math.tanh(0.5), rel=1e-15
        )

    def test_removed_lengths_telescope(self):
        # sum_i 2^{i-1} l / (2 3^i) = l/2, so deep truncations converge to
        # the series value, not to 1 + l/2
        ell = 3.0
        for depth in (20, 40, 60):
            gap = abs(cantor_magnitude_iterative(ell, depth) - cantor_magnitude_series(ell, 1e-15))
            assert gap < (ell / 2.0) * (2.0 / 3.0) ** depth + 1e-13

    def test_level_measure_matches_iterative_formula(self):
        for depth in (1, 3, 5):
            space, measure = cantor_level_measure(3.0, depth)
            assert len(space.intervals) == 2**depth
            assert measure_total_mass(measure) == pytest.approx(
                cantor_magnitude_iterative(3.0, depth), abs=1e-13
            )

    def test_level_measure_weight_equation(self):
        space, measure = cantor_level_measure(3.0, 4)
        assert max_residual(space, measure, per_interval=100) < 1e-12

    def test_level_set_matches_level_measure_carrier(self):
        # the direct construction and the measure surgery split intervals
        # with identical arithmetic, so the carriers agree bitwise
        for depth in (0, 1, 3, 5):
            direct = cantor_level_set(2.7, depth)
            surgery, _ = cantor_level_measure(2.7, depth)
            assert direct == surgery

    def test_invalid_inputs(self):
        with pytest.raises(NonpositiveLength):
            cantor_magnitude_series(0.0, 1e-10)
        with pytest.raises(ValueError):
            cantor_magnitude_series(1.0, 0.0)
        with pytest.raises(ValueError):
            cantor_magnitude_iterative(1.0, -1)


class TestFiniteApprox:
    def test_endpoints_only(self):
        space, _ = interval_weight_measure(2.0)
        X = finite_approx_line(space, 2)
        assert X.n == 2
        assert magnitude_finite(X) == pytest.approx(2.0 / (1.0 + math.exp(-2.0)), rel=1e-13)

    def test_grid_formula_oracle_is_a_weighting(self):
        # independently verify the closed-form weights for a uniform grid:
        # end weights 1/(1+q), interior (1-q)/(1+q) with q = e^{-h}
        n, h = 8, 0.3
        q = math.exp(-h)
        w = np.full(n, (1.0 - q) / (1.0 + q))
        w[0] = w[-1] = 1.0 / (1.0 + q)
        xs = np.arange(n) * h
        Z = np.exp(-np.abs(xs[:, None] - xs[None, :]))
        assert np.abs(Z @ w - 1.0).max() < 1e-14
        assert w.sum() == pytest.approx(1.0 + (n - 1) * math.tanh(h / 2.0), rel=1e-15)

    def test_uniform_grid_matches_formula(self):
        space, _ = interval_weight_measure(2.0)
        X = finite_approx_line(space, 512)
        assert X.n == 512
        h = 2.0 / 511.0
        expected = 1.0 + 511.0 * math.tanh(h / 2.0)
        assert magnitude_finite(X) == pytest.approx(expected, abs=1e-9)
        assert abs(magnitude_finite(X) - 2.0) < 3e-5

    def test_monotone_increase_toward_continuum(self):
        space, _ = interval_weight_measure(2.0)
        values = [magnitude_finite(finite_approx_line(space, n)) for n in (8, 16, 32, 64, 128)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(v < 2.0 for v in values)

    def test_cantor_endpoint_count(self):
        for depth in (0, 1, 4):
            X = finite_approx_line(cantor_level_set(1.0, depth), 2)
            assert X.n == 2 ** (depth + 1)

    def test_dedup_merges_endpoint_grid_overlap(self):
        space = LineSubset(((0.0, 1.0),))
        X = finite_approx_line(space, 11)
        assert X.n == 11  # endpoints coincide with grid points

    def test_too_few_points(self):
        space, _ = interval_weight_measure(1.0)
        with pytest.raises(TooFewPoints):
            finite_approx_line(space, 1)


def scalar_loop_points(space, n_grid):
    """The point set built one grid point at a time with LineSubset.contains."""
    lo, hi = space.hull
    pts = [x for a, b in space.intervals for x in ((a,) if a == b else (a, b))]
    for x in np.linspace(lo, hi, n_grid):
        if space.contains(float(x)):
            pts.append(float(x))
    return np.unique(pts)


# Lengths and gaps mix ordinary sizes with sizes down to 1e-14, where grid
# points fall within a few ulps of endpoints: those are kept, and only exact
# duplicates are dropped.
_sizes = st.one_of(
    st.floats(1e-3, 10.0),
    st.sampled_from([0.0, 3e-13, 5e-13, 1e-12, 1.5e-12, 2.5e-12, 1e-11]),
    st.floats(1e-14, 1e-10),
)


@st.composite
def line_subsets(draw):
    x = draw(st.floats(-100.0, 100.0))
    intervals = []
    for _ in range(draw(st.integers(1, 8))):
        length = draw(_sizes)
        intervals.append((x, x + length))
        x = x + length + draw(_sizes.filter(lambda g: g > 0.0))
    try:
        return LineSubset(tuple(intervals))
    except ValueError:  # a gap absorbed by rounding
        assume(False)


@st.composite
def cantor_sets(draw):
    return cantor_level_set(draw(st.floats(1e-11, 1e3)), draw(st.integers(0, 7)))


class TestLinePoints:
    @settings(max_examples=300, deadline=None)
    @given(space=st.one_of(line_subsets(), cantor_sets()),
           n_grid=st.one_of(st.integers(2, 40), st.integers(2, 3000)))
    def test_points_equal_the_scalar_loop(self, space, n_grid):
        assert np.array_equal(finite_approx_points(space, n_grid),
                              scalar_loop_points(space, n_grid))

    @pytest.mark.parametrize("length, n_grid", [
        (2.0, 512), (1e-9, 300), (1e-11, 50), (3.0, 2), (1.0, 11), (1e3, 4096),
    ])
    def test_interval_grids_equal_the_scalar_loop(self, length, n_grid):
        space, _ = interval_weight_measure(length)
        assert np.array_equal(finite_approx_points(space, n_grid),
                              scalar_loop_points(space, n_grid))

    @settings(max_examples=300, deadline=None)
    @given(start=st.one_of(st.floats(-1e10, 1e10), st.sampled_from([0.0, -0.0, 5e-324, -1e-320])),
           span=st.one_of(st.floats(5e-324, 1e-305), st.floats(1e-305, 1e300)),
           num=st.integers(2, 400))
    @example(start=0.0, span=1e-322, num=300)
    @example(start=-1e-320, span=1e-322, num=100)
    def test_grid_is_numpy_linspace_bit_for_bit(self, start, span, num):
        # Spans of a few subnormals make the step underflow to 0, numpy's
        # other branch.
        stop = start + span
        assume(math.isfinite(stop) and stop > start)
        want = np.linspace(start, stop, num).tolist()
        assert [x.hex() for x in linspace(start, stop, num)] == [x.hex() for x in want]

    def test_finite_approx_line_uses_the_points(self):
        space = cantor_level_set(2.0, 3)
        xs = np.array(finite_approx_points(space, 50))
        X = finite_approx_line(space, 50)
        assert np.array_equal(X.d, np.abs(xs[:, None] - xs[None, :]))

    @settings(max_examples=60, deadline=None)
    @given(space=st.one_of(line_subsets(), cantor_sets()), n_grid=st.integers(2, 500))
    def test_matches_the_dense_solve(self, space, n_grid):
        xs = finite_approx_points(space, n_grid)
        assume(len(xs) <= 500)
        try:
            dense = magnitude_finite(finite_approx_line(space, n_grid))
        except SingularSystem:
            assume(False)
        value, error = line_points_magnitude(xs)
        assert value == pytest.approx(dense, rel=1e-9)
        assert error > 0.0

    @pytest.mark.parametrize("space, n_grid", [
        (LineSubset(((0.0, 2.0),)), 512),
        (LineSubset(((0.0, 1.0), (1.5, 4.0), (7.0, 7.0))), 200),
        (cantor_level_set(3.0, 7), 2),
        (cantor_level_set(1.0, 5), 300),
    ], ids=["interval", "union", "cantor-7", "cantor-grid"])
    def test_matches_the_dense_solve_on_fixed_spaces(self, space, n_grid):
        value, _ = line_points_magnitude(finite_approx_points(space, n_grid))
        assert value == pytest.approx(magnitude_finite(finite_approx_line(space, n_grid)), rel=1e-9)

    def test_error_bound_holds_against_mpmath(self):
        rng = np.random.default_rng(20261018)
        cases = []
        for _ in range(240):
            n = int(rng.integers(1, 400))
            scale = 10.0 ** rng.uniform(-14, 3)
            offset = float(rng.choice([0.0, 1.0, 1e6, -1e12]))
            xs = np.unique(offset + np.cumsum(rng.exponential(scale, n)))
            cases.append(xs)
        cases.append(np.array([0.0]))
        cases.append(np.linspace(0.0, 2.0, 100000)[:2000])
        assert len(cases) >= 200
        with mpmath.workdps(50):
            for xs in cases:
                value, error = line_points_magnitude(xs)
                exact = 1 + mpmath.fsum(
                    mpmath.tanh((mpmath.mpf(float(b)) - mpmath.mpf(float(a))) / 2)
                    for a, b in zip(xs, xs[1:])
                )
                assert error > 0.0
                assert abs(mpmath.mpf(value) - exact) <= error, (xs.size, value, error)

    def test_two_points(self):
        value, _ = line_points_magnitude([0.0, 3.0])
        assert value == pytest.approx(1.0 + math.tanh(1.5), rel=1e-15)
        assert line_points_magnitude([5.0])[0] == 1.0

    @pytest.mark.parametrize("xs", [[], [[0.0, 1.0]], [1.0, 0.0], [0.0, 0.0], [0.0, math.inf],
                                    [math.nan, 1.0]], ids=str)
    def test_rejects_bad_points(self, xs):
        with pytest.raises(ValueError):
            line_points_magnitude(xs)

    @pytest.mark.parametrize("xs", [np.zeros((2, 2)), np.array([]), np.array([1.0, 0.0])],
                             ids=["2-d", "empty", "decreasing"])
    def test_rejects_bad_arrays(self, xs):
        with pytest.raises(ValueError):
            line_points_magnitude(xs)

    def test_takes_an_array(self):
        assert line_points_magnitude(np.array([0.0, 3.0])) == line_points_magnitude([0.0, 3.0])
