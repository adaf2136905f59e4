"""Tests for finite metric spaces and the weight-equation solver."""

import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnitude import finite
from magnitude import (
    FiniteMetricSpace,
    NonpositiveScale,
    NotHomogeneous,
    SingularSystem,
    circle_points,
    circle_points_magnitude,
    magnitude_finite,
    magnitude_homogeneous_finite,
    read_distance_matrix,
    read_point_cloud,
    scale,
    similarity_matrix,
    weighting,
)


def equilateral(n, d=1.0):
    m = np.full((n, n), d)
    np.fill_diagonal(m, 0.0)
    return FiniteMetricSpace(m)


def random_euclidean(n, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(n, dim))
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=2))
    np.fill_diagonal(d, 0.0)
    return FiniteMetricSpace(d)


class TestConstruction:
    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            FiniteMetricSpace([[0.0, 1.0]])

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            FiniteMetricSpace([[0.1, 1.0], [1.0, 0.0]])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="row 0, column 1"):
            FiniteMetricSpace([[0.0, 1.0], [2.0, 0.0]])

    def test_rejects_duplicate_points(self):
        with pytest.raises(ValueError, match="distinct points"):
            FiniteMetricSpace([[0.0, 0.0], [0.0, 0.0]])

    def test_rejects_triangle_violation(self):
        d = [[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]]
        with pytest.raises(ValueError, match="triangle"):
            FiniteMetricSpace(d)
        # the same matrix passes with the check disabled
        FiniteMetricSpace(d, check_triangle=False)

    def test_collinear_points_pass_triangle_check(self):
        xs = np.array([0.0, 0.1, 0.30000000000000004, 0.7, 1.1])
        d = np.abs(xs[:, None] - xs[None, :])
        FiniteMetricSpace(d)  # equality case must not trip on roundoff

    def test_labels_checked(self):
        with pytest.raises(ValueError, match="labels"):
            FiniteMetricSpace([[0.0, 1.0], [1.0, 0.0]], labels=["a"])


def naive_triangle_violations(d):
    """The scan over j that the blocked check replaced, kept as its reference.

    Returns the n x n mask of pairs (i, k) that some j violates beyond the
    slack, and for each flagged pair the smallest such j.
    """
    n = d.shape[0]
    slack = 1e-12 * (1.0 + float(d.max()))
    flagged = np.zeros((n, n), dtype=bool)
    first_j = np.zeros((n, n), dtype=int)
    with np.errstate(over="ignore"):
        for j in range(n):
            bad = d > d[:, j][:, None] + d[j, :][None, :] + slack
            first_j[bad & ~flagged] = j
            flagged |= bad
    return flagged, first_j


TRIANGLE_MESSAGE = re.compile(
    r"triangle inequality violated: d\[(\d+),(\d+)\] > d\[\1,(\d+)\] \+ d\[\3,\2\]$")


def triangle_report(d):
    """(i, j, k) named by _check_triangle, or None when it accepts d."""
    try:
        finite._check_triangle(d)
    except ValueError as exc:
        i, k, j = map(int, TRIANGLE_MESSAGE.match(str(exc)).groups())
        return i, j, k
    return None


@st.composite
def perturbed_metrics(draw):
    """Euclidean distances of random points, rescaled and then perturbed.

    Sizes sit on both sides of the block edges; dim 1 puts every triple on
    the equality case; rescaling up to 1.7e308 makes pair sums overflow.
    Perturbations are multiples of the check's slack, so they fall on both
    sides of it.
    """
    n = draw(st.sampled_from([1, 2, 63, 64, 65, 130]))
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.uniform(-1.0, 1.0, size=(n, dim))
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.abs(diff[..., 0]) if dim == 1 else np.sqrt((diff * diff).sum(axis=2))
    top = draw(st.sampled_from([None, 1e300, 1.7e308]))
    if top is not None and n > 1:
        d = d / d.max() * top
    for _ in range(draw(st.integers(0, 4)) if n > 1 else 0):
        i, k = rng.choice(n, size=2, replace=False)
        c = draw(st.sampled_from([-1.0, 0.5, 1.0, 1.0 + 2.0**-20, 2.0, 1e6, 1e11]))
        slack = 1e-12 * (1.0 + float(d.max()))
        d[i, k] = d[k, i] = min(max(float(d[i, k]) + c * slack, 0.0), np.finfo(float).max)
    np.fill_diagonal(d, 0.0)
    return d


class TestTriangleCheck:
    @settings(max_examples=200, deadline=None)
    @given(d=perturbed_metrics(), block=st.sampled_from([64, 5]))
    def test_agrees_with_the_naive_scan(self, d, block):
        flagged, first_j = naive_triangle_violations(d)
        upper = np.argwhere(np.triu(flagged, 1))
        with mock.patch.object(finite, "_TRIANGLE_BLOCK", block):
            report = triangle_report(d)
        if len(upper) == 0:
            assert report is None
            return
        # the first flagged pair in row-major order, with its smallest j
        i, k = map(int, upper[0])
        assert report == (i, int(first_j[i, k]), k)
        i, j, k = report
        slack = 1e-12 * (1.0 + float(d.max()))
        with np.errstate(over="ignore"):
            assert d[i, k] > d[i, j] + d[j, k] + slack

    def test_witness_in_an_earlier_block(self, monkeypatch):
        # Point 0 is the only point between points 20 and 21, whose block
        # starts at row 20.
        monkeypatch.setattr(finite, "_TRIANGLE_BLOCK", 4)
        xs = np.concatenate([[0.5], np.linspace(0.0, 0.4, 20), np.linspace(0.6, 1.0, 20)])
        d = np.abs(xs[:, None] - xs[None, :])
        d[20, 21] = d[21, 20] = d[20, 21] + 1e-6
        assert triangle_report(d) == (20, 0, 21)

    def test_message_does_not_depend_on_thread_timing(self, monkeypatch):
        monkeypatch.setattr(finite, "_TRIANGLE_BLOCK", 4)
        xs = np.linspace(0.0, 1.0, 40)
        d = np.abs(xs[:, None] - xs[None, :])
        for i, k in [(33, 38), (21, 30), (9, 17), (2, 5)]:
            d[i, k] = d[k, i] = 2.0 * d[i, k]
        reports = {triangle_report(d) for _ in range(20)}
        assert reports == {(2, 1, 5)}


class TestSimilarity:
    def test_one_point(self):
        X = FiniteMetricSpace([[0.0]])
        assert similarity_matrix(X).tolist() == [[1.0]]

    def test_two_points_log2(self):
        X = FiniteMetricSpace([[0.0, math.log(2)], [math.log(2), 0.0]])
        Z = similarity_matrix(X)
        assert Z[0, 1] == pytest.approx(0.5, abs=1e-15)
        assert Z[0, 0] == 1.0 and Z[1, 1] == 1.0

    def test_equilateral(self):
        Z = similarity_matrix(equilateral(3))
        off = Z[~np.eye(3, dtype=bool)]
        assert np.allclose(off, math.exp(-1.0), atol=0, rtol=1e-15)


class TestWeighting:
    def test_one_point(self):
        w = weighting(FiniteMetricSpace([[0.0]]))
        assert w.w.tolist() == [1.0]
        assert w.rcond == 1.0

    def test_two_points_closed_form(self):
        # hand solve of [[1, q], [q, 1]] w = 1: w_i = 1/(1+q)
        t = 1.3
        X = FiniteMetricSpace([[0.0, t], [t, 0.0]])
        w = weighting(X)
        expected = 1.0 / (1.0 + math.exp(-t))
        assert np.allclose(w.w, expected, rtol=1e-14)
        assert w.residual_norm <= 1e-10

    def test_equilateral_closed_form(self):
        w = weighting(equilateral(3))
        assert np.allclose(w.w, 1.0 / (1.0 + 2.0 * math.exp(-1.0)), rtol=1e-14)

    def test_singular_raises(self):
        X = FiniteMetricSpace([[0.0, 1e-13], [1e-13, 0.0]])
        with pytest.raises(SingularSystem):
            weighting(X)

    def test_bad_tol_rejected(self):
        with pytest.raises(ValueError):
            weighting(equilateral(3), tol=0.0)


class TestMagnitude:
    def test_one_point(self):
        assert magnitude_finite(FiniteMetricSpace([[0.0]])) == 1.0

    def test_two_points_at_pi_r(self):
        # two points a distance pi R apart: 2 / (1 + e^{-pi R})
        for R in (0.3, 1.0, 2.5):
            d = math.pi * R
            X = FiniteMetricSpace([[0.0, d], [d, 0.0]])
            expected = 2.0 / (1.0 + math.exp(-math.pi * R))
            assert magnitude_finite(X) == pytest.approx(expected, rel=1e-13)

    def test_equilateral_triple(self):
        # symmetric 3x3 solve: 3 / (1 + 2 e^{-1}) = 1.7283506542974874
        assert magnitude_finite(equilateral(3)) == pytest.approx(
            1.7283506542974874, rel=1e-13
        )

    def test_permutation_invariance(self):
        X = random_euclidean(24, seed=3)
        rng = np.random.default_rng(4)
        perm = rng.permutation(24)
        Y = FiniteMetricSpace(X.d[np.ix_(perm, perm)], check_triangle=False)
        assert magnitude_finite(Y) == pytest.approx(magnitude_finite(X), abs=1e-9)

    def test_weighting_sum_independent_of_ordering(self):
        # reversing the point order perturbs the pivoting; the sum must hold
        X = random_euclidean(30, seed=9)
        Y = FiniteMetricSpace(X.d[::-1, ::-1], check_triangle=False)
        tol = 1e-10
        a = magnitude_finite(X, tol)
        b = magnitude_finite(Y, tol)
        assert abs(a - b) <= 10 * tol


class TestScale:
    def test_identity(self):
        X = equilateral(3)
        assert np.array_equal(scale(X, 1.0).d, X.d)

    def test_two_points_times_three(self):
        X = FiniteMetricSpace([[0.0, 1.0], [1.0, 0.0]])
        assert scale(X, 3.0).d[0, 1] == 3.0

    def test_nonpositive_rejected(self):
        X = equilateral(2)
        for t in (0.0, -1.0, float("nan")):
            with pytest.raises(NonpositiveScale):
                scale(X, t)

    def test_composition_exact_for_dyadic_factors(self):
        # multiplying by powers of two is exact in binary floating point,
        # so the two orders agree bitwise
        X = random_euclidean(8, seed=1)
        a = scale(X, 2.0 * 0.5)
        b = scale(scale(X, 0.5), 2.0)
        assert np.array_equal(a.d, b.d)

    def test_composition_near_exact_generally(self):
        X = random_euclidean(8, seed=2)
        a = scale(X, 0.3 * 0.7)
        b = scale(scale(X, 0.7), 0.3)
        assert np.allclose(a.d, b.d, rtol=1e-15, atol=0)

    def test_large_scale_tends_to_point_count(self):
        X = random_euclidean(12, seed=5)
        t = 60.0 / X.d[X.d > 0].min()  # min distance beyond 50
        m = magnitude_finite(scale(X, t))
        assert abs(m - 12.0) < 1e-9

    def test_labels_preserved(self):
        X = FiniteMetricSpace([[0.0, 1.0], [1.0, 0.0]], labels=("a", "b"))
        assert scale(X, 2.0).labels == ("a", "b")


class TestHomogeneous:
    def test_equilateral_is_homogeneous(self):
        assert magnitude_homogeneous_finite(equilateral(3)) == pytest.approx(
            3.0 / (1.0 + 2.0 * math.exp(-1.0)), rel=1e-14
        )

    def test_single_point_is_homogeneous(self):
        assert magnitude_homogeneous_finite(FiniteMetricSpace([[0.0]])) == 1.0

    def test_collinear_is_not(self):
        xs = np.array([0.0, 1.0, 3.0])
        d = np.abs(xs[:, None] - xs[None, :])
        X = FiniteMetricSpace(d)
        with pytest.raises(NotHomogeneous):
            magnitude_homogeneous_finite(X)

    def test_two_points_any_distance(self):
        X = FiniteMetricSpace([[0.0, 2.0], [2.0, 0.0]])
        assert magnitude_homogeneous_finite(X) == pytest.approx(
            2.0 / (1.0 + math.exp(-2.0)), rel=1e-15
        )

    def test_agrees_with_solver_within_ten_tol(self):
        X = circle_points(7.0, 48)
        tol = 1e-10
        a = magnitude_homogeneous_finite(X, tol)
        b = magnitude_finite(X, tol)
        assert abs(a - b) <= 10 * tol

    def test_circle_points_converge_to_closed_form(self):
        # N / (row sum) tends to the continuum value l / (2 (1 - e^{-l/2}))
        ell = 2.0 * math.pi
        closed = ell / (2.0 * (1.0 - math.exp(-ell / 2.0)))
        prev_gap = None
        for n in (16, 64, 256):
            m = magnitude_homogeneous_finite(circle_points(ell, n))
            gap = abs(m - closed)
            if prev_gap is not None:
                assert gap < prev_gap
            prev_gap = gap
        assert prev_gap < 1e-3


class TestCirclePointsMagnitude:
    @settings(max_examples=60, deadline=None)
    @given(c=st.floats(1e-3, 1e3), n=st.integers(1, 1500))
    def test_equals_dense_row_sum_exactly(self, c, n):
        dense = magnitude_homogeneous_finite(circle_points(c, n), tol=1e-8)
        assert circle_points_magnitude(c, n) == dense

    def test_memory_is_linear_in_n(self):
        n = 10**5
        tracemalloc.start()
        try:
            value = circle_points_magnitude(5.0, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert math.isfinite(value)
        assert peak < 100 * n

    @pytest.mark.parametrize("c", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_circumference(self, c):
        with pytest.raises(NonpositiveScale):
            circle_points_magnitude(c, 5)
        with pytest.raises(NonpositiveScale):
            circle_points(c, 5)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="at least one point"):
            circle_points_magnitude(1.0, 0)

    def test_rejects_spacing_that_underflows(self):
        # the dense route would see zero distances between distinct points
        with pytest.raises(ValueError, match="underflows"):
            circle_points_magnitude(5e-324, 3)
        assert circle_points_magnitude(5e-324, 1) == 1.0


class TestIO:
    def test_distance_matrix_roundtrip(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0,1\n1,0\n")
        X = read_distance_matrix(p)
        assert X.n == 2
        assert magnitude_finite(X) == pytest.approx(2.0 / (1.0 + math.exp(-1.0)), rel=1e-14)

    def test_distance_matrix_bad_token_names_row_and_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0,1\n1,zap\n")
        with pytest.raises(ValueError, match="row 2, column 2"):
            read_distance_matrix(p)

    def test_distance_matrix_ragged_row_named(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0,1\n1,0,2\n")
        with pytest.raises(ValueError, match="row 2"):
            read_distance_matrix(p)

    def test_distance_matrix_nonsquare(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0,1,2\n1,0,1\n")
        with pytest.raises(ValueError, match="row 1"):
            read_distance_matrix(p)

    def test_point_cloud_345(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("0,0\n3,0\n3,4\n")
        X = read_point_cloud(p)
        assert X.d[0, 1] == 3.0
        assert X.d[1, 2] == 4.0
        assert X.d[0, 2] == 5.0

    def test_point_cloud_skips_triangle_check(self, tmp_path, monkeypatch):
        # Euclidean distances are metric by construction.
        def fail(d):
            raise AssertionError("triangle check ran")

        monkeypatch.setattr(finite, "_check_triangle", fail)
        p = tmp_path / "pts.csv"
        p.write_text("0,0\n3,0\n3,4\n")
        assert read_point_cloud(p).n == 3
        with pytest.raises(AssertionError, match="triangle check ran"):
            FiniteMetricSpace(read_point_cloud(p).d)

    def test_point_cloud_ragged(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("0,0\n1\n")
        with pytest.raises(ValueError, match="row 2"):
            read_point_cloud(p)

    def test_point_cloud_duplicate_points_rejected(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("0,0\n1,1\n0,0\n")
        with pytest.raises(ValueError, match="distinct points"):
            read_point_cloud(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="no data"):
            read_distance_matrix(p)
