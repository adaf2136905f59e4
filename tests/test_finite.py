"""Tests for finite metric spaces and the weight-equation solver."""

import decimal
import math
import os
import re
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import mpmath
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from magnitude import finite
from magnitude._numeric import DEFAULT_TOL
from magnitude.spheres import CIRCLE_POINTS_ROUNDING
from magnitude import (
    FiniteMetricSpace,
    NonpositiveLength,
    NonpositiveScale,
    NotHomogeneous,
    SingularSystem,
    circle_magnitude_closed,
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

    def test_point_cloud_with_a_raised_pair_is_rejected(self):
        d = random_euclidean(100, seed=2).d.copy()
        detour = d[40] + d[90]
        detour[[40, 90]] = np.inf
        j = int(detour.argmin())
        d[40, 90] = d[90, 40] = detour[j] + 1e-6
        with pytest.raises(ValueError, match=rf"violated: d\[40,90\] > d\[40,{j}\] \+ d\[{j},90\]$"):
            FiniteMetricSpace(d)

    def test_long_collinear_grid_passes_triangle_check(self):
        xs = np.cumsum(np.random.default_rng(2).uniform(0.1, 1.0, size=300))
        FiniteMetricSpace(np.abs(xs[:, None] - xs[None, :]))

    def test_check_triangle_is_keyword_only(self):
        with pytest.raises(TypeError, match="positional"):
            FiniteMetricSpace([[0.0, 1.0], [1.0, 0.0]], False)


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


def shortest_paths(w):
    """All-pairs shortest-path lengths of the graph with edge weights w (inf:
    no edge), by Floyd-Warshall."""
    d = w.copy()
    np.fill_diagonal(d, 0.0)
    for j in range(len(d)):
        np.minimum(d, d[:, j, None] + d[None, j, :], out=d)
    return d


@st.composite
def perturbed_metrics(draw):
    """Metrics of random points, rescaled and then perturbed.

    Sizes sit on both sides of the block edges; dim 1 puts every triple on
    the equality case; rescaling up to 1.7e308 makes pair sums overflow.
    Besides Euclidean distances there are metrics that embed in no R^r of
    low rank: l1 distances, their square roots, and the shortest paths of a
    connected graph with random edge weights.  Perturbations are multiples
    of the check's slack, so they fall on both sides of it.
    """
    n = draw(st.sampled_from([1, 2, 63, 64, 65, 130]))
    dim = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["euclidean", "l1", "sqrt", "graph"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.uniform(-1.0, 1.0, size=(n, dim))
    diff = pts[:, None, :] - pts[None, :, :]
    if dim == 1 or kind == "l1":
        d = np.abs(diff).sum(axis=2)
    else:
        d = np.sqrt((diff * diff).sum(axis=2))
    if kind == "sqrt":
        d = np.sqrt(d)
    elif kind == "graph":
        edges = np.triu(rng.random((n, n)) < 0.1, 1) | np.eye(n, k=1, dtype=bool)
        w = np.where(edges | edges.T, rng.uniform(0.1, 1.0, size=(n, n)), np.inf)
        d = shortest_paths(np.minimum(w, w.T))
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
        with mock.patch.object(finite, "_ROW_BLOCK", block):
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
        monkeypatch.setattr(finite, "_ROW_BLOCK", 4)
        xs = np.concatenate([[0.5], np.linspace(0.0, 0.4, 20), np.linspace(0.6, 1.0, 20)])
        d = np.abs(xs[:, None] - xs[None, :])
        d[20, 21] = d[21, 20] = d[20, 21] + 1e-6
        assert triangle_report(d) == (20, 0, 21)

    def test_message_does_not_depend_on_thread_timing(self, monkeypatch):
        monkeypatch.setattr(finite, "_ROW_BLOCK", 4)
        xs = np.linspace(0.0, 1.0, 40)
        d = np.abs(xs[:, None] - xs[None, :])
        for i, k in [(33, 38), (21, 30), (9, 17), (2, 5)]:
            d[i, k] = d[k, i] = 2.0 * d[i, k]
        reports = {triangle_report(d) for _ in range(20)}
        assert reports == {(2, 1, 5)}


class TestTriangleScanAlone(TestTriangleCheck):
    """TestTriangleCheck and the triangle cases of TestConstruction with the
    embedding proof declining, so that the scan alone decides every case."""

    @pytest.fixture(autouse=True, scope="class")
    def no_proof(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(finite, "_embeds", lambda d, slack: False)
            yield

    test_rejects_triangle_violation = TestConstruction.test_rejects_triangle_violation
    test_collinear_points_pass_triangle_check = (
        TestConstruction.test_collinear_points_pass_triangle_check)
    test_point_cloud_with_a_raised_pair_is_rejected = (
        TestConstruction.test_point_cloud_with_a_raised_pair_is_rejected)
    test_long_collinear_grid_passes_triangle_check = (
        TestConstruction.test_long_collinear_grid_passes_triangle_check)

    # Hypothesis runs a test function for one class only, so the inherited
    # body is wrapped again here.
    @settings(max_examples=200, deadline=None)
    @given(d=perturbed_metrics(), block=st.sampled_from([64, 5]))
    def test_agrees_with_the_naive_scan(self, d, block):
        inner = TestTriangleCheck.test_agrees_with_the_naive_scan.hypothesis.inner_test
        inner(self, d, block)


def proof_slack(d):
    """The slack _check_triangle hands the embedding proof, and about the
    proof's eta: the bound it takes 0.99 of."""
    slack = 1e-12 * (1.0 + float(d.max()))
    return slack, (slack - 4 * 2.0**-53 * float(d.max())) / 3


@st.composite
def near_euclidean(draw):
    """Euclidean distances of random points in up to 3 dimensions, rescaled up
    to 1.7e308, with pairs moved by multiples near 1 of the embedding proof's
    eta or of the slack: on both sides of what the proof and the scan allow."""
    n = draw(st.sampled_from([16, 63, 64, 65, 130]))
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.uniform(-1.0, 1.0, size=(n, dim))
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=2))
    top = draw(st.sampled_from([None, 1e-300, 1e300, 1.7e308]))
    if top is not None:
        d = d / d.max() * top
    np.fill_diagonal(d, 0.0)
    slack, eta = proof_slack(d)
    for _ in range(draw(st.integers(0, 3))):
        i, k = rng.choice(n, size=2, replace=False)
        unit = draw(st.sampled_from([eta, slack]))
        c = draw(st.sampled_from([-1.5, -1.0, -0.5, 0.25, 0.5, 0.9, 1.0, 1.1, 1.5, 3.0]))
        d[i, k] = d[k, i] = min(max(float(d[i, k]) + c * unit, 0.0), np.finfo(float).max)
    return d


class TestEmbeddingProof:
    @settings(max_examples=300, deadline=None)
    @given(d=near_euclidean(), block=st.sampled_from([64, 5]))
    def test_a_proved_matrix_passes_the_naive_scan(self, d, block):
        slack, _ = proof_slack(d)
        with mock.patch.object(finite, "_ROW_BLOCK", block):
            proved = finite._embeds(d, slack)
        if proved:
            assert not naive_triangle_violations(d)[0].any()

    @pytest.mark.parametrize("n,dim,top", [
        (16, 1, None), (64, 4, None), (400, 2, None), (800, 6, None),
        (200, 3, 1e-300), (200, 3, 1e-310), (200, 3, 1.7e308),
    ])
    def test_point_clouds_of_low_dimension_are_proved(self, n, dim, top):
        d = random_euclidean(n, dim, seed=n).d
        if top is not None:
            d = d / d.max() * top
        assert finite._embeds(d, proof_slack(d)[0])

    @pytest.mark.parametrize("fraction,proved", [(0.25, True), (0.5, False), (1.0, False)])
    def test_a_pair_raised_past_eta_is_refused(self, fraction, proved):
        d = random_euclidean(200, 2, seed=3).d.copy()
        slack, eta = proof_slack(d)
        d[5, 150] = d[150, 5] = d[5, 150] + fraction * slack
        assert finite._embeds(d, slack) is proved
        assert not naive_triangle_violations(d)[0].any()

    def test_metrics_that_embed_in_no_low_dimension_are_declined(self):
        pts = np.random.default_rng(4).uniform(-1.0, 1.0, size=(200, 2))
        l1 = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
        snowflake = np.sqrt(random_euclidean(200, 2, seed=4).d)
        for d in (l1, snowflake, random_euclidean(200, 20, seed=4).d):
            assert not finite._embeds(d, proof_slack(d)[0])

    def test_fewer_than_sixteen_points_are_left_to_the_scan(self):
        d = random_euclidean(15, 1, seed=5).d
        assert not finite._embeds(d, proof_slack(d)[0])

    def test_a_proved_matrix_takes_no_scan(self, monkeypatch):
        def fail(*args):
            raise AssertionError("scanned")

        monkeypatch.setattr(finite, "_triangle_block", fail)
        FiniteMetricSpace(random_euclidean(300, 3, seed=6).d)


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


def reference_weighting(X, tol=DEFAULT_TOL):
    """(w, rcond, residual_norm) of weighting(X), with LAPACK from scipy.linalg."""
    from scipy.linalg import get_lapack_funcs

    Z = np.exp(-X.d)
    getrf, gecon, getrs = get_lapack_funcs(("getrf", "gecon", "getrs"), (Z,))
    lu, piv, _ = getrf(Z)
    rcond, _ = gecon(lu, float(Z.sum(axis=0).max()), norm="1")
    w, _ = getrs(lu, piv, np.ones(X.n))
    residual = Z @ w - 1.0
    if np.abs(residual).max() > tol:
        w = w - getrs(lu, piv, residual)[0]
        residual = Z @ w - 1.0
    return w, float(rcond), float(np.abs(residual).max())


@st.composite
def well_conditioned(draw):
    """Up to 8 points at distances in [2, 4]: metric, and exp(-d) strictly
    diagonally dominant."""
    n = draw(st.integers(1, 8))
    d = np.zeros((n, n))
    iu = np.triu_indices(n, 1)
    d[iu] = draw(st.lists(st.floats(2.0, 4.0), min_size=len(iu[0]), max_size=len(iu[0])))
    return FiniteMetricSpace(d + d.T)


def solution_bits(w):
    return w.w.tobytes(), w.rcond, w.residual_norm


class TestLapack:
    @settings(max_examples=200, deadline=None)
    @given(X=well_conditioned())
    def test_agrees_with_scipy_linalg(self, X):
        w, rcond, rnorm = reference_weighting(X)
        assert solution_bits(weighting(X)) == (w.tobytes(), rcond, rnorm)

    def test_fallback_without_the_extension_file(self, monkeypatch, tmp_path):
        import scipy.linalg

        X = random_euclidean(30, seed=3)
        expected = weighting(X)
        picked = []

        def get_lapack_funcs(*args, **kwargs):
            picked.append(args[0])
            return original(*args, **kwargs)

        original = scipy.linalg.get_lapack_funcs
        monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", get_lapack_funcs)
        monkeypatch.setattr(finite, "_flapack_path", lambda: str(tmp_path / "missing.so"))
        finite._lapack.cache_clear()
        try:
            got = weighting(X)
        finally:
            finite._lapack.cache_clear()
        assert picked == [("getrf", "gecon", "getrs")]
        assert solution_bits(got) == solution_bits(expected)


#: A private 50-digit mpmath context for the dense-solve oracle, so the
#: precision of the global context is untouched.
mp50 = mpmath.MPContext()
mp50.dps = 50

#: Unit roundoff of a double.
U = 2.0**-53


def oracle_magnitude(d):
    """The sum of the weights of exp(-d) w = 1 for the doubles in d, solved by
    mpmath.lu_solve at 50 digits: no LAPACK, no double rounding."""
    Z = mp50.matrix([[mp50.exp(-mp50.mpf(x)) for x in row] for row in d.tolist()])
    return mp50.fsum(mp50.lu_solve(Z, mp50.matrix([1] * len(d))))


def oracle_cases():
    """pytest params (space, scale factor) for n <= 30: random Euclidean clouds at
    scales 1 and 0.01 and at two scales that put rcond near the 1e-10 floor
    (rcond falls about linearly with the scale), and equilateral spaces from
    distance 10 down to one where rcond is about 4e-10."""
    cases = []
    for n in (3, 8, 15, 30):
        for seed in (0, 1):
            X = random_euclidean(n, seed=seed)
            slope = weighting(X, DEFAULT_TOL, 1e-3).rcond / 1e-3
            for t, label in ((1.0, "1"), (0.01, "0.01"), (1e-9 / slope, "rcond-1e-9"),
                             (3e-10 / slope, "rcond-3e-10")):
                cases.append(pytest.param(X, t, id=f"cloud-{n}-{seed}-{label}"))
    for n in (2, 3, 10, 30):
        for d in (10.0, 1.0, 1e-3, 1e-6, 8e-10 * (n - 1)):
            cases.append(pytest.param(equilateral(n, d), 1.0, id=f"equilateral-{n}-{d:.3g}"))
    return cases


class TestOracle:
    """The magnitude of a dense solve against a 50-digit oracle.

    Bound, for n points with weights w (computed) and w* (exact, for the
    doubles in d), Z = exp(-t d) and u = 2^-53:

    - The similarity matrix is Z + E1 with |E1| <= 2u |Z|: the oracle is
      given the same rounded products t d, so only numpy's exp rounds, within
      one ulp, 2u relative.
    - getrf and getrs with partial pivoting solve (Z + E1 + E2) w = 1 with
      |E2| <= 3n u |L||U| to first order (Higham, Accuracy and Stability,
      Thm 9.4).  Z is positive definite with a unit diagonal and entries in
      (0, 1], so the growth is about 1 and ||E2||_1 <= 3n u ||Z||_1 is taken.
      One refinement step, when the residual exceeds tol, only shrinks it.
    - So ||w - w*||_1 <= ||Z^-1||_1 (3n + 2) u ||Z||_1 ||w||_1 =
      kappa_1 (3n + 2) u ||w||_1.  rcond is dgecon's estimate of 1/kappa_1;
      its estimate of ||Z^-1||_1 is a lower bound, within a factor 3 in
      practice (Higham, ch. 15), so kappa_1 <= 3 / rcond is taken.
    - The sum of the n weights adds at most (n - 1) u ||w||_1, below
      n u ||w||_1 / rcond since rcond <= 1.  The oracle's 50 digits add
      nothing visible.

    In all |sum w - sum w*| <= (3 (3n + 2) + n) u ||w||_1 / rcond =
    (10n + 6) u ||w||_1 / rcond <= 16 n u ||w||_1 / rcond for n >= 1: k = 16.
    """

    K = 16

    @pytest.mark.parametrize("X, t", oracle_cases())
    def test_within_the_bound(self, X, t):
        w = weighting(X, DEFAULT_TOL, t)
        value = float(w.w.sum())
        bound = self.K * X.n * U * float(np.abs(w.w).sum()) / w.rcond
        oracle = oracle_magnitude(scale(X, t).d)
        assert abs(mp50.mpf(value) - oracle) <= bound, (value, oracle, bound, w.rcond)


class TestScaledWeighting:
    """weighting(X, tol, t) solves for tX without building it."""

    @settings(max_examples=100, deadline=None)
    @given(t=st.floats(1e-3, 1e3), seed=st.integers(0, 3))
    def test_agrees_with_the_scaled_space(self, t, seed):
        X = random_euclidean(12, seed=seed)
        try:
            expected = solution_bits(weighting(scale(X, t)))
        except SingularSystem as exc:
            with pytest.raises(SingularSystem, match=re.escape(str(exc))):
                weighting(X, DEFAULT_TOL, t)
            return
        assert solution_bits(weighting(X, DEFAULT_TOL, t)) == expected

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
    def test_nonpositive_scale_rejected(self, t):
        with pytest.raises(NonpositiveScale):
            weighting(equilateral(2), DEFAULT_TOL, t)

    @pytest.mark.parametrize("far, t, message", [
        (1e10, 1e300, "non-finite distance at row 1, column 2"),
        (1e-300, 1e-30, "nonpositive distance between distinct points 1 and 2"),
    ], ids=["overflow", "underflow"])
    def test_out_of_range_distances_named_as_scale_names_them(self, far, t, message):
        X = FiniteMetricSpace([[0.0, 1.0, 1.0], [1.0, 0.0, far], [1.0, far, 0.0]],
                              check_triangle=False)
        for call in (lambda: scale(X, t), lambda: weighting(X, DEFAULT_TOL, t)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                call()


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

    @settings(max_examples=60, deadline=None)
    @given(points=st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
                           min_size=2, max_size=6))
    def test_scaled_magnitude_runs_from_one_to_the_point_count(self, points):
        # |tX| -> 1 as t -> 0 and -> n as t -> infinity, for n points of the plane.
        x = np.array(points)
        n = len(points)
        d = np.sqrt(((x[:, None] - x[None]) ** 2).sum(axis=2))
        separation = d[~np.eye(n, dtype=bool)].min()
        assume(separation > 1e-2)
        X = FiniteMetricSpace(d)
        diam = d.max()
        for k in (2, 3, 4):
            t = 10.0**-k / diam
            assert abs(magnitude_finite(scale(X, t)) - 1.0) <= n * t * diam
        assert magnitude_finite(scale(X, 40.0 / separation)) == pytest.approx(n, rel=1e-12)


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


def circle_row_sum_50_digits(c, n):
    """The similarity row sum of n points on a circle of circumference c, at 50 digits."""
    with mpmath.workdps(50):
        step = mpmath.mpf(c) / n
        row = 1 + 2 * mpmath.fsum(mpmath.exp(-j * step) for j in range(1, (n + 1) // 2))
        if n % 2 == 0:
            row += mpmath.exp(-(n // 2) * step)
        return row


class TestCirclePointsMagnitude:
    @settings(max_examples=40, deadline=None)
    @given(c=st.floats(1e-3, 1e3), n=st.integers(1, 1500))
    @example(c=1e-3, n=1500)
    @example(c=1e3, n=2)
    @example(c=2.0 * math.pi, n=1)
    def test_error_bound_holds_against_mpmath(self, c, n):
        value = circle_points_magnitude(c, n)
        bound = CIRCLE_POINTS_ROUNDING * value
        with mpmath.workdps(50):
            assert abs(mpmath.mpf(value) - n / circle_row_sum_50_digits(c, n)) <= bound

    @settings(max_examples=40, deadline=None)
    @given(c=st.floats(1e-3, 1e3), n=st.integers(1, 1500))
    def test_agrees_with_the_dense_row_sum(self, c, n):
        value = circle_points_magnitude(c, n)
        dense = magnitude_homogeneous_finite(circle_points(c, n), tol=1e-8)
        # The dense route divides n by numpy's sum of numpy's exp of the same
        # distances: 2.01u from the distances (as in circle_points_magnitude),
        # 8u for an exp allowed 4 ulps, (n - 1)u for any order of summing n
        # nonnegative terms and u for the division, with u = 2^-53.
        dense_rounding = (n + 11) * 2.0**-53 * dense
        assert abs(value - dense) <= CIRCLE_POINTS_ROUNDING * value + dense_rounding

    @settings(max_examples=40, deadline=None)
    @given(c=st.floats(0.05, 300.0))
    def test_approaches_the_closed_form_as_n_grows(self, c):
        # The grid's row sum is the trapezoid rule for the closed form's
        # integral of a convex function: from below, with relative gap about
        # (c / n)^2 / 12.
        closed = circle_magnitude_closed(c)
        sizes = (16, 64, 256, 1024, 4096)
        gaps = [(closed - circle_points_magnitude(c, n)) / closed for n in sizes]
        assert all(later < earlier for earlier, later in zip(gaps, gaps[1:]))
        for n, gap in zip(sizes, gaps):
            assert 0.0 < gap <= (c / n) ** 2 / 12.0 + 1e-14

    @pytest.mark.parametrize("c", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_circumference(self, c):
        with pytest.raises(NonpositiveLength):
            circle_points_magnitude(c, 5)
        with pytest.raises(NonpositiveLength):
            circle_points(c, 5)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="at least one point"):
            circle_points_magnitude(1.0, 0)
        with pytest.raises(ValueError, match="at least one point"):
            circle_points(1.0, 0)

    def test_rejects_spacing_that_underflows(self):
        # A spacing of 0 is a circle of one point in the closed form; the
        # dense reference would hold zero distances between distinct points.
        assert circle_points_magnitude(5e-324, 3) == 1.0
        assert circle_points_magnitude(5e-324, 1) == 1.0
        with pytest.raises(ValueError, match="nonpositive distance"):
            circle_points(5e-324, 3)


class TestWorkingSet:
    """The n x n arrays a dense call holds, counted by tracemalloc at n = 300.

    Reading holds the parsed matrix and the constructor's copy; the triangle
    check's row blocks are about 1.3 more at this n, where it scans.  The
    constructor's other checks hold row blocks only.  Solving holds the
    similarity matrix, factored in place, and blocks of its rows.
    """

    n = 300

    def test_constructing(self):
        d = random_euclidean(self.n, seed=7).d
        FiniteMetricSpace(d, check_triangle=False)
        tracemalloc.start()
        try:
            X = FiniteMetricSpace(d, check_triangle=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert X.d.tobytes() == d.tobytes()
        # The copy of the distances; an n x n boolean mask would add 0.125.
        assert peak < 1.1 * 8 * self.n**2

    def test_reading(self, tmp_path):
        path = tmp_path / "d.csv"
        np.savetxt(path, random_euclidean(self.n, seed=7).d, fmt="%.17g", delimiter=",")
        read_distance_matrix(path)  # first-call imports
        tracemalloc.start()
        try:
            X = read_distance_matrix(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert X.n == self.n
        assert peak < 4 * 8 * self.n**2

    def test_solving(self):
        X = random_euclidean(self.n, seed=7)
        expected = weighting(X)  # loads LAPACK
        tracemalloc.start()
        try:
            w = weighting(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert w.w.tobytes() == expected.w.tobytes()
        assert peak < 1.5 * 8 * self.n**2

    def test_reading_a_point_cloud(self, tmp_path):
        path = tmp_path / "pts.csv"
        points = np.random.default_rng(7).uniform(-1.0, 1.0, size=(self.n, 3))
        np.savetxt(path, points, fmt="%.17g", delimiter=",")
        read_point_cloud(path)  # first-call imports
        tracemalloc.start()
        try:
            X = read_point_cloud(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert X.n == self.n
        # The distances and the constructor's copy; an n x n x dim
        # difference array would add 6 more.
        assert peak < 3 * 8 * self.n**2


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

    @pytest.mark.parametrize("n", [1, 2, 64, 65, 129, 150])
    @pytest.mark.parametrize("dim", [1, 3, 9])
    def test_point_cloud_blocks_match_one_difference_array(self, tmp_path, n, dim):
        path = tmp_path / "pts.csv"
        points = np.random.default_rng(n * dim).normal(size=(n, dim)) * 10.0 ** (n % 7 - 3)
        np.savetxt(path, points, fmt="%.17g", delimiter=",")
        arr = np.loadtxt(path, delimiter=",", ndmin=2)
        diff = arr[:, None, :] - arr[None, :, :]
        expected = np.sqrt((diff * diff).sum(axis=2))
        np.fill_diagonal(expected, 0.0)
        assert read_point_cloud(path).d.tobytes() == expected.tobytes()

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


def list_reader(path, square=True):
    """The list-based reader that the streaming one replaced, kept as its reference.

    It parses every data line into a list of floats, then checks the row
    lengths: columns against the number of rows for a distance matrix,
    coordinates against the first row for a point cloud.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            entries = []
            for col, tok in enumerate(line.split(","), start=1):
                try:
                    entries.append(float(tok))
                except ValueError:
                    raise ValueError(
                        f"{path}: row {lineno}, column {col}: not a number: {tok.strip()!r}"
                    ) from None
            rows.append((lineno, entries))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    width = len(rows) if square else len(rows[0][1])
    unit = "columns" if square else "coordinates"
    for lineno, entries in rows:
        if len(entries) != width:
            raise ValueError(f"{path}: row {lineno}: expected {width} {unit}, got {len(entries)}")
    return np.array([entries for _, entries in rows])


def outcome(read, path):
    """(shape, bytes) of what read returns, or the text of its ValueError."""
    try:
        a = read(path)
    except ValueError as exc:
        return str(exc)
    return a.shape, a.tobytes()


#: Tokens float() accepts, in the spellings a CSV file may hold, and some it rejects.
NUMBERS = ["0", "1", "-0", "2.5", " 3 ", "\t4", "1e3", "1_0", "inf", "-inf", "nan", "1e999",
           "5.8306120862155568", "0.012345678901234567"]
NON_NUMBERS = ["", "x", "0x1", "1 2", "1__0", "--1", "nan1"]


@st.composite
def csv_texts(draw):
    """CSV text of mostly square tables, some ragged, with blank and padded lines."""
    n = draw(st.integers(1, 6))
    sizes = st.sampled_from([n, n, n, n - 1, n + 1]).map(lambda k: max(k, 1))
    pool = NUMBERS if draw(st.integers(0, 3)) else NUMBERS + NON_NUMBERS
    lines = []
    for _ in range(draw(sizes)):
        lines += draw(st.lists(st.sampled_from(["", "  ", "\t", " \x0c "]), max_size=2))
        tokens = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=7))
        width = draw(sizes)
        lines.append(",".join((tokens * width)[:width]))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


class TestStreamingReader:
    @settings(max_examples=300, deadline=None)
    @given(text=csv_texts(), square=st.booleans())
    def test_agrees_with_the_list_reader(self, tmp_path_factory, text, square):
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = outcome(lambda p: list_reader(p, square), path)
        assert outcome(lambda p: finite._read_rows(p, square), path) == expected

    @pytest.mark.parametrize("text", [
        "0,1\n1,x\n1,2,3\n",       # a non-number after a ragged row is named first
        "0,1,2\n1,0\n",            # wider than the row count: row 1 is ragged
        "0\n1\n",                  # narrower than the row count
        "\n\n0,1\n\n1,0,y\n",      # line numbers count blank lines
        "0,1\r\n1,0\r\n",
        " \n\t\n",
    ], ids=["non-number-after-ragged-row", "wider", "narrower", "blank-lines", "crlf", "only-blank"])
    def test_messages(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_text(text, encoding="utf-8")
        for square in (True, False):
            expected = outcome(lambda p: list_reader(p, square), path)
            assert outcome(lambda p: finite._read_rows(p, square), path) == expected

    @pytest.mark.parametrize("head", [b"0\n" * 5000, b"x\n" + b"0\n" * 5000],
                             ids=["numbers-first", "non-number-first"])
    def test_undecodable_bytes(self, tmp_path, head):
        # Text is decoded a chunk at a time; a non-number in an earlier chunk
        # is named before the bytes that are not UTF-8.
        path = tmp_path / "d.csv"
        path.write_bytes(head + b"\xff\n")
        expected = outcome(list_reader, path)
        assert outcome(lambda p: finite._read_rows(p, True), path) == expected

    def test_reads_from_a_pipe(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=("0,1\n1,0\n",), daemon=True)
        writer.start()
        X = read_distance_matrix(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert X.d.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    @pytest.mark.parametrize("text, message", [
        ("0\n" * 100000, "row 1: expected 100000 columns, got 1"),
        (",".join(["0"] * 100000) + "\n", "row 1: expected 1 columns, got 100000"),
    ], ids=["100000-lines", "100000-columns"])
    def test_long_files_are_rejected_in_constant_memory(self, tmp_path, capsys, text, message):
        from magnitude import cli

        path = tmp_path / "d.csv"
        path.write_text(text, encoding="utf-8")
        cli.run(["finite", "--matrix", str(tmp_path / "missing.csv")])  # first-call imports
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = cli.run(["finite", "--matrix", str(path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr().err == f"ValueError: {path}: {message}\n"
        assert peak < 2**20


class TestStreamingReaderWithoutExactDecimals(TestStreamingReader):
    """The same cases with every line parsed by float(), as where long double
    is binary64 or IBM double-double."""

    @pytest.fixture(autouse=True, scope="class")
    def float_only(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(finite, "_EXACT_DECIMALS", False)
            yield

    # Hypothesis runs a test function for one class only, so the inherited
    # body is wrapped again here.
    @settings(max_examples=300, deadline=None)
    @given(text=csv_texts(), square=st.booleans())
    def test_agrees_with_the_list_reader(self, tmp_path_factory, text, square):
        inner = TestStreamingReader.test_agrees_with_the_list_reader.hypothesis.inner_test
        inner(self, tmp_path_factory, text, square)


def is_plain(token):
    """The grammar of _plain_block: "-", optional, then digits with at most
    one ".", and at least one digit."""
    return re.fullmatch(r"-?[0-9]*\.?[0-9]*", token) is not None and re.search("[0-9]", token) is not None


@st.composite
def near_midpoints(draw):
    """Decimals within 2^-64 of the midpoint of two adjacent doubles, or of
    the double below a power of two and that power, or that midpoint's
    nearest decimal of 15 to 18 significant digits."""
    if draw(st.booleans()):
        a = draw(st.floats(1e-9, 1e17))
        b = math.nextafter(a, math.inf)
    else:
        b = 2.0 ** draw(st.integers(-29, 59))
        a = math.nextafter(b, 0.0)
    with decimal.localcontext() as ctx:
        ctx.prec = 2000
        m = (decimal.Decimal(a) + decimal.Decimal(b)) / 2
        offset = draw(st.sampled_from([None, -1, 0, 1]))
        if offset is None:
            ctx.prec = draw(st.integers(15, 18))
            return format(+m, "f")
        return format(m + offset * m / 2**66, "f")


@st.composite
def decimal_tokens(draw):
    """Tokens as distance files hold them, and some that are not plain."""
    kind = draw(st.sampled_from(["format", "format", "midpoint", "literal"]))
    if kind == "literal":
        return draw(st.sampled_from([
            "0", "-0", "-0.0", "0.000", "1.", ".5", "-.5", "00012", "99999999999999999999",
            "1000000000000000000", "999999999999999999", "0.0000000000000000000000000001",
            "-", ".", "-.", "", "1-2", "1..2", "1.2.3", "--1", "+1", "1e3", " 1", "inf",
        ]))
    if kind == "midpoint":
        return draw(st.sampled_from(["", "-"])) + draw(near_midpoints())
    x = draw(st.one_of(st.floats(-1e16, 1e16), st.floats(allow_nan=False, allow_infinity=False),
                       st.floats(1e-3, 0.1)))
    spec = draw(st.sampled_from(["%.17g", "%.16g", "repr", "%.12f", "%.20f"]))
    return repr(x) if spec == "repr" else spec % x


@pytest.mark.skipif(not finite._EXACT_DECIMALS,
                    reason="long double is neither x87 extended nor binary128")
class TestPlainBlock:
    @settings(max_examples=500, deadline=None)
    @given(tokens=st.lists(decimal_tokens(), min_size=1, max_size=40), width=st.integers(1, 8))
    @example(tokens=["56526877.3170674704", "697042.199815635744", "0.00763010987093042407",
                     "-560.682887393715248"], width=4)
    def test_stores_what_float_returns(self, tokens, width):
        width = min(width, len(tokens))
        tokens = tokens[:len(tokens) // width * width]
        lines = [",".join(tokens[i:i + width]) for i in range(0, len(tokens), width)]
        out = np.full((len(lines), width), np.nan)
        plain = all(is_plain(t) for t in tokens)
        assert finite._plain_block(lines, out) == plain
        if plain:
            assert out.tobytes() == np.array([float(t) for t in tokens]).reshape(out.shape).tobytes()

    @pytest.mark.parametrize("lines", [["1,2,3", "4"], ["1", "2,3,4"], ["1,2", "3,4,"], ["1,2", "3;4"]])
    def test_lines_of_the_wrong_length_are_not_plain(self, lines):
        assert not finite._plain_block(lines, np.empty((2, 2)))

    @given(a=st.floats(2.0**-1022, 1e300))
    @example(a=math.nextafter(1.0, 0.0))
    @example(a=math.nextafter(2.0**60, 0.0))
    def test_midpoints_are_flagged(self, a):
        # Halfway from a to the next double up, and from the double below a
        # power of two to that power, but not a itself or a neighbour of the
        # midpoint in long double.
        b = math.nextafter(a, math.inf)
        mid = (np.longdouble(a) + np.longdouble(b)) / 2
        x = np.array([mid, np.longdouble(a), np.nextafter(mid, np.longdouble(0)),
                      np.nextafter(mid, np.longdouble(math.inf))])
        assert finite._binary64_midpoints(x).tolist() == [True, False, False, False]

    @pytest.mark.parametrize("token", ["-", ".", "-.", "1-2", "1..2", "1.2.3", "--1", "0x1", "1e3"])
    def test_other_tokens_keep_their_messages(self, tmp_path, token):
        path = tmp_path / "d.csv"
        path.write_text(f"0,1\n1,{token}\n", encoding="utf-8")
        expected = outcome(list_reader, path)
        assert outcome(lambda p: finite._read_rows(p, True), path) == expected

    @pytest.mark.parametrize("n", [1, 7, 300])
    def test_savetxt_files_take_no_line_by_line_parse(self, tmp_path, monkeypatch, n):
        # A fast path that fell back silently would pass every other test.
        # Coordinates of both signs whose %.17g needs no exponent.
        rng = np.random.default_rng(n)
        points = rng.uniform(0.5, 1.0, size=(n, 3)) * rng.choice([-1.0, 1.0], size=(n, 3))
        points *= [1.0, 1e2, 1e4]
        cloud, matrix = tmp_path / "pts.csv", tmp_path / "d.csv"
        np.savetxt(cloud, points, fmt="%.17g", delimiter=",")
        d = read_point_cloud(cloud).d
        np.savetxt(matrix, d, fmt="%.17g", delimiter=",")
        monkeypatch.setattr(finite, "_parse_row", mock.Mock(side_effect=AssertionError))
        assert finite._read_rows(cloud, False).tobytes() == points.tobytes()
        assert read_distance_matrix(matrix).d.tobytes() == d.tobytes()
