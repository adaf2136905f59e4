"""Tests for sphere closed forms, intrinsic volumes, and geometric identities."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magnitude import (
    AsymptoticExpansion,
    EpsilonTooLarge,
    IndexOutOfRange,
    P_polynomial,
    intrinsic_volume_sphere,
    omega,
    predicted_expansion_intrinsic_sphere,
    scalar_curvature_sphere,
    sigma,
    sphere_magnitude_closed,
    sphere_magnitude_quadrature,
    tsc_sphere,
    tube_volume_check,
)
from magnitude.cli import EVALUATORS
from magnitude.spheres import _scaled_sigma, sphere_closed_rounding


class TestBallSphereVolumes:
    def test_base_cases(self):
        assert omega(0) == 1.0
        assert omega(1) == 2.0
        assert sigma(0) == 2.0
        assert sigma(1) == 2.0 * math.pi

    def test_known_values(self):
        assert omega(2) == pytest.approx(math.pi, rel=1e-15)
        assert sigma(2) == pytest.approx(4.0 * math.pi, rel=1e-15)
        assert omega(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)
        assert sigma(3) == pytest.approx(2.0 * math.pi**2, rel=1e-15)

    def test_boundary_relation(self):
        # sigma_{k-1} = k omega_k
        for k in range(1, 13):
            assert sigma(k - 1) == pytest.approx(k * omega(k), rel=1e-14)

    def test_loop_has_the_bits_of_the_recurrence(self):
        # The recursive definitions, evaluated bottom up.
        om, sg = [1.0, 2.0], [2.0, 2.0 * math.pi]
        for k in range(2, 301):
            om.append(2.0 * math.pi / k * om[k - 2])
            sg.append(2.0 * math.pi / (k - 1) * sg[k - 2])
        assert [omega(k) for k in range(301)] == om
        assert [sigma(k) for k in range(301)] == sg

    def test_large_k_underflows_without_recursion(self):
        assert omega(453) == 0.0 < omega(451)
        assert sigma(455) == 0.0 < sigma(453)
        assert omega(10**9) == sigma(10**9 + 1) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            omega(-1)

    def test_scaled_volume_keeps_every_bit(self):
        for k in range(456):
            m, e = _scaled_sigma(k)
            assert 0.5 <= m < 1.0
            assert math.ldexp(m, e) == sigma(k)
        # Past the double range, against sigma_k / sigma_{k-1} = sqrt(pi) Gamma(k/2) / Gamma((k+1)/2).
        for k in (438, 455, 1000, 4001):
            (m, e), (m1, e1) = _scaled_sigma(k), _scaled_sigma(k - 1)
            exact = math.sqrt(math.pi) * math.exp(math.lgamma(k / 2) - math.lgamma((k + 1) / 2))
            assert math.ldexp(m / m1, e - e1) == pytest.approx(exact, rel=1e-12)


class TestClosedForm:
    def test_zero_sphere(self):
        for R in (0.5, 1.0, 4.0):
            assert sphere_magnitude_closed(0, R) == pytest.approx(
                2.0 / (1.0 + math.exp(-math.pi * R)), rel=1e-15
            )

    def test_circle(self):
        for R in (0.5, 2.0):
            assert sphere_magnitude_closed(1, R) == pytest.approx(
                math.pi * R / (1.0 - math.exp(-math.pi * R)), rel=1e-14
            )

    def test_two_sphere(self):
        assert sphere_magnitude_closed(2, 1.0) == pytest.approx(
            4.0 / (1.0 + math.exp(-math.pi)), rel=1e-15
        )

    def test_three_sphere_radius_two(self):
        # pi R ((R/2)^2 + 1)/(1 - e^{-pi R}) at R = 2: 4 pi / (1 - e^{-2 pi})
        assert sphere_magnitude_closed(3, 2.0) == pytest.approx(
            4.0 * math.pi / (1.0 - math.exp(-2.0 * math.pi)), rel=1e-14
        )

    def test_small_radius_tends_to_one(self):
        for n in range(6):
            assert abs(sphere_magnitude_closed(n, 1e-3) - 1.0) < 1e-2

    def test_recurrence_step(self):
        # |S^{n+2}_R| = ((R/(n+1))^2 + 1) |S^n_R| between closed forms.
        for n in (0, 1, 4):
            for R in (0.5, 10.0):
                step = ((R / (n + 1)) ** 2 + 1.0) * sphere_magnitude_closed(n, R)
                rel = abs(sphere_magnitude_closed(n + 2, R) - step) / sphere_magnitude_closed(n + 2, R)
                assert rel < 1e-14

    def test_matches_quadrature(self):
        for n in (1, 4, 7):
            for R in (0.5, 2.0, 10.0):
                assert sphere_magnitude_closed(n, R) == pytest.approx(
                    sphere_magnitude_quadrature(n, R), rel=1e-9
                )


def sphere_closed_exact(n, R):
    """The closed form at 50 digits, from the double R."""
    with mpmath.workdps(50):
        R = mpmath.mpf(R)
        e = mpmath.exp(-mpmath.pi * R)
        value = 2 / (1 + e) if n % 2 == 0 else mpmath.pi * R / (1 - e)
        for j in range(1 if n % 2 == 0 else 2, n, 2):
            value *= (R / j) ** 2 + 1
        return value


class TestClosedFormRounding:
    @settings(max_examples=400, deadline=None)
    @given(n=st.integers(1, 40), R=st.floats(1e-3, 1e3))
    @example(n=1, R=1e-3)
    @example(n=2, R=1e-3)
    @example(n=39, R=1e3)
    @example(n=40, R=1e3)
    def test_within_its_bound_of_50_digits(self, n, R):
        # The pair a closed sphere-intrinsic sweep row prints.
        value, bound = EVALUATORS["sphere-intrinsic", "closed"](R, n, None, None, None)
        assert value == sphere_magnitude_closed(n, R)
        assert bound == sphere_closed_rounding(n) * value
        with mpmath.workdps(50):
            assert abs(mpmath.mpf(value) - sphere_closed_exact(n, R)) <= bound


def closed_form_exact(space, x):
    """The interval's 1 + x/2, the circle's (x/2) / (1 - e^(-x/2)) or the
    chord-metric 2-sphere's 2 x^2 / (1 - e^(-2x) (1 + 2x)) from the double x,
    at 50 digits plus those the last one cancels."""
    with mpmath.workdps(50 + 2 * max(0, -math.floor(math.log10(x)))):
        x = mpmath.mpf(x)
        if space == "interval":
            return 1 + x / 2
        if space == "circle":
            return x / 2 / -mpmath.expm1(-x / 2)
        return 2 * x**2 / (1 - mpmath.exp(-2 * x) * (1 + 2 * x))


class TestOtherClosedFormRounding:
    @settings(max_examples=400, deadline=None)
    @given(space=st.sampled_from(["interval", "circle", "sphere-subspace"]),
           x=st.floats(5e-324, 1e150))
    @example(space="interval", x=1.7e308)
    @example(space="circle", x=1.7e308)
    @example(space="sphere-subspace", x=1.0)  # the chord ratio's branch point, 2R = 2
    @example(space="sphere-subspace", x=1e-300)
    def test_within_its_bound_of_50_digits(self, space, x):
        # The pair a closed sweep row prints; k = 1.
        value, bound = EVALUATORS[space, "closed"](x, 2, None, None, None)
        assert bound > 0.0
        with mpmath.workdps(50):
            assert abs(mpmath.mpf(value) - closed_form_exact(space, x)) <= bound


def leading_terms_match_prediction(n):
    """The paper's leading-terms statement at dimension n: P_polynomial(n)
    has the t^n (volume) and t^(n-2) (total scalar curvature) coefficients
    of predicted_expansion_intrinsic_sphere(n), each within n u of itself
    relative (u = 2^-53), and neither has a t^(n-1) term.  An absolute bound
    could not check n >= 16, where the coefficients fall below 1e-12."""
    poly, predicted = P_polynomial(n), predicted_expansion_intrinsic_sphere(n)
    return poly.coefficient(n - 1) == predicted.coefficient(n - 1) == 0.0 and all(
        abs(poly.coefficient(k) - predicted.coefficient(k)) <= n * 2.0**-53 * abs(poly.coefficient(k))
        for k in (n, n - 2)
    )


class TestPPolynomial:
    def test_n0_and_n1(self):
        assert P_polynomial(0).terms == ((0, 2.0),)
        p1 = P_polynomial(1)
        assert p1.terms == ((1, math.pi),)

    def test_is_an_asymptotic_expansion(self):
        assert P_polynomial(4) == AsymptoticExpansion(
            ((4, 2.0 / 9.0), (2, 20.0 / 9.0), (0, 2.0)), error_order=-2)
        assert P_polynomial(5).error_order == -1

    def test_n2(self):
        p = P_polynomial(2)
        assert p.coefficient(2) == 2.0
        assert p.coefficient(0) == 2.0

    def test_n3(self):
        # pi R ((R/2)^2 + 1) = (pi/4) R^3 + pi R
        p = P_polynomial(3)
        assert p.coefficient(3) == pytest.approx(math.pi / 4.0, rel=1e-15)
        assert p.coefficient(1) == pytest.approx(math.pi, rel=1e-15)

    def test_parity_structure(self):
        for n in range(9):
            p = P_polynomial(n)
            assert all((power - n) % 2 == 0 for power, _ in p.terms)

    def test_constant_term_is_euler_characteristic(self):
        for n in range(2, 9):
            expected = 2.0 if n % 2 == 0 else 0.0
            assert P_polynomial(n).coefficient(0) == expected

    def test_evaluation_consistent_with_closed_form(self):
        for n in range(0, 7):
            for R in (0.5, 1.0, 3.0):
                denom = 1.0 + math.exp(-math.pi * R) if n % 2 == 0 else 1.0 - math.exp(-math.pi * R)
                assert P_polynomial(n)(R) / denom == pytest.approx(
                    sphere_magnitude_closed(n, R), rel=1e-13
                )

    def test_magnitude_minus_polynomial_exponentially_small(self):
        for n in range(1, 6):
            p = P_polynomial(n)
            gap10 = abs(sphere_magnitude_closed(n, 10.0) - p(10.0)) / p(10.0)
            gap5 = abs(sphere_magnitude_closed(n, 5.0) - p(5.0)) / p(5.0)
            assert gap10 < 1e-12
            assert gap5 < 1e-6

    def test_coefficient_identities(self):
        # Every n whose n! is a double.
        assert [n for n in range(2, 171) if not leading_terms_match_prediction(n)] == []


class TestIntrinsicVolumes:
    def test_top_is_volume(self):
        for R in (0.5, 2.0):
            assert intrinsic_volume_sphere(2, 2, R) == pytest.approx(
                4.0 * math.pi * R * R, rel=1e-14
            )

    def test_odd_gap_vanishes(self):
        assert intrinsic_volume_sphere(1, 2, 1.0) == 0.0
        for n in range(1, 8):
            for i in range(n + 1):
                if (n - i) % 2 == 1:
                    assert intrinsic_volume_sphere(i, n, 1.7) == 0.0

    def test_bottom_is_euler_characteristic(self):
        assert intrinsic_volume_sphere(0, 2, 5.0) == 2.0
        assert intrinsic_volume_sphere(0, 3, 5.0) == 0.0

    def test_homogeneity_in_radius(self):
        for n in (2, 4, 5):
            for i in range(0, n + 1, 2):
                if (n - i) % 2 == 0:
                    base = intrinsic_volume_sphere(i, n, 1.0)
                    scaled = intrinsic_volume_sphere(i, n, 3.0)
                    assert scaled == pytest.approx(3.0**i * base, rel=1e-14)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            intrinsic_volume_sphere(3, 2, 1.0)
        with pytest.raises(IndexOutOfRange):
            intrinsic_volume_sphere(-1, 2, 1.0)


class TestCurvature:
    def test_two_sphere(self):
        assert scalar_curvature_sphere(2, 1.0) == 2.0
        assert tsc_sphere(2, 1.0) == pytest.approx(8.0 * math.pi, rel=1e-14)
        assert 4.0 * math.pi * intrinsic_volume_sphere(0, 2, 1.0) == pytest.approx(
            tsc_sphere(2, 1.0), rel=1e-14
        )

    def test_three_sphere(self):
        assert scalar_curvature_sphere(3, 1.0) == 6.0
        assert tsc_sphere(3, 1.0) == pytest.approx(12.0 * math.pi**2, rel=1e-14)
        assert 4.0 * math.pi * intrinsic_volume_sphere(1, 3, 1.0) == pytest.approx(
            tsc_sphere(3, 1.0), rel=1e-14
        )

    def test_total_scalar_curvature_is_4pi_mu(self):
        for n in range(2, 8):
            for R in (0.5, 1.0, 3.0):
                assert tsc_sphere(n, R) == pytest.approx(
                    4.0 * math.pi * intrinsic_volume_sphere(n - 2, n, R), rel=1e-13
                )

    def test_flattening(self):
        assert scalar_curvature_sphere(2, 1e6) < 1e-11


def penguin_valuation(n, R):
    """Sum over i of mu_i(S^n_R) / (i! omega_i)."""
    return sum(intrinsic_volume_sphere(i, n, R) / (math.factorial(i) * omega(i)) for i in range(n + 1))


class TestPenguinValuation:
    def test_two_sphere_matches_polynomial(self):
        for R in (0.5, 1.0, 2.0):
            assert penguin_valuation(2, R) == pytest.approx(
                2.0 * R * R + 2.0, rel=1e-14
            )

    def test_three_sphere_linear_term_differs(self):
        # valuation gives mu_1/(1! omega_1) = 3 pi R / 2 where the magnitude
        # polynomial has pi R
        R = 2.0
        diff = penguin_valuation(3, R) - P_polynomial(3)(R)
        assert diff == pytest.approx((1.5 * math.pi - math.pi) * R, rel=1e-13)

    def test_point_case(self):
        assert penguin_valuation(0, 1.0) == 2.0


class TestTubeFormula:
    def test_circle_annulus(self):
        direct, formula = tube_volume_check(1, 2.0, 0.5)
        assert direct == pytest.approx(4.0 * math.pi * 2.0 * 0.5, rel=1e-14)
        assert formula == pytest.approx(direct, rel=1e-14)

    def test_two_sphere_shell(self):
        R, eps = 1.5, 0.25
        direct, formula = tube_volume_check(2, R, eps)
        expected = 8.0 * math.pi * R * R * eps + (8.0 * math.pi / 3.0) * eps**3
        assert direct == pytest.approx(expected, rel=1e-13)
        assert formula == pytest.approx(expected, rel=1e-13)

    def test_randomized_agreement(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 4):
            for _ in range(10):
                R = float(rng.uniform(0.2, 5.0))
                eps = float(rng.uniform(0.01, 0.99)) * R
                direct, formula = tube_volume_check(n, R, eps)
                assert abs(direct - formula) <= 1e-10 * abs(direct)

    def test_epsilon_bounds(self):
        with pytest.raises(EpsilonTooLarge):
            tube_volume_check(2, 1.0, 1.0)
        with pytest.raises(EpsilonTooLarge):
            tube_volume_check(2, 1.0, 0.0)


def geodesic_sphere_expansion_residual(n, R, r):
    """Residual of the second-order volume expansion of geodesic spheres.

    The sphere of geodesic radius r < pi R inside S^n_R has volume
    sigma_{n-1} (R sin(r/R))^{n-1}; subtracting the model
    sigma_{n-1} r^{n-1} (1 - tau r^2 / (6n)) with tau = n(n-1)/R^2 leaves
    a residual of order r^{n+3}.
    """
    tau = scalar_curvature_sphere(n, R)
    exact = sigma(n - 1) * (R * math.sin(r / R)) ** (n - 1)
    model = sigma(n - 1) * r ** (n - 1) * (1.0 - tau * r * r / (6.0 * n))
    return exact - model


class TestGeodesicSphereExpansion:
    def test_residual_vanishes_at_small_r(self):
        assert abs(geodesic_sphere_expansion_residual(2, 1.0, 1e-4)) < 1e-18

    def test_fourth_order_beyond_leading(self):
        # residual ~ r^{n+3}: the log-slope between decades is about n + 3
        for n, R in ((2, 1.0), (3, 2.0)):
            rs = (1e-1, 1e-2, 1e-3)
            res = [abs(geodesic_sphere_expansion_residual(n, R, r)) for r in rs]
            for a, b in zip(res, res[1:]):
                slope = math.log10(a / b)
                assert n + 3 - 0.5 < slope < n + 3 + 0.5
