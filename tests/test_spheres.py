"""Tests for sphere closed forms, intrinsic volumes, and geometric identities."""

import math

import numpy as np
import pytest

from magnitude import (
    EpsilonTooLarge,
    IndexOutOfRange,
    P_polynomial,
    SpherePolynomial,
    geodesic_sphere_expansion_check,
    intrinsic_volume_sphere,
    leading_and_subleading_check,
    omega,
    penguin_valuation_sphere,
    recurrence_step_check,
    scalar_curvature_sphere,
    sigma,
    sphere_magnitude_closed,
    sphere_magnitude_quadrature,
    tsc_sphere,
    tube_volume_check,
)
from magnitude.spheres import _scaled_sigma


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
        for n in (0, 1, 4):
            for R in (0.5, 10.0):
                rel = abs(recurrence_step_check(n, R)) / sphere_magnitude_closed(n + 2, R)
                assert rel < 1e-14

    def test_matches_quadrature(self):
        for n in (1, 4, 7):
            for R in (0.5, 2.0, 10.0):
                assert sphere_magnitude_closed(n, R) == pytest.approx(
                    sphere_magnitude_quadrature(n, R), rel=1e-9
                )


class TestPPolynomial:
    def test_n0_and_n1(self):
        assert P_polynomial(0).coeffs == ((0, 2.0),)
        p1 = P_polynomial(1)
        assert p1.coeffs == ((1, math.pi),)

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
            assert all((power - n) % 2 == 0 for power, _ in p.coeffs)

    def test_constant_term_is_euler_characteristic(self):
        for n in range(2, 9):
            expected = 2.0 if n % 2 == 0 else 0.0
            assert P_polynomial(n).constant_term == expected

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
        for n in range(2, 9):
            lead_res, sub_res = leading_and_subleading_check(n)
            assert abs(lead_res) < 1e-12
            assert abs(sub_res) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            SpherePolynomial(n=2, coeffs=((1, 1.0),))  # parity break
        with pytest.raises(ValueError):
            SpherePolynomial(n=2, coeffs=((0, 1.0), (2, 1.0)))  # ascending


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


class TestPenguinValuation:
    def test_two_sphere_matches_polynomial(self):
        for R in (0.5, 1.0, 2.0):
            assert penguin_valuation_sphere(2, R) == pytest.approx(
                2.0 * R * R + 2.0, rel=1e-14
            )

    def test_three_sphere_linear_term_differs(self):
        # valuation gives mu_1/(1! omega_1) = 3 pi R / 2 where the magnitude
        # polynomial has pi R
        R = 2.0
        diff = penguin_valuation_sphere(3, R) - P_polynomial(3)(R)
        assert diff == pytest.approx((1.5 * math.pi - math.pi) * R, rel=1e-13)

    def test_point_case(self):
        assert penguin_valuation_sphere(0, 1.0) == 2.0


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


class TestGeodesicSphereExpansion:
    def test_residual_vanishes_at_small_r(self):
        assert abs(geodesic_sphere_expansion_check(2, 1.0, 1e-4)) < 1e-18

    def test_fourth_order_beyond_leading(self):
        # residual ~ r^{n+3}: the log-slope between decades is about n + 3
        for n, R in ((2, 1.0), (3, 2.0)):
            rs = (1e-1, 1e-2, 1e-3)
            res = [abs(geodesic_sphere_expansion_check(n, R, r)) for r in rs]
            for a, b in zip(res, res[1:]):
                slope = math.log10(a / b)
                assert n + 3 - 0.5 < slope < n + 3 + 0.5

    def test_r_bounds(self):
        with pytest.raises(ValueError):
            geodesic_sphere_expansion_check(2, 1.0, 4.0)  # beyond pi R
