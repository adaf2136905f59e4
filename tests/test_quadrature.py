"""Tests for adaptive quadrature and the homogeneous-space quotients."""

import math
import sys

import mpmath
import numpy as np
import pytest

from magnitude import quadrature
from magnitude.quadrature import _integrate_decaying
from magnitude.spheres import sigma
from magnitude import (
    I_integral,
    K_integral,
    NoConvergence,
    NonpositiveLength,
    QuadratureConfig,
    circle_magnitude_closed,
    integrate_adaptive,
    recurrence_residuals,
    sphere_magnitude_closed,
    sphere_magnitude_quadrature,
    subspace_sphere2_closed,
    subspace_sphere_magnitude_quadrature,
)


def exp_poly_integral(a, coeffs):
    """Oracle: int_0^1 e^{-a r} sum_k c_k r^k dr via the antiderivative."""
    total = 0.0
    for k, c in enumerate(coeffs):
        partial = sum(a**j / math.factorial(j) for j in range(k + 1))
        total += c * math.factorial(k) / a ** (k + 1) * (1.0 - math.exp(-a) * partial)
    return total


class TestConfig:
    def test_defaults(self):
        cfg = QuadratureConfig()
        assert cfg.rel_tol == 1e-12
        assert cfg.panel_order == 15
        assert cfg.max_refinements == 20

    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=0.0)

    def test_only_rel_tol_is_a_setting(self):
        with pytest.raises(TypeError):
            QuadratureConfig(panel_order=3)


class TestIntegrateAdaptive:
    def test_sine(self):
        res = integrate_adaptive(np.sin, 0.0, math.pi)
        assert res.value == pytest.approx(2.0, rel=1e-13)
        assert res.refinements_used >= 1

    def test_constant(self):
        res = integrate_adaptive(lambda r: np.ones_like(r), 0.0, math.pi)
        assert res.value == pytest.approx(math.pi, rel=1e-14)

    def test_decaying_polynomial_vs_antiderivative(self):
        res = integrate_adaptive(lambda r: np.exp(-50.0 * r) * (1.0 + r + r * r), 0.0, 1.0)
        assert res.value == pytest.approx(exp_poly_integral(50.0, (1.0, 1.0, 1.0)), rel=1e-12)

    def test_empty_interval(self):
        res = integrate_adaptive(np.sin, 1.0, 1.0)
        assert res.value == 0.0 and res.refinements_used == 0

    def test_zero_integrand_hits_absolute_floor(self):
        res = integrate_adaptive(lambda r: np.zeros_like(r), 0.0, 1.0)
        assert res.value == 0.0 and res.error_estimate == 0.0

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            integrate_adaptive(np.sin, 1.0, 0.0)

    def test_deterministic(self):
        f = lambda r: np.exp(-3.0 * r) * np.sin(r) ** 2
        a = integrate_adaptive(f, 0.0, math.pi)
        b = integrate_adaptive(f, 0.0, math.pi)
        assert a == b

    def test_no_convergence_on_jump(self, monkeypatch):
        monkeypatch.setattr(QuadratureConfig, "max_refinements", 8)
        f = lambda r: (r > 1.0 / 3.0).astype(float)
        with pytest.raises(NoConvergence, match="after 8 refinements"):
            integrate_adaptive(f, 0.0, 1.0)


class TestSphereIntegrals:
    def test_K_base_cases(self):
        assert K_integral(1) == pytest.approx(math.pi, rel=1e-13)
        assert K_integral(2) == pytest.approx(2.0, rel=1e-13)

    def test_K4_from_recurrence(self):
        # 3 K_4 = 2 K_2 = 4, so K_4 = 4/3
        assert K_integral(4) == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_I_closed_forms(self):
        for R in (0.7, 2.0):
            assert I_integral(1, R) == pytest.approx(
                (1.0 - math.exp(-math.pi * R)) / R, rel=1e-12
            )
            assert I_integral(2, R) == pytest.approx(
                (1.0 + math.exp(-math.pi * R)) / (R * R + 1.0), rel=1e-12
            )

    def test_I_recurrence_at_one(self):
        # (10/3) I_5 = 2 I_3 at R = 1
        _, i_res = recurrence_residuals(3, 1.0)
        assert abs(i_res) < 1e-12

    def test_recurrence_residuals_small(self):
        for n, R in ((1, 1.0), (2, 5.0), (4, 0.5)):
            k_res, i_res = recurrence_residuals(n, R)
            assert abs(k_res) < 1e-9 * n * K_integral(n)
            assert abs(i_res) < 1e-9 * n * I_integral(n, R)

    def test_validation(self):
        with pytest.raises(ValueError):
            K_integral(0)
        with pytest.raises(ValueError):
            I_integral(1, 0.0)


class TestSphereQuadrature:
    def test_circle_value(self):
        assert sphere_magnitude_quadrature(1, 1.0) == pytest.approx(
            math.pi / (1.0 - math.exp(-math.pi)), rel=1e-12
        )

    def test_two_sphere_value(self):
        assert sphere_magnitude_quadrature(2, 1.0) == pytest.approx(
            4.0 / (1.0 + math.exp(-math.pi)), rel=1e-12
        )

    def test_matches_closed_form(self):
        assert sphere_magnitude_quadrature(3, 2.0) == pytest.approx(
            sphere_magnitude_closed(3, 2.0), rel=1e-9
        )

    def test_small_radius_tends_to_one(self):
        for n in range(1, 6):
            assert abs(sphere_magnitude_quadrature(n, 1e-3) - 1.0) < 1e-2

    def test_large_radius_split_path(self):
        # R = 80 goes through the pre-split at 30/R
        assert sphere_magnitude_quadrature(3, 80.0) == pytest.approx(
            sphere_magnitude_closed(3, 80.0), rel=1e-9
        )


class TestCircleClosed:
    def test_matches_sphere_formula(self):
        for R in (0.5, 1.0, 3.0):
            ell = 2.0 * math.pi * R
            assert circle_magnitude_closed(ell) == pytest.approx(
                math.pi * R / (1.0 - math.exp(-math.pi * R)), rel=1e-14
            )

    def test_against_quadrature_denominator(self):
        # l / (2 int_0^{l/2} e^{-s} ds), the arc-distance integral
        ell = 2.0 * math.pi
        denom = integrate_adaptive(lambda s: np.exp(-s), 0.0, ell / 2.0).value
        assert circle_magnitude_closed(ell) == pytest.approx(ell / (2.0 * denom), rel=1e-12)

    def test_small_length_series_branch(self):
        ell = 1e-5
        # x/(1 - e^{-x}) = 1 + x/2 + x^2/12 + ... with x = l/2
        expected = 1.0 + ell / 4.0 + ell * ell / 48.0
        assert circle_magnitude_closed(ell) == pytest.approx(expected, abs=1e-14)
        assert circle_magnitude_closed(1e-300) == 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(NonpositiveLength):
            circle_magnitude_closed(0.0)


class TestSubspaceSphere:
    def test_closed_form_expression(self):
        R = 1.0
        assert subspace_sphere2_closed(R) == pytest.approx(
            2.0 * R * R / (1.0 - math.exp(-2.0 * R) * (1.0 + 2.0 * R)), rel=1e-14
        )

    def test_large_radius_dominated_by_leading_term(self):
        R = 40.0
        assert subspace_sphere2_closed(R) == pytest.approx(2.0 * R * R, rel=1e-12)

    def test_small_radius_series_branch(self):
        # 2R^2 / (2R^2 (1 - 4R/3 + ...)) = 1 + 4R/3 + O(R^2)
        R = 1e-6
        assert subspace_sphere2_closed(R) == pytest.approx(1.0 + 4.0 * R / 3.0, abs=1e-11)

    def test_closed_vs_quadrature(self):
        for R in (0.5, 1.0, 2.0, 5.0, 10.0):
            assert subspace_sphere_magnitude_quadrature(2, R) == pytest.approx(
                subspace_sphere2_closed(R), rel=1e-9
            )

    def test_chord_circle_two_forms(self):
        # n = 1 specialization: pi / int_0^pi e^{-2R sin(t/2)} dt
        R = 1.3
        denom = integrate_adaptive(
            lambda t: np.exp(-2.0 * R * np.sin(0.5 * t)), 0.0, math.pi
        ).value
        assert subspace_sphere_magnitude_quadrature(1, R) == pytest.approx(
            math.pi / denom, rel=1e-11
        )

    def test_substitution_identity(self):
        # int_0^pi e^{-2R sin(t/2)} sin t dt = int_0^2 e^{-R s} s ds
        for R in (0.5, 2.0, 7.0):
            lhs = integrate_adaptive(
                lambda t: np.exp(-2.0 * R * np.sin(0.5 * t)) * np.sin(t), 0.0, math.pi
            ).value
            rhs = integrate_adaptive(lambda s: np.exp(-R * s) * s, 0.0, 2.0).value
            assert lhs == pytest.approx(rhs, rel=1e-10)
            closed = (1.0 - math.exp(-2.0 * R) * (1.0 + 2.0 * R)) / (R * R)
            assert lhs == pytest.approx(closed, rel=1e-10)

    def test_chord_magnitude_below_geodesic_magnitude(self):
        # chord distances are shorter, so the similarity integral is larger
        # and the quotient smaller
        for n in (1, 2, 3, 4):
            for R in (0.5, 1.0, 2.0, 5.0):
                sub = subspace_sphere_magnitude_quadrature(n, R)
                intr = sphere_magnitude_closed(n, R)
                assert sub < intr


class TestSubspaceQuotientAtLargeDims:
    """sigma_n / (sigma_{n-1} J) once the volumes leave the normal range (n >= 438)."""

    @pytest.mark.parametrize("R", [0.5, 2.0, 20.0])
    def test_keeps_the_bits_of_the_volume_quotient(self, monkeypatch, R):
        integrals = []

        def recorded(*args):
            result = _integrate_decaying(*args)
            integrals.append(result.value)
            return result

        monkeypatch.setattr(quadrature, "_integrate_decaying", recorded)
        compared = 0
        for n in range(1, 438):
            value = subspace_sphere_magnitude_quadrature(n, R)
            bottom = sigma(n - 1) * integrals[-1]
            # The expression it replaced, wherever that one kept its bits.
            if bottom >= sys.float_info.min:
                assert value == sigma(n) / bottom
                compared += 1
        assert compared >= 420

    @pytest.mark.parametrize("R", [0.5, 2.0, 20.0])
    @pytest.mark.parametrize("n", [438, 450, 453, 454, 1000, 4000])
    def test_against_mpmath(self, n, R):
        with mpmath.workdps(40):
            m, r = mpmath.mpf(n), mpmath.mpf(R)
            # sigma_n / sigma_{n-1} = sqrt(pi) Gamma(n/2) / Gamma((n+1)/2)
            ratio = mpmath.sqrt(mpmath.pi) * mpmath.exp(
                mpmath.loggamma(m / 2) - mpmath.loggamma((m + 1) / 2))
            f = lambda t: mpmath.exp(-2 * r * mpmath.sin(t / 2)) * mpmath.sin(t) ** (m - 1)
            # sin^(n-1) puts the mass within a few 1/sqrt(n) of pi/2.
            width = 1 / mpmath.sqrt(m)
            peak = [mpmath.pi / 2 + k * width for k in range(-12, 13)]
            j = mpmath.quad(f, [0, *(t for t in peak if 0 < t < mpmath.pi), mpmath.pi])
            exact = ratio / j
            value = subspace_sphere_magnitude_quadrature(n, R)
            assert abs(value - exact) <= 1e-9 * exact


class TestLargeRadiusTail:
    """Past R of about 5e4 the coarse levels of the tail [30/R, pi] see only
    underflowed nodes; the tail's mass must still be integrated."""

    RADII = [1e5, 1e6, 1e9]
    DIMS = [2, 3, 10, 30]

    @pytest.mark.parametrize("R", RADII)
    @pytest.mark.parametrize("n", DIMS)
    def test_intrinsic_matches_the_closed_form(self, n, R):
        exact = sphere_magnitude_closed(n, R)
        assert abs(sphere_magnitude_quadrature(n, R) - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("R", RADII)
    @pytest.mark.parametrize("n", DIMS)
    def test_chord_matches_mpmath(self, n, R):
        with mpmath.workdps(40):
            m, r = mpmath.mpf(n), mpmath.mpf(R)
            ratio = mpmath.sqrt(mpmath.pi) * mpmath.exp(
                mpmath.loggamma(m / 2) - mpmath.loggamma((m + 1) / 2))
            # J in u = R t, scaled to an integral near 1: mpmath's tolerance is
            # absolute.  The mass sits below u of a few times n, and past
            # u = 400 the integrand is below e^-290 of its peak.
            gamma = mpmath.factorial(n - 1)
            f = lambda u: (mpmath.exp(-2 * r * mpmath.sin(u / (2 * r)))
                           * (r * mpmath.sin(u / r)) ** (m - 1) / gamma)
            j = mpmath.quad(f, [0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 400]) * gamma / r**n
            exact = ratio / j
        value = subspace_sphere_magnitude_quadrature(n, R)
        assert abs(value - exact) <= 1e-12 * exact
