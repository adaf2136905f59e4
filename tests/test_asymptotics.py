"""Tests for the germ-sum evaluator and coefficient extraction."""

import math

import numpy as np
import pytest

from magnitude import (
    AsymptoticExpansion,
    GermExpansion,
    NonFiniteResult,
    extract_coefficients,
    extract_parity_expansion,
    extract_subspace_relative_correction,
    integrate_adaptive,
    predicted_expansion_intrinsic_sphere,
    predicted_relative_correction_intrinsic,
    predicted_relative_correction_subspace,
    sphere_magnitude_closed,
    subspace_sphere_magnitude_quadrature,
    surface_asymptotics_residual,
    watson_partial_sum,
)

GRID = (10.0, 20.0, 40.0, 80.0)


class TestExpansionTypes:
    def test_powers_must_decrease(self):
        with pytest.raises(ValueError):
            AsymptoticExpansion(terms=((1, 1.0), (2, 1.0)), error_order=0)

    def test_error_order_below_terms(self):
        with pytest.raises(ValueError):
            AsymptoticExpansion(terms=((2, 1.0), (0, 1.0)), error_order=0)

    def test_evaluation(self):
        e = AsymptoticExpansion(terms=((2, 2.0), (0, 2.0)), error_order=-2)
        assert e(3.0) == 20.0
        assert e.coefficient(1) == 0.0

    def test_germ_validation(self):
        with pytest.raises(ValueError):
            GermExpansion(coefficients=(), cutoff=1.0)
        with pytest.raises(ValueError):
            GermExpansion(coefficients=(1.0,), cutoff=0.0)


class TestWatson:
    def test_constant_germ(self):
        germ = GermExpansion(coefficients=(1.0,), cutoff=1.0)
        assert watson_partial_sum(germ, 10.0) == pytest.approx(0.1, rel=1e-15)

    def test_quadratic_germ_arithmetic(self):
        germ = GermExpansion(coefficients=(1.0, 1.0, 1.0), cutoff=1.0)
        assert watson_partial_sum(germ, 50.0) == pytest.approx(
            1.0 / 50.0 + 1.0 / 2500.0 + 2.0 / 125000.0, rel=1e-15
        )

    def test_matches_quadrature(self):
        germ = GermExpansion(coefficients=(1.0, 1.0, 1.0), cutoff=1.0)
        value = integrate_adaptive(
            lambda r: np.exp(-50.0 * r) * (1.0 + r + r * r), 0.0, 1.0
        ).value
        assert watson_partial_sum(germ, 50.0) == pytest.approx(value, rel=1e-12)

    def test_degree_four_germs_at_large_t(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            coeffs = tuple(rng.uniform(0.2, 2.0, size=5))
            germ = GermExpansion(coefficients=coeffs, cutoff=1.0)
            for t in (40.0, 80.0, 200.0):
                f = lambda r: np.exp(-t * r) * sum(
                    c * r**k for k, c in enumerate(coeffs)
                )
                value = integrate_adaptive(f, 0.0, 1.0).value
                assert watson_partial_sum(germ, t) == pytest.approx(value, rel=1e-10)

    def test_t_positive(self):
        germ = GermExpansion(coefficients=(1.0,), cutoff=1.0)
        with pytest.raises(ValueError):
            watson_partial_sum(germ, 0.0)

    @pytest.mark.parametrize("t", [1e-200, 1e-320, 1e-160])
    def test_tiny_t_is_out_of_range(self, t):
        # t ** (i + 1) underflows to 0 (or the sum overflows) before the last term.
        germ = GermExpansion(coefficients=(1.0, 0.5, 0.25), cutoff=1.0)
        with pytest.raises(NonFiniteResult):
            watson_partial_sum(germ, t)


class TestPredictions:
    def test_surface_coefficients(self):
        e = predicted_expansion_intrinsic_sphere(2)
        assert e.coefficient(2) == pytest.approx(2.0, rel=1e-15)
        assert e.coefficient(1) == 0.0
        assert e.coefficient(0) == pytest.approx(2.0, rel=1e-15)
        assert e.error_order == -2

    def test_three_sphere(self):
        e = predicted_expansion_intrinsic_sphere(3)
        assert e.coefficient(3) == pytest.approx(math.pi / 4.0, rel=1e-14)
        assert e.coefficient(1) == pytest.approx(math.pi, rel=1e-14)

    def test_four_sphere(self):
        e = predicted_expansion_intrinsic_sphere(4)
        assert e.coefficient(4) == pytest.approx(2.0 / 9.0, rel=1e-14)
        assert e.coefficient(2) == pytest.approx(20.0 / 9.0, rel=1e-14)

    def test_relative_corrections(self):
        assert predicted_relative_correction_subspace(2) == 0.0
        # (n+1)n(n-1)/6 at n = 2 is 1; cross-check: 2R^2 + 2 = 2R^2 (1 + R^{-2})
        assert predicted_relative_correction_intrinsic(2) == 1.0
        assert predicted_relative_correction_subspace(3) == 1.5
        assert predicted_relative_correction_intrinsic(3) == 4.0
        assert predicted_relative_correction_subspace(4) == 5.0
        assert predicted_relative_correction_intrinsic(4) == 10.0


class TestExtraction:
    def test_even_polynomial_exact(self):
        f = lambda t: 2.0 * t * t + 2.0
        e = extract_coefficients(f, 2, 2, 2, (2.0, 4.0, 8.0, 16.0))
        assert e.coefficient(2) == pytest.approx(2.0, abs=1e-12)
        assert e.coefficient(0) == pytest.approx(2.0, abs=1e-12)

    def test_odd_polynomial_exact(self):
        f = lambda t: t**5 + 4.0 * t**3 + t
        e = extract_coefficients(f, 5, 2, 3, (1.0, 1.5, 2.0, 3.0, 4.0))
        assert e.coefficient(5) == pytest.approx(1.0, abs=1e-12)
        assert e.coefficient(3) == pytest.approx(4.0, abs=1e-12)
        assert e.coefficient(1) == pytest.approx(1.0, abs=1e-12)

    def test_random_even_polynomials_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            a, b, c = rng.uniform(-3.0, 3.0, size=3)
            f = lambda t: a * t**4 + b * t**2 + c
            e = extract_coefficients(f, 4, 2, 3, (1.0, 1.5, 2.0, 3.0, 4.0))
            assert e.coefficient(4) == pytest.approx(a, abs=1e-12)
            assert e.coefficient(2) == pytest.approx(b, abs=1e-12)
            assert e.coefficient(0) == pytest.approx(c, abs=1e-12)

    def test_three_sphere_closed_form(self):
        f = lambda t: sphere_magnitude_closed(3, t)
        e = extract_coefficients(f, 3, 2, 2, GRID)
        assert e.coefficient(3) == pytest.approx(math.pi / 4.0, abs=1e-6)
        assert e.coefficient(1) == pytest.approx(math.pi, abs=1e-6)

    def test_spreads_reported(self):
        e = extract_coefficients(lambda t: 2.0 * t * t + 2.0, 2, 2, 2, (2.0, 4.0, 8.0, 16.0))
        assert e.spreads is not None and len(e.spreads) == 2

    def test_grid_validation(self):
        f = lambda t: t
        with pytest.raises(ValueError, match="grid points"):
            extract_coefficients(f, 1, 1, 2, (1.0, 2.0, 3.0))
        with pytest.raises(ValueError, match="increasing"):
            extract_coefficients(f, 1, 1, 1, (2.0, 1.0, 3.0))
        with pytest.raises(ValueError, match="finite"):
            extract_coefficients(lambda t: float("nan"), 1, 1, 1, (1.0, 2.0, 3.0))

    @pytest.mark.parametrize("grid", [(1e-300, 2e-300, 4e-300, 8e-300), (1e200, 2e200, 4e200, 8e200)])
    def test_grid_at_the_ends_of_the_double_range(self, grid):
        with pytest.raises(ValueError, match="too close to 0 or to the double limit"):
            extract_coefficients(lambda t: 1.0, 3, 2, 2, grid)

    def test_fit_that_leaves_the_double_range(self):
        # Samples and powers of t are finite; t^-2 f(t) ~ 1e436 in the extrapolation is not.
        with pytest.raises(NonFiniteResult, match="not finite"):
            extract_coefficients(lambda t: t**-2.0, 0, 2, 1, (1e-109, 2e-109, 4e-109, 8e-109))


class TestSphereExpansionExtraction:
    def test_intrinsic_matches_prediction(self):
        for n in (2, 3, 4, 5):
            f = lambda t: sphere_magnitude_closed(n, t)
            extracted = extract_parity_expansion(f, n, GRID)
            predicted = predicted_expansion_intrinsic_sphere(n)
            assert extracted.coefficient(n) == pytest.approx(
                predicted.coefficient(n), abs=1e-8
            )
            assert abs(extracted.coefficient(n - 1)) < 1e-6
            assert extracted.coefficient(n - 2) == pytest.approx(
                predicted.coefficient(n - 2), abs=1e-6
            )

    def test_surface_reproduces_area_and_euler(self):
        extracted = extract_parity_expansion(
            lambda t: sphere_magnitude_closed(2, t), 2, GRID
        )
        assert extracted.coefficient(2) == pytest.approx(2.0, abs=1e-8)
        assert extracted.coefficient(0) == pytest.approx(2.0, abs=1e-6)


class TestSubspaceCorrection:
    def test_three_sphere_within_two_percent(self):
        coeff, _ = extract_subspace_relative_correction(3, (20.0, 40.0, 80.0))
        assert coeff == pytest.approx(1.5, rel=0.02)

    def test_two_sphere_coefficient_vanishes(self):
        coeff, _ = extract_subspace_relative_correction(2, (20.0, 40.0, 80.0))
        assert abs(coeff) < 1e-3


class TestSurfaceResidual:
    def test_exponentially_small_at_ten(self):
        assert abs(surface_asymptotics_residual(10.0)) < 1e-10

    def test_value_at_one(self):
        expected = 4.0 / (1.0 + math.exp(-math.pi)) - 4.0
        assert surface_asymptotics_residual(1.0) == pytest.approx(expected, rel=1e-13)

    def test_vanishes_at_infinity(self):
        assert abs(surface_asymptotics_residual(30.0)) < 1e-25


class TestMetricComparison:
    def test_ratio_tends_to_one(self):
        for n in (2, 3, 4):
            intr = sphere_magnitude_closed(n, 40.0)
            sub = subspace_sphere_magnitude_quadrature(n, 40.0)
            assert abs(intr / sub - 1.0) < 1e-2

    def test_difference_does_not_vanish(self):
        # ... but the difference stays bounded away from zero for n >= 3
        for n in (3, 4):
            intr = sphere_magnitude_closed(n, 40.0)
            sub = subspace_sphere_magnitude_quadrature(n, 40.0)
            assert intr - sub > 1.0
