"""Input domains of every public function that takes a dimension, a depth or
a positive scalar.

Each case calls the function with one argument outside its domain, the
others valid, and expects the documented exception class with a message
that names the argument.  Integer arguments are tried at the three integers
below their least value; positive scalars at 0, -1, inf and nan (a scale
whose limit at inf is meaningful, such as the t of a Watson sum, at 0, -1
and nan only).
"""

import math

import numpy as np
import pytest

import magnitude as mg
from magnitude import EpsilonTooLarge, NonpositiveLength, NonpositiveScale

NOT_POSITIVE_FINITE = (0.0, -1.0, math.inf, math.nan)

# (label, least value, call taking the bad integer)
DIMENSIONS = [
    ("omega", 0, lambda k: mg.omega(k)),
    ("sigma", 0, lambda k: mg.sigma(k)),
    ("sphere_magnitude_closed", 0, lambda n: mg.sphere_magnitude_closed(n, 1.0)),
    ("recurrence_step_check", 0, lambda n: mg.recurrence_step_check(n, 1.0)),
    ("P_polynomial", 0, lambda n: mg.P_polynomial(n)),
    ("intrinsic_volume_sphere", 0, lambda n: mg.intrinsic_volume_sphere(0, n, 1.0)),
    ("penguin_valuation_sphere", 0, lambda n: mg.penguin_valuation_sphere(n, 1.0)),
    ("tube_volume_check", 1, lambda n: mg.tube_volume_check(n, 1.0, 0.5)),
    ("scalar_curvature_sphere", 2, lambda n: mg.scalar_curvature_sphere(n, 1.0)),
    ("tsc_sphere", 2, lambda n: mg.tsc_sphere(n, 1.0)),
    ("leading_and_subleading_check", 2, lambda n: mg.leading_and_subleading_check(n)),
    ("geodesic_sphere_expansion_check", 2,
     lambda n: mg.geodesic_sphere_expansion_check(n, 1.0, 0.1)),
    ("K_integral", 1, lambda n: mg.K_integral(n)),
    ("I_integral", 1, lambda n: mg.I_integral(n, 1.0)),
    ("sphere_magnitude_quadrature", 1, lambda n: mg.sphere_magnitude_quadrature(n, 1.0)),
    ("subspace_sphere_magnitude_quadrature", 1,
     lambda n: mg.subspace_sphere_magnitude_quadrature(n, 1.0)),
    ("recurrence_residuals", 1, lambda n: mg.recurrence_residuals(n, 1.0)),
    ("predicted_expansion_intrinsic_sphere", 2, lambda n: mg.predicted_expansion_intrinsic_sphere(n)),
    ("predicted_relative_correction_intrinsic", 2,
     lambda n: mg.predicted_relative_correction_intrinsic(n)),
    ("predicted_relative_correction_subspace", 2,
     lambda n: mg.predicted_relative_correction_subspace(n)),
    ("extract_subspace_relative_correction", 2,
     lambda n: mg.extract_subspace_relative_correction(n, (10.0, 20.0, 40.0))),
]

DEPTHS = [
    ("cantor_magnitude_iterative", lambda d: mg.cantor_magnitude_iterative(1.0, d)),
    ("cantor_level_set", lambda d: mg.cantor_level_set(1.0, d)),
]


def _pair():
    return mg.FiniteMetricSpace(np.array([[0.0, 1.0], [1.0, 0.0]]))


# (label, call taking the bad value, exception class, name in the message, bad values)
SCALARS = [
    ("sphere_magnitude_closed", lambda R: mg.sphere_magnitude_closed(2, R), ValueError, "radius",
     NOT_POSITIVE_FINITE),
    ("subspace_sphere2_closed", lambda R: mg.subspace_sphere2_closed(R), ValueError, "radius",
     NOT_POSITIVE_FINITE),
    ("recurrence_step_check", lambda R: mg.recurrence_step_check(1, R), ValueError, "radius",
     NOT_POSITIVE_FINITE),
    ("intrinsic_volume_sphere", lambda R: mg.intrinsic_volume_sphere(0, 2, R), ValueError,
     "radius", NOT_POSITIVE_FINITE),
    ("scalar_curvature_sphere", lambda R: mg.scalar_curvature_sphere(2, R), ValueError, "radius",
     NOT_POSITIVE_FINITE),
    ("tsc_sphere", lambda R: mg.tsc_sphere(2, R), ValueError, "radius", NOT_POSITIVE_FINITE),
    ("penguin_valuation_sphere", lambda R: mg.penguin_valuation_sphere(2, R), ValueError,
     "radius", NOT_POSITIVE_FINITE),
    ("tube_volume_check R", lambda R: mg.tube_volume_check(2, R, 0.5), ValueError, "radius",
     NOT_POSITIVE_FINITE),
    ("tube_volume_check eps", lambda e: mg.tube_volume_check(2, 1.0, e), EpsilonTooLarge, "eps",
     NOT_POSITIVE_FINITE),
    ("geodesic_sphere_expansion_check R", lambda R: mg.geodesic_sphere_expansion_check(2, R, 0.1),
     ValueError, "radius", NOT_POSITIVE_FINITE),
    ("geodesic_sphere_expansion_check r", lambda r: mg.geodesic_sphere_expansion_check(2, 1.0, r),
     ValueError, r"\br\b", NOT_POSITIVE_FINITE),
    ("circle_magnitude_closed", lambda c: mg.circle_magnitude_closed(c), NonpositiveLength,
     "circumference", NOT_POSITIVE_FINITE),
    ("I_integral", lambda R: mg.I_integral(2, R), ValueError, "radius", NOT_POSITIVE_FINITE),
    ("sphere_magnitude_quadrature", lambda R: mg.sphere_magnitude_quadrature(2, R), ValueError,
     "radius", NOT_POSITIVE_FINITE),
    ("subspace_sphere_magnitude_quadrature", lambda R: mg.subspace_sphere_magnitude_quadrature(2, R),
     ValueError, "radius", NOT_POSITIVE_FINITE),
    ("recurrence_residuals", lambda R: mg.recurrence_residuals(2, R), ValueError, "radius",
     NOT_POSITIVE_FINITE),
    ("surface_asymptotics_residual", lambda R: mg.surface_asymptotics_residual(R), ValueError,
     r"\bR\b|radius", NOT_POSITIVE_FINITE),
    ("watson_partial_sum", lambda t: mg.watson_partial_sum(mg.GermExpansion((1.0,), 1.0), t),
     ValueError, r"\bt\b", (0.0, -1.0, math.nan)),
    ("QuadratureConfig", lambda tol: mg.QuadratureConfig(tol), ValueError, "rel_tol",
     NOT_POSITIVE_FINITE),
    ("scale", lambda t: mg.scale(_pair(), t), NonpositiveScale, "scale factor",
     NOT_POSITIVE_FINITE),
    ("weighting t", lambda t: mg.weighting(_pair(), t=t), NonpositiveScale, "scale factor",
     NOT_POSITIVE_FINITE),
    ("weighting tol", lambda tol: mg.weighting(_pair(), tol), ValueError, "tol",
     NOT_POSITIVE_FINITE),
    ("magnitude_finite", lambda tol: mg.magnitude_finite(_pair(), tol), ValueError, "tol",
     NOT_POSITIVE_FINITE),
    ("circle_points", lambda c: mg.circle_points(c, 4), NonpositiveLength, "circumference",
     NOT_POSITIVE_FINITE),
    ("circle_points_magnitude", lambda c: mg.circle_points_magnitude(c, 4), NonpositiveLength,
     "circumference", NOT_POSITIVE_FINITE),
    ("interval_weight_measure", lambda L: mg.interval_weight_measure(L), NonpositiveLength,
     "length", NOT_POSITIVE_FINITE),
    ("cantor_magnitude_series length", lambda L: mg.cantor_magnitude_series(L, 1e-10),
     NonpositiveLength, "length", NOT_POSITIVE_FINITE),
    ("cantor_magnitude_series tol", lambda tol: mg.cantor_magnitude_series(1.0, tol), ValueError,
     "tol", (0.0, -1.0, math.nan)),
    ("cantor_magnitude_iterative", lambda L: mg.cantor_magnitude_iterative(L, 3),
     NonpositiveLength, "length", NOT_POSITIVE_FINITE),
    ("cantor_level_set", lambda L: mg.cantor_level_set(L, 3), NonpositiveLength, "length",
     NOT_POSITIVE_FINITE),
    ("cantor_level_measure", lambda L: mg.cantor_level_measure(L, 2), NonpositiveLength,
     "length", NOT_POSITIVE_FINITE),
]


@pytest.mark.parametrize("label, least, call", DIMENSIONS, ids=[c[0] for c in DIMENSIONS])
def test_dimension_below_least_is_a_value_error_naming_it(label, least, call):
    for bad in range(least - 3, least):
        with pytest.raises(ValueError, match=rf"\b[nk]\b.*{bad}"):
            call(bad)


@pytest.mark.parametrize("label, call", DEPTHS, ids=[c[0] for c in DEPTHS])
def test_negative_depth_is_a_value_error_naming_it(label, call):
    for bad in (-1, -2, -3):
        with pytest.raises(ValueError, match=rf"depth.*{bad}"):
            call(bad)


@pytest.mark.parametrize("label, call, error, name, bad_values", SCALARS, ids=[c[0] for c in SCALARS])
def test_scalar_outside_domain_raises_the_documented_class_naming_it(label, call, error, name,
                                                                     bad_values):
    for bad in bad_values:
        with pytest.raises(error, match=name):
            call(bad)
