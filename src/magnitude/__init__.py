"""Magnitude of metric spaces.

Magnitude assigns an "effective number of points" to a metric space: for a
finite space it is the sum of the weights solving sum_x exp(-d(x, y)) w_x = 1
at every point y, and for an infinite space the total mass of a signed
measure satisfying the same equation.  This package computes it along three
routes and cross-checks them:

- dense weight-equation solves for finite spaces (`finite`);
- exact atom-plus-density weight measures for closed subsets of the line:
  intervals, sets with holes removed, middle-thirds sets (`line`);
- invariant-measure quotients for circles and n-spheres under both the
  geodesic and the chord metric, as closed forms and by adaptive quadrature
  (`spheres`, `quadrature`), with large-scale asymptotics extracted and
  compared against the volume / total-scalar-curvature / Euler
  characteristic predictions (`asymptotics`).

Every public name is resolved on first access from the module that defines
it, so `import magnitude` imports no submodule.  The closed forms and the
O(N) sums over line and circle grids (`spheres`, `line` but for its dense
references, `errors`) and the coefficient extraction of `asymptotics` need
only the standard library; numpy is imported by `finite` and `quadrature`,
by the chord-metric functions of `asymptotics` and by the functions of
`line` that build arrays, and scipy's LAPACK extension only by the dense
solve in `finite.weighting`.
"""

import importlib

#: The public names of each submodule.  A name (or a submodule) is imported
#: on first access (PEP 562), so `import magnitude` and the closed forms, which
#: need only the standard library, never import numpy or scipy.
_EXPORTS = {
    "asymptotics": (
        "AsymptoticExpansion",
        "GermExpansion",
        "extract_coefficients",
        "extract_parity_expansion",
        "extract_subspace_relative_correction",
        "predicted_expansion_intrinsic_sphere",
        "predicted_relative_correction_intrinsic",
        "predicted_relative_correction_subspace",
        "surface_asymptotics_residual",
        "watson_partial_sum",
    ),
    "errors": (
        "EpsilonTooLarge",
        "HypothesisViolated",
        "IllConditionedFit",
        "IndexOutOfRange",
        "MagnitudeError",
        "NoConvergence",
        "NonFiniteResult",
        "NonpositiveLength",
        "NonpositiveScale",
        "NotContained",
        "NotHomogeneous",
        "PointOutsideCarrier",
        "SingularSystem",
        "TooFewPoints",
    ),
    "_numeric": ("DEFAULT_CONFIG", "DEFAULT_TOL", "QuadratureConfig"),
    "finite": (
        "FiniteMetricSpace",
        "Weighting",
        "circle_points",
        "magnitude_finite",
        "magnitude_homogeneous_finite",
        "read_distance_matrix",
        "read_point_cloud",
        "scale",
        "similarity_matrix",
        "weighting",
    ),
    "line": (
        "LineSubset",
        "LineWeightMeasure",
        "cantor_level_measure",
        "cantor_level_set",
        "cantor_magnitude_iterative",
        "cantor_magnitude_series",
        "carrier_probe_points",
        "finite_approx_line",
        "finite_approx_points",
        "interval_weight_measure",
        "line_points_magnitude",
        "measure_total_mass",
        "remove_open_interval",
        "weight_equation_residual",
    ),
    "quadrature": (
        "IntegralResult",
        "I_integral",
        "K_integral",
        "integrate_adaptive",
        "recurrence_residuals",
        "sphere_magnitude_quadrature",
        "subspace_sphere_magnitude_quadrature",
    ),
    "spheres": (
        "P_polynomial",
        "SpherePolynomial",
        "circle_magnitude_closed",
        "circle_points_magnitude",
        "geodesic_sphere_expansion_check",
        "intrinsic_volume_sphere",
        "leading_and_subleading_check",
        "omega",
        "penguin_valuation_sphere",
        "recurrence_step_check",
        "scalar_curvature_sphere",
        "sigma",
        "sphere_magnitude_closed",
        "subspace_sphere2_closed",
        "tsc_sphere",
        "tube_volume_check",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _SOURCE:
        return getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
