"""Large-scale asymptotics: germ sums and numerical coefficient extraction.

For g with germ expansion sum alpha_i r^i at 0, the Laplace-type integral
int_0^c e^{-t r} g(r) dr expands as sum i! alpha_i / t^{i+1} for large t;
watson_partial_sum evaluates that sum.  Going the other way,
extract_coefficients recovers expansion coefficients of a magnitude-like
function from samples on a grid of scales, by sequential stripping with
polynomial (Richardson/Neville) extrapolation in t^{-step}.

The extraction runs on lists of Python floats: a grid holds a dozen scales
at most, and the intrinsic-sphere asymptotics then need only the standard
library.  quadrature, and with it numpy, is imported only by the
chord-metric functions that integrate.
"""

from __future__ import annotations

import math
import operator
import sys

from ._numeric import DEFAULT_CONFIG, Frozen, QuadratureConfig, at_least
from .errors import NonFiniteResult
from .spheres import curvature_coefficient, sphere_magnitude_closed, volume_coefficient


class AsymptoticExpansion(Frozen):
    """Truncated expansion sum c_k t^k with an O(t^error_order) remainder.

    terms are (power, coefficient) pairs with strictly decreasing powers;
    error_order sits below the smallest listed power.  spreads, when
    present, are per-term extrapolation error estimates.  gradients, when
    present, hold per term the partial derivatives of the coefficient with
    respect to the samples it was extracted from, in grid order: the
    extraction is linear in the samples, so sum_i |gradient_i| e_i bounds
    what errors e_i in the samples move the coefficient.
    """

    __slots__ = ("terms", "error_order", "spreads", "gradients")

    def __init__(
        self,
        terms: tuple[tuple[int, float], ...],
        error_order: int,
        spreads: tuple[float, ...] | None = None,
        gradients: tuple[tuple[float, ...], ...] | None = None,
    ):
        powers = [p for p, _ in terms]
        if not powers:
            raise ValueError("expansion needs at least one term")
        if any(p2 >= p1 for p1, p2 in zip(powers, powers[1:])):
            raise ValueError("powers must be strictly decreasing")
        if error_order >= powers[-1]:
            raise ValueError("error_order must lie below the smallest power")
        if spreads is not None and len(spreads) != len(terms):
            raise ValueError("need one spread per term")
        if gradients is not None and len(gradients) != len(terms):
            raise ValueError("need one gradient per term")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "error_order", error_order)
        object.__setattr__(self, "spreads", spreads)
        object.__setattr__(self, "gradients", gradients)

    def coefficient(self, power: int) -> float:
        for p, c in self.terms:
            if p == power:
                return c
        return 0.0

    def __call__(self, t: float) -> float:
        return sum(c * t**p for p, c in self.terms)


class GermExpansion(Frozen):
    """Coefficients alpha_0..alpha_N of a function at 0 and the cutoff c."""

    __slots__ = ("coefficients", "cutoff")

    def __init__(self, coefficients: tuple[float, ...], cutoff: float):
        coefficients = tuple(float(a) for a in coefficients)
        if len(coefficients) == 0:
            raise ValueError("need at least alpha_0")
        if not cutoff > 0.0:
            raise ValueError(f"cutoff must be positive, got {cutoff}")
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "cutoff", cutoff)


def watson_partial_sum(germ: GermExpansion, t: float) -> float:
    """sum_i i! alpha_i / t^{i+1}: the large-t value of int_0^c e^{-tr} g(r) dr.

    The omitted remainder is O(t^{-N-2}) plus exponentially small cutoff
    effects.
    """
    if not t > 0.0:
        raise ValueError(f"need t > 0, got {t}")
    total = 0.0
    try:
        for i, alpha in enumerate(germ.coefficients):
            total += math.factorial(i) * alpha / t ** (i + 1)
    except (OverflowError, ZeroDivisionError) as exc:
        # t ** (i + 1) underflows to 0 for tiny t, or a term leaves the double range.
        raise NonFiniteResult(f"Watson sum at t = {t!r} is out of range: {exc}") from None
    if not math.isfinite(total):
        raise NonFiniteResult(f"Watson sum at t = {t!r} is not finite: {total}")
    return total


def predicted_expansion_intrinsic_sphere(n: int) -> AsymptoticExpansion:
    """Predicted top three terms for the geodesic-metric n-sphere, n >= 2.

    t^n coefficient sigma_n / (n! omega_n) (volume term), t^{n-1}
    coefficient 0, and t^{n-2} coefficient
    (n+1) mu_{n-2}(S^n_1) / (3 (n-1)! omega_{n-2}) (total-scalar-curvature
    term).
    """
    n = at_least(n, 2, "n")
    return AsymptoticExpansion(
        terms=((n, volume_coefficient(n)), (n - 1, 0.0), (n - 2, curvature_coefficient(n))),
        error_order=n - 4,
    )


def predicted_relative_correction_subspace(n: int) -> float:
    """R^{-2} coefficient of |chord-metric sphere| / (leading term): (n+1) n (n-2) / 8."""
    n = at_least(n, 2, "n")
    return (n + 1) * n * (n - 2) / 8.0


def predicted_relative_correction_intrinsic(n: int) -> float:
    """R^{-2} coefficient of |geodesic-metric sphere| / (leading term): (n+1) n (n-1) / 6."""
    n = at_least(n, 2, "n")
    return (n + 1) * n * (n - 1) / 6.0


def predicted_expansion_subspace_ratio(n: int) -> AsymptoticExpansion:
    """Predicted 1 + predicted_relative_correction_subspace(n) R^{-2} for
    subspace_ratio; for n = 1 only the leading 1 is known."""
    if int(n) == 1:
        return AsymptoticExpansion(terms=((0, 1.0),), error_order=-2)
    return AsymptoticExpansion(((0, 1.0), (-2, predicted_relative_correction_subspace(n))), -4)


def _neville_limit(u: list[float], g: list[float]) -> tuple[float, float]:
    """Polynomial extrapolation of the points (u_j, g_j) to u = 0.

    Returns the corner value of the Neville tableau and the spread between
    the two highest-order extrapolants; needs at least two points.  Only the
    last two levels of the tableau are held.
    """
    cur = g
    for m in range(1, len(u)):  # m is the interpolation depth of the next level
        prev, cur = cur, [
            (u[j + m] * cur[j] - u[j] * cur[j + 1]) / (u[j + m] - u[j])
            for j in range(len(cur) - 1)
        ]
    return cur[0], abs(cur[0] - prev[1])


def extract_coefficients(
    f,
    leading_power: int,
    parity_step: int,
    count: int,
    t_grid,
) -> AsymptoticExpansion:
    """Recover expansion coefficients of f(t) = sum c_k t^k from samples.

    The modelled powers are leading_power, leading_power - parity_step, ...
    (count of them).  Each coefficient is the Richardson/Neville limit of
    (f(t) - known terms) / t^k in the variable t^{-parity_step}; after the
    first stripping pass one refinement sweep re-estimates every
    coefficient against the others, which removes first-order leakage
    between stages.

    Parameters
    ----------
    f : callable
        Scalar function of the scale t; must be finite on the grid.
    leading_power, parity_step, count : int
        Power ladder of the model.
    t_grid : sequence of float
        Strictly increasing positive scales, at least count + 2 of them.

    Returns
    -------
    AsymptoticExpansion
        With per-term spreads and gradients attached and error_order one
        model step below the last extracted power.
    """
    parity_step = int(parity_step)
    count = int(count)
    if parity_step < 1:
        raise ValueError(f"parity_step must be >= 1, got {parity_step}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    t = [float(v) for v in t_grid]
    size = len(t)
    if size < count + 2:
        raise ValueError(f"need at least count + 2 = {count + 2} grid points, got {size}")
    if not (t[0] > 0.0 and all(map(operator.lt, t, t[1:]))):
        raise ValueError("t_grid must be strictly increasing and positive")
    fvals = [float(f(v)) for v in t]
    if not all(map(math.isfinite, fvals)):
        raise ValueError("f must be finite on the whole grid")

    powers = [int(leading_power) - i * parity_step for i in range(count)]
    # On grids near the ends of the double range these powers, and then the
    # sums of the fit, overflow or underflow: checked, not left to propagate.
    try:
        u = [v ** -parity_step for v in t]
        tpow = {k: [v ** float(k) for v in t] for k in powers}
        fits = all(math.isfinite(p) and p > 0.0 for row in (u, *tpow.values()) for p in row)
    except OverflowError:
        fits = False
    if not fits:
        raise ValueError("t_grid is too close to 0 or to the double limit for this model")
    # The fit is linear in the samples.  Column 0 holds them and column 1 + i
    # the unit sample e_i, whose coefficients are the derivatives d c_k / d f_i;
    # column 0 sees the same floating-point operations as a fit of it alone.
    columns = [fvals] + [[float(i == j) for i in range(size)] for j in range(size)]
    coeffs = {k: [0.0] * len(columns) for k in powers}
    spreads = {k: 0.0 for k in powers}
    try:
        for _ in range(1 if count == 1 else 2):
            for k in powers:
                limits = []
                for j, column in enumerate(columns):
                    residual = column
                    for m in powers:
                        if m != k:
                            residual = [r - p * coeffs[m][j] for r, p in zip(residual, tpow[m])]
                    limits.append(_neville_limit(u, [r / p for r, p in zip(residual, tpow[k])]))
                coeffs[k] = [c for c, _ in limits]
                spreads[k] = limits[0][1]
    except ZeroDivisionError:  # two grid points whose t^-step round alike
        raise NonFiniteResult(f"the t^{k} coefficient or its spread is not finite on this grid") from None
    for k in powers:
        if not (math.isfinite(coeffs[k][0]) and math.isfinite(spreads[k])):
            raise NonFiniteResult(f"the t^{k} coefficient or its spread is not finite on this grid")
    return AsymptoticExpansion(
        terms=tuple((k, coeffs[k][0]) for k in powers),
        error_order=powers[-1] - parity_step,
        spreads=tuple(spreads[k] for k in powers),
        gradients=tuple(tuple(coeffs[k][1:]) for k in powers),
    )


def extract_parity_expansion(f, leading_power: int, t_grid) -> AsymptoticExpansion:
    """Extract the (k, k-1, k-2) coefficients of a parity-gapped expansion.

    The even ladder (k and k-2) is extracted first with step 2, exploiting
    the parity gaps; the k-1 coefficient is then read off the deflated
    series.  This is how a vanishing odd term is verified numerically: the
    parity structure is an input, and the k-1 estimate should come back at
    the noise level.  f is called once per grid point.
    """
    k = int(leading_power)
    table = {float(t): f(float(t)) for t in t_grid}
    even = extract_coefficients(table.__getitem__, k, 2, 2, t_grid)
    c_top = even.coefficient(k)
    c_sub = even.coefficient(k - 2)

    def deflated(t):
        return table[t] - c_top * t**k - c_sub * t ** (k - 2)

    odd = extract_coefficients(deflated, k - 1, 1, 1, t_grid)
    # deflated(t_i) = f_i - c_top t_i^k - c_sub t_i^(k-2), so the chain rule
    # carries the odd coefficient's gradient over to the samples f:
    # d c_odd / d f_j = sum_i g_i (delta_ij - t_i^k top_j - t_i^(k-2) sub_j).
    # Both extractions accepted every t^k and t^(k-2) on this grid.
    top, sub = even.gradients
    ts = list(table)
    rows = [(g, t**k, t ** (k - 2)) for g, t in zip(odd.gradients[0], ts)]
    odd_gradient = tuple(
        sum(g * ((float(i == j) - tk * top[j]) - tk2 * sub[j]) for i, (g, tk, tk2) in enumerate(rows))
        for j in range(len(ts))
    )
    return AsymptoticExpansion(
        terms=((k, c_top), (k - 1, odd.coefficient(k - 1)), (k - 2, c_sub)),
        error_order=k - 3,
        spreads=(even.spreads[0], odd.spreads[0], even.spreads[1]),
        gradients=(top, odd_gradient, sub),
    )


def subspace_ratio(n: int, R: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Chord-metric magnitude of S^n_R over its leading term sigma_n R^n / (n! omega_n)."""
    from .quadrature import subspace_sphere_magnitude_quadrature

    magnitude = subspace_sphere_magnitude_quadrature(n, R, cfg)
    lead = volume_coefficient(n) * R**n
    if lead < sys.float_info.min:
        raise ValueError(f"grid too close to 0: the leading term at R = {R!r} is below the normal range")
    return magnitude / lead


#: Unit roundoff of a double.
_U = 2.0**-53

#: Relative error, per sample, that stands for the rounding of the fit itself.
#: The fit strips each sample of at most two terms c_m t^m (those of
#: extract_parity_expansion's deflation): t^m within one ulp, the product and
#: the difference round within about 4u (|f_i| + |c_m t^m|) each, and the
#: terms of the sphere magnitudes are positive and below |f_i|.  The Neville
#: steps round values of the coefficient's own size, far below.
FIT_ROUNDING = 16 * _U


def closed_form_rounding(n: int) -> float:
    """Bound on the relative rounding error of sphere_magnitude_closed(n, R), any R.

    With u = 2^-53: the first factor, 2 / (1 + e^{-pi R}) for even n or
    pi R / (1 - e^{-pi R}) for odd n, carries the roundings of pi and of
    pi R (2u; the logarithmic derivative of either factor in pi R is at
    most 1 in size), of exp or expm1 (2u, one ulp), and of the sum or
    division (u): 5u.  Each of the n // 2 factors (R/j)^2 + 1 carries the
    rounding of R/j twice through the square (2u), then the square (u), the
    sum (u, relative to a sum of positive terms) and the product (u): 5u.
    To first order the value is within 5 (n // 2 + 1) u; (5 (n // 2) + 6) u
    also covers the second-order terms.
    """
    return (5 * (int(n) // 2) + 6) * _U


def closed_form_tail(t: float) -> float:
    """Relative distance of sphere_magnitude_closed(n, t) from its numerator
    polynomial P_polynomial(n)(t), for every n: e^{-pi t}.

    For even n the closed form is f = P(t) / (1 + e^{-pi t}), for odd n
    f = P(t) / (1 - e^{-pi t}).  So P(t) - f = f e^{-pi t} or
    -f e^{-pi t}, and |f - P(t)| = |f| e^{-pi t} exactly.  The extraction
    models f by powers of t, which stand for P alone: to the fit, this term
    is one more relative error in each sample.  It is below a double's
    rounding from t of about 12 on.
    """
    return math.exp(-math.pi * t)


def subspace_ratio_rounding(n: int) -> float:
    """Bound on the relative rounding error of subspace_ratio(n, R) beyond the
    error of its quadrature J, which the quadrature estimates as at most
    rel_tol relative.

    With u = 2^-53: sigma_n / sigma_{n-1} is a quotient of two products of
    about n / 2 factors 2 pi / j, 3u each (pi, the division, the product),
    so about (3n + 1) u with the quotient and the division by J.  The
    leading term sigma_n / (n! omega_n) R^n takes about 3n/2 u from each
    volume, u from n!, one ulp (2u) from R^n and 3u from its products and
    divisions; the ratio takes u more.  In all at most about (6n + 7) u, to
    first order; (6n + 12) u is returned.
    """
    return (6 * int(n) + 12) * _U


def extract_subspace_expansion(ratio, R_grid) -> AsymptoticExpansion:
    """R^0 and R^{-2} coefficients of ratio (subspace_ratio at a fixed n), called
    once per grid point: the limits of ratio and of (ratio - 1) R^2 at R = infinity."""
    table = {float(R): ratio(float(R)) for R in R_grid}
    lead = extract_coefficients(table.__getitem__, 0, 2, 1, R_grid)
    correction = extract_coefficients(lambda R: (table[R] - 1.0) * R * R, 0, 2, 1, R_grid)
    correction_gradient = tuple(g * R * R for g, R in zip(correction.gradients[0], table))
    return AsymptoticExpansion(((0, lead.coefficient(0)), (-2, correction.coefficient(0))), -4,
                               (lead.spreads[0], correction.spreads[0]),
                               (lead.gradients[0], correction_gradient))


def extract_subspace_relative_correction(
    n: int, R_grid, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> tuple[float, float]:
    """Extract the R^{-2} coefficient of the chord-metric relative expansion.

    Computes chord-metric magnitudes by quadrature, divides out the exact
    leading term sigma_n R^n / (n! omega_n), and extrapolates
    (ratio - 1) R^2 to R = infinity.  Returns (coefficient, spread).
    """
    n = at_least(n, 2, "n")
    result = extract_subspace_expansion(lambda R: subspace_ratio(n, R, cfg), R_grid)
    return result.coefficient(-2), result.spreads[1]


def surface_asymptotics_residual(R: float) -> float:
    """Magnitude of the round 2-sphere minus its surface model 2 R^2 + 2.

    For a homogeneous surface the model is area/(2 pi) t^2 + Euler
    characteristic; for the round sphere the residual is exponentially
    small in R.
    """
    if not R > 0.0:
        raise ValueError(f"need R > 0, got {R}")
    return sphere_magnitude_closed(2, R) - (2.0 * R * R + 2.0)
