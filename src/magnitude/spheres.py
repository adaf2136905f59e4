"""Closed-form sphere magnitudes, intrinsic volumes, and the tube-volume check.

The magnitude of the n-sphere of radius R with the geodesic metric has a
closed form: a polynomial P in R divided by 1 +- e^{-pi R}.  This module
holds that formula, the closed forms of the circle, of an evenly spaced
grid on the circle and of the 2-sphere with the chord metric, the
polynomial itself with exactly expanded coefficients (as the asymptotic
expansion of the magnitude), the intrinsic volumes of round spheres, scalar
curvature, and the tube-volume identity that checks the intrinsic volumes,
with the rounding bounds of the sphere's and the circle grid's closed
forms.  It needs only the standard library, so a closed-form call never
imports numpy.
"""

from __future__ import annotations

import math
from functools import lru_cache

from ._numeric import (
    _U,
    at_least,
    half_x2_over_one_minus_one_plus_x_exp_neg,
    positive_finite,
    tanh_over_x,
    x_over_one_minus_exp_neg,
)
from .errors import EpsilonTooLarge, IndexOutOfRange, NonpositiveLength


@lru_cache(maxsize=None)
def omega(k: int) -> float:
    """Volume of the unit k-ball: omega_0 = 1, omega_1 = 2, omega_k = (2 pi / k) omega_{k-2}."""
    return math.ldexp(*_unit_volume(k, (1.0, 2.0), 0))


@lru_cache(maxsize=None)
def sigma(k: int) -> float:
    """Volume of the unit k-sphere: sigma_0 = 2, sigma_1 = 2 pi, sigma_k = (2 pi / (k-1)) sigma_{k-2}."""
    return math.ldexp(*_unit_volume(k, (2.0, 2.0 * math.pi), 1))


def _scaled_sigma(k: int) -> tuple[float, int]:
    """sigma(k) as (m, e) with sigma(k) = m 2^e and 0.5 <= m < 1.

    Unlike sigma(k), which is subnormal from k = 438 on and 0 from 455, it
    keeps every bit at any k, in O(k) steps.
    """
    return _unit_volume(k, (2.0, 2.0 * math.pi), 1, whole=True)


#: m 2^e with 0.5 <= m < 1 rounds to 0.0 for every e below this.
_ZERO_EXPONENT = -1074


def _unit_volume(
    k: int, bases: tuple[float, float], shift: int, whole: bool = False
) -> tuple[float, int]:
    """(m, e) with m 2^e = bases[k % 2] times 2 pi / (j - shift) for j = k % 2 + 2, k % 2 + 4, ..., k.

    Each step multiplies m as the recurrence reads, then moves the power of
    two into e.  Scaling by a power of two is exact, so m 2^e never
    underflows, and a volume that is a normal double has the bits of the
    recursive definition.  Unless whole is set, the loop stops once m 2^e
    rounds to 0 as a double: the volumes only shrink from there on.
    """
    k = at_least(k, 0, "k")
    m, e = math.frexp(bases[k % 2])
    for j in range(k % 2 + 2, k + 1, 2):
        if e < _ZERO_EXPONENT and not whole:
            break
        m, step = math.frexp(2.0 * math.pi / (j - shift) * m)
        e += step
    return m, e


def sphere_magnitude_closed(n: int, R: float) -> float:
    """Magnitude of the n-sphere of radius R with the geodesic metric.

    n even:  2 * prod_{odd j < n} ((R/j)^2 + 1) / (1 + e^{-pi R})
    n odd:   pi R * prod_{even j < n} ((R/j)^2 + 1) / (1 - e^{-pi R})
    n = 0:   two points at distance pi R, 2 / (1 + e^{-pi R}).
    """
    n = at_least(n, 0, "n")
    positive_finite(R, "radius")
    # A Python float raises OverflowError past the double range, where a
    # numpy scalar would warn and return inf.
    R = float(R)
    if n % 2 == 0:
        value = 2.0 / (1.0 + math.exp(-math.pi * R))
        start = 1
    else:
        value = x_over_one_minus_exp_neg(math.pi * R)
        start = 2
    for j in range(start, n, 2):
        value *= (R / j) ** 2 + 1.0
    return value


def sphere_closed_rounding(n: int) -> float:
    """Bound on the relative rounding error of sphere_magnitude_closed(n, R), any R.

    With u = 2^-53: the first factor, 2 / (1 + e^{-pi R}) for even n or
    pi R / (1 - e^{-pi R}) for odd n, carries the roundings of pi and of
    pi R (2u; the logarithmic derivative of either factor in pi R is at
    most 1 in size), of exp or expm1 (2u, one ulp), and of the sum or
    division (u): 5u.  Each of the n // 2 factors (R/j)^2 + 1 carries the
    rounding of R/j twice through the square (2u), then the square (u), the
    sum (u, relative to a sum of positive terms) and the product (u): 5u.
    To first order the value is within 5 (n // 2 + 1) u; (5 (n // 2) + 6) u
    also covers the second-order terms.  Times the value, it is the error
    estimate of a closed sphere-intrinsic sweep row.
    """
    return (5 * (int(n) // 2) + 6) * _U


#: Relative rounding bound of circle_magnitude_closed: c/2 is exact (a
#: subnormal c loses under 2^-1075) and x_over_one_minus_exp_neg is within
#: 3u, u = 2^-53.
CIRCLE_CLOSED_ROUNDING = 3.0 * _U


def circle_magnitude_closed(circumference: float) -> float:
    """Magnitude of the circle of a given circumference.

    The invariant-measure quotient evaluates to l / (2 (1 - e^{-l/2})); the
    small-l regime goes through a series branch to avoid cancellation.
    """
    positive_finite(circumference, "circumference", NonpositiveLength)
    return x_over_one_minus_exp_neg(0.5 * circumference)


#: Relative rounding bound of circle_points_magnitude, derived in its docstring.
CIRCLE_POINTS_ROUNDING = 14.0 * _U


def circle_points_magnitude(circumference: float, n: int) -> float:
    """Magnitude of n evenly spaced points on a circle, arc-length metric, in
    closed form.

    The grid is homogeneous, so its magnitude is n over one similarity row
    sum S = sum_k q^min(k, n - k), q = e^{-2h}, with h = c / (2n) for the
    circumference c; the distances are those of row 0 of
    finite.circle_points.  The row is a two-sided geometric series.  For
    even n = 2m it is 1 + 2 (q - q^m) / (1 - q) + q^m
    = (1 + q)(1 - q^m) / (1 - q) = coth(h) (1 - e^{-c/2}), so
    n / S = (c/2) / (1 - e^{-c/2}) * tanh(h) / h: the circle's closed form
    times tanh(h)/h.  For odd n = 2m + 1 it is
    1 + 2 (q - q^{m+1}) / (1 - q) = coth(h) - e^{-c/2} / sinh(h), which is
    the even row plus e^{-c/2} tanh(h/2); so with V the even formula's
    value, n / S = V / (1 + e^{-c/2} tanh(c / (4n)) V / n).  A spacing that
    underflows to 0 gives tanh(h)/h = 1 and magnitude 1, as it should.

    CIRCLE_POINTS_ROUNDING * value bounds |value - exact| for the given
    circumference and n, with u = 2^-53 and glibc's documented accuracy:
    exp and expm1 within 1 ulp (2u), tanh within 2 ulps (4u).  c/2 is
    exact (a subnormal c loses under 2^-1075, which moves the value far
    less than u), so the circle factor x / (1 - e^{-x}) is within 3u
    (expm1 and the division; its series branch, three additions).  h rounds
    once, or twice when n > 2^52 makes 2n inexact (a subnormal h leaves
    tanh(h)/h = 1; where 2n is past the double range, h is the exact
    quotient rounded once, and so are c / (4n) and the division by n), and
    |d ln(tanh(h)/h) / d ln h| = 1 - 2h / sinh(2h) <= 1, so tanh(h)/h
    is within 4u (tanh) + 1u (division) + 2u (h) = 7u, and
    the even value V within 3u + 7u + 1u (product) = 11u.  For odd n, the
    correction K = e^{-c/2} tanh(c/(4n)) V / n carries V's error and its
    own factors' 10u (exp 2u, tanh and its argument 5u, three roundings),
    plus 2u past n = 2^52; V / (1 + K) then weighs V's error by 1 / (1 + K)
    and the factors' by w = K / (1 + K) = e^{-c/2} tanh(c/(4n)) / S, at
    most max_y e^{-2y} tanh(y) < 0.18 (n = 1, y = c/4), and at most
    1/(2en) for n >= 3.
    The sum and the division add 2u.  So odd values are within
    (1 - w) 11u + w 12u + 2u <= 13u, and even ones within 11u, to first
    order; 14u |value| is returned.  No step overflows: the circle factor
    is at most c/2 + 1, and tanh(h)/h at most 1.
    """
    positive_finite(circumference, "circumference", NonpositiveLength)
    if n < 1:
        raise ValueError(f"need at least one point, got {n}")
    value = x_over_one_minus_exp_neg(0.5 * circumference) * tanh_over_x(_over(circumference, 2 * n))
    if n % 2:
        correction = math.exp(-0.5 * circumference) * math.tanh(_over(circumference, 4 * n)) * value
        value /= 1.0 + _over(correction, n)
    return value


def _over(x: float, n: int) -> float:
    """x / n for an int n of any size.  Where n has no double (past about
    1.8e308), the exact quotient of x's integer ratio by n, rounded once."""
    try:
        return x / n
    except OverflowError:
        p, q = x.as_integer_ratio()
        return p / (q * n)


#: Relative rounding bound of subspace_sphere2_closed: 2R is exact and the
#: chord ratio half_x2_over_one_minus_one_plus_x_exp_neg is within 8u on
#: either branch, u = 2^-53.
SUBSPACE_SPHERE2_ROUNDING = 8.0 * _U


def subspace_sphere2_closed(R: float) -> float:
    """Magnitude of the 2-sphere of radius R with the chord metric.

    Closed form 2 R^2 / (1 - e^{-2R} (1 + 2R)), with a series branch for
    the whole ratio at small R.
    """
    positive_finite(R, "radius")
    return half_x2_over_one_minus_one_plus_x_exp_neg(2.0 * R)


def P_polynomial(n: int) -> AsymptoticExpansion:
    """Expanded numerator polynomial P_n of the n-sphere magnitude, as the
    asymptotic expansion of |S^n_R| in R.

    The product over ((R/j)^2 + 1) is expanded in exact rational
    arithmetic, then scaled by 2 (n even) or pi (odd, with one extra power
    of R), so each coefficient carries a single rounding.  The powers share
    the parity of n, the constant term is the Euler characteristic (2 for
    even n, 0 for odd), and the leading coefficient is sigma_n / (n! omega_n).

    |S^n_R| = P_n(R) / (1 +- e^{-pi R}), so |S^n_R| - P_n(R) =
    -+P_n(R) e^{-pi R} / (1 +- e^{-pi R}) is below every power of R: any
    error_order below the lowest power holds, and the lowest power - 2 is
    where the next term of the parity ladder would stand.
    """
    from fractions import Fraction

    # asymptotics imports this module; a closed-form call imports this one alone.
    from .asymptotics import AsymptoticExpansion

    n = at_least(n, 0, "n")
    start = 1 if n % 2 == 0 else 2
    # Polynomial in R^2 with rational coefficients, ascending.
    poly = [Fraction(1)]
    for j in range(start, n, 2):
        inv = Fraction(1, j * j)
        nxt = [Fraction(0)] * (len(poly) + 1)
        for m, c in enumerate(poly):
            nxt[m] += c
            nxt[m + 1] += c * inv
        poly = nxt
    if n % 2 == 0:
        coeffs = [(2 * m, 2.0 * float(c)) for m, c in enumerate(poly)]
    else:
        coeffs = [(2 * m + 1, math.pi * float(c)) for m, c in enumerate(poly)]
    coeffs.reverse()
    return AsymptoticExpansion(terms=tuple(coeffs), error_order=coeffs[-1][0] - 2)


def intrinsic_volume_sphere(i: int, n: int, R: float) -> float:
    """Intrinsic volume mu_i of the round n-sphere of radius R.

    (2 sigma_n / sigma_{n-i}) C(n, i) R^i when n - i is even, else 0.
    mu_n is the volume sigma_n R^n and mu_0 the Euler characteristic.
    """
    i = int(i)
    n = at_least(n, 0, "n")
    if not 0 <= i <= n:
        raise IndexOutOfRange(f"need 0 <= i <= n, got i={i}, n={n}")
    positive_finite(R, "radius")
    if (n - i) % 2 != 0:
        return 0.0
    return 2.0 * sigma(n) / sigma(n - i) * math.comb(n, i) * R**i


def scalar_curvature_sphere(n: int, R: float) -> float:
    """Scalar curvature of the n-sphere of radius R: n (n-1) / R^2."""
    n = at_least(n, 2, "n")
    positive_finite(R, "radius")
    return n * (n - 1) / (R * R)


def tsc_sphere(n: int, R: float) -> float:
    """Total scalar curvature: scalar curvature times the volume.

    Equals 4 pi mu_{n-2} for the round sphere.
    """
    return scalar_curvature_sphere(n, R) * sigma(n) * R ** int(n)


def _float_factorial(n: int) -> float:
    """n! as a double; past 170!, the last below the double maximum, the
    OverflowError comes at once, not after building the exact integer."""
    if n > 170:
        raise OverflowError(f"{n}! is past the double range")
    return float(math.factorial(n))


def volume_coefficient(n: int) -> float:
    """Volume term sigma_n / (n! omega_n): the R^n coefficient of |S^n_R|."""
    return sigma(n) / (_float_factorial(n) * omega(n))


def curvature_coefficient(n: int) -> float:
    """Curvature term (n+1) mu_{n-2}(S^n_1) / (3 (n-1)! omega_{n-2}): R^{n-2} coefficient."""
    return (
        (n + 1)
        * intrinsic_volume_sphere(n - 2, n, 1.0)
        / (3.0 * _float_factorial(n - 1) * omega(n - 2))
    )


def tube_volume_check(n: int, R: float, eps: float) -> tuple[float, float]:
    """Both sides of the tube-volume identity for the n-sphere in R^{n+1}.

    direct:  omega_{n+1} ((R+eps)^{n+1} - (R-eps)^{n+1})  (spherical shell)
    formula: sum_i mu_{n+1-i}(S^n_R) omega_i eps^i, with mu_{n+1} taken as 0
             since an n-manifold has no (n+1)-volume.
    """
    n = at_least(n, 1, "n")
    positive_finite(R, "radius")
    if not 0.0 < eps < R:
        raise EpsilonTooLarge(f"need 0 < eps < R, got eps={eps}, R={R}")
    direct = omega(n + 1) * ((R + eps) ** (n + 1) - (R - eps) ** (n + 1))
    formula = 0.0
    for i in range(1, n + 2):  # the i = 0 term carries mu_{n+1} := 0
        formula += intrinsic_volume_sphere(n + 1 - i, n, R) * omega(i) * eps**i
    return direct, formula
