"""Closed-form sphere magnitudes, intrinsic volumes, and geometric checks.

The magnitude of the n-sphere of radius R with the geodesic metric has a
closed form: a polynomial P in R divided by 1 +- e^{-pi R}.  This module
holds that formula, the closed forms of the circle and of the 2-sphere with
the chord metric, the polynomial itself with exactly expanded coefficients,
the intrinsic volumes of round spheres, scalar curvature, and the
tube-volume and geodesic-sphere identities used to validate them.  It needs
only the standard library, so a closed-form call never imports numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from ._numeric import half_x2_over_one_minus_one_plus_x_exp_neg, x_over_one_minus_exp_neg
from .errors import EpsilonTooLarge, IndexOutOfRange, NonpositiveLength


@lru_cache(maxsize=None)
def omega(k: int) -> float:
    """Volume of the unit k-ball: omega_0 = 1, omega_1 = 2, omega_k = (2 pi / k) omega_{k-2}."""
    return _unit_volume(k, (1.0, 2.0), 0)


@lru_cache(maxsize=None)
def sigma(k: int) -> float:
    """Volume of the unit k-sphere: sigma_0 = 2, sigma_1 = 2 pi, sigma_k = (2 pi / (k-1)) sigma_{k-2}."""
    return _unit_volume(k, (2.0, 2.0 * math.pi), 1)


def _unit_volume(k: int, bases: tuple[float, float], shift: int) -> float:
    """bases[k % 2] times 2 pi / (j - shift) for j = k % 2 + 2, k % 2 + 4, ..., k.

    Each step multiplies as the recurrence reads, so the result has the bits
    of the recursive definition without its depth.  Both volumes underflow
    to 0 by k = 455, and every later step keeps 0, so the loop stops there.
    """
    k = int(k)
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    value = bases[k % 2]
    for j in range(k % 2 + 2, k + 1, 2):
        if value == 0.0:
            break
        value = 2.0 * math.pi / (j - shift) * value
    return value


def _check_radius(R: float):
    if not R > 0.0 or not math.isfinite(R):
        raise ValueError(f"radius must be positive and finite, got {R}")


def sphere_magnitude_closed(n: int, R: float) -> float:
    """Magnitude of the n-sphere of radius R with the geodesic metric.

    n even:  2 * prod_{odd j < n} ((R/j)^2 + 1) / (1 + e^{-pi R})
    n odd:   pi R * prod_{even j < n} ((R/j)^2 + 1) / (1 - e^{-pi R})
    n = 0:   two points at distance pi R, 2 / (1 + e^{-pi R}).
    """
    n = int(n)
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    _check_radius(R)
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


def circle_magnitude_closed(circumference: float) -> float:
    """Magnitude of the circle of a given circumference.

    The invariant-measure quotient evaluates to l / (2 (1 - e^{-l/2})); the
    small-l regime goes through a series branch to avoid cancellation.
    """
    if not circumference > 0.0 or not math.isfinite(circumference):
        raise NonpositiveLength(
            f"circumference must be positive and finite, got {circumference}"
        )
    return x_over_one_minus_exp_neg(0.5 * circumference)


def subspace_sphere2_closed(R: float) -> float:
    """Magnitude of the 2-sphere of radius R with the chord metric.

    Closed form 2 R^2 / (1 - e^{-2R} (1 + 2R)), with a series branch for
    the whole ratio at small R.
    """
    _check_radius(R)
    return half_x2_over_one_minus_one_plus_x_exp_neg(2.0 * R)


def recurrence_step_check(n: int, R: float) -> float:
    """Residual of |S^{n+2}_R| = ((R/(n+1))^2 + 1) |S^n_R| between closed forms."""
    n = int(n)
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    _check_radius(R)
    return sphere_magnitude_closed(n + 2, R) - ((R / (n + 1)) ** 2 + 1.0) * sphere_magnitude_closed(n, R)


@dataclass(frozen=True)
class SpherePolynomial:
    """Numerator polynomial of the closed-form sphere magnitude.

    coeffs maps power -> coefficient; only powers with the parity of n
    appear, the constant term is the Euler characteristic (2 for even n,
    0 for odd), and the leading coefficient is sigma_n / (n! omega_n).
    """

    n: int
    coeffs: tuple[tuple[int, float], ...]  # (power, coefficient), descending

    def __post_init__(self):
        for power, _ in self.coeffs:
            if (power - self.n) % 2 != 0:
                raise ValueError(f"power {power} breaks the parity of n={self.n}")
        powers = [p for p, _ in self.coeffs]
        if powers != sorted(powers, reverse=True):
            raise ValueError("coefficients must be listed by descending power")

    def coefficient(self, power: int) -> float:
        for p, c in self.coeffs:
            if p == power:
                return c
        return 0.0

    @property
    def leading_coefficient(self) -> float:
        return self.coeffs[0][1]

    @property
    def constant_term(self) -> float:
        return self.coefficient(0)

    def __call__(self, R: float) -> float:
        return sum(c * R**p for p, c in self.coeffs)


def P_polynomial(n: int) -> SpherePolynomial:
    """Expanded numerator polynomial of the n-sphere magnitude.

    The product over ((R/j)^2 + 1) is expanded in exact rational
    arithmetic, then scaled by 2 (n even) or pi (odd, with one extra power
    of R), so each coefficient carries a single rounding.
    """
    n = int(n)
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
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
    return SpherePolynomial(n=n, coeffs=tuple(coeffs))


def intrinsic_volume_sphere(i: int, n: int, R: float) -> float:
    """Intrinsic volume mu_i of the round n-sphere of radius R.

    (2 sigma_n / sigma_{n-i}) C(n, i) R^i when n - i is even, else 0.
    mu_n is the volume sigma_n R^n and mu_0 the Euler characteristic.
    """
    i = int(i)
    n = int(n)
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if not 0 <= i <= n:
        raise IndexOutOfRange(f"need 0 <= i <= n, got i={i}, n={n}")
    _check_radius(R)
    if (n - i) % 2 != 0:
        return 0.0
    return 2.0 * sigma(n) / sigma(n - i) * math.comb(n, i) * R**i


def scalar_curvature_sphere(n: int, R: float) -> float:
    """Scalar curvature of the n-sphere of radius R: n (n-1) / R^2."""
    n = int(n)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    _check_radius(R)
    return n * (n - 1) / (R * R)


def tsc_sphere(n: int, R: float) -> float:
    """Total scalar curvature: scalar curvature times the volume.

    Equals 4 pi mu_{n-2} for the round sphere.
    """
    return scalar_curvature_sphere(n, R) * sigma(n) * R ** int(n)


def penguin_valuation_sphere(n: int, R: float) -> float:
    """Sum over i of mu_i(S^n_R) / (i! omega_i).

    Matches the leading and constant coefficients of the magnitude
    numerator polynomial, but not the subdominant one.
    """
    n = int(n)
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    _check_radius(R)
    return sum(
        intrinsic_volume_sphere(i, n, R) / (math.factorial(i) * omega(i))
        for i in range(n + 1)
    )


def volume_coefficient(n: int) -> float:
    """Volume term sigma_n / (n! omega_n): the R^n coefficient of |S^n_R|."""
    return sigma(n) / (math.factorial(n) * omega(n))


def curvature_coefficient(n: int) -> float:
    """Curvature term (n+1) mu_{n-2}(S^n_1) / (3 (n-1)! omega_{n-2}): R^{n-2} coefficient."""
    return (
        (n + 1)
        * intrinsic_volume_sphere(n - 2, n, 1.0)
        / (3.0 * math.factorial(n - 1) * omega(n - 2))
    )


def leading_and_subleading_check(n: int) -> tuple[float, float]:
    """Residuals of the two coefficient identities of the numerator polynomial.

    Returns (leading coefficient - volume_coefficient(n),
             R^{n-2} coefficient - curvature_coefficient(n)).
    """
    n = int(n)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    poly = P_polynomial(n)
    return (
        poly.leading_coefficient - volume_coefficient(n),
        poly.coefficient(n - 2) - curvature_coefficient(n),
    )


def tube_volume_check(n: int, R: float, eps: float) -> tuple[float, float]:
    """Both sides of the tube-volume identity for the n-sphere in R^{n+1}.

    direct:  omega_{n+1} ((R+eps)^{n+1} - (R-eps)^{n+1})  (spherical shell)
    formula: sum_i mu_{n+1-i}(S^n_R) omega_i eps^i, with mu_{n+1} taken as 0
             since an n-manifold has no (n+1)-volume.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    _check_radius(R)
    if not 0.0 < eps < R:
        raise EpsilonTooLarge(f"need 0 < eps < R, got eps={eps}, R={R}")
    direct = omega(n + 1) * ((R + eps) ** (n + 1) - (R - eps) ** (n + 1))
    formula = 0.0
    for i in range(1, n + 2):  # the i = 0 term carries mu_{n+1} := 0
        formula += intrinsic_volume_sphere(n + 1 - i, n, R) * omega(i) * eps**i
    return direct, formula


def geodesic_sphere_expansion_check(n: int, R: float, r: float) -> float:
    """Residual of the second-order volume expansion of geodesic spheres.

    The sphere of geodesic radius r inside S^n_R has volume
    sigma_{n-1} (R sin(r/R))^{n-1}; subtracting the model
    sigma_{n-1} r^{n-1} (1 - tau r^2 / (6n)) with tau = n(n-1)/R^2 leaves
    a residual of order r^{n+3}.
    """
    n = int(n)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    _check_radius(R)
    if not 0.0 < r < math.pi * R:
        raise ValueError(f"need 0 < r < pi R, got r={r}")
    tau = scalar_curvature_sphere(n, R)
    exact = sigma(n - 1) * (R * math.sin(r / R)) ** (n - 1)
    model = sigma(n - 1) * r ** (n - 1) * (1.0 - tau * r * r / (6.0 * n))
    return exact - model
