"""Large-scale asymptotics: germ sums and numerical coefficient extraction.

For g with germ expansion sum alpha_i r^i at 0, the Laplace-type integral
int_0^c e^{-t r} g(r) dr expands as sum i! alpha_i / t^{i+1} for large t;
watson_partial_sum evaluates that sum.  Going the other way,
extract_coefficients recovers expansion coefficients of a magnitude-like
function from samples on a grid of scales, by sequential stripping with
polynomial (Richardson/Neville) extrapolation in t^{-step}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedFit, NonFiniteResult
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, subspace_sphere_magnitude_quadrature
from .spheres import curvature_coefficient, sphere_magnitude_closed, volume_coefficient


@dataclass(frozen=True)
class AsymptoticExpansion:
    """Truncated expansion sum c_k t^k with an O(t^error_order) remainder.

    terms are (power, coefficient) pairs with strictly decreasing powers;
    error_order sits below the smallest listed power.  spreads, when
    present, are per-term extrapolation error estimates.
    """

    terms: tuple[tuple[int, float], ...]
    error_order: int
    spreads: tuple[float, ...] | None = None

    def __post_init__(self):
        powers = [p for p, _ in self.terms]
        if not powers:
            raise ValueError("expansion needs at least one term")
        if any(p2 >= p1 for p1, p2 in zip(powers, powers[1:])):
            raise ValueError("powers must be strictly decreasing")
        if self.error_order >= powers[-1]:
            raise ValueError("error_order must lie below the smallest power")
        if self.spreads is not None and len(self.spreads) != len(self.terms):
            raise ValueError("need one spread per term")

    def coefficient(self, power: int) -> float:
        for p, c in self.terms:
            if p == power:
                return c
        return 0.0

    def __call__(self, t: float) -> float:
        return sum(c * t**p for p, c in self.terms)


@dataclass(frozen=True)
class GermExpansion:
    """Coefficients alpha_0..alpha_N of a function at 0 and the cutoff c."""

    coefficients: tuple[float, ...]
    cutoff: float

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(float(a) for a in self.coefficients))
        if len(self.coefficients) == 0:
            raise ValueError("need at least alpha_0")
        if not self.cutoff > 0.0:
            raise ValueError(f"cutoff must be positive, got {self.cutoff}")


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
    n = int(n)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return AsymptoticExpansion(
        terms=((n, volume_coefficient(n)), (n - 1, 0.0), (n - 2, curvature_coefficient(n))),
        error_order=n - 4,
    )


def predicted_relative_correction_subspace(n: int) -> float:
    """R^{-2} coefficient of |chord-metric sphere| / (leading term): (n+1) n (n-2) / 8."""
    n = int(n)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return (n + 1) * n * (n - 2) / 8.0


def predicted_relative_correction_intrinsic(n: int) -> float:
    """R^{-2} coefficient of |geodesic-metric sphere| / (leading term): (n+1) n (n-1) / 6."""
    n = int(n)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return (n + 1) * n * (n - 1) / 6.0


def _neville_limit(u: np.ndarray, g: np.ndarray) -> tuple[float, float]:
    """Polynomial extrapolation of (u_j, g_j) to u = 0.

    Returns the corner value and the spread between the two highest-order
    extrapolants.
    """
    levels = [list(map(float, g))]
    while len(levels[-1]) > 1:
        cur = levels[-1]
        m = len(levels)  # current interpolation depth
        nxt = []
        for j in range(len(cur) - 1):
            uj, um = u[j], u[j + m]
            nxt.append((um * cur[j] - uj * cur[j + 1]) / (um - uj))
        levels.append(nxt)
    final = levels[-1][0]
    spread = abs(final - levels[-2][1]) if len(levels) >= 2 else 0.0
    return final, spread


def extract_coefficients(
    f,
    leading_power: int,
    parity_step: int,
    count: int,
    t_grid,
    coeff_tol: float | None = None,
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
    coeff_tol : float, optional
        When given, raise IllConditionedFit if any extrapolation spread
        exceeds it.

    Returns
    -------
    AsymptoticExpansion
        With per-term spreads attached and error_order one model step below
        the last extracted power.
    """
    parity_step = int(parity_step)
    count = int(count)
    if parity_step < 1:
        raise ValueError(f"parity_step must be >= 1, got {parity_step}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    t = np.asarray([float(v) for v in t_grid], dtype=float)
    if t.size < count + 2:
        raise ValueError(f"need at least count + 2 = {count + 2} grid points, got {t.size}")
    if np.any(t <= 0.0) or np.any(np.diff(t) <= 0.0):
        raise ValueError("t_grid must be strictly increasing and positive")
    fvals = np.asarray([float(f(v)) for v in t], dtype=float)
    if not np.all(np.isfinite(fvals)):
        raise ValueError("f must be finite on the whole grid")

    powers = [int(leading_power) - i * parity_step for i in range(count)]
    # Checked rather than warned about: on grids near the ends of the double
    # range these powers overflow or underflow to 0.
    with np.errstate(over="ignore", under="ignore"):
        u = t ** (-parity_step)
        tpow = {k: t ** float(k) for k in powers}
    if not all(np.all(np.isfinite(p) & (p > 0.0)) for p in (u, *tpow.values())):
        raise ValueError("t_grid is too close to 0 or to the double limit for this model")
    coeffs = {k: 0.0 for k in powers}
    spreads = {k: 0.0 for k in powers}
    sweeps = 1 if count == 1 else 2
    for _ in range(sweeps):
        for k in powers:
            residual = fvals.copy()
            for m in powers:
                if m != k:
                    residual -= coeffs[m] * tpow[m]
            coeffs[k], spreads[k] = _neville_limit(u, residual / tpow[k])
    if coeff_tol is not None:
        for k in powers:
            if not spreads[k] <= coeff_tol:
                raise IllConditionedFit(
                    f"spread {spreads[k]:.3e} for the t^{k} coefficient exceeds {coeff_tol:.3e}"
                )
    return AsymptoticExpansion(
        terms=tuple((k, coeffs[k]) for k in powers),
        error_order=powers[-1] - parity_step,
        spreads=tuple(spreads[k] for k in powers),
    )


def extract_parity_expansion(f, leading_power: int, t_grid) -> AsymptoticExpansion:
    """Extract the (k, k-1, k-2) coefficients of a parity-gapped expansion.

    The even ladder (k and k-2) is extracted first with step 2, exploiting
    the parity gaps; the k-1 coefficient is then read off the deflated
    series.  This is how a vanishing odd term is verified numerically: the
    parity structure is an input, and the k-1 estimate should come back at
    the noise level.
    """
    k = int(leading_power)
    even = extract_coefficients(f, k, 2, 2, t_grid)
    c_top = even.coefficient(k)
    c_sub = even.coefficient(k - 2)
    cache = {float(t): float(f(t)) for t in t_grid}

    def deflated(t):
        return cache[float(t)] - c_top * t**k - c_sub * t ** (k - 2)

    odd = extract_coefficients(deflated, k - 1, 1, 1, t_grid)
    return AsymptoticExpansion(
        terms=((k, c_top), (k - 1, odd.coefficient(k - 1)), (k - 2, c_sub)),
        error_order=k - 3,
        spreads=(even.spreads[0], odd.spreads[0], even.spreads[1]),
    )


def extract_subspace_relative_correction(
    n: int, R_grid, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> tuple[float, float]:
    """Extract the R^{-2} coefficient of the chord-metric relative expansion.

    Computes chord-metric magnitudes by quadrature, divides out the exact
    leading term sigma_n R^n / (n! omega_n), and extrapolates
    (ratio - 1) R^2 to R = infinity.  Returns (coefficient, spread).
    """
    n = int(n)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    lead = volume_coefficient(n)

    def centered(R):
        ratio = subspace_sphere_magnitude_quadrature(n, R, cfg) / (lead * R**n)
        return (ratio - 1.0) * R * R

    result = extract_coefficients(centered, 0, 2, 1, R_grid)
    return result.coefficient(0), result.spreads[0]


def surface_asymptotics_residual(R: float) -> float:
    """Magnitude of the round 2-sphere minus its surface model 2 R^2 + 2.

    For a homogeneous surface the model is area/(2 pi) t^2 + Euler
    characteristic; for the round sphere the residual is exponentially
    small in R.
    """
    if not R > 0.0:
        raise ValueError(f"need R > 0, got {R}")
    return sphere_magnitude_closed(2, R) - (2.0 * R * R + 2.0)
