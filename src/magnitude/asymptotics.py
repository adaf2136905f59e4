"""Large-scale asymptotics: germ sums and numerical coefficient extraction.

For g with germ expansion sum alpha_i r^i at 0, the Laplace-type integral
int_0^c e^{-t r} g(r) dr expands as sum i! alpha_i / t^{i+1} for large t;
watson_partial_sum evaluates that sum.  Going the other way,
extract_coefficients recovers expansion coefficients of a magnitude-like
function from samples on a grid of scales, by sequential stripping with
polynomial (Richardson/Neville) extrapolation in t^{-step}.
sphere_asymptotics is the one route from sphere magnitudes to coefficients:
it owns the sampling, the samples' error model and the refusal of a fit
that noise decides, and `magnitude asymptotics` prints what it returns.

The extraction runs on lists of Python floats: a grid holds a dozen scales
at most, and the intrinsic-sphere asymptotics then need only the standard
library.  quadrature, and with it numpy, is imported only by the
chord-metric functions that integrate.
"""

from __future__ import annotations

import math
import operator
import sys

from ._numeric import _U, DEFAULT_CONFIG, Frozen, QuadratureConfig, _guarded, at_least
from .errors import IllConditionedFit, NonFiniteResult
from .spheres import curvature_coefficient, sphere_closed_rounding, sphere_magnitude_closed, volume_coefficient


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
    if at_least(n, 1, "n") == 1:
        return AsymptoticExpansion(terms=((0, 1.0),), error_order=-2)
    return AsymptoticExpansion(((0, 1.0), (-2, predicted_relative_correction_subspace(n))), -4)


def _neville_limit(u: list[float], g: list[float]) -> tuple[float, float]:
    """Polynomial extrapolation of the points (u_j, g_j) to u = 0.

    Returns the tableau's corner value T and its spread, the larger distance
    from T to the extrapolants that drop the first and the last point; needs
    at least two points.  Only the last two levels of the tableau are held.
    """
    cur = g
    for m in range(1, len(u)):  # m is the interpolation depth of the next level
        prev, cur = cur, [
            (u[j + m] * cur[j] - u[j] * cur[j + 1]) / (u[j + m] - u[j])
            for j in range(len(cur) - 1)
        ]
    return cur[0], max(abs(cur[0] - prev[0]), abs(cur[0] - prev[1]))


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


def subspace_lead(n: int, R: float) -> float:
    """Leading term sigma_n R^n / (n! omega_n) of the chord-metric magnitude of
    S^n_R.  R**n raises OverflowError when it overflows; a term below the
    normal range raises ValueError."""
    lead = volume_coefficient(n) * R**n
    if lead < sys.float_info.min:
        raise ValueError(f"grid too close to 0: the leading term at R = {R!r} is below the normal range")
    return lead


def subspace_ratio(n: int, R: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Chord-metric magnitude of S^n_R over its leading term subspace_lead(n, R)."""
    from .quadrature import subspace_sphere_magnitude_quadrature

    magnitude = subspace_sphere_magnitude_quadrature(n, R, cfg)
    return magnitude / subspace_lead(n, R)


#: Relative error, per sample, that stands for the rounding of the fit itself.
#: The fit strips each sample of at most two terms c_m t^m (those of
#: extract_parity_expansion's deflation): t^m within one ulp, the product and
#: the difference round within about 4u (|f_i| + |c_m t^m|) each, and the
#: terms of the sphere magnitudes are positive and below |f_i|.  The Neville
#: steps round values of the coefficient's own size, far below.
FIT_ROUNDING = 16 * _U


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


def sphere_asymptotics(metric: str, n: int, grid, orders: int,
                       cfg: QuadratureConfig = DEFAULT_CONFIG) -> AsymptoticExpansion:
    """The top orders coefficients of the n-sphere's magnitude expansion,
    fitted to one sample at each scale of grid, with the spreads that
    `magnitude asymptotics` prints.

    "intrinsic" fits sphere_magnitude_closed(n, t), n >= 2, with
    extract_parity_expansion (t^n, t^(n-1), t^(n-2)); "subspace" fits
    subspace_ratio(n, R, cfg), n >= 1, after checking every subspace_lead
    (R^0 and R^-2: the limits of the ratio and of (ratio - 1) R^2).

    The fit is linear in the samples f_i, so errors e_i in them move the t^k
    coefficient by at most noise_k = sum_i |d c_k / d f_i| e_i.  Here e_i is
    |f_i| times FIT_ROUNDING plus, for the chord metric, rel_tol +
    subspace_ratio_rounding(n), and for the intrinsic metric
    sphere_closed_rounding(n) + e^(-pi t_i): the closed form is
    P_polynomial(n)(t) / (1 +- e^(-pi t)), so it differs from the polynomial
    that the powers of t model by |f| e^(-pi t) exactly, which is below a
    double's rounding from t of about 12 on.  Each spread is
    max(extrapolation spread, noise_k); a noise_k above the leading
    coefficient's size raises IllConditionedFit.
    """
    if metric not in ("intrinsic", "subspace"):
        raise ValueError(f"metric must be intrinsic or subspace, got {metric!r}")
    least, count = (2, 3) if metric == "intrinsic" else (1, 2)
    n = at_least(n, least, "n")
    if not 1 <= orders <= count:
        raise ValueError(f"orders must be between 1 and {count} for the {metric} metric, got {orders}")
    if metric == "intrinsic":
        rounding = sphere_closed_rounding(n)
        relative_errors = [rounding + math.exp(-math.pi * t) for t in grid]
        samples = {t: _guarded(t, lambda: (sphere_magnitude_closed(n, t),))[0] for t in grid}
        extracted = extract_parity_expansion(samples.__getitem__, n, grid)
    else:
        relative_errors = [cfg.rel_tol + subspace_ratio_rounding(n)] * len(grid)
        # The leading terms cost nothing, so one out of range fails the call
        # before the first quadrature, with the message it gives as a sample.
        for R in grid:
            _guarded(R, lambda: (subspace_lead(n, R),))
        samples = {R: _guarded(R, lambda: (subspace_ratio(n, R, cfg),))[0] for R in grid}
        lead = extract_coefficients(samples.__getitem__, 0, 2, 1, grid)
        correction = extract_coefficients(lambda R: (samples[R] - 1.0) * R * R, 0, 2, 1, grid)
        extracted = AsymptoticExpansion(
            ((0, lead.coefficient(0)), (-2, correction.coefficient(0))), -4,
            (lead.spreads[0], correction.spreads[0]),
            (lead.gradients[0], tuple(g * R * R for g, R in zip(correction.gradients[0], grid))))
    errors = [(e + FIT_ROUNDING) * abs(samples[t]) for e, t in zip(relative_errors, grid)]
    terms = extracted.terms[:orders]
    size = abs(terms[0][1])
    bars = []
    for (power, _), spread, gradient in zip(terms, extracted.spreads, extracted.gradients):
        noise = sum(abs(g) * e for g, e in zip(gradient, errors))
        if not noise <= size:
            raise IllConditionedFit(
                f"the samples' rounding and quadrature errors may move the t^{power} coefficient "
                f"by {noise:.3e}, more than the leading coefficient's size {size:.3e}")
        bars.append(max(spread, noise))
    powers = [p for p, _ in extracted.terms] + [extracted.error_order]
    return AsymptoticExpansion(terms, powers[orders], tuple(bars), extracted.gradients[:orders])
