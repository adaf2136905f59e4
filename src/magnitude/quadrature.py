"""Adaptive quadrature and homogeneous-space magnitude quotients.

The magnitude of a homogeneous space with an invariant measure is the ratio
of the total measure to the integral of exp(-d(x, y)) against it.  For the
n-sphere with the geodesic metric this reduces to a quotient of the 1-D
integrals

    K_n = int_0^pi sin^{n-1}(r) dr,
    I_n = int_0^pi exp(-r R) sin^{n-1}(r) dr,

and for the chord (ambient Euclidean) metric to a similar quotient with
exp(-2 R sin(theta/2)).  The integrands are analytic on [0, pi], so a
fixed-order Gauss-Legendre panel rule with uniform bisection and an error
estimate from successive refinements converges very quickly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .errors import NoConvergence
# The chord-metric closed form lives in the numpy-free spheres module; it is
# re-exported here, as the same object, beside the quadrature it checks.
from .spheres import _check_radius, sigma, subspace_sphere2_closed

#: Decay rate at which the integration domain is pre-split near zero.
_SPLIT_RATE = 50.0
#: The split point is min(b, _SPLIT_SCALE / R).
_SPLIT_SCALE = 30.0


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerance of smooth 1-D integrals: only rel_tol varies per call; the
    panel order, bisection limit and absolute floor are class constants."""

    rel_tol: float = 1e-12
    abs_tol: ClassVar[float] = 1e-300
    panel_order: ClassVar[int] = 15
    max_refinements: ClassVar[int] = 20

    def __post_init__(self):
        if not self.rel_tol > 0.0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_estimate: float
    refinements_used: int


@lru_cache(maxsize=None)
def _gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _panel_sum(f, a: float, b: float, panels: int, order: int) -> float:
    nodes, weights = _gauss_rule(order)
    edges = np.linspace(a, b, panels + 1)
    half = (b - a) / (2.0 * panels)
    centers = 0.5 * (edges[:-1] + edges[1:])
    x = centers[:, None] + half * nodes[None, :]
    vals = np.asarray(f(x), dtype=float)
    return float(half * (vals @ weights).sum())


def integrate_adaptive(
    f, a: float, b: float, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> IntegralResult:
    """Integrate a smooth vectorized function over [a, b].

    The panel count doubles until two successive refinements agree to
    max(rel_tol * |value|, abs_tol); the difference is the error estimate.

    Parameters
    ----------
    f : callable
        Maps a numpy array of abscissae to integrand values of the same
        shape.
    a, b : float
        Integration bounds, a <= b.
    cfg : QuadratureConfig

    Raises
    ------
    NoConvergence
        If the estimate is still above tolerance after max_refinements
        bisections.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration bounds must be finite")
    if a > b:
        raise ValueError(f"need a <= b, got a={a}, b={b}")
    if a == b:
        return IntegralResult(0.0, 0.0, 0)
    prev = _panel_sum(f, a, b, 1, cfg.panel_order)
    for k in range(1, cfg.max_refinements + 1):
        cur = _panel_sum(f, a, b, 2**k, cfg.panel_order)
        err = abs(cur - prev)
        if err <= max(cfg.rel_tol * abs(cur), cfg.abs_tol):
            return IntegralResult(cur, err, k)
        prev = cur
    raise NoConvergence(
        f"integral estimate did not converge after {cfg.max_refinements} "
        f"refinements (last error estimate {err:.3e})"
    )


def _integrate_decaying(f, b: float, rate: float, cfg: QuadratureConfig) -> IntegralResult:
    """Integrate f over [0, b] when it decays like exp(-rate * x).

    For large rates the mass concentrates near 0, so the domain is split at
    min(b, 30/rate) before refinement; this keeps the panel counts small.
    """
    if rate < _SPLIT_RATE:
        return integrate_adaptive(f, 0.0, b, cfg)
    cut = min(b, _SPLIT_SCALE / rate)
    head = integrate_adaptive(f, 0.0, cut, cfg)
    tail = integrate_adaptive(f, cut, b, cfg)
    return IntegralResult(
        head.value + tail.value,
        head.error_estimate + tail.error_estimate,
        max(head.refinements_used, tail.refinements_used),
    )


def K_integral(n: int, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Numerator integral int_0^pi sin^{n-1}(r) dr, n >= 1."""
    n = int(n)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return integrate_adaptive(lambda r: np.sin(r) ** (n - 1), 0.0, math.pi, cfg).value


def I_integral(n: int, R: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Denominator integral int_0^pi exp(-r R) sin^{n-1}(r) dr, n >= 1, R > 0."""
    n = int(n)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    _check_radius(R)
    f = lambda r: np.exp(-r * R) * np.sin(r) ** (n - 1)
    # At R near the double limit r * R overflows to inf, and exp(-inf) = 0 is
    # the right factor.
    with np.errstate(over="ignore"):
        return _integrate_decaying(f, math.pi, R, cfg).value


def sphere_magnitude_quadrature(
    n: int, R: float, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> float:
    """Magnitude of the n-sphere of radius R (geodesic metric) by quadrature."""
    return K_integral(n, cfg) / I_integral(n, R, cfg)


def recurrence_residuals(
    n: int, R: float, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> tuple[float, float]:
    """Residuals of the two induction identities linking n and n+2.

    Returns ((n+1) K_{n+2} - n K_n, (n+1)((R/(n+1))^2 + 1) I_{n+2} - n I_n),
    all four integrals computed by quadrature.
    """
    kn = K_integral(n, cfg)
    kn2 = K_integral(n + 2, cfg)
    iname = I_integral(n, R, cfg)
    in2 = I_integral(n + 2, R, cfg)
    k_res = (n + 1) * kn2 - n * kn
    i_res = (n + 1) * ((R / (n + 1)) ** 2 + 1.0) * in2 - n * iname
    return k_res, i_res


def subspace_sphere_magnitude_quadrature(
    n: int, R: float, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> float:
    """Magnitude of the n-sphere of radius R with the chord metric.

    Evaluates Vol(S^n_R) / (sigma_{n-1} R^n J) with
    J = int_0^pi exp(-2 R sin(theta/2)) sin^{n-1}(theta) dtheta,
    which simplifies to sigma_n / (sigma_{n-1} J).
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    _check_radius(R)
    f = lambda t: np.exp(-2.0 * R * np.sin(0.5 * t)) * np.sin(t) ** (n - 1)
    j = _integrate_decaying(f, math.pi, R, cfg).value
    return sigma(n) / (sigma(n - 1) * j)
