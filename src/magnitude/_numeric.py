"""Numerically careful scalar helpers, the scalar input checks, the default
tolerances and the base of the package's value types, shared across modules.

The numerical helpers guard against catastrophic cancellation near zero by
switching to a series branch; the crossover thresholds are chosen so that
the truncation error of the series sits far below double-precision
roundoff.  The two checks state the domain rules of the package once: an
integer dimension or depth at least some least value, and a positive finite
length, radius, scale or tolerance.  The quadrature settings live here,
not in quadrature, so that code which only passes them on (asymptotics, the
CLI) does not import numpy; so do the grids of line approximations and
sweeps (linspace, geomspace).  The module needs only the standard library.
"""

import math

from .errors import NonFiniteResult

#: Default solver tolerance (residual bound and reciprocal-condition floor of
#: the dense solve), also the default truncation bound of the Cantor series.
DEFAULT_TOL = 1e-10

#: Unit roundoff of a double, u = 2^-53: a correctly rounded operation is
#: within u of its exact result, relative to it.
_U = 2.0**-53

# Below this x / (1 - e^{-x}) is evaluated by its series.
SERIES_CUTOFF = 1e-4


class Frozen:
    """Base of the package's immutable value types.

    A subclass lists its fields in __slots__, in constructor order, and sets
    them in __init__ with object.__setattr__.  Its instances refuse
    assignment, and compare, hash, print and pickle by those fields.  A
    frozen dataclass would do the same, but its module loads inspect, whose
    import costs a closed-form call more time than its arithmetic does.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _guarded(x, compute) -> tuple[float, ...]:
    """compute() for the numbers at parameter x, a tuple; one that overflows or
    is not finite is a numerical failure, never a printed inf or nan."""
    try:
        values = compute()
    except (OverflowError, ZeroDivisionError) as exc:
        raise NonFiniteResult(f"result at {_fmt(x)} is out of range: {exc}") from None
    for value in values:
        if not math.isfinite(value):
            raise NonFiniteResult(f"result at {_fmt(x)} is not finite: {value}")
    return values


def at_least(value, least: int, name: str) -> int:
    """value as an int; ValueError("need <name> >= <least>, got <value>") below least."""
    value = int(value)
    if value < least:
        raise ValueError(f"need {name} >= {least}, got {value}")
    return value


def positive_finite(value, name: str, error: type[Exception] = ValueError):
    """value itself; error("<name> must be positive and finite, got <value>")
    unless it is positive and finite (nan is neither)."""
    if not value > 0.0 or not math.isfinite(value):
        raise error(f"{name} must be positive and finite, got {value}")
    return value


class QuadratureConfig(Frozen):
    """Tolerance of smooth 1-D integrals: only rel_tol varies per call; the
    panel order, bisection limit and absolute floor are class constants."""

    __slots__ = ("rel_tol",)
    abs_tol = 1e-300
    panel_order = 15
    max_refinements = 20

    def __init__(self, rel_tol: float = 1e-12):
        # An infinite rel_tol would accept every integral at its first level.
        object.__setattr__(self, "rel_tol", positive_finite(rel_tol, "rel_tol"))


DEFAULT_CONFIG = QuadratureConfig()


def linspace(start: float, stop: float, num: int) -> list[float]:
    """np.linspace(start, stop, num) for num >= 2, bit for bit, as a list.

    Point i is i * step + start, with step = (stop - start) / (num - 1);
    where step underflows to 0, it is (i / (num - 1)) * (stop - start) +
    start.  The last point is stop.
    """
    div = num - 1
    delta = stop - start
    step = delta / div
    if step == 0.0:
        points = [i / div * delta + start for i in range(div)]
    else:
        points = [i * step + start for i in range(div)]
    points.append(stop)
    return points


def geomspace(start: float, stop: float, num: int) -> list[float]:
    """np.geomspace(start, stop, num) for 0 < start < stop and num >= 2, as a list.

    numpy's formula on libm: y = linspace(log10(start), log10(stop), num)
    and point i is 10 ** y_i; the first point is start and the last is
    stop, never computed.  An interior power that overflows is stop, since
    the exact point lies in [start, stop].

    Unlike linspace's, these points need not be numpy's bit for bit: numpy
    evaluates log10 and power with its own SIMD code where the CPU has it
    (AVX-512 with numpy 2.4), not with libm's log10 and pow, so an interior
    point can differ from numpy's in its last bits.  On 30 grids of 3 to
    16000 points from about 1 to 8-250 the two differed by up to 5 ulps,
    and both stayed within 12.3 ulps of the exact points
    start (stop/start)^(i/(num-1)).  tests/test_grids.py bounds the error
    of both from the accuracy of log10 and pow.
    """
    points = linspace(math.log10(start), math.log10(stop), num)
    points[0] = start
    for i in range(1, num - 1):
        try:
            points[i] = 10.0 ** points[i]
        except OverflowError:
            points[i] = stop
    points[-1] = stop
    return points


def x_over_one_minus_exp_neg(x: float) -> float:
    """x / (1 - e^{-x}) with the removable singularity at 0 filled in.

    Within 3u of exact for x >= 0, u = 2^-53: expm1 (1 ulp, 2u) and the
    division; the series branch, its three additions.
    """
    if x == 0.0:
        return 1.0
    if abs(x) < SERIES_CUTOFF:
        # 1 + x/2 + x^2/12 - x^4/720 + ...; next term ~ x^6/30240
        return 1.0 + x / 2.0 + x * x / 12.0 - x**4 / 720.0
    return x / -math.expm1(-x)


def half_x2_over_one_minus_one_plus_x_exp_neg(x: float) -> float:
    """(x^2 / 2) / (1 - (1+x) e^{-x}) for x >= 0, with the removable
    singularity at 0 filled in.

    The denominator is e^{-x} (e^x - 1 - x) = e^{-x} x^2 g(x) / 2 with
    g(x) = sum_k 2 x^k / (k+2)! = 1 + (x/3)(1 + (x/4)(1 + (x/5)(...))), so
    the ratio is e^x / g(x), with no cancellation.  Below x = 2 it is
    evaluated that way, g by the nested form to depth 25, whose dropped
    tail is below 1e-18 g; the value stays 1 where numerator and
    denominator would both underflow.  From x = 2 on, the direct formula
    loses at most a factor 1.5 to cancellation and is used as written.

    With u = 2^-53 and libm's exp and expm1 within 1 ulp (2u), each branch
    is within 8u of exact.  The nested form: each level
    r_j = 1 + (x/j) r_{j+1} rounds three times, and an error of r_{j+1}
    reaches r_j scaled by (r_j - 1) / r_j <= (g - 1) / g, at most 0.55
    below x = 2, so g is within u (1 + 2 * 0.55) / (1 - 0.55) = 4.7u; exp
    and the division add 3u.  The direct formula: -expm1(-x) = a and
    x e^{-x} = b carry 2u a and 3u b, so their difference is within
    (2a + 3b) / (a - b) u + u <= 5.3u of exact at x >= 2; x^2 and the
    division add 2u.
    """
    if x < 2.0:
        g = 1.0
        for j in range(25, 2, -1):
            g = 1.0 + x / j * g
        return math.exp(x) / g
    return 0.5 * x * x / (-math.expm1(-x) - x * math.exp(-x))


def tanh_minus_x(x: float) -> float:
    """tanh(x) - x without cancellation for small x.

    With u = 2^-53, the series branch is within 6u: the rounded -1/3, x^2,
    x x^2, the inner sum and the product round once each, and the inner
    terms' errors weigh under 0.005.  Above 0.1 the direct difference is
    within 4u |tanh x| (tanh, 2 ulps) + u |tanh x - x| <= 5u |x|.
    """
    if x == 0.0:
        return 0.0
    if abs(x) < 0.1:
        x2 = x * x
        # odd series of tanh past the linear term, through x^15; below 0.1
        # the next term is under 2e-17 of the value
        return x * x2 * (
            -1.0 / 3.0
            + x2 * (2.0 / 15.0 + x2 * (-17.0 / 315.0 + x2 * (62.0 / 2835.0 + x2 * (
                -1382.0 / 155925.0 + x2 * (21844.0 / 6081075.0 - x2 * 929569.0 / 638512875.0)))))
        )
    return math.tanh(x) - x


def tanh_over_x(x: float) -> float:
    """tanh(x)/x with the limit value 1 at x = 0.

    The plain quotient does not cancel: glibc's tanh (2 ulps, 4u) and the
    division leave it within 5u, and a subnormal x gives tanh(x) = x.
    """
    if x == 0.0:
        return 1.0
    return math.tanh(x) / x
