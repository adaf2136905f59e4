"""Exact weight-measure arithmetic for closed subsets of the real line.

Weight measures here are symbolic: a list of point atoms plus piecewise
constant densities.  Integrals against exp(-|x - y|) then have elementary
antiderivatives, so the weight equation can be checked exactly, with no
quadrature anywhere in this module.

The three constructions are the closed interval (atoms of mass 1/2 at the
ends plus density 1/2), removal of an open subinterval (which adds atoms of
mass tanh((b-a)/2)/2 at the new endpoints), and the middle-thirds sets
obtained by iterating the removal.  Finite subsets of the line need no
weight equation either: line_points_magnitude sums tanh over their gaps.

The closed forms, the measure arithmetic and finite subsets of the line
need only the standard library: finite_approx_points and
carrier_probe_points place their grids with _numeric.linspace, as
np.linspace would, bit for bit, and line_points_magnitude sums libm's tanh
with math.fsum, both on Python floats in O(N).  finite_approx_points keeps
every distinct point, however close: the tanh sum needs no guard against
near-twins, which only a dense solve finds singular.  numpy (and the finite
module) are imported only inside finite_approx_line, that dense reference
of line_points_magnitude.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from typing import TYPE_CHECKING

from ._numeric import Frozen, at_least, linspace, positive_finite, tanh_minus_x, tanh_over_x
from .errors import (
    HypothesisViolated,
    NonpositiveLength,
    NotContained,
    PointOutsideCarrier,
    TooFewPoints,
)

if TYPE_CHECKING:
    from .finite import FiniteMetricSpace

class LineSubset(Frozen):
    """Disjoint union of closed intervals [a_i, b_i], sorted left to right.

    Degenerate point intervals (a == b) are permitted.
    """

    __slots__ = ("intervals",)

    def __init__(self, intervals: tuple[tuple[float, float], ...]):
        ivs = tuple((float(a), float(b)) for a, b in intervals)
        if not ivs:
            raise ValueError("carrier must contain at least one interval")
        for a, b in ivs:
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ValueError("interval endpoints must be finite")
            if a > b:
                raise ValueError(f"interval [{a}, {b}] has negative length")
        for (_, b), (a2, _) in zip(ivs, ivs[1:]):
            if not b < a2:
                raise ValueError("intervals must be disjoint and sorted")
        object.__setattr__(self, "intervals", ivs)

    @property
    def hull(self) -> tuple[float, float]:
        return self.intervals[0][0], self.intervals[-1][1]

    def contains(self, y: float) -> bool:
        return any(a <= y <= b for a, b in self.intervals)


class LineWeightMeasure(Frozen):
    """Signed measure: point atoms plus piecewise-constant density.

    atoms are (location, mass) pairs sorted by location; densities are
    (left, right, rate) with disjoint sorted supports.  Zero-length density
    segments are not stored.
    """

    __slots__ = ("atoms", "densities")

    def __init__(
        self,
        atoms: tuple[tuple[float, float], ...] = (),
        densities: tuple[tuple[float, float, float], ...] = (),
    ):
        atoms = tuple((float(x), float(m)) for x, m in atoms)
        dens = tuple((float(a), float(b), float(c)) for a, b, c in densities)
        for (x1, _), (x2, _) in zip(atoms, atoms[1:]):
            if not x1 < x2:
                raise ValueError("atoms must be sorted by location, without duplicates")
        for a, b, _ in dens:
            if not a < b:
                raise ValueError(f"density segment [{a}, {b}] must have positive length")
        for (_, b1, _), (a2, _, _) in zip(dens, dens[1:]):
            if b1 > a2:
                raise ValueError("density segments must be disjoint and sorted")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "densities", dens)


def measure_total_mass(measure: LineWeightMeasure) -> float:
    """Total mass: sum of atom masses plus sum of rate * length."""
    mass = 0.0
    for _, m in measure.atoms:
        mass += m
    for a, b, rate in measure.densities:
        mass += rate * (b - a)
    return mass


def interval_weight_measure(length: float) -> tuple[LineSubset, LineWeightMeasure]:
    """Weight measure of the closed interval [0, length].

    Atoms of mass 1/2 at both ends plus density 1/2 across, giving total
    mass 1 + length/2.
    """
    positive_finite(length, "interval length", NonpositiveLength)
    space = LineSubset(((0.0, length),))
    measure = LineWeightMeasure(
        atoms=((0.0, 0.5), (length, 0.5)),
        densities=((0.0, length, 0.5),),
    )
    return space, measure


def remove_open_interval(
    space: LineSubset, measure: LineWeightMeasure, a: float, b: float
) -> tuple[LineSubset, LineWeightMeasure]:
    """Remove the open interval (a, b) and repair the weight measure.

    Requires [a, b] to sit inside one carrier interval and the measure
    restricted to [a, b] to be exactly density 1/2 with no atoms.  The new
    measure keeps everything outside (a, b) and gains mass tanh((b-a)/2)/2
    at each of a and b, so the total mass changes by
    -(b-a)/2 + tanh((b-a)/2).

    A degenerate hole (a == b) is accepted and is the identity.
    """
    a = float(a)
    b = float(b)
    if a > b:
        raise ValueError(f"need a <= b, got a={a}, b={b}")
    host = None
    for idx, (lo, hi) in enumerate(space.intervals):
        if lo <= a and b <= hi:
            host = idx
            break
    if host is None:
        raise NotContained(f"[{a}, {b}] is not inside a single carrier interval")
    if a == b:
        return space, measure

    for x, _ in measure.atoms:
        if a <= x <= b:
            raise HypothesisViolated(f"atom at {x} inside [{a}, {b}]")
    cover = None
    for idx, (lo, hi, rate) in enumerate(measure.densities):
        if lo <= a and b <= hi:
            if rate != 0.5:
                raise HypothesisViolated(
                    f"density on [{lo}, {hi}] is {rate}, not 1/2"
                )
            cover = idx
            break
    if cover is None:
        raise HypothesisViolated(f"[{a}, {b}] is not covered by a density-1/2 segment")

    lo, hi = space.intervals[host]
    new_intervals = (
        space.intervals[:host] + ((lo, a), (b, hi)) + space.intervals[host + 1 :]
    )

    half_tanh = 0.5 * math.tanh(0.5 * (b - a))
    new_atoms = sorted(measure.atoms + ((a, half_tanh), (b, half_tanh)))
    dlo, dhi, rate = measure.densities[cover]
    pieces = tuple(
        (p, q, rate) for p, q in ((dlo, a), (b, dhi)) if p < q
    )
    new_densities = measure.densities[:cover] + pieces + measure.densities[cover + 1 :]
    return (
        LineSubset(new_intervals),
        LineWeightMeasure(atoms=tuple(new_atoms), densities=new_densities),
    )


def weight_equation_residual(
    space: LineSubset, measure: LineWeightMeasure, y: float
) -> float:
    """Integral of exp(-|x - y|) against the measure, minus 1.

    Evaluated exactly through the antiderivative of c * exp(-|x - y|) on
    each density segment; no quadrature.
    """
    y = float(y)
    if not space.contains(y):
        raise PointOutsideCarrier(f"probe point {y} is outside the carrier")
    total = 0.0
    for x, m in measure.atoms:
        total += m * math.exp(-abs(x - y))
    for a, b, rate in measure.densities:
        if b <= y:
            total += rate * (math.exp(b - y) - math.exp(a - y))
        elif a >= y:
            total += rate * (math.exp(y - a) - math.exp(y - b))
        else:
            total += rate * (2.0 - math.exp(a - y) - math.exp(y - b))
    return total - 1.0


def carrier_probe_points(space: LineSubset, per_interval: int = 100) -> list[float]:
    """Evenly spaced probe points on each carrier interval, endpoints included."""
    if per_interval < 1:
        raise ValueError("need at least one probe point per interval")
    pts: list[float] = []
    for a, b in space.intervals:
        if a == b or per_interval == 1:
            pts.append(a)
        else:
            pts.extend(linspace(a, b, per_interval))
    return pts


def _tail_bound(length: float, i: int) -> float:
    # tanh x <= x gives term_i <= (length/4) (2/3)^i; summing the geometric
    # tail from i+1 gives 3 * (length/4) * (2/3)^{i+1}.
    return 3.0 * (length / 4.0) * (2.0 / 3.0) ** (i + 1)


def cantor_magnitude_series(length: float, tol: float) -> float:
    """Magnitude of the middle-thirds set of a length-`length` interval.

    Sums 1 + sum_{i>=1} 2^{i-1} tanh(length / (2 * 3^i)), truncated once the
    geometric tail bound drops below tol, so the result is within tol of the
    full series.
    """
    positive_finite(length, "length", NonpositiveLength)
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    total = 1.0
    i = 0
    # x = length / (2 * 3^i) as half / p with p = 3^i carried by
    # multiplication (3.0**i raises past i = 646); p is folded into half
    # before it can overflow, which only lengths above ~1e290 reach.
    half, p = length / 2.0, 1.0
    while _tail_bound(length, i) > tol:
        i += 1
        if p > 1e300:
            half, p = half / p, 1.0
        p *= 3.0
        x = half / p
        # 2^{i-1} tanh(x) written as (length/4)(2/3)^i * tanh(x)/x so deep
        # terms underflow cleanly instead of multiplying inf by zero.
        total += (length / 4.0) * (2.0 / 3.0) ** i * tanh_over_x(x)
    return total


def cantor_magnitude_iterative(length: float, depth: int) -> float:
    """Magnitude after `depth` rounds of middle-third removal from [0, length].

    Each round i removes 2^{i-1} open intervals of length length/3^i, and
    each removal changes the mass by -len/2 + tanh(len/2).
    """
    positive_finite(length, "length", NonpositiveLength)
    depth = at_least(depth, 0, "depth")
    total = 1.0 + length / 2.0
    for i in range(1, depth + 1):
        x = length / (2.0 * 3.0**i)
        if x == 0.0:
            break
        total += 2.0 ** (i - 1) * tanh_minus_x(x)
    return total


def cantor_level_set(length: float, depth: int) -> LineSubset:
    """Carrier after `depth` rounds of middle-third removal: 2^depth intervals."""
    positive_finite(length, "length", NonpositiveLength)
    depth = at_least(depth, 0, "depth")
    intervals = [(0.0, float(length))]
    for _ in range(depth):
        nxt = []
        for a, b in intervals:
            third = (b - a) / 3.0
            nxt.append((a, a + third))
            nxt.append((b - third, b))
        intervals = nxt
    return LineSubset(tuple(intervals))


def cantor_level_measure(length: float, depth: int) -> tuple[LineSubset, LineWeightMeasure]:
    """Carrier and weight measure after `depth` rounds of middle-third removal.

    Built by actually applying remove_open_interval 2^i - 1 times, so the
    cost is exponential in depth; intended for modest depths where the
    explicit measure is wanted (residual checks, demos).
    """
    space, measure = interval_weight_measure(length)
    for _ in range(at_least(depth, 0, "depth")):
        for a, b in list(space.intervals):
            third = (b - a) / 3.0
            space, measure = remove_open_interval(space, measure, a + third, b - third)
    return space, measure


def finite_approx_points(space: LineSubset, n_grid: int) -> list[float]:
    """Sorted points of the finite approximation: carrier endpoints plus a grid.

    The grid has n_grid points spaced uniformly across the carrier hull, as
    np.linspace spaces them; points outside the carrier are dropped, and so
    are exact duplicates (a grid point on an endpoint).  A near-twin, such
    as a grid point one ulp from an endpoint, is a point of the grid and is
    kept; line_points_magnitude adds its tiny gap's term as any other.  The
    points are Python floats in lists, about 41 bytes each at the peak.
    """
    n_grid = int(n_grid)
    if n_grid < 2:
        raise TooFewPoints(f"need at least 2 grid points, got {n_grid}")
    intervals = space.intervals
    starts = [a for a, _ in intervals]
    ends = [b for _, b in intervals]
    # The only carrier interval that can hold x is the last one starting at or
    # before x, because the intervals are disjoint and sorted.  No grid point
    # lies left of starts[0], so that interval always exists.
    pts = [x for x in linspace(starts[0], ends[-1], n_grid)
           if x <= ends[bisect.bisect_right(starts, x) - 1]]
    pts += starts
    pts += (b for a, b in intervals if b != a)
    pts.sort()
    kept = pts[:1]
    for x in itertools.islice(pts, 1, None):
        if x > kept[-1]:
            kept.append(x)
    return kept


def finite_approx_line(space: LineSubset, n_grid: int) -> FiniteMetricSpace:
    """Finite approximation on the points of finite_approx_points, distance |x - y|.

    A near-twin pair of points makes the similarity matrix nearly singular,
    so a dense solve on it raises SingularSystem where the tanh sum of
    line_points_magnitude has no difficulty.
    """
    import numpy as np

    from .finite import FiniteMetricSpace

    xs = np.array(finite_approx_points(space, n_grid))
    d = np.abs(xs[:, None] - xs[None, :])
    # |x - y| on a sorted grid is metric by construction.
    return FiniteMetricSpace(d, check_triangle=False)


#: Relative rounding bound of line_points_magnitude, derived in its docstring.
_LINE_SUM_ROUNDING = 7.0 * 2.0**-53


def line_points_magnitude(xs) -> tuple[float, float]:
    """Magnitude of a finite subset of the line and a bound on its rounding error.

    For sorted points x_1 < ... < x_N the magnitude is
    1 + sum_i tanh((x_{i+1} - x_i) / 2) (Leinster, "The magnitude of metric
    spaces", Doc. Math. 2013), computed here in O(N) time, with no storage
    beyond the points.

    The error estimate bounds |computed - exact| for the given doubles; it
    is not the gap to any continuum the points approximate.  With
    u = 2^-53, each gap is rounded once, g(1 + d) with |d| <= u, and since
    |d ln tanh(z) / d ln z| = 2z / sinh(2z) <= 1, tanh(g(1 + d)/2) is within
    a factor exp(u / (1 - u)) of tanh(g/2).  glibc documents its tanh
    (math.tanh) within 2 ulps, relative 4u (it measures up to 1.92 ulps
    against mpmath), so each term t_i is within 5.01u t_i.  math.fsum
    rounds 1 + sum t_i once, within u |result|.  As
    sum t_i <= (1 + u) |result|, the total is at most 6.1u |result|, and
    7u |result| is returned.  Halving a subnormal gap loses at most
    2^-1075 per term, far below u |result| >= u.
    """
    if getattr(xs, "ndim", 1) != 1:
        raise ValueError(f"need a nonempty 1-d array of points, got shape {xs.shape}")
    try:
        xs = list(map(float, xs))
    except TypeError as exc:
        raise ValueError(f"need a nonempty 1-d array of points: {exc}") from None
    if not xs:
        raise ValueError("need a nonempty 1-d array of points, got shape (0,)")
    if not all(map(math.isfinite, xs)):
        raise ValueError("points must be finite")
    if not all(map(operator.lt, xs, itertools.islice(xs, 1, None))):
        raise ValueError("points must be strictly increasing")
    # Iterators, not lists: the sum holds no storage beyond the points.
    gaps = map(operator.sub, itertools.islice(xs, 1, None), xs)
    terms = map(math.tanh, map(operator.mul, itertools.repeat(0.5), gaps))
    magnitude = math.fsum(itertools.chain((1.0,), terms))
    return magnitude, _LINE_SUM_ROUNDING * magnitude
