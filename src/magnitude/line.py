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

numpy (and the finite module) are imported only inside the functions that
build arrays, so the closed forms and the measure arithmetic need only the
standard library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ._numeric import tanh_minus_x, tanh_over_x
from .errors import (
    HypothesisViolated,
    NonpositiveLength,
    NotContained,
    PointOutsideCarrier,
    TooFewPoints,
)

if TYPE_CHECKING:
    import numpy as np

#: Points of a finite approximation closer than this are merged.
MERGE_TOL = 1e-12


@dataclass(frozen=True)
class LineSubset:
    """Disjoint union of closed intervals [a_i, b_i], sorted left to right.

    Degenerate point intervals (a == b) are permitted.
    """

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        ivs = tuple((float(a), float(b)) for a, b in self.intervals)
        object.__setattr__(self, "intervals", ivs)
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

    @property
    def hull(self) -> tuple[float, float]:
        return self.intervals[0][0], self.intervals[-1][1]

    def contains(self, y: float) -> bool:
        return any(a <= y <= b for a, b in self.intervals)


@dataclass(frozen=True)
class LineWeightMeasure:
    """Signed measure: point atoms plus piecewise-constant density.

    atoms are (location, mass) pairs sorted by location; densities are
    (left, right, rate) with disjoint sorted supports.  Zero-length density
    segments are not stored.
    """

    atoms: tuple[tuple[float, float], ...] = ()
    densities: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self):
        atoms = tuple((float(x), float(m)) for x, m in self.atoms)
        dens = tuple((float(a), float(b), float(c)) for a, b, c in self.densities)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "densities", dens)
        for (x1, _), (x2, _) in zip(atoms, atoms[1:]):
            if not x1 < x2:
                raise ValueError("atoms must be sorted by location, without duplicates")
        for a, b, _ in dens:
            if not a < b:
                raise ValueError(f"density segment [{a}, {b}] must have positive length")
        for (_, b1, _), (a2, _, _) in zip(dens, dens[1:]):
            if b1 > a2:
                raise ValueError("density segments must be disjoint and sorted")


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
    if not length > 0.0 or not math.isfinite(length):
        raise NonpositiveLength(f"interval length must be positive and finite, got {length}")
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
    import numpy as np

    if per_interval < 1:
        raise ValueError("need at least one probe point per interval")
    pts: list[float] = []
    for a, b in space.intervals:
        if a == b or per_interval == 1:
            pts.append(a)
        else:
            pts.extend(np.linspace(a, b, per_interval).tolist())
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
    if not length > 0.0 or not math.isfinite(length):
        raise NonpositiveLength(f"length must be positive and finite, got {length}")
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
    if not length > 0.0 or not math.isfinite(length):
        raise NonpositiveLength(f"length must be positive and finite, got {length}")
    depth = int(depth)
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    total = 1.0 + length / 2.0
    for i in range(1, depth + 1):
        x = length / (2.0 * 3.0**i)
        if x == 0.0:
            break
        total += 2.0 ** (i - 1) * tanh_minus_x(x)
    return total


def cantor_level_set(length: float, depth: int) -> LineSubset:
    """Carrier after `depth` rounds of middle-third removal: 2^depth intervals."""
    if not length > 0.0 or not math.isfinite(length):
        raise NonpositiveLength(f"length must be positive and finite, got {length}")
    depth = int(depth)
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
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
    for _ in range(int(depth)):
        for a, b in list(space.intervals):
            third = (b - a) / 3.0
            space, measure = remove_open_interval(space, measure, a + third, b - third)
    return space, measure


def finite_approx_points(space: LineSubset, n_grid: int) -> np.ndarray:
    """Sorted points of the finite approximation: carrier endpoints plus a grid.

    The grid has n_grid points spaced uniformly across the carrier hull;
    points outside the carrier are dropped.  Sweeping left to right, a point
    within MERGE_TOL of the last point kept is merged into it.
    """
    import numpy as np

    n_grid = int(n_grid)
    if n_grid < 2:
        raise TooFewPoints(f"need at least 2 grid points, got {n_grid}")
    ivs = np.array(space.intervals)
    starts, ends = ivs[:, 0], ivs[:, 1]
    grid = np.linspace(starts[0], ends[-1], n_grid)
    # The only carrier interval that can hold x is the last one starting at or
    # before x, because the intervals are disjoint and sorted.
    host = np.searchsorted(starts, grid, side="right") - 1
    inside = (host >= 0) & (grid <= ends[np.maximum(host, 0)])
    pts = np.sort(np.concatenate([starts, ends[ends != starts], grid[inside]]))
    keep = np.ones(pts.size, dtype=bool)
    # A point farther than MERGE_TOL from its left neighbour is always kept;
    # only the rare close pairs need the left-to-right pass.
    last = -1
    for i in (np.flatnonzero(np.diff(pts) <= MERGE_TOL) + 1).tolist():
        if keep[i - 1]:
            last = i - 1
        keep[i] = pts[i] - pts[last] > MERGE_TOL
    return pts[keep]


def finite_approx_line(space: LineSubset, n_grid: int) -> FiniteMetricSpace:
    """Finite approximation on the points of finite_approx_points, distance |x - y|."""
    import numpy as np

    from .finite import FiniteMetricSpace

    xs = finite_approx_points(space, n_grid)
    d = np.abs(xs[:, None] - xs[None, :])
    # |x - y| on a sorted grid is metric by construction.
    return FiniteMetricSpace(d, check_triangle=False)


#: Relative rounding bound of line_points_magnitude, derived in its docstring.
_LINE_SUM_ROUNDING = 11.0 * 2.0**-53


def line_points_magnitude(xs) -> tuple[float, float]:
    """Magnitude of a finite subset of the line and a bound on its rounding error.

    For sorted points x_1 < ... < x_N the magnitude is
    1 + sum_i tanh((x_{i+1} - x_i) / 2) (Leinster, "The magnitude of metric
    spaces", Doc. Math. 2013), computed here in O(N) time and memory.

    The error estimate bounds |computed - exact| for the given doubles; it
    is not the gap to any continuum the points approximate.  With
    u = 2^-53, each gap is rounded once, g(1 + d) with |d| <= u, and since
    |d ln tanh(z) / d ln z| = 2z / sinh(2z) <= 1, tanh(g(1 + d)/2) is within
    a factor exp(u / (1 - u)) of tanh(g/2).  numpy's tanh is allowed 4 ulps
    (relative 8u; it measures under 1.4u against mpmath), so each term t_i
    is within 9.01u t_i.  math.fsum rounds 1 + sum t_i once, within
    u |result|.  As sum t_i <= (1 + u) |result|, the total is at most
    10.1u |result|, and 11u |result| is returned.  Halving a subnormal gap
    loses at most 2^-1075 per term, far below u |result| >= u.
    """
    import numpy as np

    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size == 0:
        raise ValueError(f"need a nonempty 1-d array of points, got shape {xs.shape}")
    if not np.all(np.isfinite(xs)):
        raise ValueError("points must be finite")
    gaps = np.diff(xs)
    if np.any(gaps <= 0.0):
        raise ValueError("points must be strictly increasing")
    terms = np.tanh(0.5 * gaps).tolist()
    terms.append(1.0)
    magnitude = math.fsum(terms)
    return magnitude, _LINE_SUM_ROUNDING * magnitude
