"""Exact weight-measure arithmetic for closed subsets of the real line.

Weight measures here are symbolic: a list of point atoms plus piecewise
constant densities.  Integrals against exp(-|x - y|) then have elementary
antiderivatives, so the weight equation can be checked exactly, with no
quadrature anywhere in this module.

The three constructions are the closed interval (atoms of mass 1/2 at the
ends plus density 1/2), removal of an open subinterval (which adds atoms of
mass tanh((b-a)/2)/2 at the new endpoints), and the middle-thirds sets
obtained by iterating the removal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._numeric import tanh_minus_x, tanh_over_x
from .errors import (
    HypothesisViolated,
    NonpositiveLength,
    NotContained,
    PointOutsideCarrier,
    TooFewPoints,
)
from .finite import MERGE_TOL, FiniteMetricSpace


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

    @property
    def total_length(self) -> float:
        return sum(b - a for a, b in self.intervals)

    def endpoints(self) -> list[float]:
        out = []
        for a, b in self.intervals:
            out.append(a)
            if b != a:
                out.append(b)
        return out

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
        raise NonpositiveLength(f"interval length must be positive, got {length}")
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
        raise NonpositiveLength(f"length must be positive, got {length}")
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
        raise NonpositiveLength(f"length must be positive, got {length}")
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
        raise NonpositiveLength(f"length must be positive, got {length}")
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


def finite_approx_line(space: LineSubset, n_grid: int) -> FiniteMetricSpace:
    """Finite approximation: carrier endpoints plus a uniform grid.

    The grid has n_grid points across the carrier hull; points outside the
    carrier are dropped and points closer than 1e-12 are merged.  Distances
    are |x - y|.
    """
    n_grid = int(n_grid)
    if n_grid < 2:
        raise TooFewPoints(f"need at least 2 grid points, got {n_grid}")
    lo, hi = space.hull
    pts = space.endpoints()
    for x in np.linspace(lo, hi, n_grid):
        if space.contains(float(x)):
            pts.append(float(x))
    pts.sort()
    merged = [pts[0]]
    for x in pts[1:]:
        if x - merged[-1] > MERGE_TOL:
            merged.append(x)
    xs = np.array(merged)
    d = np.abs(xs[:, None] - xs[None, :])
    # |x - y| on a sorted grid is metric by construction.
    return FiniteMetricSpace(d, check_triangle=False)
