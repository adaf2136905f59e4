"""Independent reference values and the checks that compare outputs with them.

No reference here calls the program or repeats one of its routes:

- closed forms (spheres, circle, interval, Cantor series and removal
  sums, tube volumes, expansion coefficients) are evaluated with mpmath at
  40 significant digits;
- finite subsets of the line use Leinster's formula 1 + sum tanh(gap/2)
  on the exact point set;
- evenly spaced circle points use n divided by one similarity row sum;
- dense distance matrices are solved with numpy.linalg.solve.

Tolerances are fixed here and nowhere else.  Any output that is missing,
unparsable, non-finite or outside its tolerance raises Mismatch.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath
import numpy as np

DPS = 40
#: A private context, so the precision of the global mpmath context is untouched.
mp = mpmath.MPContext()
mp.dps = DPS

#: Closed forms and exact line measures: the program evaluates the same
#: expression in doubles, so only rounding separates the two.
CLOSED_RTOL = 1e-12
#: Dense solves, finite line grids and circle grids.
SOLVE_RTOL = 1e-9
#: Adaptive quadrature against the closed form (the acceptance suite's claim).
QUAD_RTOL = 1e-9
#: Extracted expansion coefficients, relative to max(1, |exact|).
INTRINSIC_EXTRACT_TOL = 1e-8
SUBSPACE_EXTRACT_TOL = 1e-6

SWEEP_HEADER = ["space", "param_name", "param_value", "method", "magnitude", "error_estimate"]


class Mismatch(Exception):
    """An output that disagrees with its reference or is malformed."""


@dataclass(frozen=True)
class Target:
    """One expected number: got must satisfy |got - value| <= rtol |value| + atol."""

    label: str
    value: float
    rtol: float
    atol: float = 0.0

    def check(self, got: float) -> None:
        if not abs(got - self.value) <= self.rtol * abs(self.value) + self.atol:
            raise Mismatch(
                f"{self.label}: got {got!r}, reference {self.value!r} "
                f"(rtol {self.rtol:g}, atol {self.atol:g})"
            )


def compare(got: list[float], targets: list[Target]) -> None:
    if len(got) != len(targets):
        raise Mismatch(f"expected {len(targets)} checked numbers, got {len(got)}")
    for value, target in zip(got, targets):
        target.check(value)


def number(token: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise Mismatch(f"not a number: {token!r}") from None
    if not math.isfinite(value):
        raise Mismatch(f"non-finite output {token!r}")
    return value


# --- closed forms -----------------------------------------------------------


@lru_cache(maxsize=None)
def _sigma(k: int):
    """Volume of the unit k-sphere, 2 pi^((k+1)/2) / Gamma((k+1)/2)."""
    half = mp.mpf(k + 1) / 2
    return 2 * mp.pi**half / mp.gamma(half)


def _omega(k: int):
    """Volume of the unit k-ball, pi^(k/2) / Gamma(k/2 + 1)."""
    return mp.pi ** (mp.mpf(k) / 2) / mp.gamma(mp.mpf(k) / 2 + 1)


def sphere_intrinsic(n: int, R: float) -> float:
    """Geodesic n-sphere: 2 prod_{odd j<n}((R/j)^2+1)/(1+e^(-pi R)) for even n,
    pi R prod_{even j<n}((R/j)^2+1)/(1-e^(-pi R)) for odd n."""
    R = mp.mpf(R)
    e = mp.exp(-mp.pi * R)
    if n % 2 == 0:
        value, first = 2 / (1 + e), 1
    else:
        value, first = mp.pi * R / (1 - e), 2
    for j in range(first, n, 2):
        value *= (R / j) ** 2 + 1
    return float(value)


def sphere_subspace(n: int, R: float) -> float:
    """Chord-metric n-sphere, n even: sigma_n / (sigma_{n-1} J) in closed form.

    J = int_0^pi exp(-2R sin(t/2)) sin^(n-1)(t) dt becomes, with u = sin(t/2),
    2^n int_0^1 e^(-2Ru) u^(n-1) (1-u^2)^((n-2)/2) du.  For even n the last
    factor is a polynomial, so J is a finite sum of lower incomplete gamma
    functions of integer order, which are elementary.  For n = 2 this is
    2R^2 / (1 - e^(-2R)(1+2R)).
    """
    if n < 2 or n % 2:
        raise ValueError(f"closed form needs an even dimension >= 2, got {n}")
    a = 2 * mp.mpf(R)
    m = (n - 2) // 2
    J = 0
    for k in range(m + 1):
        p = n - 1 + 2 * k
        J += (-1) ** k * math.comb(m, k) * _power_moment(p, a)
    return float(_sigma(n) / (_sigma(n - 1) * 2**n * J))


def _power_moment(p: int, a):
    """int_0^1 u^p e^(-a u) du = p!/a^(p+1) (1 - e^(-a) sum_{k<=p} a^k/k!), the
    lower incomplete gamma function of integer order."""
    term = partial = mp.mpf(1)
    for k in range(1, p + 1):
        term = term * a / k
        partial += term
    return math.factorial(p) / a ** (p + 1) * (1 - mp.exp(-a) * partial)


def circle(circumference: float) -> float:
    """Circle of circumference l: l / (2 (1 - e^(-l/2)))."""
    c = mp.mpf(circumference)
    return float(c / (2 * -mp.expm1(-c / 2)))


def circle_points(circumference: float, n: int) -> float:
    """n evenly spaced points on a circle: n over the similarity row sum.

    The row sum is sum_k q^min(k, n-k) with q = e^(-l/n), summed in closed
    form as a geometric series.
    """
    q = mp.exp(-mp.mpf(circumference) / n)
    half = (n - 1) // 2
    row = 1 + 2 * q * (1 - q**half) / (1 - q)
    if n % 2 == 0:
        row += q ** (n // 2)
    return float(n / row)


def interval(length: float) -> float:
    return float(1 + mp.mpf(length) / 2)


def line_points(gaps) -> float:
    """Leinster: points x_1 < ... < x_N on the line have magnitude 1 + sum tanh(gap/2).

    gaps is a list of (gap, multiplicity) pairs.
    """
    return float(1 + mp.fsum(k * mp.tanh(mp.mpf(g) / 2) for g, k in gaps))


def uniform_grid(length: float, n: int) -> float:
    """n evenly spaced points on [0, length], endpoints included."""
    return line_points([(mp.mpf(length) / (n - 1), n - 1)])


def cantor_endpoints(length: float, depth: int) -> float:
    """Endpoints of the depth-`depth` middle-thirds set of [0, length].

    Its gaps are the 2^depth kept intervals of length l/3^depth and the
    2^(i-1) holes of length l/3^i removed at each round i.
    """
    L = mp.mpf(length)
    gaps = [(L / 3**depth, 2**depth)] + [(L / 3**i, 2 ** (i - 1)) for i in range(1, depth + 1)]
    return line_points(gaps)


def cantor_series(length: float) -> float:
    """Middle-thirds set: 1 + sum_{i>=1} 2^(i-1) tanh(l / (2 3^i)), summed to 40 digits."""
    L = mp.mpf(length)
    total, i = mp.mpf(1), 1
    while True:
        term = 2 ** (i - 1) * mp.tanh(L / (2 * 3**i))
        total += term
        if term < total * mp.mpf(10) ** -DPS:
            return float(total)
        i += 1


def cantor_removal(length: float, depth: int) -> float:
    """After `depth` rounds of middle-third removal: each hole of length h
    changes 1 + l/2 by -h/2 + tanh(h/2)."""
    L = mp.mpf(length)
    total = 1 + L / 2
    for i in range(1, depth + 1):
        h = L / 3**i
        total += 2 ** (i - 1) * (mp.tanh(h / 2) - h / 2)
    return float(total)


def tube_shell(n: int, R: float, eps: float) -> float:
    """Volume of the shell R - eps < |x| < R + eps in R^(n+1)."""
    R, e = mp.mpf(R), mp.mpf(eps)
    return float(_omega(n + 1) * ((R + e) ** (n + 1) - (R - e) ** (n + 1)))


def sphere_expansion(n: int) -> dict[int, float]:
    """Coefficients of the closed form's numerator polynomial by power of t.

    The closed form is that polynomial divided by 1 +- e^(-pi t), so these
    are its large-t expansion coefficients; absent powers are 0.
    """
    poly = [mp.mpf(1)]  # ascending powers of t^2
    for j in range(1 if n % 2 == 0 else 2, n, 2):
        poly = [a + b / j**2 for a, b in zip(poly + [0], [0] + poly)]
    if n % 2 == 0:
        return {2 * m: float(2 * c) for m, c in enumerate(poly)}
    return {2 * m + 1: float(mp.pi * c) for m, c in enumerate(poly)}


def subspace_relative_correction(n: int) -> float:
    """R^-2 coefficient of the chord-metric sphere over its leading term."""
    return (n + 1) * n * (n - 2) / 8.0


def dense(distances: np.ndarray, scale: float = 1.0) -> float:
    """Sum of the solution of exp(-scale d) w = 1."""
    Z = np.exp(-(distances * scale))
    return float(np.linalg.solve(Z, np.ones(len(Z))).sum())


# --- output checks ----------------------------------------------------------


def _lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if line.strip()]


def scalar_output(stdout: str) -> float:
    lines = _lines(stdout)
    if len(lines) != 1:
        raise Mismatch(f"expected one output line, got {len(lines)}")
    return number(lines[0])


def fields_output(stdout: str, count: int) -> list[float]:
    lines = _lines(stdout)
    if len(lines) != 1:
        raise Mismatch(f"expected one output line, got {len(lines)}")
    fields = lines[0].split(",")
    if len(fields) != count:
        raise Mismatch(f"expected {count} comma-separated numbers, got {lines[0]!r}")
    return [number(f) for f in fields]


def _csv_rows(text: str, header: list[str]) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        raise Mismatch(f"bad CSV header {rows[0] if rows else None!r}")
    return rows[1:]


class Check:
    """Parses one output and compares it with lazily computed targets.

    parse(stdout, csv_text) returns the checked numbers in order;
    targets(got) returns one Target per number, given the parsed numbers or
    None.  Targets are computed only after timing.
    """

    def __init__(self, parse, targets):
        self.parse = parse
        self.targets = targets

    def __call__(self, stdout: str, csv_text: str | None) -> None:
        got = self.parse(stdout, csv_text)
        compare(got, self.targets(got))


def scalar_check(reference, rtol: float, atol: float = 0.0) -> Check:
    return Check(
        lambda out, _: [scalar_output(out)],
        lambda _: [Target("magnitude", reference(), rtol, atol)],
    )


def finite_check(reference) -> Check:
    """`finite` prints magnitude,rcond; rcond must be a reciprocal condition number."""

    def parse(out, _):
        magnitude, rcond = fields_output(out, 2)
        if not 0.0 < rcond <= 1.0:
            raise Mismatch(f"rcond {rcond!r} outside (0, 1]")
        return [magnitude]

    return Check(parse, lambda _: [Target("magnitude", reference(), SOLVE_RTOL)])


def tube_check(n: int, R: float, eps: float) -> Check:
    """tube-check prints direct,formula,relative difference."""

    def parse(out, _):
        direct, formula, rel = fields_output(out, 3)
        if not 0.0 <= rel <= CLOSED_RTOL:
            raise Mismatch(f"relative difference {rel!r} above {CLOSED_RTOL:g}")
        return [direct, formula]

    def targets(_):
        shell = tube_shell(n, R, eps)
        return [Target("direct", shell, CLOSED_RTOL), Target("formula", shell, CLOSED_RTOL)]

    return Check(parse, targets)


def asymptotics_check(n: int, metric: str, orders: int) -> Check:
    """Rows power,extracted,predicted,spread; extracted and predicted are checked."""
    if metric == "intrinsic":
        powers = [n, n - 1, n - 2][:orders]
        tol = INTRINSIC_EXTRACT_TOL
    else:
        powers = [0, -2][:orders]
        tol = SUBSPACE_EXTRACT_TOL

    def parse(out, _):
        rows = _csv_rows(out, ["power", "extracted", "predicted", "spread"])
        if [r[0] for r in rows] != [str(p) for p in powers]:
            raise Mismatch(f"expected powers {powers}, got {[r[0] for r in rows]}")
        got = []
        for row in rows:
            if len(row) != 4:
                raise Mismatch(f"bad row {row!r}")
            extracted, predicted, spread = (number(x) for x in row[1:])
            if spread < 0.0:
                raise Mismatch(f"negative spread {spread!r}")
            got += [extracted, predicted]
        return got

    def targets(_):
        if metric == "intrinsic":
            exact = sphere_expansion(n)
        else:
            exact = {0: 1.0, -2: subspace_relative_correction(n)}
        out = []
        for p in powers:
            value = exact.get(p, 0.0)
            scale = max(1.0, abs(value))
            out.append(Target(f"t^{p} extracted", value, 0.0, tol * scale))
            out.append(Target(f"t^{p} predicted", value, CLOSED_RTOL, CLOSED_RTOL))
        return out

    return Check(parse, targets)


def sweep_check(grid: list[float], reference, rtol: float) -> Check:
    """CSV rows: the parameter must follow the grid and the magnitude its reference.

    reference(param) is evaluated at the printed parameter, which round-trips
    the double the program used.
    """

    def parse(_, text):
        if text is None:
            raise Mismatch("sweep wrote no output file")
        got = []
        for row in _csv_rows(text, SWEEP_HEADER):
            if len(row) != 6:
                raise Mismatch(f"bad row {row!r}")
            param, magnitude, error = number(row[2]), number(row[4]), number(row[5])
            if error < 0.0:
                raise Mismatch(f"negative error estimate {error!r}")
            got += [param, magnitude]
        return got

    def targets(got):
        params = got[0::2] if got is not None and len(got) == 2 * len(grid) else grid
        out = []
        for i, (expected_param, param) in enumerate(zip(grid, params)):
            out.append(Target(f"row {i} parameter", expected_param, CLOSED_RTOL))
            out.append(Target(f"row {i} magnitude", reference(param), rtol))
        return out

    return Check(parse, targets)


def geometric_grid(start: float, stop: float, points: int) -> list[float]:
    """start (stop/start)^(i/(points-1)), i = 0..points-1."""
    a, b = mp.mpf(start), mp.mpf(stop)
    return [float(a * (b / a) ** (mp.mpf(i) / (points - 1))) for i in range(points)]
