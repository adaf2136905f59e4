"""Command-line front end: one subcommand per computation plus CSV sweeps.

Every valid (space, method) pair is one entry of EVALUATORS, which both the
single-value subcommands and `sweep` call: a sweep row at x holds the number
the matching subcommand prints at x.  parse_sweep_spec turns a sweep file
into its grid and an evaluate(x) bound to the pair's entry, so `sweep` only
evaluates and writes the rows.  `asymptotics` parses its options and prints
asymptotics.sphere_asymptotics's rows, error bars included, and the prediction.

Exit codes: 0 on success, 2 on input errors (including argparse failures),
3 on numerical failures, taken from MagnitudeError.exit_code (ValueError,
OSError and MemoryError, an input too large to hold, exit 2), with the failure
named on stderr.  All numbers are printed with 17 significant digits so
doubles round-trip exactly.

Only the routes that build arrays import numpy and the modules that need it
(finite, quadrature), inside the functions that run them: dense solves and
quadratures, alone or as the rows of a finite-file or quadrature sweep.
The closed forms (circle grids among them), finite subsets of the line
(O(N) sums over Python floats), the intrinsic-metric asymptotics and the
sweeps of all of these need only the standard library: a sweep's grid is a
list of floats from _numeric.linspace or _numeric.geomspace.  A sweep, a line grid
or a Cantor carrier that cannot fit in the available memory is refused
before it is built (MemoryError, exit 2).

The `magnitude` command (main(), behind both `python -m magnitude` and the
console script) runs OpenBLAS on one thread: unless the user set one of
BLAS_THREAD_VARS, it sets OPENBLAS_NUM_THREADS=1 before anything imports
numpy, so neither numpy's OpenBLAS nor the one behind scipy's LAPACK starts a
worker pool.  The package's BLAS work (15-wide matvecs in the quadrature
panels, LU up to n of about 1200) gains less from the pools than starting
them costs; the triangle check, which is not BLAS, keeps its own threads.
run() leaves the environment alone, so library callers and tests keep theirs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import line, spheres
from ._numeric import (
    DEFAULT_CONFIG,
    DEFAULT_TOL,
    QuadratureConfig,
    _fmt,
    _guarded,
    geomspace,
    linspace,
    positive_finite,
)
from .errors import MagnitudeError

#: The thread-count variables OpenBLAS reads when it loads; a user who sets
#: any of them keeps OpenBLAS's own choice.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

CSV_HEADER = ("space", "param_name", "param_value", "method", "magnitude", "error_estimate")

_PARAM_NAMES = {
    "finite-file": "scale",
    "interval": "length",
    "cantor": "length",
    "circle": "circumference",
    "sphere-intrinsic": "radius",
    "sphere-subspace": "radius",
}


def _quad_config(tol: float | None) -> QuadratureConfig:
    return DEFAULT_CONFIG if tol is None else QuadratureConfig(tol)


def _solver_tol(tol: float | None) -> float:
    return DEFAULT_TOL if tol is None else tol


def _cmd_finite(args) -> int:
    from . import finite

    X = finite.read_distance_matrix(args.matrix)
    w = finite.weighting(X, _solver_tol(args.tol))
    _print(*_guarded(1.0, lambda: (w.w.sum(), w.rcond)))
    return 0


def _quadrature(quotient, dim, R, tol):
    cfg = _quad_config(tol)
    mag = quotient(dim, R, cfg)
    return mag, 2.0 * cfg.rel_tol * abs(mag)


def _finite_file(t, dim, n, tol, loaded):
    from . import finite

    w = finite.weighting(loaded, _solver_tol(tol), t)
    return float(w.w.sum()), w.residual_norm / w.rcond


def _interval_closed(length, dim, n, tol, loaded):
    _, measure = line.interval_weight_measure(length)
    value = line.measure_total_mass(measure)
    return value, line.INTERVAL_ROUNDING * value


def _interval_finite(length, dim, n, tol, loaded):
    space, _ = line.interval_weight_measure(length)
    _refuse_unless_fits(_LINE_POINT_BYTES * n,
                        f"a line grid of {n} points needs about {_LINE_POINT_BYTES} x {n} bytes")
    return line.line_points_magnitude(line.finite_approx_points(space, n))


def _cantor_closed(length, dim, n, tol, loaded):
    tol = _solver_tol(tol)
    return line.cantor_magnitude_series(length, tol), tol


#: Peak bytes per point of a line grid and its tanh sum: the points are
#: Python floats in lists (tracemalloc reads about 41 B each from N = 10^4 on).
_LINE_POINT_BYTES = 48


#: Peak bytes per interval of a Cantor level set and its endpoint sum: the
#: intervals are Python tuples and the endpoints Python floats (tracemalloc
#: reads about 192 B each from depth 14 on).
_CANTOR_INTERVAL_BYTES = 240


#: Peak bytes per row of a sweep: its grid point, a Python float in a list,
#: and its row, a tuple of six strings of which the three numbers are new
#: (tracemalloc reads 225-340 B a row from 10^4 rows on, over the closed
#: forms and circle grids; three 24-character numbers make about 370 B).
_SWEEP_ROW_BYTES = 400


def _available_bytes() -> int | None:
    """Memory a new allocation can take: MemAvailable from /proc/meminfo, else
    the free physical pages, else None when neither can be read."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for entry in fh:
                if entry.startswith("MemAvailable:"):
                    return int(entry.split()[1]) * 1024
    except (OSError, ValueError):
        pass
    try:
        return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError):
        return None


def _refuse_unless_fits(need: int, what: str) -> None:
    """MemoryError, before anything is built, when need bytes cannot fit; what
    names the need."""
    available = _available_bytes()
    if available is not None and need > available:
        raise MemoryError(f"{what}; {available} bytes are available")


def _cantor_finite(length, dim, depth, tol, loaded):
    # The integer selects the construction depth of the carrier, whose 2^depth
    # intervals are refused before they are built if they cannot fit; from
    # depth 64 on they never do, and the shift is capped there.
    _refuse_unless_fits(
        _CANTOR_INTERVAL_BYTES << min(depth, 64),
        f"a Cantor carrier of depth {depth} holds 2^{depth} intervals and needs about "
        f"{_CANTOR_INTERVAL_BYTES} x 2^{depth} bytes",
    )
    carrier = line.cantor_level_set(length, depth)
    return line.line_points_magnitude(line.finite_approx_points(carrier, 2))


def _circle_closed(circumference, dim, n, tol, loaded):
    value = spheres.circle_magnitude_closed(circumference)
    return value, spheres.CIRCLE_CLOSED_ROUNDING * value


def _circle_finite(circumference, dim, n, tol, loaded):
    value = spheres.circle_points_magnitude(circumference, n)
    return value, spheres.CIRCLE_POINTS_ROUNDING * value


def _intrinsic_closed(R, dim, n, tol, loaded):
    value = spheres.sphere_magnitude_closed(dim, R)
    return value, spheres.sphere_closed_rounding(dim) * value


def _intrinsic_quadrature(R, dim, n, tol, loaded):
    from . import quadrature

    return _quadrature(quadrature.sphere_magnitude_quadrature, dim, R, tol)


def _subspace_closed(R, dim, n, tol, loaded):
    if dim != 2:
        raise ValueError(
            "closed form for the subspace metric exists only for --dim 2; "
            "use --method quadrature"
        )
    value = spheres.subspace_sphere2_closed(R)
    return value, spheres.SUBSPACE_SPHERE2_ROUNDING * value


def _subspace_quadrature(R, dim, n, tol, loaded):
    from . import quadrature

    return _quadrature(quadrature.subspace_sphere_magnitude_quadrature, dim, R, tol)


#: The valid (space, method kind) pairs, "finite" standing for finite-N.  Each
#: maps (swept parameter, dim, N, tol, loaded matrix) to (magnitude, error
#: estimate), looking library functions up on their module at call time so
#: that wrappers installed there (tracing, test doubles) apply; an array
#: module is imported by the evaluators that use it.
EVALUATORS = {
    ("finite-file", "closed"): _finite_file,
    ("interval", "closed"): _interval_closed,
    ("interval", "finite"): _interval_finite,
    ("cantor", "closed"): _cantor_closed,
    ("cantor", "finite"): _cantor_finite,
    ("circle", "closed"): _circle_closed,
    ("circle", "finite"): _circle_finite,
    ("sphere-intrinsic", "closed"): _intrinsic_closed,
    ("sphere-intrinsic", "quadrature"): _intrinsic_quadrature,
    ("sphere-subspace", "closed"): _subspace_closed,
    ("sphere-subspace", "quadrature"): _subspace_quadrature,
}


def _print(*values) -> None:
    print(",".join(map(_fmt, values)))


def _print_magnitude(space, method, x, dim=None, n=None, tol=None) -> int:
    _print(_guarded(x, lambda: EVALUATORS[space, method](x, dim, n, tol, None))[0])
    return 0


def _cmd_interval(args) -> int:
    method = "closed" if args.approx is None else "finite"
    return _print_magnitude("interval", method, args.length, n=args.approx)


def _cmd_cantor(args) -> int:
    if not args.iterative:
        return _print_magnitude("cantor", "closed", args.length, tol=args.tol)
    if args.depth is None:
        raise ValueError("--iterative requires --depth")
    _print(*_guarded(args.length, lambda: (line.cantor_magnitude_iterative(args.length, args.depth),)))
    return 0


def _cmd_circle(args) -> int:
    method = "closed" if args.points is None else "finite"
    return _print_magnitude("circle", method, args.circumference, n=args.points)


def _cmd_sphere(args) -> int:
    return _print_magnitude(f"sphere-{args.metric}", args.method, args.radius, args.dim, tol=args.tol)


def _geometric_grid(tmin: float, tmax: float) -> list[float]:
    if not 0.0 < tmin < tmax < math.inf:
        raise ValueError(f"need 0 < tmin < tmax < inf, got tmin={tmin}, tmax={tmax}")
    grid = [tmin]
    # From tmax of about 1.8e308 on, the bound is inf: the grid then ends
    # before the first point that overflows.
    while (t := grid[-1] * 2.0) <= tmax * (1.0 + 1e-12) and t < math.inf:
        grid.append(t)
    return grid


def _cmd_asymptotics(args) -> int:
    import csv

    from . import asymptotics

    n = args.dim
    grid = _geometric_grid(args.tmin, args.tmax)
    header = ("power", "extracted", "predicted", "spread")
    if args.metric == "intrinsic":
        predict, min_points = asymptotics.predicted_expansion_intrinsic_sphere, 4
    else:
        predict, min_points = asymptotics.predicted_expansion_subspace_ratio, 3
    # Predicted coefficients in the order sphere_asymptotics lists its powers; they
    # overflow at large dims, as the samples do, so they are guarded too.
    predicted = _guarded(n, lambda: tuple(c for _, c in predict(n).terms))
    problem = None
    if len(grid) < min_points:
        problem = f"need a doubling grid of at least {min_points} points between tmin and tmax, got {grid}"
    elif not 1 <= args.orders <= len(predicted):
        problem = f"--orders must be between 1 and {len(predicted)} for the {args.metric} metric at --dim {n}"
    if problem is not None:
        # An option error follows the header line, as it always has; a
        # numerical failure leaves stdout empty.
        csv.writer(sys.stdout).writerow(header)
        raise ValueError(problem)
    extracted = asymptotics.sphere_asymptotics(args.metric, n, grid, args.orders, _quad_config(args.tol))
    rows = [(power, _fmt(coeff), _fmt(expected), _fmt(spread))
            for (power, coeff), spread, expected in zip(extracted.terms, extracted.spreads, predicted)]
    csv.writer(sys.stdout).writerows([header, *rows])
    return 0


def _cmd_tube_check(args) -> int:
    def check():
        direct, formula = spheres.tube_volume_check(args.dim, args.radius, args.epsilon)
        return direct, formula, abs(direct - formula) / abs(direct)

    _print(*_guarded(args.radius, check))
    return 0


#: The spaces that take each key a sweep file may add to the required ones.
_SPACES_TAKING = {
    "dim": ("sphere-intrinsic", "sphere-subspace"),
    "matrix": ("finite-file",),
}


def _spec_number(path, fields: dict, key: str, kind: type):
    """fields[key] read as kind (int or float), or a ValueError naming the file and the key."""
    try:
        return kind(fields[key])
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{path}: {key} must be {what}, got {fields[key]!r}") from None


def parse_sweep_spec(path):
    """What the sweep file at path asks for: (space, param_name, method, grid,
    evaluate), where grid is the list of floats swept and evaluate(x) gives
    (magnitude, error estimate) at a grid point x.

    The file is flat key=value lines.  After its checks come those of the
    setup, in this order: a sweep too large for the available memory is
    refused, then the finite-file matrix is read.
    A linear grid is np.linspace's, bit for bit; a geometric one is
    np.geomspace's formula on libm (see _numeric.geomspace), so an interior
    point may differ from numpy's in its last bits.
    """
    fields: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise ValueError(f"{path}: line {lineno}: expected key=value, got {text!r}")
            key, _, value = text.partition("=")
            key = key.strip()
            if key in fields:
                raise ValueError(f"{path}: line {lineno}: duplicate key {key!r}")
            fields[key] = value.strip()

    known = {"space", "method", "start", "stop", "points", "scale", "dim", "matrix", "tol"}
    for key in fields:
        if key not in known:
            raise ValueError(f"{path}: unknown key {key!r}")
    for key in ("space", "method", "start", "stop", "points"):
        if key not in fields:
            raise ValueError(f"{path}: missing required key {key!r}")

    space = fields["space"]
    if space not in _PARAM_NAMES:
        raise ValueError(f"{path}: space must be one of {', '.join(_PARAM_NAMES)}; got {space!r}")
    method = fields["method"]
    kind, n = _method_kind(method)
    if (space, kind) not in EVALUATORS:
        valid = " or ".join(m.replace("finite", "finite-N") for s, m in EVALUATORS if s == space)
        raise ValueError(f"{path}: method for space {space!r} must be {valid}; got {method!r}")
    start, stop = (_spec_number(path, fields, key, float) for key in ("start", "stop"))
    points = _spec_number(path, fields, "points", int)
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"{path}: start and stop must be finite, got {start} and {stop}")
    if not start < stop:
        raise ValueError(f"{path}: need start < stop, got {start} >= {stop}")
    if points < 2:
        raise ValueError(f"{path}: need points >= 2, got {points}")
    scale = fields.get("scale", "linear")
    if scale not in ("linear", "geometric"):
        raise ValueError(f"{path}: scale must be linear or geometric, got {scale!r}")
    if scale == "linear" and not math.isfinite(stop - start):
        raise ValueError(f"{path}: the span stop - start of a linear grid overflows, got {start} to {stop}")
    if scale == "geometric" and not start > 0.0:
        raise ValueError(f"{path}: geometric grids need start > 0, got {start}")

    for key, spaces in _SPACES_TAKING.items():
        if key in fields and space not in spaces:
            raise ValueError(f"{path}: {key} applies only to {' and '.join(spaces)} sweeps, not {space!r}")
    dim = None
    if space in _SPACES_TAKING["dim"]:
        if "dim" not in fields:
            raise ValueError(f"{path}: sphere sweeps need dim=<int>")
        dim = _spec_number(path, fields, "dim", int)
    matrix = None
    if space in _SPACES_TAKING["matrix"]:
        if "matrix" not in fields:
            raise ValueError(f"{path}: finite-file sweeps need matrix=<path>")
        matrix = fields["matrix"]
    tol = None
    if "tol" in fields:
        tol = positive_finite(_spec_number(path, fields, "tol", float), f"{path}: tol")

    _refuse_unless_fits(
        _SWEEP_ROW_BYTES * points, f"a sweep of {points} points needs about {_SWEEP_ROW_BYTES} x {points} bytes"
    )
    evaluator = EVALUATORS[space, kind]
    loaded = None
    if matrix is not None:
        from . import finite

        loaded = finite.read_distance_matrix(matrix)
    grid = (linspace if scale == "linear" else geomspace)(start, stop, points)
    return space, _PARAM_NAMES[space], method, grid, lambda x: evaluator(x, dim, n, tol, loaded)


def _method_kind(method: str) -> tuple[str, int | None]:
    """("finite", N) for a finite-N method with N >= 2, else (method, None)."""
    if method.startswith("finite-"):
        try:
            n = int(method[len("finite-"):])
        except ValueError:
            return method, None
        if n >= 2:
            return "finite", n
    return method, None


def _cmd_sweep(args) -> int:
    import csv

    space, param_name, method, grid, evaluate = parse_sweep_spec(args.spec)
    rows = [(space, param_name, _fmt(x), method, *map(_fmt, _guarded(x, lambda: evaluate(x)))) for x in grid]
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magnitude",
        description="Magnitude of metric spaces: finite solves, line subsets, circles and spheres.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("finite", help="magnitude of a distance-matrix CSV file")
    p.add_argument("--matrix", required=True, help="square distance-matrix CSV")
    p.add_argument("--tol", type=float, default=None, help=f"rcond floor of the solve (default {DEFAULT_TOL:g})")
    p.set_defaults(func=_cmd_finite)

    p = sub.add_parser("interval", help="magnitude 1 + L/2 of a closed interval")
    p.add_argument("--length", type=float, required=True)
    p.add_argument("--approx", type=int, default=None, metavar="N",
                   help="magnitude of an N-point uniform finite approximation instead")
    p.set_defaults(func=_cmd_interval)

    p = sub.add_parser("cantor", help="magnitude of the middle-thirds set")
    p.add_argument("--length", type=float, required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--series", action="store_true", help="tail-bounded series sum")
    mode.add_argument("--iterative", action="store_true", help="finite removal depth")
    p.add_argument("--tol", type=float, default=None,
                   help=f"truncation bound, --series only (default {DEFAULT_TOL:g})")
    p.add_argument("--depth", type=int, default=None, help="removal rounds for --iterative")
    p.set_defaults(func=_cmd_cantor)

    p = sub.add_parser("circle", help="magnitude of a circle of given circumference")
    p.add_argument("--circumference", type=float, required=True)
    p.add_argument("--points", type=int, default=None, metavar="N",
                   help="use N evenly spaced points instead of the closed form")
    p.set_defaults(func=_cmd_circle)

    p = sub.add_parser("sphere", help="magnitude of the n-sphere of radius R")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--metric", choices=("intrinsic", "subspace"), default="intrinsic")
    p.add_argument("--method", choices=("closed", "quadrature"), default="closed")
    p.add_argument("--tol", type=float, default=None,
                   help=f"relative tolerance, --method quadrature only (default {DEFAULT_CONFIG.rel_tol:g})")
    p.set_defaults(func=_cmd_sphere)

    p = sub.add_parser("asymptotics", help="extracted vs predicted expansion coefficients")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--metric", choices=("intrinsic", "subspace"), default="intrinsic")
    p.add_argument("--orders", type=int, required=True)
    p.add_argument("--tmin", type=float, required=True)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--tol", type=float, default=None,
                   help=f"quadrature relative tolerance, --metric subspace only (default {DEFAULT_CONFIG.rel_tol:g})")
    p.set_defaults(func=_cmd_asymptotics)

    p = sub.add_parser("tube-check", help="both sides of the tube-volume identity")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.set_defaults(func=_cmd_tube_check)

    p = sub.add_parser("sweep", help="evaluate a parameter sweep into a CSV file")
    p.add_argument("--spec", required=True, help="key=value sweep description file")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_sweep)

    return parser


def run(argv) -> int:
    """Parse argv (without the program name), check --tol and run; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        if getattr(args, "tol", None) is not None:
            positive_finite(args.tol, "--tol")
        return args.func(args)
    except (MagnitudeError, ValueError, OSError, MemoryError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)


def _pin_blas_threads(environ) -> None:
    """OPENBLAS_NUM_THREADS=1 in environ unless it sets one of BLAS_THREAD_VARS."""
    if not any(name in environ for name in BLAS_THREAD_VARS):
        environ["OPENBLAS_NUM_THREADS"] = "1"


def main() -> None:
    # OpenBLAS reads its thread count once, when numpy or scipy's LAPACK
    # loads it, so this comes before any route imports either.
    _pin_blas_threads(os.environ)
    sys.exit(run(sys.argv[1:]))
