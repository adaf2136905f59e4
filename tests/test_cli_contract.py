"""Property test of the CLI contract: every argv exits 0, 2 or 3; a success
prints only finite numbers, and a failure prints nothing to stdout but, for
an option error of `asymptotics`, its CSV header.  `finite` reads drawn
distance files and `sweep` drawn spec files; a sweep prints nothing, writes
its CSV of finite numbers only on success, and leaves no CSV on failure.

`finite`, `cantor`, `sphere` and `asymptotics` draw a --tol too; one that is
not positive and finite exits 2 with nothing on stdout, also where unused.

`asymptotics` is drawn on doubling grids of at most 13 points, also ones
that end at the top of the double range, where tmax (1 + 1e-12) overflows;
longer grids to the top are left to test_cli.py, and an infinite tmax to its
memory-capped subprocess test.
"""

import contextlib
import csv
import io
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnitude.cli import CSV_HEADER, EVALUATORS, run

# Any double, plus the edges of the range that random draws rarely reach.
FLOATS = st.one_of(st.floats(), st.sampled_from([1e-300, 1e308, 1.7e308]))
# Small dims, and large ones where the ball and sphere volumes underflow.
DIMS = st.integers(-1, 8) | st.integers(9, 5000)
# The largest double, and the smallest tmax whose 1 + 1e-12 margin overflows.
TOP_OF_RANGE = st.sampled_from([sys.float_info.max, 1.797693134860518e308])
ASYMPTOTICS_HEADER = "power,extracted,predicted,spread"
# No --tol, any double, or one of the values that are not positive and finite.
TOLS = st.none() | FLOATS | st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0])
TAKES_TOL = {"sphere", "cantor-series", "cantor-iterative", "asymptotics"}


def opt(name, value):
    """--name=value, so that argparse reads a negative value as a value."""
    return f"--{name}={value!r}"


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


ARGV = {
    "sphere": st.builds(
        lambda dim, radius, metric, method: [
            "sphere", opt("dim", dim), opt("radius", radius), "--metric", metric, "--method", method],
        DIMS, FLOATS, st.sampled_from(["intrinsic", "subspace"]),
        st.sampled_from(["closed", "quadrature"]),
    ),
    "interval": st.builds(
        lambda length, approx: ["interval", opt("length", length)]
        + ([] if approx is None else [opt("approx", approx)]),
        FLOATS, st.none() | st.integers(2, 2000),
    ),
    "cantor-series": st.builds(lambda length: ["cantor", opt("length", length), "--series"], FLOATS),
    "cantor-iterative": st.builds(
        lambda length, depth: ["cantor", opt("length", length), "--iterative", opt("depth", depth)],
        FLOATS, st.integers(-1, 60),
    ),
    "circle": st.builds(
        lambda circumference, points: ["circle", opt("circumference", circumference)]
        + ([] if points is None else [opt("points", points)]),
        FLOATS, st.none() | st.integers(1, 2000),
    ),
    "tube-check": st.builds(
        lambda dim, radius, epsilon: [
            "tube-check", opt("dim", dim), opt("radius", radius), opt("epsilon", epsilon)],
        DIMS, FLOATS, FLOATS,
    ),
    "asymptotics": st.builds(
        lambda dim, metric, orders, tmin, k, top: [
            "asymptotics", opt("dim", dim), "--metric", metric, opt("orders", orders),
            *((opt("tmin", tmin), opt("tmax", tmin * 2.0**k)) if top is None
              else (opt("tmin", top / 2.0**k), opt("tmax", top)))],
        st.integers(-1, 400), st.sampled_from(["intrinsic", "subspace"]), st.integers(0, 4),
        FLOATS | st.floats(1e-3, 1e3), st.integers(0, 12), st.none() | TOP_OF_RANGE,
    ),
}


@pytest.mark.parametrize("command", ARGV)
def test_exit_code_and_output(command):
    @settings(derandomize=True, deadline=None)
    @given(ARGV[command], TOLS if command in TAKES_TOL else st.none())
    def check(argv, tol):
        argv = argv + ([] if tol is None else [opt("tol", tol)])
        code, out, err = run_captured(argv)
        assert code in (0, 2, 3), (argv, err)
        if tol is not None and not 0.0 < tol < math.inf:
            assert (code, out) == (2, ""), argv
        lines = out.splitlines()
        if command == "asymptotics" and code != 3 and lines:
            assert lines.pop(0) == ASYMPTOTICS_HEADER, argv
        if code == 0:
            fields = [field for line in lines for field in line.split(",")]
            assert fields and all(math.isfinite(float(f)) for f in fields), (argv, out)
        else:
            assert lines == [], argv

    check()


# Entries of a distance file: distances in [1, 2], among which every triangle
# closes, and any double, including the values a metric must not hold.
DISTANCES = st.floats(1.0, 2.0)
ENTRIES = FLOATS | st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0, -1.0])
NOT_NUMBERS = st.sampled_from(["", " ", "abc", "1e", "--1", "0x1", "1,0"])


@st.composite
def distance_files(draw):
    """The text of a distance file of 1-6 rows: a metric, a metric with one
    entry changed, or any entries at all, in turn with blank lines, ragged
    rows and non-numbers drawn in."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["metric", "changed", "any", "mangled"]))
    entries = ENTRIES if kind == "any" else DISTANCES
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if kind != "any" or draw(st.booleans()):
        rows = [[0.0 if i == j else rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    if kind == "changed":
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(ENTRIES)
    lines = [[repr(x) for x in row] for row in rows]
    for _ in range(draw(st.integers(1, 3)) if kind == "mangled" else 0):
        row = lines[draw(st.integers(0, len(lines) - 1))]
        change = draw(st.sampled_from(["blank", "shorter", "longer", "word"]))
        if change == "blank":
            lines.insert(draw(st.integers(0, len(lines))), [])
        elif change == "shorter" and row:
            row.pop()
        elif change == "longer":
            row.append(repr(draw(ENTRIES)))
        elif row:
            row[draw(st.integers(0, len(row) - 1))] = draw(NOT_NUMBERS)
    return "\n".join(map(",".join, lines)) + draw(st.sampled_from(["", "\n"]))


def test_finite_reads_drawn_distance_files(tmp_path):
    path = tmp_path / "d.csv"

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(distance_files(), TOLS)
    def check(text, tol):
        path.write_text(text)
        argv = ["finite", "--matrix", str(path)] + ([] if tol is None else [opt("tol", tol)])
        code, out, err = run_captured(argv)
        assert code in (0, 2, 3), (text, argv, err)
        if tol is not None and not 0.0 < tol < math.inf:
            assert (code, out) == (2, ""), (text, argv)
        if code == 0:
            fields = out.strip().split(",")
            assert len(fields) == 2 and all(math.isfinite(float(f)) for f in fields), (text, out)
        else:
            assert out == "", (text, out)

    check()


# Methods no space takes; each space's valid ones are drawn for the others.
INVALID_METHODS = st.sampled_from(["finite-1", "finite-0", "finite--2", "finite-", "finite-x", "exact", ""])


@st.composite
def sweep_specs(draw):
    """The lines of a sweep spec, in any order, for one of the 11 (space,
    method) pairs: either well formed, or with a method, start, stop, dim,
    tol and matrix key drawn for any space.  {matrix} stands for the path of
    a drawn distance file."""
    space, kind = draw(st.sampled_from(sorted(EVALUATORS)))
    method = kind
    if kind == "finite":
        # A Cantor carrier of depth N holds 2^N intervals.
        method = f"finite-{draw(st.integers(2, 12) if space == 'cantor' else st.integers(2, 2000))}"
    points, scale = draw(st.integers(2, 7)), draw(st.sampled_from(["linear", "geometric"]))
    if draw(st.booleans()):
        start, stop = sorted(draw(st.lists(st.floats(0.1, 100.0), min_size=2, max_size=2, unique=True)))
        dim = draw(DIMS) if space.startswith("sphere") else None
        tol = draw(st.none() | st.floats(1e-13, 1e-3))
        matrix = space == "finite-file"
    else:
        method = draw(st.just(method) | INVALID_METHODS | st.sampled_from(["closed", "quadrature"]))
        start, stop = draw(FLOATS), draw(FLOATS)
        dim, tol, matrix = draw(st.none() | DIMS), draw(st.none() | FLOATS), draw(st.booleans())
    lines = [f"space={space}", f"method={method}", f"start={start!r}", f"stop={stop!r}",
             f"points={points}", f"scale={scale}"]
    lines += [] if dim is None else [f"dim={dim}"]
    lines += [] if tol is None else [f"tol={tol!r}"]
    lines += ["matrix={matrix}"] if matrix else []
    return draw(st.permutations(lines))


def test_sweep_runs_drawn_specs(tmp_path):
    spec, matrix, csv_path = tmp_path / "sweep.spec", tmp_path / "d.csv", tmp_path / "out.csv"

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(sweep_specs(), distance_files())
    def check(lines, matrix_text):
        matrix.write_text(matrix_text)
        spec.write_text("\n".join(lines).replace("{matrix}", str(matrix)) + "\n")
        csv_path.unlink(missing_ok=True)
        code, out, err = run_captured(["sweep", "--spec", str(spec), "--out", str(csv_path)])
        assert code in (0, 2, 3), (lines, err)
        assert out == "", (lines, out)
        if code != 0:
            assert not csv_path.exists(), lines
            return
        header, *rows = csv.reader(csv_path.read_text().splitlines())
        points = int(next(line for line in lines if line.startswith("points=")).partition("=")[2])
        assert tuple(header) == CSV_HEADER and len(rows) == points, lines
        for row in rows:
            assert all(math.isfinite(float(row[i])) for i in (2, 4, 5)), (lines, row)

    check()
