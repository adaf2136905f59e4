"""Property test of the CLI contract: every argv exits 0, 2 or 3; a success
prints only finite numbers, and a failure prints nothing to stdout but, for
an option error of `asymptotics`, its CSV header.

`asymptotics` is drawn on doubling grids of at most 13 points; an unbounded
grid is left to the memory-capped subprocess test in test_cli.py.
"""

import contextlib
import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnitude.cli import run

# Any double, plus the edges of the range that random draws rarely reach.
FLOATS = st.one_of(st.floats(), st.sampled_from([1e-300, 1e308, 1.7e308]))
# Small dims, and large ones where the ball and sphere volumes underflow.
DIMS = st.integers(-1, 8) | st.integers(9, 5000)
ASYMPTOTICS_HEADER = "power,extracted,predicted,spread"


def opt(name, value):
    """--name=value, so that argparse reads a negative value as a value."""
    return f"--{name}={value!r}"


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
        lambda dim, metric, orders, tmin, k: [
            "asymptotics", opt("dim", dim), "--metric", metric, opt("orders", orders),
            opt("tmin", tmin), opt("tmax", tmin * 2.0**k)],
        st.integers(-1, 400), st.sampled_from(["intrinsic", "subspace"]), st.integers(0, 4),
        FLOATS | st.floats(1e-3, 1e3), st.integers(0, 12),
    ),
}


@pytest.mark.parametrize("command", ARGV)
def test_exit_code_and_output(command, monkeypatch):
    monkeypatch.delenv("MAGNITUDE_DEFAULT_TOL", raising=False)

    @settings(derandomize=True, deadline=None)
    @given(ARGV[command])
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert code in (0, 2, 3), (argv, err.getvalue())
        lines = out.getvalue().splitlines()
        if command == "asymptotics" and code != 3 and lines:
            assert lines.pop(0) == ASYMPTOTICS_HEADER, argv
        if code == 0:
            fields = [field for line in lines for field in line.split(",")]
            assert fields and all(math.isfinite(float(f)) for f in fields), (argv, out.getvalue())
        else:
            assert lines == [], argv

    check()
