"""Golden guard for the command line.

For a fixed set of invocations this compares stdout, the exit code, the
sweep CSV and the exception class named on stderr against golden_cli.json,
which was recorded once and must not change under refactors.  Inputs are
written under a temporary directory, so no path is recorded.

Numbers that pass through the dense LU solve are compared at relative
1e-12, and residual-based error estimates only as finite and nonnegative:
the last digits of a solve depend on the BLAS thread count.  Everything
else is compared byte for byte.

Regenerate, only for an intended change of output, with

    PYTHONPATH=src python tests/test_cli_golden.py [ID ...]

which re-records the cases named (all cases when none is) and prints each
value it changes as `id field[line, column]: old -> new`.
"""

import contextlib
import io
import json
import math
import pathlib
import sys
import tempfile
from dataclasses import dataclass

import pytest

from magnitude.cli import run

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")

FILES = {
    "d3.csv": "0,1,1.5\n1,0,2\n1.5,2,0\n",
    "triangle.csv": "0,1,5\n1,0,1\n5,1,0\n",
    "singular.csv": "0,1e-13\n1e-13,0\n",
}


@dataclass(frozen=True)
class Case:
    id: str
    argv: tuple = ()
    spec: str | None = None  # sweep file text; argv becomes `sweep --spec ... --out ...`
    solve: bool = False  # output passes through the dense LU solve


CASES = [
    # Every (space, method) pair in its subcommand form.
    Case("interval", ("interval", "--length", "2")),
    Case("interval-approx", ("interval", "--length", "2", "--approx", "512")),
    Case("cantor-series", ("cantor", "--length", "3", "--series", "--tol", "1e-12")),
    Case("cantor-series-default-tol", ("cantor", "--length", "1", "--series")),
    Case("circle", ("circle", "--circumference", "6.283185307179586")),
    Case("circle-points", ("circle", "--circumference", "6.28", "--points", "256")),
    Case("sphere-intrinsic-closed", ("sphere", "--dim", "2", "--radius", "1",
                                     "--metric", "intrinsic", "--method", "closed")),
    Case("sphere-defaults", ("sphere", "--dim", "3", "--radius", "2")),
    Case("sphere-intrinsic-quadrature", ("sphere", "--dim", "3", "--radius", "2",
                                         "--method", "quadrature")),
    Case("sphere-intrinsic-quadrature-tol", ("sphere", "--dim", "4", "--radius", "1.5",
                                             "--method", "quadrature", "--tol", "1e-8")),
    Case("sphere-subspace-closed", ("sphere", "--dim", "2", "--radius", "1",
                                    "--metric", "subspace", "--method", "closed")),
    Case("sphere-subspace-quadrature", ("sphere", "--dim", "4", "--radius", "5",
                                        "--metric", "subspace", "--method", "quadrature")),
    # Every pair as a sweep.
    Case("sweep-finite-file", spec="space=finite-file\nmatrix={tmp}/d3.csv\nmethod=closed\n"
         "start=0.5\nstop=4\npoints=4\nscale=geometric\n", solve=True),
    Case("sweep-interval-closed", spec="space=interval\nmethod=closed\nstart=0.5\nstop=10\npoints=5\n"),
    Case("sweep-interval-finite", spec="space=interval\nmethod=finite-64\nstart=1\nstop=2\npoints=3\n"),
    Case("sweep-cantor-closed", spec="space=cantor\nmethod=closed\nstart=0.5\nstop=4\npoints=4\n"
         "tol=1e-12\n"),
    Case("sweep-cantor-closed-coarse-tol", spec="space=cantor\nmethod=closed\nstart=1\nstop=3\n"
         "points=3\ntol=1e-6\n"),
    Case("sweep-cantor-finite", spec="space=cantor\nmethod=finite-6\nstart=1\nstop=3\npoints=3\n"),
    Case("sweep-circle-closed", spec="space=circle\nmethod=closed\nstart=1\nstop=10\npoints=4\n"
         "scale=geometric\n"),
    Case("sweep-circle-finite", spec="space=circle\nmethod=finite-32\nstart=1\nstop=10\npoints=4\n"
         "scale=geometric\n"),
    Case("sweep-sphere-intrinsic-closed", spec="space=sphere-intrinsic\ndim=2\nmethod=closed\n"
         "start=0.5\nstop=8\npoints=5\nscale=geometric\n"),
    Case("sweep-sphere-intrinsic-quadrature", spec="space=sphere-intrinsic\ndim=3\n"
         "method=quadrature\nstart=1\nstop=20\npoints=4\ntol=1e-8\n"),
    Case("sweep-sphere-subspace-closed", spec="space=sphere-subspace\ndim=2\nmethod=closed\n"
         "start=1\nstop=5\npoints=3\n"),
    Case("sweep-sphere-subspace-quadrature", spec="space=sphere-subspace\ndim=3\n"
         "method=quadrature\nstart=1\nstop=10\npoints=3\n"),
    # Direct computations outside the (space, method) pairs.
    Case("finite", ("finite", "--matrix", "{tmp}/d3.csv"), solve=True),
    Case("cantor-iterative", ("cantor", "--length", "3", "--iterative", "--depth", "10")),
    Case("tube-check", ("tube-check", "--dim", "3", "--radius", "2", "--epsilon", "0.5")),
    Case("asymptotics-intrinsic", ("asymptotics", "--dim", "2", "--metric", "intrinsic",
                                   "--orders", "3", "--tmin", "10", "--tmax", "80")),
    Case("asymptotics-intrinsic-dim5", ("asymptotics", "--dim", "5", "--metric", "intrinsic",
                                        "--orders", "3", "--tmin", "10", "--tmax", "80")),
    Case("asymptotics-subspace", ("asymptotics", "--dim", "3", "--metric", "subspace",
                                  "--orders", "2", "--tmin", "20", "--tmax", "80")),
    # Input errors: exit 2.
    Case("bad-flag", ("interval", "--length", "1", "--bogus")),
    Case("bad-spec-key", spec="space=interval\nmethod=closed\nstart=1\nstop=2\npoints=2\nbogus=1\n"),
    Case("bad-method", spec="space=interval\nmethod=warp\nstart=1\nstop=2\npoints=2\n"),
    Case("bad-pair-interval-quadrature", spec="space=interval\nmethod=quadrature\nstart=1\n"
         "stop=2\npoints=2\n"),
    Case("bad-pair-finite-file-finite", spec="space=finite-file\nmatrix={tmp}/d3.csv\n"
         "method=finite-8\nstart=1\nstop=2\npoints=2\n"),
    Case("bad-pair-subspace-closed-dim3", spec="space=sphere-subspace\ndim=3\nmethod=closed\n"
         "start=1\nstop=2\npoints=2\n"),
    Case("subspace-closed-dim3", ("sphere", "--dim", "3", "--radius", "1",
                                  "--metric", "subspace", "--method", "closed")),
    Case("negative-length", ("interval", "--length", "-1")),
    Case("negative-circumference-sweep", spec="space=circle\nmethod=closed\nstart=-1\nstop=2\n"
         "points=2\n"),
    Case("bad-tol-sphere-closed", ("sphere", "--dim", "2", "--radius", "1", "--tol", "nan")),
    Case("missing-matrix", ("finite", "--matrix", "{tmp}/missing.csv")),
    Case("missing-spec", ("sweep", "--spec", "{tmp}/missing.spec", "--out", "{tmp}/out.csv")),
    Case("triangle-violation", ("finite", "--matrix", "{tmp}/triangle.csv")),
    Case("iterative-without-depth", ("cantor", "--length", "1", "--iterative")),
    Case("asymptotics-grid-too-small", ("asymptotics", "--dim", "2", "--metric", "intrinsic",
                                        "--orders", "3", "--tmin", "10", "--tmax", "20")),
    # Numerical failures: exit 3.
    Case("singular-matrix", ("finite", "--matrix", "{tmp}/singular.csv")),
    Case("singular-sweep", spec="space=finite-file\nmatrix={tmp}/singular.csv\nmethod=closed\n"
         "start=1\nstop=2\npoints=2\n"),
]


def invoke(case: Case, tmp: pathlib.Path) -> dict:
    """Run one case in tmp and return what the golden file records."""
    for name, text in FILES.items():
        (tmp / name).write_text(text)
    argv = [arg.replace("{tmp}", str(tmp)) for arg in case.argv]
    if case.spec is not None:
        (tmp / "sweep.spec").write_text(case.spec.replace("{tmp}", str(tmp)))
        argv = ["sweep", "--spec", str(tmp / "sweep.spec"), "--out", str(tmp / "out.csv")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    csv_path = tmp / "out.csv"
    return {
        "code": code,
        "stdout": out.getvalue(),
        # "ClassName: message" for library errors, "usage: ..." for argparse.
        "stderr_head": err.getvalue().split(":", 1)[0] if err.getvalue() else None,
        "csv": csv_path.read_bytes().decode("utf-8") if csv_path.exists() else None,
    }


def assert_solved_fields_match(got: list[str], want: list[str], estimate_col: int | None):
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        try:
            w_value = float(w)
        except ValueError:
            assert g == w
            continue
        if i == estimate_col:
            assert math.isfinite(float(g)) and float(g) >= 0.0
        else:
            assert float(g) == pytest.approx(w_value, rel=1e-12, abs=0.0)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_cases_match_golden_ids(golden):
    assert sorted(golden) == sorted(case.id for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=[case.id for case in CASES])
def test_golden(case, golden, tmp_path):
    got, want = invoke(case, tmp_path), golden[case.id]
    assert got["code"] == want["code"]
    assert got["stderr_head"] == want["stderr_head"]
    if not case.solve:
        assert got == want
        return
    assert got["stdout"].count("\n") == want["stdout"].count("\n")
    if want["stdout"]:
        assert_solved_fields_match(got["stdout"].strip().split(","), want["stdout"].strip().split(","), None)
    assert (got["csv"] is None) == (want["csv"] is None)
    if want["csv"] is not None:
        got_rows, want_rows = got["csv"].splitlines(), want["csv"].splitlines()
        assert len(got_rows) == len(want_rows)
        assert got_rows[0] == want_rows[0]
        for g, w in zip(got_rows[1:], want_rows[1:]):
            assert_solved_fields_match(g.split(","), w.split(","), estimate_col=5)


def changes(case_id: str, old: dict, new: dict):
    """(where, old, new) for each value that new changes in old: one cell of
    stdout or of the sweep CSV where the two have the same shape, else the
    whole field."""
    for field in sorted(set(old) | set(new)):
        a, b = old.get(field), new.get(field)
        if a == b:
            continue
        if isinstance(a, str) and isinstance(b, str):
            rows_a = [line.split(",") for line in a.splitlines()]
            rows_b = [line.split(",") for line in b.splitlines()]
            if [len(r) for r in rows_a] == [len(r) for r in rows_b]:
                header = rows_a[0] if field == "csv" else None
                for i, (row_a, row_b) in enumerate(zip(rows_a, rows_b), start=1):
                    for j, (x, y) in enumerate(zip(row_a, row_b)):
                        if x != y:
                            yield f"{case_id} {field}[{i}, {header[j] if header else j + 1}]", x, y
                continue
        yield f"{case_id} {field}", a, b


def test_changes_names_each_changed_value():
    old = {"code": 0, "csv": "a,b\r\n1,0\r\n2,0\r\n", "stdout": "", "stderr_head": None}
    new = {"code": 0, "csv": "a,b\r\n1,0\r\n2,5e-16\r\n", "stdout": "x\n", "stderr_head": None}
    assert list(changes("c", old, new)) == [("c csv[3, b]", "0", "5e-16"), ("c stdout", "", "x\n")]


if __name__ == "__main__":
    previous = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    chosen = set(sys.argv[1:]) or {case.id for case in CASES}
    unknown = chosen - {case.id for case in CASES}
    if unknown:
        sys.exit(f"no such case: {', '.join(sorted(unknown))}")
    records = {}
    for case in CASES:
        if case.id not in chosen:
            records[case.id] = previous[case.id]
            continue
        with tempfile.TemporaryDirectory() as tmp:
            records[case.id] = invoke(case, pathlib.Path(tmp))
        for where, old, new in changes(case.id, previous.get(case.id, {}), records[case.id]):
            print(f"{where}: {old!r} -> {new!r}")
    for case_id in sorted(set(previous) - set(records)):
        print(f"{case_id}: removed")
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} cases to {GOLDEN}", file=sys.stderr)
