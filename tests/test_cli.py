"""Tests for the command-line interface."""

import csv
import math
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from magnitude import cli, errors
from magnitude.cli import CSV_HEADER, EVALUATORS, parse_sweep_spec, run


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(args, cwd, **kwargs):
    """Run a fresh interpreter on args, importing magnitude from this tree."""
    import magnitude

    src_dir = str(pathlib.Path(magnitude.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=cwd, **kwargs)


#: The (space, method kind) pairs whose evaluators build arrays; a sweep of
#: any other pair runs on the standard library.
ARRAY_PAIRS = {("finite-file", "closed"), ("sphere-intrinsic", "quadrature"),
               ("sphere-subspace", "quadrature")}


def sweep_spec_text(space, kind, scale):
    """A 4-point sweep file from 1 to 10 of one (space, method kind) pair;
    finite-file reads d.csv from the working directory."""
    extra = {"finite-file": "matrix=d.csv\n", "sphere-intrinsic": "dim=3\n",
             "sphere-subspace": "dim=2\n"}.get(space, "")
    method = "finite-8" if kind == "finite" else kind
    return f"space={space}\nmethod={method}\n{extra}start=1\nstop=10\npoints=4\nscale={scale}\n"


class TestSingleValues:
    def test_interval_is_one_plus_half_length(self, capsys):
        for length in ("0.5", "1", "2", "10"):
            code, out, _ = run_cli(capsys, "interval", "--length", length)
            assert code == 0
            assert float(out) == 1.0 + float(length) / 2.0

    def test_interval_finite_approx(self, capsys):
        code, out, _ = run_cli(capsys, "interval", "--length", "2", "--approx", "512")
        assert code == 0
        assert abs(float(out) - 2.0) < 3e-5

    def test_cantor_series_and_iterative_agree(self, capsys):
        code, s_out, _ = run_cli(
            capsys, "cantor", "--length", "1", "--series", "--tol", "1e-13"
        )
        assert code == 0
        code, i_out, _ = run_cli(
            capsys, "cantor", "--length", "1", "--iterative", "--depth", "60"
        )
        assert code == 0
        assert abs(float(s_out) - float(i_out)) < 1e-12

    def test_cantor_requires_mode(self, capsys):
        code, _, err = run_cli(capsys, "cantor", "--length", "1")
        assert code == 2

    def test_circle(self, capsys):
        ell = 2.0 * math.pi
        code, out, _ = run_cli(capsys, "circle", "--circumference", str(ell))
        assert code == 0
        assert float(out) == pytest.approx(math.pi / (1.0 - math.exp(-math.pi)), rel=1e-15)

    def test_circle_points(self, capsys):
        code, out, _ = run_cli(
            capsys, "circle", "--circumference", "6.283185307179586", "--points", "256"
        )
        assert code == 0
        assert float(out) == pytest.approx(math.pi / (1.0 - math.exp(-math.pi)), abs=1e-3)

    def test_sphere_closed(self, capsys):
        code, out, _ = run_cli(
            capsys, "sphere", "--dim", "2", "--radius", "1", "--metric", "intrinsic",
            "--method", "closed",
        )
        assert code == 0
        assert float(out) == pytest.approx(4.0 / (1.0 + math.exp(-math.pi)), rel=1e-15)

    def test_sphere_methods_agree(self, capsys):
        _, closed, _ = run_cli(capsys, "sphere", "--dim", "3", "--radius", "2")
        _, quad, _ = run_cli(
            capsys, "sphere", "--dim", "3", "--radius", "2", "--method", "quadrature"
        )
        assert abs(float(closed) - float(quad)) <= 1e-9 * float(closed)

    def test_subspace_closed_only_dim_two(self, capsys):
        code, out, _ = run_cli(
            capsys, "sphere", "--dim", "2", "--radius", "1", "--metric", "subspace",
            "--method", "closed",
        )
        assert code == 0
        assert float(out) == pytest.approx(
            2.0 / (1.0 - 3.0 * math.exp(-2.0)), rel=1e-14
        )
        code, _, err = run_cli(
            capsys, "sphere", "--dim", "3", "--radius", "1", "--metric", "subspace",
            "--method", "closed",
        )
        assert code == 2
        assert "quadrature" in err

    def test_tube_check(self, capsys):
        code, out, _ = run_cli(
            capsys, "tube-check", "--dim", "2", "--radius", "1.5", "--epsilon", "0.25"
        )
        assert code == 0
        direct, formula, rel = (float(tok) for tok in out.strip().split(","))
        assert rel < 1e-10
        assert direct == pytest.approx(formula, rel=1e-10)

    def test_output_has_17_significant_digits(self, capsys):
        _, out, _ = run_cli(capsys, "circle", "--circumference", "6.283185307179586")
        mantissa = out.strip().lstrip("-").replace(".", "").lstrip("0")
        assert len(mantissa) >= 16


class TestFinite:
    def test_magnitude_and_rcond(self, capsys, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0,1\n1,0\n")
        code, out, _ = run_cli(capsys, "finite", "--matrix", str(p))
        assert code == 0
        mag, rcond = (float(tok) for tok in out.strip().split(","))
        assert mag == pytest.approx(2.0 / (1.0 + math.exp(-1.0)), rel=1e-13)
        assert 0.0 < rcond <= 1.0

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "finite", "--matrix", "/nonexistent.csv")
        assert code == 2
        assert err

    def test_singular_exits_three(self, capsys, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0,1e-13\n1e-13,0\n")
        code, _, err = run_cli(capsys, "finite", "--matrix", str(p))
        assert code == 3
        assert "SingularSystem" in err

    def test_fresh_processes_print_the_same_bytes(self, tmp_path):
        # The rcond is printed to 17 digits; with the BLAS thread count fixed,
        # it must not change from run to run.
        import numpy as np

        points = np.random.default_rng(5).uniform(0.0, 10.0, size=(300, 3))
        d = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1))
        np.savetxt(tmp_path / "d.csv", d, fmt="%.17g", delimiter=",")
        outputs = set()
        for _ in range(3):
            proc = run_python(["-m", "magnitude", "finite", "--matrix", "d.csv"], tmp_path, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1

    def test_tol_flag_lowers_the_rcond_floor(self, capsys, tmp_path):
        p = tmp_path / "d.csv"
        d = 2.2e-11
        p.write_text(f"0,{d}\n{d},0\n")
        code, _, err = run_cli(capsys, "finite", "--matrix", str(p))
        assert code == 3  # rcond ~ 1e-11 is below the default 1e-10
        code, out, _ = run_cli(capsys, "finite", "--matrix", str(p), "--tol", "1e-13")
        assert code == 0


class TestAsymptoticsCommand:
    @pytest.mark.parametrize("metric", ["intrinsic", "subspace"])
    def test_dims_past_170_fail_before_building_their_factorial(self, capsys, monkeypatch, metric):
        # n! is past the double range from n = 171 on; building the exact
        # integer before converting it took seconds at dim 10^6.
        factorial = math.factorial
        monkeypatch.setattr(math, "factorial", lambda n: factorial(n) if n <= 170 else pytest.fail(f"{n}! built"))
        code, out, err = run_cli(capsys, "asymptotics", "--dim", "1000000", "--metric", metric,
                                 "--orders", "1", "--tmin", "10", "--tmax", "80")
        assert (code, out) == (3, "")
        assert err.startswith("NonFiniteResult: ")

    def test_intrinsic_surface(self, capsys):
        code, out, _ = run_cli(
            capsys, "asymptotics", "--dim", "2", "--metric", "intrinsic",
            "--orders", "3", "--tmin", "10", "--tmax", "80",
        )
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert [r["power"] for r in rows] == ["2", "1", "0"]
        by_power = {r["power"]: r for r in rows}
        assert float(by_power["2"]["extracted"]) == pytest.approx(2.0, abs=1e-8)
        assert float(by_power["2"]["predicted"]) == 2.0
        assert abs(float(by_power["1"]["extracted"])) < 1e-6
        assert float(by_power["0"]["extracted"]) == pytest.approx(2.0, abs=1e-6)

    def test_subspace(self, capsys):
        code, out, _ = run_cli(
            capsys, "asymptotics", "--dim", "3", "--metric", "subspace",
            "--orders", "2", "--tmin", "20", "--tmax", "80",
        )
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        by_power = {r["power"]: r for r in rows}
        assert float(by_power["0"]["extracted"]) == pytest.approx(1.0, abs=1e-4)
        assert float(by_power["-2"]["extracted"]) == pytest.approx(1.5, rel=0.02)
        assert float(by_power["-2"]["predicted"]) == 1.5

    # Exit codes and error classes as the numpy extraction gave them, which
    # raised nothing where a power over- or underflowed: the fit on Python
    # floats turns OverflowError back into ValueError, and a zero divisor
    # into NonFiniteResult.
    @pytest.mark.parametrize("metric, dim, orders, tmin, code, error", [
        ("intrinsic", 2, 3, "1e-200", 2, "ValueError"),
        ("intrinsic", 5, 3, "1e-200", 2, "ValueError"),
        ("intrinsic", 2, 1, "1e150", 0, None),
        ("intrinsic", 2, 3, "1e150", 3, "IllConditionedFit"),
        ("intrinsic", 3, 3, "1e150", 3, "NonFiniteResult"),
        ("intrinsic", 40, 3, "1e150", 3, "NonFiniteResult"),
        ("intrinsic", 2, 3, "1e300", 3, "NonFiniteResult"),
        ("intrinsic", 5, 1, "1e300", 3, "NonFiniteResult"),
        ("subspace", 2, 2, "1e-200", 2, "ValueError"),
        ("subspace", 5, 2, "1e-200", 2, "ValueError"),
        ("subspace", 1, 1, "1e150", 0, None),
        ("subspace", 2, 1, "1e150", 0, None),
        ("subspace", 2, 2, "1e150", 3, "IllConditionedFit"),
        ("subspace", 3, 2, "1e150", 3, "NonFiniteResult"),
        ("subspace", 2, 2, "1e300", 3, "NonFiniteResult"),
        ("subspace", 40, 2, "1e300", 3, "NonFiniteResult"),
    ])
    @pytest.mark.parametrize("doublings", [3, 12])
    def test_extreme_grids_keep_their_exit_codes(self, capsys, metric, dim, orders, tmin, code,
                                                 error, doublings):
        tmax = repr(float(tmin) * 2.0**doublings)
        got, out, err = run_cli(capsys, "asymptotics", "--metric", metric, "--dim", str(dim),
                                "--orders", str(orders), "--tmin", tmin, "--tmax", tmax)
        assert got == code
        assert (err.split(":")[0] if err else None) == error
        if code == 0:
            assert all(math.isfinite(float(field)) for row in out.splitlines()[1:]
                       for field in row.split(","))

    def test_grid_too_small(self, capsys):
        code, _, err = run_cli(
            capsys, "asymptotics", "--dim", "2", "--metric", "intrinsic",
            "--orders", "3", "--tmin", "10", "--tmax", "20",
        )
        assert code == 2

    @pytest.mark.parametrize("metric,dim", [("intrinsic", "2"), ("subspace", "3")])
    def test_grid_too_close_to_zero(self, capsys, metric, dim):
        # The magnitudes there are about 1; the powers of t the fit divides by underflow.
        code, out, err = run_cli(
            capsys, "asymptotics", "--dim", dim, "--metric", metric,
            "--orders", "2", "--tmin", "1e-300", "--tmax", "8e-300",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("ValueError: ") and "too close to 0" in err

    @pytest.mark.parametrize("metric,dim,orders,module,name", [
        ("subspace", "3", "2", "quadrature", "subspace_sphere_magnitude_quadrature"),
        ("intrinsic", "2", "3", "spheres", "sphere_magnitude_closed"),
    ], ids=["subspace", "intrinsic"])
    def test_each_magnitude_is_computed_once(self, capsys, monkeypatch, metric, dim, orders,
                                             module, name):
        # Wrap the function wherever a magnitude module holds it, as a tracer would.
        import magnitude

        original = getattr(getattr(magnitude, module), name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("magnitude.") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
        code, out, _ = run_cli(capsys, "asymptotics", "--dim", dim, "--metric", metric,
                               "--orders", orders, "--tmin", "10", "--tmax", "80")
        assert code == 0
        assert len(out.splitlines()) == 1 + int(orders)
        assert [args[1] for args in calls] == [10.0, 20.0, 40.0, 80.0]
        assert all(type(args[1]) is float for args in calls)

    def test_infinite_tmax_exits_two_under_a_memory_cap(self, tmp_path):
        # A grid doubling towards inf never ends; the cap turns a regression
        # into a MemoryError instead of exhausting the machine.
        import resource

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        argv = ["asymptotics", "--dim", "2", "--orders", "3", "--tmin", "1", "--tmax", "inf"]
        proc = run_python(["-m", "magnitude", *argv], tmp_path, preexec_fn=cap, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("ValueError: ")

    def test_grid_to_the_largest_double_ends_before_inf(self):
        grid = cli._geometric_grid(1.0, sys.float_info.max)
        assert len(grid) == 1024 and grid[-1] == 2.0**1023
        # Below the point where tmax (1 + 1e-12) overflows, the grid is as before.
        assert cli._geometric_grid(1.0, 2.0**1022)[-1] == 2.0**1022

    @pytest.mark.parametrize("argv, code", [
        (["--dim", "2", "--orders", "3", "--tmin", "1"], 3),
        (["--dim", "3", "--metric", "subspace", "--orders", "2", "--tmin", "1e300"], 3),
        (["--dim", "2", "--orders", "3", "--tmin", "1e308"], 2),
    ], ids=["intrinsic", "subspace", "one-point"])
    def test_tmax_at_the_largest_double_ends(self, capsys, argv, code):
        # Without a memory cap: the grid ends before its first infinite point.
        got, out, err = run_cli(capsys, "asymptotics", *argv, "--tmax", "1.7976931348623157e308")
        assert got == code, err
        assert out.splitlines() == (["power,extracted,predicted,spread"] if code == 2 else [])

    def test_overflowing_leading_term_fails_before_any_quadrature(self, capsys, monkeypatch):
        # R^2 overflows at the grid's 512th point; the call used to run the
        # 511 quadratures before it, for seconds, and then fail there.
        from magnitude import quadrature

        calls = []
        monkeypatch.setattr(quadrature, "subspace_sphere_magnitude_quadrature",
                            lambda *args: calls.append(args) or 1.0)
        code, out, err = run_cli(capsys, "asymptotics", "--dim", "2", "--metric", "subspace",
                                 "--orders", "1", "--tmin", "1",
                                 "--tmax", "1.7976931348623157e308")
        assert code == 3
        assert out == ""
        assert err == ("NonFiniteResult: result at 1.3407807929942597e+154 is out of range: "
                       "(34, 'Numerical result out of range')\n")
        assert calls == []

    @pytest.mark.parametrize("tmin,metric", [
        (tmin, metric) for tmin in (1e2, 1e3, 1e4, 1e6, 1e8, 1e12, 1e50, 1e100)
        for metric in ("intrinsic", "subspace")
    ] + [(tmin, "intrinsic") for tmin in (8.0, 9.0, 10.0, 12.0)])
    def test_spread_covers_the_error_or_the_call_exits_three(self, capsys, tmin, metric):
        # The spread printed bounds the samples' rounding and quadrature
        # errors carried through the fit, and for the intrinsic metric also
        # the closed form's e^(-pi t) term, which no power of t models (at
        # tmin 8 and dim 2 it moved the constant term by twice its spread).
        # Grids from tmin 1 to 8 are scanned in
        # tests/test_asymptotics.py::TestSpreadScan.
        from magnitude import asymptotics

        dims, orders = {"intrinsic": ((2, 3, 4, 5), 3), "subspace": ((2, 3, 4), 2)}[metric]
        for n in dims:
            if metric == "intrinsic":
                exact = [c for _, c in asymptotics.predicted_expansion_intrinsic_sphere(n).terms]
            else:
                exact = [1.0, (n + 1) * n * (n - 2) / 8.0]
            code, out, err = run_cli(capsys, "asymptotics", "--dim", str(n), "--metric", metric,
                                     "--orders", str(orders), "--tmin", repr(tmin),
                                     "--tmax", repr(8.0 * tmin))
            if code == 3:  # IllConditionedFit, or NonFiniteResult where t^n overflows
                assert out == ""
                continue
            assert code == 0, err
            rows = list(csv.DictReader(out.splitlines()))
            assert len(rows) == orders
            for row, value in zip(rows, exact):
                assert abs(float(row["extracted"]) - value) <= float(row["spread"]), (n, row)

    def test_noise_at_large_scales_exits_three(self, capsys):
        # The R^-2 coefficient at R = 1e100 is (ratio - 1) R^2 with ratio 1 to
        # within rel_tol: it used to print 2.47e190 with exit 0.
        from magnitude import asymptotics

        for metric, orders in (("subspace", 2), ("intrinsic", 3)):
            code, out, err = run_cli(capsys, "asymptotics", "--metric", metric, "--dim", "2",
                                     "--orders", str(orders), "--tmin", "1e100", "--tmax", "8e100")
            assert code == 3
            assert out == ""
            assert err.startswith("IllConditionedFit: ")
            # The library route refuses the fit itself, with the same message.
            with pytest.raises(errors.IllConditionedFit) as refused:
                asymptotics.sphere_asymptotics(metric, 2, (1e100, 2e100, 4e100, 8e100), orders)
            assert err == f"IllConditionedFit: {refused.value}\n"

    @pytest.mark.parametrize("metric, dim, orders, tmin", [
        ("intrinsic", 2, 3, 10.0), ("intrinsic", 5, 3, 10.0), ("subspace", 3, 2, 20.0),
    ], ids=["asymptotics-intrinsic", "asymptotics-intrinsic-dim5", "asymptotics-subspace"])
    def test_prints_the_rows_of_the_library_route(self, capsys, metric, dim, orders, tmin):
        # The argv of the golden cases: every printed number is the route's.
        from magnitude import asymptotics

        code, out, err = run_cli(capsys, "asymptotics", "--dim", str(dim), "--metric", metric,
                                 "--orders", str(orders), "--tmin", repr(tmin), "--tmax", "80")
        assert code == 0, err
        extracted = asymptotics.sphere_asymptotics(metric, dim, cli._geometric_grid(tmin, 80.0), orders)
        predicted = {"intrinsic": asymptotics.predicted_expansion_intrinsic_sphere,
                     "subspace": asymptotics.predicted_expansion_subspace_ratio}[metric](dim)
        rows = ["power,extracted,predicted,spread"] + [
            f"{power},{coeff:.17g},{predicted.coefficient(power):.17g},{spread:.17g}"
            for (power, coeff), spread in zip(extracted.terms, extracted.spreads)
        ]
        assert out == "\r\n".join(rows) + "\r\n"

    def test_subspace_dim_one_predicts_only_the_leading_term(self, capsys):
        code, out, _ = run_cli(capsys, "asymptotics", "--dim", "1", "--metric", "subspace",
                               "--orders", "1", "--tmin", "10", "--tmax", "80")
        assert code == 0
        power, _, predicted, _ = out.splitlines()[1].split(",")
        assert (power, predicted) == ("0", "1")
        code, _, err = run_cli(capsys, "asymptotics", "--dim", "1", "--metric", "subspace",
                               "--orders", "2", "--tmin", "10", "--tmax", "80")
        assert code == 2
        assert err.startswith("ValueError: --orders must be between 1 and 1")

    @pytest.mark.parametrize("dim", ["0", "-1"])
    def test_subspace_dim_below_one_names_the_floor_of_one(self, capsys, dim):
        # Dim 1 is accepted, so the message names 1, not the R^-2 prediction's 2.
        code, out, err = run_cli(capsys, "asymptotics", "--dim", dim, "--metric", "subspace",
                                 "--orders", "1", "--tmin", "10", "--tmax", "80")
        assert (code, out) == (2, "")
        assert err == f"ValueError: need n >= 1, got {dim}\n"


class TestGuard:
    """Every printed number passes the one finiteness guard."""

    def test_cantor_iterative(self, capsys, monkeypatch):
        from magnitude import line

        monkeypatch.setattr(line, "cantor_magnitude_iterative", lambda *args: math.inf)
        code, out, err = run_cli(capsys, "cantor", "--length", "1", "--iterative", "--depth", "3")
        assert code == 3
        assert out == ""
        assert err.startswith("NonFiniteResult: ")

    def test_finite_matrix(self, capsys, monkeypatch, tmp_path):
        import types

        import numpy as np

        from magnitude import finite

        p = tmp_path / "d.csv"
        p.write_text("0,1\n1,0\n")
        monkeypatch.setattr(finite, "weighting",
                            lambda *args: types.SimpleNamespace(w=np.array([1.0, 1.0]), rcond=math.nan))
        code, out, err = run_cli(capsys, "finite", "--matrix", str(p))
        assert code == 3
        assert out == ""
        assert err.startswith("NonFiniteResult: ")


class TestTolerance:
    """A tolerance comes only from --tol or a sweep's tol=, and one that is
    given is positive and finite, else exit 2, also where the route ignores it."""

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1e-9"])
    @pytest.mark.parametrize("argv", [
        ("cantor", "--length", "1", "--series"),
        ("sphere", "--dim", "2", "--radius", "1", "--method", "quadrature"),
        ("asymptotics", "--dim", "3", "--metric", "subspace", "--orders", "2", "--tmin", "20", "--tmax", "80"),
        # Routes that take no tolerance.
        ("sphere", "--dim", "2", "--radius", "1"),
        ("asymptotics", "--dim", "2", "--orders", "3", "--tmin", "10", "--tmax", "80"),
        ("cantor", "--length", "1", "--iterative", "--depth", "3"),
    ], ids=["cantor", "sphere", "asymptotics", "sphere-closed", "asymptotics-intrinsic", "cantor-iterative"])
    def test_flag(self, capsys, argv, tol):
        code, out, err = run_cli(capsys, *argv, f"--tol={tol}")
        assert code == 2
        assert out == ""
        assert err.startswith("ValueError: --tol must be positive and finite")

    def test_flag_of_finite(self, capsys, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0,1\n1,0\n")
        code, out, err = run_cli(capsys, "finite", "--matrix", str(p), "--tol", "inf")
        assert code == 2
        assert out == ""
        assert err.startswith("ValueError: --tol must be positive and finite")

    @pytest.mark.parametrize("method", ["closed", "finite-4"])
    def test_sweep_spec(self, capsys, tmp_path, method):
        spec = tmp_path / "sweep.spec"
        spec.write_text(f"space=cantor\nmethod={method}\nstart=1\nstop=2\npoints=2\ntol=inf\n")
        out = tmp_path / "out.csv"
        code, _, err = run_cli(capsys, "sweep", "--spec", str(spec), "--out", str(out))
        assert code == 2
        assert err.startswith("ValueError: ")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["abc", "1e-6"])
    def test_no_environment_variable_changes_the_output(self, capsys, monkeypatch, tmp_path, value):
        spec, out = tmp_path / "sweep.spec", tmp_path / "out.csv"
        spec.write_text("space=interval\nmethod=closed\nstart=1\nstop=2\npoints=2\n")

        def outputs():
            out.unlink(missing_ok=True)
            return (run_cli(capsys, "cantor", "--length", "1", "--series"),
                    run_cli(capsys, "sweep", "--spec", str(spec), "--out", str(out)), out.read_bytes())

        expected = outputs()
        assert expected[0][0] == expected[1][0] == 0

        class EveryVariable(dict):
            def get(self, name, default=None):
                return value

            __getitem__ = get

            def __contains__(self, name):
                return True

        monkeypatch.setattr(os, "environ", EveryVariable())  # in which every variable reads value
        assert outputs() == expected


class TestSweep:
    def write_spec(self, tmp_path, text):
        p = tmp_path / "sweep.spec"
        p.write_text(text)
        return p

    def test_sphere_sweep(self, capsys, tmp_path):
        spec = self.write_spec(
            tmp_path,
            "space=sphere-intrinsic\ndim=2\nmethod=closed\n"
            "start=0.5\nstop=8\npoints=5\nscale=geometric\n",
        )
        out = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, "sweep", "--spec", str(spec), "--out", str(out))
        assert code == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert tuple(rows[0]) == CSV_HEADER
        assert len(rows) == 6
        for row in rows[1:]:
            assert row[0] == "sphere-intrinsic"
            assert row[1] == "radius"
            R = float(row[2])
            expected = 2.0 * (R * R + 1.0) / (1.0 + math.exp(-math.pi * R))
            assert float(row[4]) == pytest.approx(expected, rel=1e-14)

    def test_sweep_reproducible_byte_for_byte(self, capsys, tmp_path):
        spec = self.write_spec(
            tmp_path,
            "space=cantor\nmethod=closed\nstart=0.5\nstop=4\npoints=4\n",
        )
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert run_cli(capsys, "sweep", "--spec", str(spec), "--out", str(out1))[0] == 0
        assert run_cli(capsys, "sweep", "--spec", str(spec), "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_interval_finite_method(self, capsys, tmp_path):
        spec = self.write_spec(
            tmp_path,
            "space=interval\nmethod=finite-64\nstart=1\nstop=2\npoints=2\n",
        )
        out = tmp_path / "out.csv"
        assert run_cli(capsys, "sweep", "--spec", str(spec), "--out", str(out))[0] == 0
        rows = list(csv.reader(out.read_text().splitlines()))[1:]
        for row in rows:
            L = float(row[2])
            assert float(row[4]) < 1.0 + L / 2.0  # finite approximations undershoot
            assert float(row[5]) > 0.0

    def test_finite_file_sweep(self, capsys, tmp_path):
        mat = tmp_path / "d.csv"
        mat.write_text("0,1\n1,0\n")
        spec = self.write_spec(
            tmp_path,
            f"space=finite-file\nmatrix={mat}\nmethod=closed\nstart=1\nstop=3\npoints=3\n",
        )
        out = tmp_path / "out.csv"
        assert run_cli(capsys, "sweep", "--spec", str(spec), "--out", str(out))[0] == 0
        rows = list(csv.reader(out.read_text().splitlines()))[1:]
        for row in rows:
            t = float(row[2])
            assert float(row[4]) == pytest.approx(2.0 / (1.0 + math.exp(-t)), rel=1e-12)

    def test_bad_spec_errors(self, tmp_path, capsys):
        cases = [
            "space=unknown\nmethod=closed\nstart=1\nstop=2\npoints=2\n",
            "space=interval\nmethod=warp\nstart=1\nstop=2\npoints=2\n",
            "space=interval\nmethod=closed\nstart=2\nstop=1\npoints=2\n",
            "space=interval\nmethod=closed\nstart=1\nstop=2\npoints=2\nbogus=1\n",
            "space=sphere-intrinsic\nmethod=closed\nstart=1\nstop=2\npoints=2\n",  # no dim
            "space=sphere-subspace\ndim=3\nmethod=closed\nstart=1\nstop=2\npoints=2\n",
            # Each malformed value is named with the file and the key.
            ("space=sphere-intrinsic\ndim=abc\nmethod=closed\nstart=1\nstop=2\npoints=2\n",
             "dim must be an integer, got 'abc'"),
            ("space=cantor\nmethod=closed\nstart=1\nstop=2\npoints=2\ntol=abc\n",
             "tol must be a number, got 'abc'"),
            ("space=cantor\nmethod=closed\nstart=1\nstop=2\npoints=2\ntol=0\n",
             "tol must be positive and finite, got 0.0"),
            ("space=interval\nmethod=closed\nstart=x\nstop=2\npoints=2\n",
             "start must be a number, got 'x'"),
            ("space=interval\nmethod=closed\nstart=1\nstop=2\npoints=2.5\n",
             "points must be an integer, got '2.5'"),
            # A key the space does not take.
            ("space=interval\ndim=3\nmethod=closed\nstart=1\nstop=2\npoints=2\n",
             "dim applies only to sphere-intrinsic and sphere-subspace sweeps, not 'interval'"),
            ("space=interval\nmatrix=d.csv\nmethod=closed\nstart=1\nstop=2\npoints=2\n",
             "matrix applies only to finite-file sweeps, not 'interval'"),
            ("space=sphere-intrinsic\ndim=2\nmatrix=d.csv\nmethod=closed\nstart=1\nstop=2\npoints=2\n",
             "matrix applies only to finite-file sweeps, not 'sphere-intrinsic'"),
        ]
        for case in cases:
            text, message = case if isinstance(case, tuple) else (case, None)
            spec = self.write_spec(tmp_path, text)
            code, _, err = run_cli(capsys, "sweep", "--spec", str(spec), "--out", str(tmp_path / "o.csv"))
            assert code == 2, text
            assert err
            if message is not None:
                assert err.startswith(f"ValueError: {spec}: {message}"), err

    def test_parse_sweep_spec_values(self, tmp_path):
        spec = self.write_spec(
            tmp_path,
            "# comment line\nspace=circle\nmethod=finite-32\n"
            "start=1\nstop=10\npoints=4\nscale=geometric\n",
        )
        space, param_name, method, grid, evaluate = parse_sweep_spec(spec)
        assert (space, param_name, method) == ("circle", "circumference", "finite-32")
        assert grid == pytest.approx([1.0, 10 ** (1 / 3), 10 ** (2 / 3), 10.0])
        assert evaluate(grid[1]) == EVALUATORS["circle", "finite"](grid[1], None, 32, None, None)


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "interval", "--length", "1", "--bogus")
        assert code == 2
        assert "usage" in err

    def test_unknown_command(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_help_exits_zero_everywhere(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0
        for cmd in ("finite", "interval", "cantor", "circle", "sphere",
                    "asymptotics", "tube-check", "sweep"):
            code, out, _ = run_cli(capsys, cmd, "--help")
            assert code == 0
            assert "usage" in out

    def test_input_error_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "interval", "--length", "-1")
        assert code == 2
        assert "NonpositiveLength" in err

    def test_no_convergence_exits_three(self, capsys, monkeypatch):
        # analytic sphere integrands essentially never fail to converge, so
        # exercise the dispatcher mapping directly
        import magnitude.quadrature
        from magnitude.errors import NoConvergence

        def boom(*args, **kwargs):
            raise NoConvergence("synthetic failure")

        # The evaluator looks the quotient up on the quadrature module at call time.
        monkeypatch.setattr(magnitude.quadrature, "sphere_magnitude_quadrature", boom)
        code, _, err = run_cli(
            capsys, "sphere", "--dim", "2", "--radius", "1", "--method", "quadrature"
        )
        assert code == 3
        assert "NoConvergence" in err

    def test_module_entry_point(self, tmp_path):
        proc = run_python(["-m", "magnitude", "interval", "--length", "2"], tmp_path)
        assert proc.returncode == 0
        assert float(proc.stdout) == 2.0


ERROR_CLASSES = sorted(
    (cls for cls in vars(errors).values()
     if isinstance(cls, type) and issubclass(cls, errors.MagnitudeError)),
    key=lambda cls: cls.__name__,
) + [ValueError, OSError]
NUMERICAL_FAILURES = {"SingularSystem", "NoConvergence", "IllConditionedFit", "NonFiniteResult"}


class TestEvaluatorTable:
    @pytest.mark.parametrize("exc_class", ERROR_CLASSES, ids=lambda cls: cls.__name__)
    def test_exit_code_of_each_error_class(self, exc_class, capsys, monkeypatch):
        def boom(*args):
            raise exc_class("synthetic failure")

        monkeypatch.setitem(EVALUATORS, ("interval", "closed"), boom)
        code, out, err = run_cli(capsys, "interval", "--length", "1")
        assert code == (3 if exc_class.__name__ in NUMERICAL_FAILURES else 2)
        assert out == ""
        assert err.startswith(f"{exc_class.__name__}: synthetic failure")

    # (sweep spec lines, subcommand argv at x) for each pair; the Cantor
    # finite-N pair has no single-value subcommand.
    FORMS = {
        ("finite-file", "closed"): ("matrix={tmp}/d.csv\n", ["finite", "--matrix", "{tmp}/d.csv"]),
        ("interval", "closed"): ("", ["interval", "--length", "{x}"]),
        ("interval", "finite"): ("", ["interval", "--length", "{x}", "--approx", "64"]),
        ("cantor", "closed"): ("", ["cantor", "--length", "{x}", "--series"]),
        ("circle", "closed"): ("", ["circle", "--circumference", "{x}"]),
        ("circle", "finite"): ("", ["circle", "--circumference", "{x}", "--points", "64"]),
        ("sphere-intrinsic", "closed"): ("dim=3\n", ["sphere", "--dim", "3", "--radius", "{x}"]),
        ("sphere-intrinsic", "quadrature"): (
            "dim=3\n", ["sphere", "--dim", "3", "--radius", "{x}", "--method", "quadrature"]),
        ("sphere-subspace", "closed"): (
            "dim=2\n", ["sphere", "--dim", "2", "--radius", "{x}", "--metric", "subspace",
                        "--method", "closed"]),
        ("sphere-subspace", "quadrature"): (
            "dim=3\n", ["sphere", "--dim", "3", "--radius", "{x}", "--metric", "subspace",
                        "--method", "quadrature"]),
    }

    def test_every_pair_but_cantor_finite_has_a_subcommand(self):
        assert set(self.FORMS) | {("cantor", "finite")} == set(EVALUATORS)

    @pytest.mark.parametrize("pair", list(FORMS), ids="/".join)
    def test_sweep_row_equals_subcommand_output(self, pair, capsys, tmp_path):
        space, kind = pair
        extra, argv = self.FORMS[pair]
        (tmp_path / "d.csv").write_text("0,1,1.5\n1,0,2\n1.5,2,0\n")
        method = "finite-64" if kind == "finite" else kind
        spec = tmp_path / "sweep.spec"
        spec.write_text(f"space={space}\nmethod={method}\nstart=1\nstop=2.5\npoints=2\n"
                        + extra.replace("{tmp}", str(tmp_path)))
        out = tmp_path / "out.csv"
        assert run_cli(capsys, "sweep", "--spec", str(spec), "--out", str(out))[0] == 0
        rows = list(csv.reader(out.read_text().splitlines()))[1:]
        # finite --matrix solves the file unscaled, so only the row at x = 1 has a counterpart.
        for row in rows[:1] if space == "finite-file" else rows:
            x = row[2]
            code, stdout, _ = run_cli(
                capsys, *(arg.replace("{x}", x).replace("{tmp}", str(tmp_path)) for arg in argv)
            )
            assert code == 0
            assert stdout.strip().split(",")[0] == row[4]


class TestLazyLapack:
    def test_only_dense_solves_load_scipy(self, tmp_path):
        (tmp_path / "d.csv").write_text("0,1,1.5\n1,0,2\n1.5,2,0\n")
        (tmp_path / "sweep.spec").write_text(
            "space=sphere-intrinsic\nmethod=quadrature\nstart=1\nstop=4\npoints=3\ndim=3\n")
        (tmp_path / "interval.spec").write_text(
            "space=interval\nmethod=finite-2000\nstart=1\nstop=4\npoints=3\n")
        (tmp_path / "cantor.spec").write_text(
            "space=cantor\nmethod=finite-8\nstart=1\nstop=4\npoints=3\n")
        code = textwrap.dedent("""
            import contextlib, io, sys
            bare = set(sys.modules)
            from magnitude.cli import run

            def scipy_modules():
                return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

            def heavy_modules():
                return sorted({"dataclasses", "fractions"} & (set(sys.modules) - bare))

            calls = [
                ["sphere", "--dim", "3", "--radius", "2"],
                ["sphere", "--dim", "3", "--radius", "2", "--method", "quadrature"],
                ["circle", "--circumference", "5", "--points", "300"],
                ["cantor", "--length", "3", "--series"],
                ["asymptotics", "--dim", "3", "--orders", "2", "--tmin", "10", "--tmax", "80"],
                ["sweep", "--spec", "sweep.spec", "--out", "out.csv"],
                ["interval", "--length", "2", "--approx", "300"],
                ["sweep", "--spec", "interval.spec", "--out", "interval.csv"],
                ["sweep", "--spec", "cantor.spec", "--out", "cantor.csv"],
            ]
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [run(argv) for argv in calls]
            print(codes, scipy_modules(), "concurrent.futures" in sys.modules, heavy_modules())
            with contextlib.redirect_stdout(io.StringIO()):
                code = run(["finite", "--matrix", "cloud.csv"])
            print(code, "concurrent.futures" in sys.modules)
            with contextlib.redirect_stdout(io.StringIO()):
                code = run(["finite", "--matrix", "d.csv"])
            print(code, "scipy.linalg" in sys.modules, "numpy.f2py" in sys.modules, heavy_modules())
        """)
        # 40 points of the plane: the triangle check proves their distances
        # Euclidean and starts no thread pool for the scan.
        points = [(math.cos(0.7 * i) * (1 + i / 20), math.sin(1.3 * i) + i / 10) for i in range(40)]
        (tmp_path / "cloud.csv").write_text(
            "".join(",".join(repr(math.dist(p, q)) for q in points) + "\n" for p in points))
        proc = run_python(["-c", code], tmp_path)
        assert proc.returncode == 0, proc.stderr
        # The dense solve loads scipy's LAPACK extension alone, not the
        # scipy.linalg package, whose import pulls in numpy.f2py.  No route
        # loads dataclasses or fractions; modules that a bare interpreter
        # already holds (a site hook may load any) are not counted.
        assert proc.stdout.splitlines() == ["[0, 0, 0, 0, 0, 0, 0, 0, 0] [] False []",
                                            "0 False", "0 False False []"]

    def test_scipy_linalg_after_a_dense_solve(self, tmp_path):
        code = textwrap.dedent("""
            import sys
            import numpy as np
            from magnitude import finite

            points = np.random.default_rng(5).uniform(size=(40, 3))
            d = np.sqrt(((points[:, None] - points[None]) ** 2).sum(axis=2))
            X = finite.FiniteMetricSpace(d)
            before = finite.weighting(X)
            print("scipy.linalg" in sys.modules)
            import scipy.linalg

            finite._lapack.cache_clear()
            after = finite.weighting(X)
            picked = scipy.linalg.get_lapack_funcs(("getrf", "gecon", "getrs"), (d,))
            direct = scipy.linalg.solve(np.exp(-d), np.ones(40))
            print(list(picked) == list(finite._lapack()),
                  before.w.tobytes() == after.w.tobytes(), before.rcond == after.rcond,
                  np.allclose(direct, before.w, rtol=1e-9, atol=0))
        """)
        proc = run_python(["-c", code], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["False", "True True True True"]


class TestClosedFormsWithoutNumpy:
    def test_closed_form_routes_import_neither_numpy_nor_scipy(self, tmp_path):
        code = textwrap.dedent("""
            import contextlib, io, sys
            bare = set(sys.modules)

            def array_modules():
                return sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))

            def heavy_modules():
                heavy = {"dataclasses", "inspect", "fractions", "decimal", "csv"}
                return sorted(heavy & (set(sys.modules) - bare))

            def run_quietly(argv):
                with contextlib.redirect_stdout(io.StringIO()):
                    return run(argv)

            import magnitude
            magnitude.spheres, magnitude.sphere_magnitude_closed
            print(array_modules())
            from magnitude.cli import run

            calls = [
                ["sphere", "--dim", "2", "--radius", "1.5"],
                ["sphere", "--dim", "2", "--radius", "1.5", "--metric", "subspace"],
                ["interval", "--length", "2"],
                ["circle", "--circumference", "5"],
                ["cantor", "--length", "3", "--series"],
                ["cantor", "--length", "3", "--iterative", "--depth", "4"],
                ["tube-check", "--dim", "3", "--radius", "2", "--epsilon", "0.1"],
            ]
            for argv in calls:
                print(run_quietly(argv), array_modules())
            # A closed-form call imports argparse and the package, not
            # dataclasses (with inspect), fractions (with decimal) or csv.
            # Modules that a bare interpreter already holds (a site hook may
            # load any) are not counted.
            print(heavy_modules())
            # Finite grids on the line and the circle, and the intrinsic
            # asymptotics (which writes CSV), run on the standard library too.
            calls = [
                ["interval", "--length", "2", "--approx", "300"],
                ["circle", "--circumference", "5", "--points", "300"],
                ["asymptotics", "--dim", "3", "--orders", "3", "--tmin", "10", "--tmax", "80"],
            ]
            for argv in calls:
                print(run_quietly(argv), array_modules())
            # P_polynomial imports fractions, and asymptotics for the type it
            # returns; neither imports numpy.
            magnitude.P_polynomial(5)
            print(array_modules())
            from magnitude import FiniteMetricSpace
            print(FiniteMetricSpace([[0.0, 1.0], [1.0, 0.0]]).n, "numpy" in sys.modules)
        """)
        proc = run_python(["-c", code], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == (
            ["[]"] + ["0 []"] * 7 + ["[]"] + ["0 []"] * 3 + ["[]"] + ["2 True"])

    @pytest.mark.parametrize("argv", [
        ["sphere", "--dim", "3", "--radius", "2", "--method", "quadrature"],
        ["asymptotics", "--dim", "3", "--metric", "subspace", "--orders", "2",
         "--tmin", "20", "--tmax", "80"],
    ], ids=["sphere-quadrature", "asymptotics-subspace"])
    def test_quadrature_routes_load_numpy(self, tmp_path, argv):
        code = textwrap.dedent(f"""
            import contextlib, io, sys
            from magnitude.cli import run

            with contextlib.redirect_stdout(io.StringIO()):
                code = run({argv!r})
            print(code, "numpy" in sys.modules, "magnitude.quadrature" in sys.modules)
        """)
        proc = run_python(["-c", code], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["0 True True"]

    def test_sweeps_of_the_standard_library_pairs_import_neither_numpy_nor_scipy(self, tmp_path):
        pairs = sorted(set(EVALUATORS) - ARRAY_PAIRS)
        assert len(pairs) == 8
        argvs = []
        for space, kind in pairs:
            for scale in ("linear", "geometric"):
                name = f"{space}-{kind}-{scale}.spec"
                (tmp_path / name).write_text(sweep_spec_text(space, kind, scale))
                argvs.append(["sweep", "--spec", name, "--out", "out.csv"])
        code = textwrap.dedent(f"""
            import sys
            from magnitude.cli import run

            for argv in {argvs!r}:
                print(run(argv), sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy")))
        """)
        proc = run_python(["-c", code], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["0 []"] * 16

    @pytest.mark.parametrize("pair", sorted(ARRAY_PAIRS), ids="-".join)
    def test_sweeps_that_build_arrays_load_numpy(self, tmp_path, pair):
        (tmp_path / "d.csv").write_text("0,1,1.5\n1,0,2\n1.5,2,0\n")
        (tmp_path / "s.spec").write_text(sweep_spec_text(*pair, "geometric"))
        code = textwrap.dedent("""
            import sys
            from magnitude.cli import run

            print(run(["sweep", "--spec", "s.spec", "--out", "out.csv"]), "numpy" in sys.modules)
        """)
        proc = run_python(["-c", code], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["0 True"]


class TestBlasThreads:
    @pytest.mark.parametrize("name", cli.BLAS_THREAD_VARS)
    def test_a_users_variable_is_left_alone(self, name):
        environ = {name: "3", "PATH": "/bin"}
        cli._pin_blas_threads(environ)
        assert environ == {name: "3", "PATH": "/bin"}

    def test_no_variable_gives_one_thread(self):
        environ = {"PATH": "/bin"}
        cli._pin_blas_threads(environ)
        assert environ == {"PATH": "/bin", "OPENBLAS_NUM_THREADS": "1"}

    def test_run_leaves_the_environment_alone(self, capsys, tmp_path):
        (tmp_path / "d.csv").write_text("0,1\n1,0\n")
        before = dict(os.environ)
        code, _, _ = run_cli(capsys, "finite", "--matrix", str(tmp_path / "d.csv"))
        assert code == 0
        assert dict(os.environ) == before

    def test_main_pins_before_numpy_loads(self, tmp_path):
        # A numpy import ahead of the pin would leave OpenBLAS at its default.
        code = textwrap.dedent("""
            import runpy, sys
            from magnitude import cli

            seen = []
            pin = cli._pin_blas_threads

            def spy(environ):
                seen.append("numpy" in sys.modules)
                pin(environ)

            cli._pin_blas_threads = spy
            sys.argv = ["magnitude", "sphere", "--dim", "3", "--radius", "2", "--method", "quadrature"]
            try:
                runpy.run_module("magnitude", run_name="__main__", alter_sys=True)
            finally:
                print(seen, "numpy" in sys.modules)
        """)
        proc = run_python(["-c", code], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[False] True"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux's /proc/self/task")
    @pytest.mark.parametrize("user_value", [None, "2"], ids=["unset", "user-value"])
    def test_python_m_magnitude_threads(self, tmp_path, user_value):
        # A sitecustomize hook reports, as the process exits, the variable and
        # the threads of a `python -m magnitude` call that loads both numpy's
        # OpenBLAS and the one behind scipy's LAPACK.
        hook = tmp_path / "hook"
        hook.mkdir()
        (hook / "sitecustomize.py").write_text(textwrap.dedent("""
            import atexit, os, sys

            atexit.register(lambda: print(os.environ.get("OPENBLAS_NUM_THREADS"),
                                          len(os.listdir("/proc/self/task")), file=sys.stderr))
        """))
        (tmp_path / "d.csv").write_text("0,1,1.5\n1,0,2\n1.5,2,0\n")
        import magnitude

        env = {k: v for k, v in os.environ.items() if k not in cli.BLAS_THREAD_VARS}
        if user_value is not None:
            env["OPENBLAS_NUM_THREADS"] = user_value
        src_dir = str(pathlib.Path(magnitude.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join([str(hook), src_dir, env.get("PYTHONPATH", "")])
        proc = subprocess.run([sys.executable, "-m", "magnitude", "finite", "--matrix", "d.csv"],
                              capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
        assert proc.returncode == 0, proc.stderr
        value, threads = proc.stderr.split()
        if user_value is None:
            assert (value, threads) == ("1", "1")
        else:
            assert value == user_value
            # OpenBLAS caps its pools at the CPUs the process may use.
            if len(os.sched_getaffinity(0)) >= 2:
                assert int(threads) > 1


class TestInputDomain:
    def test_circle_points_large_n(self, capsys):
        code, out, _ = run_cli(capsys, "circle", "--circumference", "5", "--points", "100000")
        assert code == 0
        _, closed, _ = run_cli(capsys, "circle", "--circumference", "5")
        assert math.isfinite(float(out))
        assert float(out) == pytest.approx(float(closed), rel=1e-6)

    @pytest.mark.parametrize("argv", [
        ("--circumference", "inf", "--points", "5"),
        ("--circumference", "nan", "--points", "5"),
        ("--circumference", "-1", "--points", "5"),
        ("--circumference", "5", "--points", "0"),
    ], ids=" ".join)
    def test_circle_points_bad_input_exits_two(self, capsys, argv):
        code, out, err = run_cli(capsys, "circle", *argv)
        assert code == 2
        assert out == ""
        assert err

    def test_subspace_closed_tiny_radius_is_one(self, capsys):
        code, out, _ = run_cli(capsys, "sphere", "--dim", "2", "--radius", "1e-300",
                               "--metric", "subspace")
        assert code == 0
        assert float(out) == 1.0

    @pytest.mark.parametrize("dim, exact", [
        ("450", 16.86796867898801), ("453", 16.868305300057422), ("454", 16.868416519065291),
    ], ids=["450", "453", "454"])
    def test_subspace_quadrature_past_the_volume_underflow(self, capsys, dim, exact):
        # 40-digit mpmath values; these dims printed 16.874..., 10 and exited 3.
        code, out, _ = run_cli(capsys, "sphere", "--dim", dim, "--radius", "2",
                               "--metric", "subspace", "--method", "quadrature")
        assert code == 0
        assert float(out) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("metric", ["intrinsic", "subspace"])
    @pytest.mark.parametrize("method", ["closed", "quadrature"])
    @pytest.mark.parametrize("radius", ["inf", "nan"])
    def test_nonfinite_radius_exits_two(self, capsys, metric, method, radius):
        code, out, err = run_cli(capsys, "sphere", "--dim", "2", "--radius", radius,
                                 "--metric", metric, "--method", method)
        assert code == 2
        assert out == ""
        assert "positive and finite" in err

    @pytest.mark.parametrize("argv", [
        ("--radius", "1e308", "--metric", "subspace"),
        ("--radius", "1e200", "--metric", "subspace"),
        ("--radius", "1e200"),
        ("--radius", "1e200", "--method", "quadrature"),
        ("--radius", "1e200", "--metric", "subspace", "--method", "quadrature"),
    ], ids=" ".join)
    def test_magnitude_out_of_range_exits_three(self, capsys, argv):
        code, out, err = run_cli(capsys, "sphere", "--dim", "2", *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("NonFiniteResult")

    def test_sweep_row_out_of_range_exits_three(self, capsys, tmp_path):
        spec = tmp_path / "sweep.spec"
        spec.write_text("space=sphere-subspace\nmethod=closed\nstart=1\nstop=1e308\n"
                        "points=2\ndim=2\n")
        out = tmp_path / "out.csv"
        code, _, err = run_cli(capsys, "sweep", "--spec", str(spec), "--out", str(out))
        assert code == 3
        assert err.startswith("NonFiniteResult")
        assert not out.exists()

    @pytest.mark.parametrize("depth,budget", [(2000, 8 << 30), (25, 7 << 30), (6, 240 * 2**6 - 1)])
    def test_cantor_depth_that_cannot_fit_exits_two_before_building(self, capsys, tmp_path,
                                                                    monkeypatch, depth, budget):
        from magnitude import cli, line

        def never(*args):
            raise AssertionError("the carrier was built")

        monkeypatch.setattr(cli, "_available_bytes", lambda: budget)
        monkeypatch.setattr(line, "cantor_level_set", never)
        spec = tmp_path / "sweep.spec"
        spec.write_text(f"space=cantor\nmethod=finite-{depth}\nstart=1\nstop=3\npoints=3\n")
        out = tmp_path / "out.csv"
        code, _, err = run_cli(capsys, "sweep", "--spec", str(spec), "--out", str(out))
        assert code == 2
        assert err.startswith(f"MemoryError: a Cantor carrier of depth {depth} ")
        assert f"240 x 2^{depth} bytes; {budget} bytes are available" in err
        assert not out.exists()

    def test_cantor_depth_that_fits_is_built(self, capsys, tmp_path, monkeypatch):
        from magnitude import cli

        monkeypatch.setattr(cli, "_available_bytes", lambda: 240 * 2**6)
        spec = tmp_path / "sweep.spec"
        spec.write_text("space=cantor\nmethod=finite-6\nstart=1\nstop=3\npoints=3\n")
        code, _, err = run_cli(capsys, "sweep", "--spec", str(spec), "--out", str(tmp_path / "o.csv"))
        assert code == 0, err

    @pytest.mark.parametrize("via", ["interval", "sweep"])
    @pytest.mark.parametrize("n, budget", [(10**12, 8 << 30), (10**400, 8 << 30), (1000, 48 * 1000 - 1)],
                             ids=["1e12", "1e400", "one-byte-short"])
    def test_line_grid_that_cannot_fit_exits_two_before_building(self, capsys, tmp_path,
                                                                 monkeypatch, via, n, budget):
        from magnitude import cli, line

        def never(*args):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(cli, "_available_bytes", lambda: budget)
        monkeypatch.setattr(line, "finite_approx_points", never)
        out = tmp_path / "out.csv"
        if via == "interval":
            argv = ["interval", "--length", "2", "--approx", str(n)]
        else:
            spec = tmp_path / "sweep.spec"
            spec.write_text(f"space=interval\nmethod=finite-{n}\nstart=1\nstop=3\npoints=3\n")
            argv = ["sweep", "--spec", str(spec), "--out", str(out)]
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 2
        assert stdout == ""
        assert err == (f"MemoryError: a line grid of {n} points needs about 48 x {n} bytes; "
                       f"{budget} bytes are available\n")
        assert not out.exists()

    def test_line_grid_that_fits_is_built(self, capsys, monkeypatch):
        from magnitude import cli

        monkeypatch.setattr(cli, "_available_bytes", lambda: 48 * 1000)
        code, out, err = run_cli(capsys, "interval", "--length", "2", "--approx", "1000")
        assert code == 0, err
        assert float(out) == pytest.approx(1.0 + 999 * math.tanh(1.0 / 999), rel=1e-14)

    def test_line_grid_budget_is_checked_after_the_length(self, capsys, monkeypatch):
        from magnitude import cli

        monkeypatch.setattr(cli, "_available_bytes", lambda: 0)
        code, _, err = run_cli(capsys, "interval", "--length", "-1", "--approx", "10")
        assert code == 2
        assert err.startswith("NonpositiveLength: ")

    @pytest.mark.parametrize("space", ["interval", "cantor"])
    def test_budgets_cover_the_measured_peak(self, space):
        # 48 B per point of a line grid and 240 B per interval of a Cantor
        # carrier cover what tracemalloc reads for the build and the sum.
        import tracemalloc

        from magnitude import cli, line

        tracemalloc.start()
        try:
            if space == "interval":
                need = cli._LINE_POINT_BYTES * 20000
                carrier, n_grid = line.interval_weight_measure(2.0)[0], 20000
            else:
                need = cli._CANTOR_INTERVAL_BYTES << 12
                carrier, n_grid = line.cantor_level_set(1.0, 12), 2
            line.line_points_magnitude(line.finite_approx_points(carrier, n_grid))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= need

    @pytest.mark.parametrize("scale", ["linear", "geometric"])
    @pytest.mark.parametrize("points, budget", [(10**12, 8 << 30), (10**400, 8 << 30), (1000, 400 * 1000 - 1)],
                             ids=["1e12", "1e400", "one-byte-short"])
    def test_sweep_that_cannot_fit_exits_two_before_building(self, capsys, tmp_path, monkeypatch,
                                                             scale, points, budget):
        from magnitude import cli

        def never(*args):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(cli, "_available_bytes", lambda: budget)
        monkeypatch.setattr(cli, "linspace", never)
        monkeypatch.setattr(cli, "geomspace", never)
        spec = tmp_path / "sweep.spec"
        spec.write_text(f"space=interval\nmethod=closed\nstart=1\nstop=3\npoints={points}\nscale={scale}\n")
        out = tmp_path / "out.csv"
        code, stdout, err = run_cli(capsys, "sweep", "--spec", str(spec), "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert err == (f"MemoryError: a sweep of {points} points needs about 400 x {points} bytes; "
                       f"{budget} bytes are available\n")
        assert not out.exists()

    def test_sweep_that_fits_is_built(self, capsys, tmp_path, monkeypatch):
        from magnitude import cli

        monkeypatch.setattr(cli, "_available_bytes", lambda: 400 * 1000)
        spec = tmp_path / "sweep.spec"
        spec.write_text("space=interval\nmethod=closed\nstart=1\nstop=3\npoints=1000\n")
        out = tmp_path / "out.csv"
        code, _, err = run_cli(capsys, "sweep", "--spec", str(spec), "--out", str(out))
        assert code == 0, err
        assert len(out.read_text().splitlines()) == 1001

    @pytest.mark.parametrize("space", ["circle", "sphere-intrinsic"])
    def test_sweep_row_budget_covers_the_measured_peak(self, capsys, tmp_path, space):
        # 400 B a row covers what tracemalloc reads for the grid and the rows,
        # numbers of 17 digits with exponents in all three columns.
        import tracemalloc

        from magnitude import cli

        method = "finite-5" if space == "circle" else "closed\ndim=3"
        spec = tmp_path / "sweep.spec"
        out = str(tmp_path / "out.csv")
        # The 3-point sweep runs first, so that first-use allocations are
        # not counted in the 20000-point peak.
        for points in (3, 20000):
            spec.write_text(f"space={space}\nmethod={method}\nstart=1.234e-5\nstop=9.87e-3\n"
                            f"points={points}\nscale=geometric\n")
            tracemalloc.start()
            try:
                code = run(["sweep", "--spec", str(spec), "--out", out])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert code == 0
        assert peak <= cli._SWEEP_ROW_BYTES * 20000

    def test_available_bytes_reads_a_positive_count(self):
        from magnitude import cli

        available = cli._available_bytes()
        assert available is None or available > 0

    @pytest.mark.parametrize("length", ["1e200", "1e300"])
    def test_cantor_series_huge_length(self, capsys, length):
        code, out, _ = run_cli(capsys, "cantor", "--length", length, "--series")
        assert code == 0
        assert math.isfinite(float(out))

    def test_interval_approx_large_n(self, capsys):
        # O(N) in time and memory: the dense route needed a 1e5 x 1e5 matrix (75 GiB).
        code, out, _ = run_cli(capsys, "interval", "--length", "2", "--approx", "100000")
        assert code == 0
        h = 2.0 / 99999
        assert float(out) == pytest.approx(1.0 + 99999 * math.tanh(h / 2.0), rel=1e-12)

    def test_interval_approx_tiny_length(self, capsys):
        # The similarity matrix of this grid is too ill-conditioned for the dense solve.
        code, out, _ = run_cli(capsys, "interval", "--length", "1e-9", "--approx", "300")
        assert code == 0
        h = 1e-9 / 299
        assert float(out) == pytest.approx(1.0 + 299 * math.tanh(h / 2.0), rel=1e-12)

    def test_interval_takes_no_tol(self, capsys):
        # Neither the closed form nor the O(N) sum has a tolerance to set.
        code, out, err = run_cli(capsys, "interval", "--length", "1", "--approx", "10", "--tol", "1e-9")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --tol" in err

    @pytest.mark.parametrize("from_numpy", [False, True], ids=["MemoryError", "numpy"])
    def test_memory_error_exits_two(self, capsys, monkeypatch, from_numpy):
        exc = MemoryError("synthetic failure")
        if from_numpy:
            # numpy's out-of-memory error, a MemoryError subclass, built without allocating.
            import numpy as np

            try:
                from numpy._core._exceptions import _ArrayMemoryError
            except ImportError:  # numpy < 2
                from numpy.core._exceptions import _ArrayMemoryError
            exc = _ArrayMemoryError((100000, 100000), np.dtype(float))

        def boom(*args):
            raise exc

        monkeypatch.setitem(EVALUATORS, ("interval", "finite"), boom)
        code, out, err = run_cli(capsys, "interval", "--length", "1", "--approx", "100000")
        assert code == 2
        assert out == ""
        assert err.startswith(f"{type(exc).__name__}: ")


class TestNoWarningLeaks:
    """Out-of-range inputs exit 3 with the error class first on stderr and
    nothing on stdout; run as real processes, so a numpy warning would show."""

    @pytest.mark.parametrize("argv", [
        ["sphere", "--dim", "2", "--radius", "1e308", "--method", "quadrature"],
        ["asymptotics", "--metric", "intrinsic", "--dim", "2", "--orders", "3",
         "--tmin", "1e306", "--tmax", "8e306"],
        ["asymptotics", "--metric", "subspace", "--dim", "2", "--orders", "2",
         "--tmin", "1e306", "--tmax", "8e306"],
        ["asymptotics", "--metric", "subspace", "--dim", "2", "--orders", "2",
         "--tmin", "1.5e-109", "--tmax", "1.2e-108"],
        ["tube-check", "--dim", "3", "--radius", "1e308", "--epsilon", "1"],
        ["tube-check", "--dim", "3", "--radius", "1e-300", "--epsilon", "1e-301"],
        ["tube-check", "--dim", "1", "--radius", "1e6", "--epsilon", "1e-300"],
        # Past dim ~987 the recursive ball and sphere volumes ran out of stack.
        ["tube-check", "--dim", "1990", "--radius", "2", "--epsilon", "1"],
        # The predicted volume coefficient needs 171! as a float.
        ["asymptotics", "--metric", "intrinsic", "--dim", "171", "--orders", "3",
         "--tmin", "1", "--tmax", "8"],
    ], ids=["sphere-quadrature", "asymptotics-intrinsic", "asymptotics-subspace",
            "asymptotics-subspace-fit", "tube-check-overflow", "tube-check-tiny", "tube-check-thin-shell",
            "tube-check-large-dim", "asymptotics-prediction-overflow"])
    def test_out_of_range_exits_three_cleanly(self, tmp_path, argv):
        proc = run_python(["-m", "magnitude", *argv], tmp_path)
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("NonFiniteResult: ")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("argv, exact", [
        (["sphere", "--dim", "1990", "--radius", "2", "--metric", "subspace", "--method", "quadrature"],
         16.907322395593380),
    ], ids=["sphere-subspace-large-dim"])
    def test_large_dim_exits_zero_cleanly(self, tmp_path, argv, exact):
        # The sphere volumes in the quotient underflow from dim 455 on, where
        # it exited 3; the value is a 40-digit mpmath one.
        proc = run_python(["-m", "magnitude", *argv], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert float(proc.stdout) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("bounds", ["start=1\nstop=inf", "start=-1.7e308\nstop=1.7e308"],
                             ids=["infinite-stop", "span-overflow"])
    def test_nonfinite_sweep_grid_exits_two_cleanly(self, tmp_path, bounds):
        (tmp_path / "s.spec").write_text(f"space=interval\nmethod=closed\n{bounds}\npoints=3\n")
        proc = run_python(["-m", "magnitude", "sweep", "--spec", "s.spec", "--out", "o.csv"],
                          tmp_path)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("ValueError: s.spec: ")
        assert proc.stderr.count("\n") == 1
        assert not (tmp_path / "o.csv").exists()

    def test_geometric_sweep_to_the_double_maximum(self, tmp_path):
        # numpy's grid computed 10 ** log10(stop) before pinning the last
        # point, and warned that the power overflowed.
        (tmp_path / "s.spec").write_text("space=cantor\nmethod=closed\nstart=1\n"
                                         "stop=1.7976931348623157e308\npoints=3\nscale=geometric\n")
        proc = run_python(["-m", "magnitude", "sweep", "--spec", "s.spec", "--out", "o.csv"],
                          tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
        rows = list(csv.reader((tmp_path / "o.csv").read_text().splitlines()))[1:]
        assert [row[2] for row in rows][::2] == ["1", "1.7976931348623157e+308"]
        assert len(rows) == 3

    def test_distances_near_the_double_maximum(self, tmp_path):
        # Pair sums in the triangle check overflow to inf, which is no violation.
        (tmp_path / "big.csv").write_text("0,1.7e308\n1.7e308,0\n")
        proc = run_python(["-m", "magnitude", "finite", "--matrix", "big.csv"], tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "2,1\n", "")

    def test_sweep_scale_that_overflows_the_distances(self, tmp_path):
        (tmp_path / "m.csv").write_text("0,4.2e15\n4.2e15,0\n")
        (tmp_path / "s.spec").write_text(
            "space=finite-file\nmatrix=m.csv\nmethod=closed\nstart=1\nstop=1e300\npoints=3\n")
        proc = run_python(["-m", "magnitude", "sweep", "--spec", "s.spec", "--out", "o.csv"],
                          tmp_path)
        assert proc.returncode == 2
        assert proc.stderr == "ValueError: non-finite distance at row 0, column 1\n"

    def test_sweep_scale_that_underflows_the_distances(self, tmp_path):
        (tmp_path / "m.csv").write_text("0,1e-5\n1e-5,0\n")
        (tmp_path / "s.spec").write_text(
            "space=finite-file\nmatrix=m.csv\nmethod=closed\nstart=1e-320\nstop=1\npoints=3\n")
        proc = run_python(["-m", "magnitude", "sweep", "--spec", "s.spec", "--out", "o.csv"],
                          tmp_path)
        assert proc.returncode == 2
        assert proc.stderr == "ValueError: nonpositive distance between distinct points 0 and 1\n"
