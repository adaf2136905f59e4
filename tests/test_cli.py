"""Tests for the command-line interface."""

import csv
import math
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from magnitude import errors
from magnitude.cli import CSV_HEADER, EVALUATORS, TOL_ENV_VAR, parse_sweep_spec, run


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

    def test_env_var_overrides_default_tol(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv(TOL_ENV_VAR, raising=False)
        p = tmp_path / "d.csv"
        d = 2.2e-11
        p.write_text(f"0,{d}\n{d},0\n")
        code, _, err = run_cli(capsys, "finite", "--matrix", str(p))
        assert code == 3  # rcond ~ 1e-11 is below the default 1e-10
        monkeypatch.setenv(TOL_ENV_VAR, "1e-13")
        code, out, _ = run_cli(capsys, "finite", "--matrix", str(p))
        assert code == 0


class TestAsymptoticsCommand:
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
    """One check: a tolerance from --tol, a sweep's tol= or the environment
    variable is positive and finite, else exit 2."""

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1e-9"])
    @pytest.mark.parametrize("argv", [
        ("cantor", "--length", "1", "--series"),
        ("sphere", "--dim", "2", "--radius", "1", "--method", "quadrature"),
        ("asymptotics", "--dim", "3", "--metric", "subspace", "--orders", "2",
         "--tmin", "20", "--tmax", "80"),
    ], ids=lambda argv: argv[0])
    def test_flag(self, capsys, monkeypatch, argv, tol):
        monkeypatch.delenv(TOL_ENV_VAR, raising=False)
        code, out, err = run_cli(capsys, *argv, f"--tol={tol}")
        assert code == 2
        assert out == ""
        assert err.startswith("ValueError: --tol must be positive and finite")

    def test_flag_of_finite(self, capsys, monkeypatch, tmp_path):
        monkeypatch.delenv(TOL_ENV_VAR, raising=False)
        p = tmp_path / "d.csv"
        p.write_text("0,1\n1,0\n")
        code, out, err = run_cli(capsys, "finite", "--matrix", str(p), "--tol", "inf")
        assert code == 2
        assert out == ""
        assert err.startswith("ValueError: --tol must be positive and finite")

    @pytest.mark.parametrize("method", ["closed", "finite-4"])
    def test_sweep_spec(self, capsys, monkeypatch, tmp_path, method):
        monkeypatch.delenv(TOL_ENV_VAR, raising=False)
        spec = tmp_path / "sweep.spec"
        spec.write_text(f"space=cantor\nmethod={method}\nstart=1\nstop=2\npoints=2\ntol=inf\n")
        out = tmp_path / "out.csv"
        code, _, err = run_cli(capsys, "sweep", "--spec", str(spec), "--out", str(out))
        assert code == 2
        assert err.startswith("ValueError: ")
        assert not out.exists()

    @pytest.mark.parametrize("raw", ["inf", "nan", "0"])
    def test_environment_variable(self, capsys, monkeypatch, tmp_path, raw):
        monkeypatch.setenv(TOL_ENV_VAR, raw)
        code, out, err = run_cli(capsys, "cantor", "--length", "1", "--series")
        assert code == 2
        assert out == ""
        assert err.startswith(f"ValueError: {TOL_ENV_VAR} must be positive and finite")
        spec = tmp_path / "sweep.spec"
        spec.write_text("space=interval\nmethod=closed\nstart=1\nstop=2\npoints=2\n")
        code, _, err = run_cli(capsys, "sweep", "--spec", str(spec), "--out", str(tmp_path / "o.csv"))
        assert code == 2
        assert err.startswith("ValueError: ")


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
        ]
        for text in cases:
            spec = self.write_spec(tmp_path, text)
            code, _, err = run_cli(capsys, "sweep", "--spec", str(spec), "--out", str(tmp_path / "o.csv"))
            assert code == 2, text
            assert err

    def test_parse_sweep_spec_values(self, tmp_path):
        spec = self.write_spec(
            tmp_path,
            "# comment line\nspace=circle\nmethod=finite-32\n"
            "start=1\nstop=10\npoints=4\nscale=geometric\n",
        )
        parsed = parse_sweep_spec(spec)
        assert parsed.space == "circle"
        assert parsed.param_name == "circumference"
        assert parsed.grid().tolist() == pytest.approx([1.0, 10 ** (1 / 3), 10 ** (2 / 3), 10.0])


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
            from magnitude.cli import run

            def scipy_modules():
                return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

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
            print(codes, scipy_modules(), "concurrent.futures" in sys.modules)
            with contextlib.redirect_stdout(io.StringIO()):
                code = run(["finite", "--matrix", "d.csv"])
            print(code, "scipy.linalg" in sys.modules)
        """)
        proc = run_python(["-c", code], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[0, 0, 0, 0, 0, 0, 0, 0, 0] [] False", "0 True"]


class TestClosedFormsWithoutNumpy:
    def test_closed_form_routes_import_neither_numpy_nor_scipy(self, tmp_path):
        code = textwrap.dedent("""
            import contextlib, io, sys

            def array_modules():
                return sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))

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
                with contextlib.redirect_stdout(io.StringIO()):
                    code = run(argv)
                print(code, array_modules())
            from magnitude import FiniteMetricSpace
            print(FiniteMetricSpace([[0.0, 1.0], [1.0, 0.0]]).n, "numpy" in sys.modules)
        """)
        proc = run_python(["-c", code], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]"] + ["0 []"] * 7 + ["2 True"]


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
        ["sphere", "--dim", "1990", "--radius", "2", "--metric", "subspace", "--method", "quadrature"],
        # The predicted volume coefficient needs 171! as a float.
        ["asymptotics", "--metric", "intrinsic", "--dim", "171", "--orders", "3",
         "--tmin", "1", "--tmax", "8"],
    ], ids=["sphere-quadrature", "asymptotics-intrinsic", "asymptotics-subspace",
            "asymptotics-subspace-fit", "tube-check-overflow", "tube-check-tiny", "tube-check-thin-shell",
            "tube-check-large-dim", "sphere-subspace-large-dim", "asymptotics-prediction-overflow"])
    def test_out_of_range_exits_three_cleanly(self, tmp_path, argv):
        proc = run_python(["-m", "magnitude", *argv], tmp_path)
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("NonFiniteResult: ")
        assert proc.stderr.count("\n") == 1

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
