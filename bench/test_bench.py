"""Tests of the benchmark's own code.

Run from the repository root:  python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference as ref
import run
import stats
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PREDICTIONS = json.loads((Path(__file__).parent / "predictions.json").read_text(encoding="utf-8"))


# --- seeded inputs ----------------------------------------------------------------


def generated(workload: str, seed: int, workdir: Path) -> tuple[list[list[str]], dict[str, bytes]]:
    workdir.mkdir()
    ops = workloads.setup_pass(workload, seed, 0, workdir) + workloads.cycle(workload, seed, 0, workdir)
    for op in ops:
        if op.prepare is not None:
            op.prepare()
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return [op.argv for op in ops], files


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    first = generated(workload, 5, tmp_path / "a")
    assert first == generated(workload, 5, tmp_path / "b")
    assert first != generated(workload, 6, tmp_path / "c")


def test_cycles_and_passes_draw_fresh_parameters(tmp_path):
    argv = lambda ops: [op.argv for op in ops]
    assert argv(workloads.cycle("cli-short", 1, 0, tmp_path)) != argv(workloads.cycle("cli-short", 1, 1, tmp_path))
    assert argv(workloads.setup_pass("cli-short", 1, 0, tmp_path)) != argv(
        workloads.setup_pass("cli-short", 1, 1, tmp_path)
    )


def test_setup_pass_has_one_op_per_kind(tmp_path):
    for workload in workloads.WORKLOADS:
        kinds = [op.kind for op in workloads.cycle(workload, 1, 0, tmp_path)]
        warm = [op.kind for op in workloads.setup_pass(workload, 1, 0, tmp_path)]
        assert warm == list(dict.fromkeys(kinds))


# --- spans and order statistics ---------------------------------------------------


def test_self_time_subtracts_nested_children():
    spans = [
        ["root", 0.0, 10.0, None],
        ["child", 1.0, 4.0, 0],
        ["grandchild", 2.0, 3.0, 1],
        ["child", 5.0, 7.0, 0],
    ]
    assert stats.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_counts_overlapping_children_once():
    spans = [["root", 0.0, 10.0, None], ["a", 0.0, 4.0, 0], ["b", 2.0, 6.0, 0], ["c", 9.0, 12.0, 0]]
    # a and b cover [0, 6]; c is clipped to the parent at 10.
    assert stats.self_times(spans)[0] == pytest.approx(3.0)


def test_tail_needs_ten_samples_beyond():
    assert stats.tail([1.0] * 10) is None
    value, percentile = stats.tail([float(i) for i in range(11, 0, -1)])
    assert value == 1.0 and percentile == pytest.approx(100.0 / 11)
    values = [float(i) for i in range(1, 41)]
    value, percentile = stats.tail(values)
    assert sum(v > value for v in values) == 10
    assert value == 30.0 and percentile == 75.0


def test_layer_times_and_unaccounted_add_up_to_wall():
    op = workloads.interval_op(2.0, None)
    trace = {
        "spans": [["cli.import_s", 10.1, 10.4, None], ["cli.self_s", 10.5, 10.9, None],
                  ["finite.solve_s", 10.6, 10.7, 1]],
        "counts": {"finite.solves": 1},
    }
    traced = run.Call(op, 1.0, 0, "", "", None, 0, 10.0, trace)
    plain = run.Call(op, 0.75, 0, "", "", None, 0, 20.0)
    layers = run.per_layer([plain], [traced], 1)
    assert layers["cli.start_s"] == pytest.approx(0.1)
    assert layers["cli.exit_s"] == pytest.approx(0.1)
    assert layers["cli.self_s"] == pytest.approx(0.3)
    assert layers["trace.overhead_s"] == pytest.approx(0.25)
    accounted = sum(layers[name] for name in run.ACCOUNTED if name in layers)
    assert accounted + layers["trace.unaccounted_s"] == pytest.approx(layers["trace.wall_s"])
    assert layers["trace.unaccounted_s"] == pytest.approx(0.1)


# --- reference checks -------------------------------------------------------------


def checked_ops(tmp_path) -> list[workloads.Op]:
    """Every op kind: the full cli-short cycle, the small passes of the others."""
    ops = workloads.cycle("cli-short", 3, 0, tmp_path)
    for workload in ("dense-files", "structured-sweeps"):
        ops += workloads.setup_pass(workload, 3, 0, tmp_path)
    return ops


def beyond(target: ref.Target, sign: float) -> float:
    return target.value + sign * 2.0 * (target.rtol * abs(target.value) + target.atol + 1e-300)


def test_each_checker_rejects_values_beyond_tolerance(tmp_path):
    for op in checked_ops(tmp_path):
        targets = op.check.targets(None)
        exact = [t.value for t in targets]
        ref.compare(exact, targets)
        picks = sorted({0, len(targets) // 2, len(targets) - 1})
        for i in picks:
            for sign in (1.0, -1.0):
                got = list(exact)
                got[i] = beyond(targets[i], sign)
                with pytest.raises(ref.Mismatch):
                    ref.compare(got, targets)


def test_scalar_and_field_outputs_parse_strictly():
    check = ref.scalar_check(lambda: 2.0, ref.CLOSED_RTOL)
    check("2\n", None)
    for bad in ("nan\n", "inf\n", "2\n2\n", "", "two\n", "2.0000001\n"):
        with pytest.raises(ref.Mismatch):
            check(bad, None)
    finite = ref.finite_check(lambda: 5.0)
    finite("5,0.01\n", None)
    for bad in ("5\n", "5,0\n", "5,2\n", "5.1,0.01\n"):
        with pytest.raises(ref.Mismatch):
            finite(bad, None)


def sweep_text(grid, values, header=ref.SWEEP_HEADER):
    rows = [",".join(header)]
    rows += [f"interval,length,{workloads.fmt(p)},closed,{workloads.fmt(v)},0" for p, v in zip(grid, values)]
    return "\n".join(rows) + "\n"


def test_sweep_check_follows_grid_and_reference():
    grid = ref.geometric_grid(1.0, 10.0, 4)
    check = ref.sweep_check(grid, ref.interval, ref.CLOSED_RTOL)
    exact = [ref.interval(p) for p in grid]
    check("", sweep_text(grid, exact))
    bad_value = exact[:2] + [exact[2] * (1 + 1e-9)] + exact[3:]
    for text in (
        sweep_text(grid, bad_value),
        sweep_text(grid[:3], exact[:3]),
        sweep_text([grid[0] * 1.001] + grid[1:], exact),
        sweep_text(grid, exact, header=ref.SWEEP_HEADER[::-1]),
        None,
    ):
        with pytest.raises(ref.Mismatch):
            check("", text)


def test_asymptotics_check_reads_power_rows():
    check = ref.asymptotics_check(2, "intrinsic", 3)
    good = "power,extracted,predicted,spread\n2,2,2,0\n1,1e-13,0,1e-14\n0,2,2,0\n"
    check(good, None)
    for bad in (good.replace("1,1e-13", "1,1e-7"), good.replace("0,2,2,0", "0,2,2,-1"),
                good.replace("\n0,", "\n3,")):
        with pytest.raises(ref.Mismatch):
            check(bad, None)


def test_closed_forms_agree_with_known_values():
    # 2-sphere, geodesic: 2 (R^2 + 1) / (1 + e^(-pi R)); chord metric at dim 2.
    R = 1.5
    assert ref.sphere_intrinsic(2, R) == pytest.approx(2 * (R * R + 1) / (1 + math.exp(-math.pi * R)), rel=1e-15)
    chord = 2 * R * R / (1 - math.exp(-2 * R) * (1 + 2 * R))
    assert ref.sphere_subspace(2, R) == pytest.approx(chord, rel=1e-14)
    # Two points at distance g: 1 + tanh(g/2); a circle grid of two points likewise.
    assert ref.uniform_grid(3.0, 2) == pytest.approx(1 + math.tanh(1.5), rel=1e-15)
    assert ref.circle_points(4.0, 2) == pytest.approx(2 / (1 + math.exp(-2.0)), rel=1e-15)
    assert ref.cantor_endpoints(3.0, 0) == pytest.approx(1 + math.tanh(1.5), rel=1e-15)
    assert ref.cantor_removal(3.0, 0) == pytest.approx(2.5, rel=1e-15)
    pair = np.array([[0.0, 3.0], [3.0, 0.0]])
    assert ref.dense(pair) == pytest.approx(1 + math.tanh(1.5), rel=1e-15)
    assert ref.dense(pair, 0.5) == pytest.approx(1 + math.tanh(0.75), rel=1e-15)


# --- trace driver -----------------------------------------------------------------


def test_traced_invocation_prints_what_the_plain_one_prints(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("MAGNITUDE_DEFAULT_TOL", None)
    argv = ["interval", "--length", "3", "--approx", "40"]
    plain = subprocess.run([sys.executable, "-m", "magnitude", *argv], capture_output=True, text=True, env=env)
    spans_path = tmp_path / "spans.json"
    traced = subprocess.run(
        [sys.executable, str(run.DRIVER), str(spans_path), *argv], capture_output=True, text=True, env=env
    )
    assert plain.returncode == 0
    assert traced.returncode == 0 and traced.stdout == plain.stdout
    trace = json.loads(spans_path.read_text())
    names = [s[0] for s in trace["spans"]]
    assert names[:2] == ["cli.import_s", "cli.self_s"]
    # line.approx_s holds the FiniteMetricSpace span: line's own reference was replaced.
    parents = {i: s[3] for i, s in enumerate(trace["spans"])}
    validate = names.index("finite.validate_s")
    assert names[parents[validate]] == "line.approx_s"
    assert trace["counts"]["line.approx_grid"] == 40
    assert trace["counts"]["finite.solves"] == 1
    layer_names = {m["name"] for m in SPEC["per_layer"]}
    assert set(names) | (set(trace["counts"]) - {"quadrature.accepted_nodes"}) <= layer_names


# --- BENCHMARK.json and the prediction table ----------------------------------------


def test_prediction_table_names_known_metrics_and_workloads():
    layer = {m["name"] for m in SPEC["per_layer"]}
    end = {m["name"] for m in SPEC["end_to_end"]} | set(PREDICTIONS["reported_only"])
    names = {w["name"] for w in SPEC["workloads"]}
    assert names == set(workloads.WORKLOADS)
    covered = set()
    for row in PREDICTIONS["layers"]:
        assert set(row["metrics"]) <= layer
        assert set(row["moves"]) <= end
        assert set(row["on"]) <= names and set(row["bypass"]) <= names
        covered |= set(row["metrics"])
    assert covered == layer


def test_bounds_follow_the_contract():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
