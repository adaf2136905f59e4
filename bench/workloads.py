"""The three workloads: seeded `magnitude` invocations and their checks.

A workload is a closed loop over cycles.  Each cycle is a fixed list of op
kinds whose parameters and input files are drawn from a generator seeded
by (seed, workload, cycle), so the same seed gives the same inputs and no
two invocations in a run share them.  The set-up pass draws one small op
of each kind from its own stream.

Why these three:

- cli-short: single-value subcommands that do under 10 ms of numerics
  each, so interpreter start and import set the latency.  The dense
  `finite` and `line` paths do almost nothing here.
- dense-files: `finite --matrix` on point-cloud distance files plus one
  rescaling sweep.  CSV parsing and the O(n^3) triangle check dominate the
  single-file calls; the sweep validates once and solves 24 times, so cost
  moved between validation and solving shows on one op kind or the other.
- structured-sweeps: line grids, Cantor endpoint sets, circle grids and
  sphere quadrature over radii spanning the pre-split threshold R = 50.
  No triangle check runs; it holds the largest arrays and the most rows.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref


@dataclass
class Op:
    """One `magnitude` invocation.

    argv follows `python -m magnitude`; file arguments are names inside the
    work directory, which is the child's working directory.  values is the
    number of magnitude values a correct output delivers.  prepare writes
    the input files; out_name is the CSV a sweep writes.
    """

    kind: str
    argv: list[str]
    values: int
    check: ref.Check
    prepare: Callable[[], None] | None = None
    inputs: tuple[str, ...] = ()
    out_name: str | None = None


def fmt(x: float) -> str:
    return format(float(x), ".17g")


class Files:
    """Unique file names in the work directory for one pass or cycle."""

    def __init__(self, workdir: Path, tag: str):
        self.workdir = workdir
        self.tag = tag
        self.count = 0

    def name(self, suffix: str) -> str:
        self.count += 1
        return f"{self.tag}-{self.count}{suffix}"

    def path(self, name: str) -> Path:
        return self.workdir / name


# --- op factories -------------------------------------------------------------


def sphere_op(method: str, metric: str, dim: int, radius: float) -> Op:
    if metric == "intrinsic":
        value = lambda: ref.sphere_intrinsic(dim, radius)
    else:
        value = lambda: ref.sphere_subspace(dim, radius)
    rtol = ref.CLOSED_RTOL if method == "closed" else ref.QUAD_RTOL
    argv = ["sphere", "--dim", str(dim), "--radius", fmt(radius), "--metric", metric, "--method", method]
    return Op(f"sphere-{method}", argv, 1, ref.scalar_check(value, rtol))


def interval_op(length: float, points: int | None) -> Op:
    argv = ["interval", "--length", fmt(length)]
    if points is None:
        return Op("interval", argv, 1, ref.scalar_check(lambda: ref.interval(length), ref.CLOSED_RTOL))
    argv += ["--approx", str(points)]
    check = ref.scalar_check(lambda: ref.uniform_grid(length, points), ref.SOLVE_RTOL)
    return Op("interval-approx", argv, 1, check)


def circle_op(circumference: float, points: int | None) -> Op:
    argv = ["circle", "--circumference", fmt(circumference)]
    if points is None:
        return Op("circle", argv, 1, ref.scalar_check(lambda: ref.circle(circumference), ref.CLOSED_RTOL))
    argv += ["--points", str(points)]
    check = ref.scalar_check(lambda: ref.circle_points(circumference, points), ref.SOLVE_RTOL)
    return Op("circle-points", argv, 1, check)


def cantor_series_op(length: float, tol: float = 1e-12) -> Op:
    argv = ["cantor", "--length", fmt(length), "--series", "--tol", fmt(tol)]
    # The series is truncated once its tail bound is below tol.
    check = ref.scalar_check(lambda: ref.cantor_series(length), ref.CLOSED_RTOL, tol)
    return Op("cantor-series", argv, 1, check)


def cantor_iterative_op(length: float, depth: int) -> Op:
    argv = ["cantor", "--length", fmt(length), "--iterative", "--depth", str(depth)]
    check = ref.scalar_check(lambda: ref.cantor_removal(length, depth), ref.CLOSED_RTOL)
    return Op("cantor-iterative", argv, 1, check)


def tube_op(dim: int, radius: float, epsilon: float) -> Op:
    argv = ["tube-check", "--dim", str(dim), "--radius", fmt(radius), "--epsilon", fmt(epsilon)]
    return Op("tube-check", argv, 1, ref.tube_check(dim, radius, epsilon))


def asymptotics_op(metric: str, dim: int, orders: int, tmin: float) -> Op:
    # tmax = 8 tmin gives the four-point doubling grid both metrics accept.
    argv = [
        "asymptotics", "--dim", str(dim), "--metric", metric, "--orders", str(orders),
        "--tmin", fmt(tmin), "--tmax", fmt(8.0 * tmin),
    ]
    return Op("asymptotics", argv, orders, ref.asymptotics_check(dim, metric, orders))


def point_cloud_distances(seed: int, n: int) -> np.ndarray:
    """Euclidean distances of n uniform points in a square of side sqrt(n)/2.

    The side keeps the mean spacing near 1/2 at every n, so the similarity
    matrices stay comfortably above the solver's condition floor.
    """
    points = np.random.default_rng(seed).random((n, 2)) * (0.5 * np.sqrt(n))
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def write_matrix(path: Path, seed: int, n: int) -> None:
    # %.17g round-trips every double, so the program reads exactly these values.
    np.savetxt(path, point_cloud_distances(seed, n), fmt="%.17g", delimiter=",")


def finite_op(files: Files, rng: np.random.Generator, n: int) -> Op:
    seed = int(rng.integers(2**63))
    name = files.name(".csv")
    check = ref.finite_check(lambda: ref.dense(point_cloud_distances(seed, n)))
    return Op(
        "finite", ["finite", "--matrix", name], 1, check,
        prepare=lambda: write_matrix(files.path(name), seed, n), inputs=(name,),
    )


def sweep_op(
    files: Files,
    space: str,
    method: str,
    start: float,
    stop: float,
    points: int,
    value: Callable[[float], float],
    rtol: float,
    extra: dict[str, str] | None = None,
    prepare_extra: Callable[[], None] | None = None,
    extra_inputs: tuple[str, ...] = (),
) -> Op:
    """`sweep` over a geometric grid; value(param) is the reference magnitude."""
    spec_name, out_name = files.name(".spec"), files.name(".out.csv")
    fields = {"space": space, "method": method, "start": fmt(start), "stop": fmt(stop),
              "points": str(points), "scale": "geometric", **(extra or {})}
    text = "".join(f"{k}={v}\n" for k, v in fields.items())

    def prepare():
        if prepare_extra is not None:
            prepare_extra()
        files.path(spec_name).write_text(text, encoding="utf-8")

    check = ref.sweep_check(ref.geometric_grid(start, stop, points), value, rtol)
    return Op(
        f"sweep-{space}", ["sweep", "--spec", spec_name, "--out", out_name], points, check,
        prepare=prepare, inputs=(spec_name, *extra_inputs), out_name=out_name,
    )


def finite_sweep_op(files: Files, rng: np.random.Generator, n: int, points: int) -> Op:
    seed = int(rng.integers(2**63))
    matrix = files.name(".csv")

    @lru_cache(maxsize=1)
    def distances():
        return point_cloud_distances(seed, n)

    return sweep_op(
        files, "finite-file", "closed", 0.05, 1.0, points,
        lambda t: ref.dense(distances(), t), ref.SOLVE_RTOL,
        extra={"matrix": matrix},
        prepare_extra=lambda: write_matrix(files.path(matrix), seed, n),
        extra_inputs=(matrix,),
    )


# --- workloads ----------------------------------------------------------------


def cli_short(rng: np.random.Generator, files: Files, small: bool = False) -> list[Op]:
    # Every op here is already small, so set-up passes draw the same kinds.
    u, i = rng.uniform, rng.integers
    radius = u(1, 5)
    return [
        sphere_op("closed", "intrinsic", int(i(1, 7)), u(0.5, 10)),
        sphere_op("closed", "subspace", 2, u(0.5, 10)),
        sphere_op("quadrature", "intrinsic", int(i(2, 6)), u(0.5, 10)),
        sphere_op("quadrature", "subspace", int(rng.choice([2, 4])), u(0.5, 10)),
        interval_op(u(0.1, 10), None),
        interval_op(u(0.5, 10), int(i(200, 401))),
        circle_op(u(0.5, 20), None),
        circle_op(u(1, 20), int(i(200, 401))),
        cantor_series_op(u(0.5, 10)),
        cantor_iterative_op(u(0.5, 10), int(i(5, 61))),
        tube_op(int(i(1, 6)), radius, radius * u(0.1, 0.9)),
        asymptotics_op("intrinsic", int(i(2, 6)), 3, u(8, 12)),
        asymptotics_op("subspace", int(i(2, 5)), 2, u(8, 12)),
    ]


def dense_files(rng: np.random.Generator, files: Files, small: bool = False) -> list[Op]:
    sizes, sweep_n, scales = ((100,), 100, 4) if small else ((400, 800, 1200), 800, 24)
    return [finite_op(files, rng, n) for n in sizes] + [finite_sweep_op(files, rng, sweep_n, scales)]


def structured_sweeps(rng: np.random.Generator, files: Files, small: bool = False) -> list[Op]:
    u = rng.uniform
    if small:
        line_n, depth, circle_n, rows, circle_rows, quad_rows = 100, 4, 100, 2, 2, 20
    else:
        # Sized so the circle sweep is the median call, with wide gaps to the
        # line sweeps below and the quadrature sweeps above, and quadrature
        # rows hold over a quarter of the traced time.
        line_n, depth, circle_n, rows, circle_rows, quad_rows = 2000, 10, 3000, 2, 3, 16000
    # Radii run from about 1 to about 200, across the pre-split threshold R = 50.
    return [
        sweep_op(files, "interval", f"finite-{line_n}", u(0.8, 1.2), u(8, 12), rows,
                 lambda L: ref.uniform_grid(L, line_n), ref.SOLVE_RTOL),
        sweep_op(files, "cantor", f"finite-{depth}", u(0.8, 1.2), u(8, 12), rows,
                 lambda L: ref.cantor_endpoints(L, depth), ref.SOLVE_RTOL),
        sweep_op(files, "circle", f"finite-{circle_n}", u(1, 2), u(15, 25), circle_rows,
                 lambda c: ref.circle_points(c, circle_n), ref.SOLVE_RTOL),
        sweep_op(files, "sphere-intrinsic", "quadrature", u(0.8, 1.2), u(150, 250), quad_rows,
                 lambda R: ref.sphere_intrinsic(3, R), ref.QUAD_RTOL, extra={"dim": "3"}),
        sweep_op(files, "sphere-subspace", "quadrature", u(0.8, 1.2), u(150, 250), quad_rows,
                 lambda R: ref.sphere_subspace(2, R), ref.QUAD_RTOL, extra={"dim": "2"}),
    ]


WORKLOADS = {
    "cli-short": cli_short,
    "dense-files": dense_files,
    "structured-sweeps": structured_sweeps,
}


def generator(seed: int, workload: str, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode()), stream])


def setup_pass(workload: str, seed: int, index: int, workdir: Path) -> list[Op]:
    """One small op of each kind, in cycle order."""
    ops = WORKLOADS[workload](generator(seed, workload, index), Files(workdir, f"s{index}"), small=True)
    seen, out = set(), []
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            out.append(op)
    return out


def cycle(workload: str, seed: int, index: int, workdir: Path) -> list[Op]:
    # Streams 0..999 belong to set-up passes.
    return WORKLOADS[workload](generator(seed, workload, 1000 + index), Files(workdir, f"c{index}"))
