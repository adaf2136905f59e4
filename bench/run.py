"""Benchmark of the `magnitude` command line, one fresh process per call.

Run from the repository root:

    python3 bench/run.py --workload cli-short --seed 1 --seconds 18 --trace 0

Workloads are cli-short, dense-files and structured-sweeps (see
workloads.py).  Every run is a closed loop: one client issues one
invocation, waits for it and issues the next.  Each invocation is a new
`python -m magnitude ...` process, so interpreter start and import count.

A run first compiles the package's bytecode, as an install would, then
makes SETUP_PASSES set-up passes of one small invocation per op kind, then
runs whole cycles of the workload until the timed invocations add up to
--seconds.  Outputs are checked against independent references
(reference.py) after timing.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
makes one set-up pass, then runs every invocation twice, plain and through
trace_driver.py, and reports the per-layer metrics per cycle: self times
of the layer spans, computed work counts, the traced wall time, what the
spans leave unaccounted and the tracing overhead.

Human-readable lines come first, including the environment record; the last
line is the JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import environment
import reference
import stats
import workloads

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "magnitude"
WORK = ROOT / ".bench_work"
DRIVER = Path(__file__).resolve().parent / "trace_driver.py"

SETUP_PASSES = 3
#: Calls still running this long after the start are killed and counted as
#: failed, and no further cycle starts, so a run ends within three minutes.
DEADLINE_S = 170.0

#: Per-layer times that, with trace.unaccounted_s, add up to trace.wall_s:
#: process start to the import, span self times, and the end of the last
#: span to the process being reaped (writing spans, interpreter exit).
ACCOUNTED = (
    "cli.start_s", "cli.exit_s", "cli.import_s", "cli.self_s", "finite.read_s",
    "finite.validate_s", "finite.solve_s", "finite.homogeneous_s", "finite.circle_build_s",
    "line.approx_s", "line.level_set_s", "line.series_s", "quadrature.integrate_s",
    "quadrature.quotient_s", "spheres.s", "asymptotics.extract_s",
)


@dataclass
class Call:
    op: workloads.Op
    wall: float
    returncode: int
    stdout: str
    stderr: str
    csv_text: str | None
    maxrss_kb: int
    started: float
    trace: dict | None = None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Subcommands must run at their documented default tolerances.
    env.pop("MAGNITUDE_DEFAULT_TOL", None)
    return env


class Runner:
    def __init__(self, env: dict[str, str]):
        self.env = env
        self.started = time.monotonic()
        self.count = 0

    def expired(self) -> bool:
        return time.monotonic() - self.started > DEADLINE_S

    def call(self, op: workloads.Op, traced: bool = False) -> Call:
        """Run one invocation; prepare its inputs first, outside the timing."""
        if op.prepare is not None:
            op.prepare()
        self.count += 1
        spans_path = WORK / f"spans-{self.count}.json"
        if traced:
            cmd = [sys.executable, str(DRIVER), str(spans_path), *op.argv]
        else:
            cmd = [sys.executable, "-m", "magnitude", *op.argv]
        out_path, err_path = WORK / "stdout", WORK / "stderr"
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=WORK, env=self.env)
            remaining = max(1.0, DEADLINE_S - (time.monotonic() - self.started))
            watchdog = threading.Timer(remaining, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout = out.read().decode("utf-8", "replace")
            stderr = err.read().decode("utf-8", "replace")
        csv_text = None
        if op.out_name is not None:
            path = WORK / op.out_name
            if path.exists():
                csv_text = path.read_text(encoding="utf-8")
                path.unlink()
        for name in op.inputs:
            (WORK / name).unlink(missing_ok=True)
        trace = None
        if traced and spans_path.exists():
            trace = json.loads(spans_path.read_text(encoding="utf-8"))
            spans_path.unlink()
        return Call(op, wall, proc.returncode, stdout, stderr, csv_text, usage.ru_maxrss, start, trace)


def failure(call: Call) -> str | None:
    """Why an invocation failed, or None if its output is correct."""
    if call.returncode != 0:
        return f"exit {call.returncode}: {call.stderr.strip()[-300:]}"
    try:
        call.op.check(call.stdout, call.csv_text)
    except reference.Mismatch as exc:
        return str(exc)
    return None


def set_up(runner: Runner, workload: str, seed: int, passes: int) -> tuple[list[Call], list[float]]:
    calls, walls = [], []
    for index in range(passes):
        done = [runner.call(op) for op in workloads.setup_pass(workload, seed, index, WORK)]
        calls += done
        walls.append(sum(c.wall for c in done))
    return calls, walls


def timed_cycles(runner: Runner, workload: str, seed: int, seconds: float, traced: bool):
    """Whole cycles until the timed invocations add up to `seconds`.

    Returns (plain calls, traced calls, cycles).  Traced runs pair every
    plain invocation with a traced one of the same op.
    """
    plain, traced_calls = [], []
    elapsed, cycles = 0.0, 0
    while elapsed < seconds and not runner.expired():
        for op in workloads.cycle(workload, seed, cycles, WORK):
            call = runner.call(op)
            plain.append(call)
            elapsed += call.wall
            if traced:
                twin = runner.call(op, traced=True)
                traced_calls.append(twin)
                elapsed += twin.wall
        cycles += 1
    return plain, traced_calls, cycles


def end_to_end(setup_walls: list[float], timed: list[Call], ok: list[bool]) -> dict[str, float]:
    walls = [c.wall for c in timed]
    delivered = sum(c.op.values for c, good in zip(timed, ok) if good)
    return {
        "setup_s": statistics.median(setup_walls),
        "evals_per_s": delivered / sum(walls),
        "call_p50_s": statistics.median(walls),
        "peak_rss_mb": max(c.maxrss_kb for c in timed) / 1024.0,
    }


def describe_calls(setup_walls: list[float], timed: list[Call]) -> None:
    """Print what the gated metrics summarise: set-up passes, per-kind medians, the tail."""
    walls = [c.wall for c in timed]
    print(f"call_p50_s over {len(walls)} calls; setup_s is the median of {len(setup_walls)} passes: "
          + " ".join(f"{w:.4f}" for w in setup_walls))
    kinds: dict[str, list[float]] = {}
    for call in timed:
        kinds.setdefault(call.op.kind, []).append(call.wall)
    for kind, times in kinds.items():
        print(f"  {kind}: {len(times)} calls, median {statistics.median(times):.4f} s")
    tail = stats.tail(walls)
    if tail is None:
        print(f"call_tail_s undefined: {len(walls)} calls leave no percentile with "
              f"{stats.TAIL_BEYOND} beyond it")
    else:
        print(f"call_tail_s {tail[0]:.6f} s at p{tail[1]:.1f} of {len(walls)} calls")


def per_layer(plain: list[Call], traced: list[Call], cycles: int) -> dict[str, float]:
    """Per-cycle layer metrics; a layer the workload never reaches is absent."""
    totals: dict[str, float] = {}

    def add(name: str, amount: float) -> None:
        totals[name] = totals.get(name, 0.0) + amount

    for call in traced:
        if call.trace is None:
            continue
        spans = call.trace["spans"]
        for span, own in zip(spans, stats.self_times(spans)):
            add(span[0], own)
        if spans:
            # perf_counter is CLOCK_MONOTONIC on Linux, shared by parent and child.
            add("cli.start_s", spans[0][1] - call.started)
            add("cli.exit_s", call.started + call.wall - max(s[2] for s in spans))
        for name, amount in call.trace["counts"].items():
            add(name, amount)
    nodes = totals.get("quadrature.nodes", 0.0)
    accepted = totals.pop("quadrature.accepted_nodes", 0.0)
    out = {name: value / cycles for name, value in totals.items()}
    # With no quadrature nodes there is nothing to waste; report 0.
    out["quadrature.useful_node_share"] = accepted / nodes if nodes else 0.0
    out["cli.invocations"] = len(traced) / cycles
    out["trace.wall_s"] = sum(c.wall for c in traced) / cycles
    out["trace.overhead_s"] = out["trace.wall_s"] - sum(c.wall for c in plain) / cycles
    out["trace.unaccounted_s"] = out["trace.wall_s"] - sum(out.get(k, 0.0) for k in ACCOUNTED)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    if not (PACKAGE / "__init__.py").is_file():
        print(f"no program source at {PACKAGE}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = child_env()
    passes = 1 if args.trace else SETUP_PASSES

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        if not compileall.compile_dir(PACKAGE, quiet=1):
            print("compiling the package failed", file=sys.stderr)
            return 2
        runner = Runner(env)
        warm, setup_walls = set_up(runner, args.workload, args.seed, passes)
        plain, traced, cycles = timed_cycles(runner, args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    print("env " + json.dumps(environment.record(ROOT, args.seed, env), sort_keys=True))
    attempted = warm + plain + traced
    reasons = [failure(c) for c in attempted]
    for call, reason in zip(attempted, reasons):
        if reason is not None:
            print(f"FAILED {' '.join(call.op.argv)}: {reason}", file=sys.stderr)
    failed = sum(r is not None for r in reasons)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {cycles} cycles, "
          f"{len(plain)} timed calls, {len(warm)} set-up calls in {passes} passes")
    if args.trace:
        layers = per_layer(plain, traced, cycles)
        # A layer the workload never reaches has no spans and no counts: 0.
        values = {m["name"]: layers.get(m["name"], 0.0) for m in spec["per_layer"]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print(f"per cycle; {', '.join(ACCOUNTED)} and trace.unaccounted_s add up to trace.wall_s")
    else:
        ok_plain = [r is None for r in reasons[len(warm):len(warm) + len(plain)]]
        values = end_to_end(setup_walls, plain, ok_plain)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        describe_calls(setup_walls, plain)
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"{name:28s} {metric['value']:.6g} {metric['unit']}")
    print(f"error_rate {failed / len(attempted):.6g} ratio ({failed} of {len(attempted)} calls failed)")
    print(json.dumps({"correct": failed == 0, "attempted": len(attempted), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
