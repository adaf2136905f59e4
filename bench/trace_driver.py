"""Run one `magnitude` invocation and record spans at its layer boundaries.

    python trace_driver.py SPANS.json ARG...

behaves like `python -m magnitude ARG...` (same stdout, stderr and exit
code) and writes SPANS.json when the invocation ends:

    {"spans": [[metric, start, end, parent], ...], "counts": {name: number}}

A span is named after the per-layer metric its self time adds to; parent
is the index of the enclosing span or null.  The public functions are
replaced with recording wrappers in every `magnitude` module namespace that
holds them (`line`, for example, keeps its own reference to
FiniteMetricSpace), so calls between modules are recorded too.  Work
counts (matrix entries, n^3 triangle operations, 2n^3/3 solve flops,
quadrature nodes) are computed from array sizes and returned fields, not
read from hardware counters.

Nothing beyond `sys` and `time` is imported before `magnitude`, so the
import span times the same import an untraced invocation pays.
"""

import sys
import time

clock = time.perf_counter
spans = []
stack = []
counts = {}


def add(name, amount=1):
    counts[name] = counts.get(name, 0) + amount


class Span:
    def __init__(self, name):
        self.name = name

    def __enter__(self):
        self.index = len(spans)
        spans.append([self.name, clock(), None, stack[-1] if stack else None])
        stack.append(self.index)

    def __exit__(self, *exc):
        spans[self.index][2] = clock()
        stack.pop()
        return False


def traced(name, fn, count=None, failure=None):
    """Wrap fn in a span; count(args, kwargs, result) runs after a return,
    and failure = (exception class, counter) counts that exception."""

    def wrapper(*args, **kwargs):
        with Span(name):
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if failure is not None and isinstance(exc, failure[0]):
                    add(failure[1])
                raise
        if count is not None:
            count(args, kwargs, result)
        return result

    return wrapper


def install():
    from magnitude import asymptotics, finite, line, quadrature, spheres
    from magnitude.errors import NoConvergence, SingularSystem

    def validated(args, kwargs, _):
        n = args[0].d.shape[0]
        add("finite.validate_entries", n * n)
        if kwargs.get("check_triangle", args[3] if len(args) > 3 else True):
            add("finite.triangle_checks")
            add("finite.triangle_ops", n**3)

    def solved(args, kwargs, _):
        n = args[0].n
        add("finite.solves")
        add("finite.solve_flop", 2 * n**3 // 3)
        add("finite.solve_bytes", 8 * n * n)

    def approximated(args, kwargs, result):
        add("line.approx_grid", int(args[1] if len(args) > 1 else kwargs["n_grid"]))
        add("line.approx_points", result.n)

    def integrated(args, kwargs, result):
        add("quadrature.integrals")
        a, b = args[1:3]
        if a == b:
            return
        cfg = args[3] if len(args) > 3 else kwargs.get("cfg", quadrature.DEFAULT_CONFIG)
        r = result.refinements_used
        # Level k evaluates 2^k panels; levels 0..r ran and level r was accepted.
        add("quadrature.nodes", cfg.panel_order * (2 ** (r + 1) - 1))
        add("quadrature.accepted_nodes", cfg.panel_order * 2**r)

    def extract(f, *args, **kwargs):
        def sampled(t):
            add("asymptotics.samples")
            return f(t)

        return extract_original(sampled, *args, **kwargs)

    extract_original = asymptotics.extract_coefficients
    replacements = [
        (finite.read_distance_matrix, traced("finite.read_s", finite.read_distance_matrix)),
        (finite.weighting, traced("finite.solve_s", finite.weighting, solved,
                                  (SingularSystem, "finite.singular"))),
        (finite.magnitude_homogeneous_finite,
         traced("finite.homogeneous_s", finite.magnitude_homogeneous_finite)),
        (finite.circle_points, traced("finite.circle_build_s", finite.circle_points)),
        (line.finite_approx_line, traced("line.approx_s", line.finite_approx_line, approximated)),
        (line.cantor_level_set, traced("line.level_set_s", line.cantor_level_set)),
        (line.cantor_magnitude_series, traced("line.series_s", line.cantor_magnitude_series)),
        (quadrature.integrate_adaptive,
         traced("quadrature.integrate_s", quadrature.integrate_adaptive, integrated,
                (NoConvergence, "quadrature.no_convergence"))),
        (quadrature.sphere_magnitude_quadrature,
         traced("quadrature.quotient_s", quadrature.sphere_magnitude_quadrature)),
        (quadrature.subspace_sphere_magnitude_quadrature,
         traced("quadrature.quotient_s", quadrature.subspace_sphere_magnitude_quadrature)),
        (spheres.sphere_magnitude_closed, traced("spheres.s", spheres.sphere_magnitude_closed)),
        (quadrature.subspace_sphere2_closed, traced("spheres.s", quadrature.subspace_sphere2_closed)),
        (spheres.tube_volume_check, traced("spheres.s", spheres.tube_volume_check)),
        (asymptotics.extract_coefficients, traced("asymptotics.extract_s", extract)),
    ]
    by_id = {id(original): wrapper for original, wrapper in replacements}
    modules = [m for name, m in sys.modules.items() if name == "magnitude" or name.startswith("magnitude.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            wrapper = by_id.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)
    space = finite.FiniteMetricSpace
    space.__init__ = traced("finite.validate_s", space.__init__, validated)


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    code = 1
    try:
        with Span("cli.import_s"):
            import magnitude.cli
        install()
        with Span("cli.self_s"):
            code = magnitude.cli.run(argv)
    finally:
        import json

        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "counts": counts}, fh)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
