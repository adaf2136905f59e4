"""Exact weight measures on the line: intervals, holes, middle-thirds sets.

An interval [0, l] carries the weight measure (delta_0 + delta_l + mu)/2
(mu = Lebesgue), so its magnitude is exactly 1 + l/2.  Removing an open
interval (a, b) from a region where the measure is half Lebesgue costs
(b-a)/2 - tanh((b-a)/2) of mass and plants atoms at a and b.  Iterating the
removal on middle thirds yields the magnitude of the Cantor-type set as a
fast series.  Finite grids of points approximate the interval from below.
"""

from magnitude import (
    cantor_magnitude_iterative,
    cantor_magnitude_series,
    carrier_probe_points,
    finite_approx_points,
    interval_weight_measure,
    line_points_magnitude,
    measure_total_mass,
    remove_open_interval,
    weight_equation_residual,
)


def main():
    print("Interval [0, 3]: atoms of mass 1/2 at the ends, density 1/2 across.")
    space, measure = interval_weight_measure(3.0)
    print(f"  total mass = {measure_total_mass(measure)}  (= 1 + 3/2)")
    worst = max(
        abs(weight_equation_residual(space, measure, y))
        for y in carrier_probe_points(space)
    )
    print(f"  worst weight-equation residual over 100 probes = {worst:.2e}")

    print("\nRemove the middle third (1, 2):")
    space, measure = remove_open_interval(space, measure, 1.0, 2.0)
    print(f"  carrier    = {space.intervals}")
    print(f"  atoms      = {measure.atoms}")
    print(f"  total mass = {measure_total_mass(measure):.15f}  (= 2 + tanh(1/2))")
    worst = max(
        abs(weight_equation_residual(space, measure, y))
        for y in carrier_probe_points(space)
    )
    print(f"  worst residual on the pruned carrier = {worst:.2e}")

    print("\nIterating the removal: magnitude of the middle-thirds set of [0, 3].")
    print(f"  {'depth':>6}  {'magnitude':>18}")
    for depth in (0, 1, 2, 4, 8, 16, 32):
        print(f"  {depth:>6}  {cantor_magnitude_iterative(3.0, depth):>18.15f}")
    series = cantor_magnitude_series(3.0, 1e-14)
    print(f"  series  {series:>18.15f}  (tail-bounded truncation)")

    print("\nUniform n-point grids on [0, 2] approach 1 + 2/2 = 2 from below:")
    space, _ = interval_weight_measure(2.0)
    print(f"  {'points':>7}  {'magnitude':>16}  {'gap to 2':>10}")
    for n in (8, 32, 128, 512):
        m, _ = line_points_magnitude(finite_approx_points(space, n))
        print(f"  {n:>7}  {m:>16.12f}  {2 - m:>10.2e}")


if __name__ == "__main__":
    main()
