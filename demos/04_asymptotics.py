"""Large-scale asymptotics of magnitude, verified numerically.

Scaling a space by t turns exp(-d) into exp(-t d), so large-t behaviour is
a Laplace-type limit: the integral int_0^c e^{-tr} g(r) dr expands as
sum_i i! alpha_i / t^{i+1} from the germ of g at 0.  Applied to spheres
this predicts

    |t S^n| = Vol/(n! w_n) t^n + 0 t^{n-1} + (n+1) TSC/(6 n! w_n) t^{n-2} + ...

and for any homogeneous surface area/(2 pi) t^2 + Euler characteristic +
O(t^-2).  Here we recover those coefficients numerically from sampled
magnitudes, and compare the geodesic and chord metrics on the same sphere:
same leading term, different R^{-2} correction.
"""

import numpy as np

from magnitude import (
    GermExpansion,
    integrate_adaptive,
    predicted_expansion_intrinsic_sphere,
    predicted_relative_correction_intrinsic,
    predicted_relative_correction_subspace,
    sphere_asymptotics,
    sphere_magnitude_closed,
    subspace_sphere_magnitude_quadrature,
    watson_partial_sum,
)


def main():
    print("Germ sums vs quadrature for int_0^1 e^{-tr} (1 + r + r^2) dr:")
    germ = GermExpansion(coefficients=(1.0, 1.0, 1.0), cutoff=1.0)
    for t in (10.0, 40.0, 160.0):
        quad = integrate_adaptive(
            lambda r: np.exp(-t * r) * (1.0 + r + r * r), 0.0, 1.0
        ).value
        ws = watson_partial_sum(germ, t)
        print(f"  t = {t:>5}: quadrature {quad:.15e}  germ sum {ws:.15e}")

    grid = (10.0, 20.0, 40.0, 80.0)
    print(f"\nCoefficients extracted from magnitudes sampled at t in {grid},")
    print("with the spreads that `magnitude asymptotics` prints:")
    for n in (2, 3, 4):
        extracted = sphere_asymptotics("intrinsic", n, grid, 3)
        predicted = predicted_expansion_intrinsic_sphere(n)
        print(f"  geodesic n = {n}:")
        for (power, coeff), spread in zip(extracted.terms, extracted.spreads):
            print(
                f"    t^{power}: extracted {coeff:>22.15f}"
                f"  predicted {predicted.coefficient(power):>22.15f}"
                f"  spread {spread:.1e}"
            )
    print("  (n = 2 line: area/(2 pi) = 2 and Euler characteristic = 2.)")

    print("\nChord vs geodesic metric on the same sphere:")
    R_grid = (20.0, 40.0, 80.0)
    for n in (2, 3, 4):
        extracted = sphere_asymptotics("subspace", n, R_grid, 2)
        print(
            f"  n = {n}: chord R^-2 coefficient {extracted.coefficient(-2):>12.6f}"
            f" +- {extracted.spreads[1]:.1e}"
            f"  predicted {predicted_relative_correction_subspace(n):>8.3f}"
            f"  (geodesic analogue {predicted_relative_correction_intrinsic(n):>8.3f})"
        )
    print("  Same leading term, different corrections: the ratio of the two")
    print("  magnitudes tends to 1 but their difference does not vanish:")
    for n in (2, 3):
        R = 40.0
        intr = sphere_magnitude_closed(n, R)
        sub = subspace_sphere_magnitude_quadrature(n, R)
        print(
            f"  n = {n}, R = {R}: ratio {intr / sub:.8f}   difference {intr - sub:.6f}"
        )


if __name__ == "__main__":
    main()
