"""Sphere magnitudes: closed forms, quadrature cross-checks, and geometry.

For a homogeneous space the magnitude is (total measure) / (integral of
exp(-d) against the measure).  On the n-sphere with the geodesic metric
both integrals are elementary and the quotient has a closed form: a
polynomial in the radius over 1 +- e^{-pi R}.  The polynomial's
coefficients encode geometry: volume at the top, Euler characteristic at
the bottom, total scalar curvature just below the top.
"""

import math

import numpy as np

from magnitude import (
    P_polynomial,
    intrinsic_volume_sphere,
    omega,
    sigma,
    sphere_magnitude_closed,
    sphere_magnitude_quadrature,
    tsc_sphere,
    tube_volume_check,
)


def main():
    print("Closed form vs adaptive quadrature of the invariant-measure quotient:")
    print(f"  {'n':>2} {'R':>5}  {'closed':>22}  {'quadrature':>22}  {'rel diff':>9}")
    for n in (1, 2, 3, 5, 7):
        for R in (0.5, 2.0, 10.0):
            c = sphere_magnitude_closed(n, R)
            q = sphere_magnitude_quadrature(n, R)
            print(f"  {n:>2} {R:>5}  {c:>22.15f}  {q:>22.15f}  {abs(c - q) / c:>9.1e}")

    print("\nNumerator polynomial P of the 4-sphere (denominator -> 1 fast):")
    poly = P_polynomial(4)
    print(f"  coefficients (power, value) = {poly.terms}")
    lead = sigma(4) / (24 * omega(4))
    print(f"  leading  = Vol(S^4_1)/(4! w_4) = {lead:.15f}")
    print(f"  constant = Euler characteristic = {poly.coefficient(0)}")
    print(f"  R^2 term = (5/9) mu_2(S^4_1)/w_2 ... = {poly.coefficient(2):.15f}")
    for R in (5.0, 10.0):
        gap = abs(sphere_magnitude_closed(4, R) - poly(R)) / poly(R)
        print(f"  |magnitude - P| / P at R = {R:>4}: {gap:.2e}")

    print("\nIntrinsic volumes of S^2 of radius R (odd-gap entries vanish):")
    for R in (1.0, 2.0):
        mus = [intrinsic_volume_sphere(i, 2, R) for i in range(3)]
        print(f"  R = {R}: mu_0, mu_1, mu_2 = {mus}  (chi, 0, area)")
    print(f"  total scalar curvature of S^2_1: {tsc_sphere(2, 1.0):.12f} = 4 pi mu_0")

    print("\nValuation sum_i mu_i/(i! w_i) vs the magnitude polynomial:")
    for n in (2, 3):
        R = 2.0
        valuation = sum(
            intrinsic_volume_sphere(i, n, R) / (math.factorial(i) * omega(i)) for i in range(n + 1)
        )
        print(
            f"  n = {n}: valuation {valuation:.12f}"
            f"  vs P(R) {P_polynomial(n)(R):.12f}"
            f"  (equal for n = 2, subdominant term differs for n = 3)"
        )

    print("\nTube volumes around S^n_R in R^(n+1): shell vs intrinsic-volume sum.")
    rng = np.random.default_rng(1)
    for n in (1, 2, 3):
        R = float(rng.uniform(1.0, 3.0))
        eps = float(rng.uniform(0.1, 0.9)) * R
        direct, formula = tube_volume_check(n, R, eps)
        print(
            f"  n = {n}, R = {R:.3f}, eps = {eps:.3f}: "
            f"shell {direct:.10f}  formula {formula:.10f}"
        )


if __name__ == "__main__":
    main()
