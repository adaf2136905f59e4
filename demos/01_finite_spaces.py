"""Magnitude of finite metric spaces: weights, scaling, and homogeneity.

Magnitude assigns an "effective number of points" to a metric space.  For a
finite space with distance matrix d it is the sum of the weights w solving

    sum_x exp(-d(x, y)) w_x = 1   for every point y.

Shrink the space and the points blur together (magnitude -> 1); blow it up
and they become distinguishable (magnitude -> n).
"""

import numpy as np

from magnitude import (
    FiniteMetricSpace,
    circle_points_magnitude,
    magnitude_finite,
    scale,
    weighting,
)


def main():
    print("Three points, pairwise distance 1 (equilateral):")
    d = np.ones((3, 3)) - np.eye(3)
    X = FiniteMetricSpace(d)
    w = weighting(X)
    print(f"  weights        = {w.w}")
    print(f"  magnitude      = {w.w.sum():.12f}")
    print(f"  closed form    = {3 / (1 + 2 * np.exp(-1.0)):.12f}   (3 / (1 + 2 e^-1))")
    print(f"  residual, rcond = {w.residual_norm:.2e}, {w.rcond:.2e}")

    print("\nEffective number of points across scales:")
    print(f"  {'scale':>8}  {'magnitude':>12}")
    for t in (0.01, 0.1, 1.0, 10.0, 100.0):
        print(f"  {t:>8g}  {magnitude_finite(scale(X, t)):>12.8f}")
    print("  -> 1 as the space shrinks, -> 3 as it grows.")

    print("\nNegative weights exist: 5 nearly-collapsed points plus an outlier.")
    xs = np.array([0.0, 0.05, 0.1, 0.15, 0.2, 5.0])
    d = np.abs(xs[:, None] - xs[None, :])
    Y = FiniteMetricSpace(d)
    wy = weighting(Y)
    print(f"  weights   = {np.array2string(wy.w, precision=4)}")
    print(f"  magnitude = {wy.w.sum():.8f}")

    print("\nHomogeneous spaces need only one row sum: 100 points on a circle.")
    n = 100
    idx = np.arange(n)
    arc = np.minimum(idx, n - idx) * (2 * np.pi / n)
    C = FiniteMetricSpace(arc[np.abs(idx[:, None] - idx[None, :])])
    print(f"  n / (row sum)          = {circle_points_magnitude(2 * np.pi, n):.12f}")
    print(f"  full weight solve      = {magnitude_finite(C):.12f}")


if __name__ == "__main__":
    main()
