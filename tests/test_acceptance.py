"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with pytest -s or in the
failure report) and asserts the criterion.
"""

import math

import numpy as np
import pytest

from magnitude import (
    GermExpansion,
    K_integral,
    I_integral,
    cantor_level_set,
    cantor_magnitude_iterative,
    cantor_magnitude_series,
    carrier_probe_points,
    circle_points,
    finite_approx_line,
    integrate_adaptive,
    interval_weight_measure,
    magnitude_finite,
    P_polynomial,
    predicted_expansion_intrinsic_sphere,
    predicted_relative_correction_subspace,
    sphere_asymptotics,
    sphere_magnitude_closed,
    sphere_magnitude_quadrature,
    subspace_sphere2_closed,
    subspace_sphere_magnitude_quadrature,
    tube_volume_check,
    watson_partial_sum,
    weight_equation_residual,
)
from magnitude.cli import run

# Identities that the unit tests assert too are defined once, there.
from test_asymptotics import within_spread
from test_spheres import geodesic_sphere_expansion_residual, leading_terms_match_prediction


def report(ok: bool, label: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def test_criterion_01_interval(capsys):
    ok = True
    for length in (0.5, 1.0, 2.0, 10.0):
        code = run(["interval", "--length", repr(length)])
        out = capsys.readouterr().out
        ok &= code == 0 and float(out) == 1.0 + length / 2.0
        space, measure = interval_weight_measure(length)
        worst = max(
            abs(weight_equation_residual(space, measure, y))
            for y in carrier_probe_points(space, 100)
        )
        ok &= worst < 1e-12
    with capsys.disabled():
        report(ok, "criterion 1: interval magnitude 1 + L/2 and residual < 1e-12")


def test_criterion_02_finite_approximation_convergence(capsys):
    space, _ = interval_weight_measure(2.0)
    grid_sizes = (8, 16, 32, 64, 128, 256, 512)
    errors = []
    ok = True
    for n in grid_sizes:
        m = magnitude_finite(finite_approx_line(space, n))
        h = 2.0 / (n - 1)
        formula = 1.0 + (n - 1) * math.tanh(h / 2.0)
        ok &= abs(m - formula) < 1e-9
        errors.append(abs(m - 2.0))
    ok &= errors[-1] < 3e-5
    ok &= all(b < a for a, b in zip(errors, errors[1:]))
    with capsys.disabled():
        report(ok, "criterion 2: [0,2] grid solves match 1+(N-1)tanh(h/2), error decreasing")


def test_criterion_03_cantor(capsys):
    ok = True
    for ell in (0.1, 1.0, 3.0, 9.0):
        series = cantor_magnitude_series(ell, 1e-13)
        iterative = cantor_magnitude_iterative(ell, 60)
        ok &= abs(series - iterative) < 1e-12
    series3 = cantor_magnitude_series(3.0, 1e-13)
    gaps = []
    for depth in (5, 10):
        X = finite_approx_line(cantor_level_set(3.0, depth), 2)
        gaps.append(abs(magnitude_finite(X) - series3))
    ok &= gaps[1] < gaps[0]
    with capsys.disabled():
        report(ok, "criterion 3: cantor series vs iterative < 1e-12; endpoint sets converge")


def test_criterion_04_sphere_closed_vs_quadrature(capsys):
    radii = (0.5, 1.0, 2.0, 5.0, 10.0)
    ok = True
    for n in range(1, 8):
        for R in radii:
            closed = sphere_magnitude_closed(n, R)
            quad = sphere_magnitude_quadrature(n, R)
            ok &= abs(closed - quad) <= 1e-9 * abs(closed)
    for n in range(1, 7):
        kn = K_integral(n)
        kn2 = K_integral(n + 2)
        k_res = (n + 1) * kn2 - n * kn
        ok &= abs(k_res) <= 1e-9 * abs(n * kn)
        for R in radii:
            i_n = I_integral(n, R)
            i_n2 = I_integral(n + 2, R)
            i_res = (n + 1) * ((R / (n + 1)) ** 2 + 1.0) * i_n2 - n * i_n
            ok &= abs(i_res) <= 1e-9 * abs(n * i_n)
    with capsys.disabled():
        report(ok, "criterion 4: closed vs quadrature < 1e-9 rel; recurrences < 1e-9 rel")


def test_criterion_05_small_radius_limit(capsys):
    ok = True
    for n in range(1, 6):
        ok &= abs(sphere_magnitude_closed(n, 1e-3) - 1.0) < 1e-2
        ok &= abs(sphere_magnitude_quadrature(n, 1e-3) - 1.0) < 1e-2
    with capsys.disabled():
        report(ok, "criterion 5: |S^n_R| within 1e-2 of 1 at R = 1e-3, n <= 5")


def test_criterion_06_polynomial_identities(capsys):
    ok = True
    for n in range(2, 171):
        chi = 2.0 if n % 2 == 0 else 0.0
        ok &= abs(P_polynomial(n).coefficient(0) - chi) < 1e-12
        ok &= leading_terms_match_prediction(n)
    with capsys.disabled():
        report(ok, "criterion 6: polynomial constant term < 1e-12; leading/subleading terms "
                   "within n u relative, n <= 170")


def test_criterion_07_exponential_gap(capsys):
    ok = True
    for n in range(1, 6):
        poly = P_polynomial(n)
        gap10 = abs(sphere_magnitude_closed(n, 10.0) - poly(10.0)) / poly(10.0)
        gap5 = abs(sphere_magnitude_closed(n, 5.0) - poly(5.0)) / poly(5.0)
        ok &= gap10 < 1e-12 and gap5 < 1e-6
    with capsys.disabled():
        report(ok, "criterion 7: |magnitude - polynomial|/polynomial < 1e-12 at R=10, < 1e-6 at R=5")


def test_criterion_08_asymptotic_extraction(capsys):
    grid = (10.0, 20.0, 40.0, 80.0)
    ok = True
    for n in (2, 3, 4, 5):
        extracted = sphere_asymptotics("intrinsic", n, grid, 3)
        predicted = predicted_expansion_intrinsic_sphere(n)
        ok &= abs(extracted.coefficient(n) - predicted.coefficient(n)) < 1e-8
        ok &= abs(extracted.coefficient(n - 1)) < 1e-6
        ok &= abs(extracted.coefficient(n - 2) - predicted.coefficient(n - 2)) < 1e-6
        ok &= within_spread(extracted, [c for _, c in predicted.terms])
        if n == 2:
            ok &= abs(extracted.coefficient(2) - 2.0) < 1e-8  # area / (2 pi)
            ok &= abs(extracted.coefficient(0) - 2.0) < 1e-6  # Euler characteristic
    with capsys.disabled():
        report(ok, "criterion 8: extracted expansion coefficients match predictions")


def test_criterion_09_subspace_metric(capsys):
    ok = True
    for R in (0.5, 1.0, 2.0, 5.0, 10.0):
        closed = subspace_sphere2_closed(R)
        quad = subspace_sphere_magnitude_quadrature(2, R)
        ok &= abs(closed - quad) <= 1e-9 * abs(closed)
    R_grid = (20.0, 40.0, 80.0)
    for n in (2, 3, 4):
        extracted = sphere_asymptotics("subspace", n, R_grid, 2)
        coeff, predicted = extracted.coefficient(-2), predicted_relative_correction_subspace(n)
        ok &= abs(coeff) < 1e-3 if n == 2 else abs(coeff - predicted) <= 0.02 * predicted
        ok &= within_spread(extracted, [1.0, predicted])
    with capsys.disabled():
        report(ok, "criterion 9: chord-metric closed vs quadrature and R^-2 coefficients")


def test_criterion_10_tube_formula(capsys):
    rng = np.random.default_rng(2024)
    ok = True
    for n in (1, 2, 3, 4):
        for _ in range(8):
            R = float(rng.uniform(0.3, 4.0))
            eps = float(rng.uniform(0.02, 0.98)) * R
            direct, formula = tube_volume_check(n, R, eps)
            ok &= abs(direct - formula) <= 1e-10 * abs(direct)
    with capsys.disabled():
        report(ok, "criterion 10: tube-volume identity to 1e-10 relative, n in 1..4")


def test_criterion_11_watson_evaluator(capsys):
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(4):
        degree = int(rng.integers(0, 5))
        coeffs = tuple(float(c) for c in rng.uniform(0.2, 2.0, size=degree + 1))
        germ = GermExpansion(coefficients=coeffs, cutoff=1.0)
        for t in (40.0, 60.0, 120.0):
            quad = integrate_adaptive(
                lambda r: np.exp(-t * r)
                * sum(c * r**k for k, c in enumerate(coeffs)),
                0.0,
                1.0,
            ).value
            ok &= abs(watson_partial_sum(germ, t) - quad) <= 1e-10 * abs(quad)
    with capsys.disabled():
        report(ok, "criterion 11: germ partial sums match quadrature to 1e-10 at t >= 40")


def test_criterion_12_geodesic_sphere_expansion(capsys):
    ok = True
    for n, R in ((2, 1.0), (3, 2.0)):
        residuals = [
            abs(geodesic_sphere_expansion_residual(n, R, r)) for r in (1e-1, 1e-2, 1e-3)
        ]
        for a, b in zip(residuals, residuals[1:]):
            slope = math.log10(a / b)
            ok &= (n + 3) - 0.5 < slope < (n + 3) + 0.5
    with capsys.disabled():
        report(ok, "criterion 12: geodesic-sphere residual scales as r^(n+3)")
