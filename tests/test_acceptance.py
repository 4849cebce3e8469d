"""Acceptance gate: each test prints one pass/fail line for its criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Budgets and tolerances are fixed here, nothing is calibrated at runtime.
"""
import json
import time

import numpy as np
import pytest

from juliahull import (
    AffineMap,
    CheckConfig,
    EqualityUnresolvedError,
    Polynomial,
    all_roots,
    boundary_cells,
    build_context,
    chebyshev,
    check_backward_inclusion,
    check_preimage_convexity,
    classify_equality,
    conjugate,
    convex_hull,
    critical_points,
    escape_grid,
    monomial,
    polygon_hausdorff,
    sample_julia,
    signed_distance,
)
from juliahull.checks import (
    CHEBYSHEV_CONJUGATE,
    MONOMIAL_CONJUGATE,
    PASS,
    STRICT_INCLUSION,
)
from juliahull.cli import main


def _line(number: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {detail}")
    assert ok, detail


def test_criterion_1_backward_inclusion_fuzz():
    """100 random polynomials, degrees 2..6, never leave the hull."""
    rng = np.random.default_rng(2026)
    start = time.perf_counter()
    worst_ratio = 0.0
    for trial in range(100):
        d = int(rng.integers(2, 7))
        coeffs = rng.uniform(0, 1, d + 1) + 1j * rng.uniform(0, 1, d + 1)
        p = Polynomial(coeffs)
        cfg = CheckConfig(julia_samples=100_000, seed=trial)
        ctx = build_context(p, cfg)
        report = check_backward_inclusion(ctx)
        ratio = report.worst_violation / (cfg.tol_rel * ctx.diameter)
        worst_ratio = max(worst_ratio, ratio)
        assert report.verdict == PASS, (
            f"trial {trial} degree {d} violated: ratio {ratio:.3f}")
    elapsed = time.perf_counter() - start
    _line(1, worst_ratio <= 1.0 and elapsed <= 300.0,
          f"100 random polynomials, worst violation ratio {worst_ratio:.4f}, "
          f"{elapsed:.0f}s (budget 300s)")


def test_criterion_2_known_equality_cases():
    """Chebyshev, negated-Chebyshev and unimodular-monomial normal forms."""
    start = time.perf_counter()
    unimodular = [1.0 + 0j, 0.6 + 0.8j, np.exp(1j * 2.0)]
    cases = [(f"cheb:{d}", chebyshev(d), CHEBYSHEV_CONJUGATE)
             for d in range(2, 7)]
    cases.append(("negcheb:3", Polynomial(-chebyshev(3).coeffs),
                  CHEBYSHEV_CONJUGATE))
    cases.extend((f"monomial:{c},{d}", monomial(c, d), MONOMIAL_CONJUGATE)
                 for c in unimodular for d in (2, 3))
    failures = []
    for name, p, expected in cases:
        cfg = CheckConfig(seed=21)
        cls = classify_equality(build_context(p, cfg))
        scale = max(1.0, float(np.abs(p.coeffs).max()))
        if cls.kind != expected or cls.coefficient_residual > 1e-6 * scale:
            failures.append((name, cls.kind, cls.coefficient_residual))
    rng = np.random.default_rng(77)
    for i in range(10):
        _, base, expected = cases[int(rng.integers(0, len(cases)))]
        a = complex(rng.uniform(0.5, 2)) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        moved = conjugate(base, AffineMap(a, b))
        cls = classify_equality(build_context(moved, CheckConfig(seed=100 + i)))
        if cls.kind != expected:
            failures.append((f"conjugate #{i}", cls.kind, None))
    # From degree 16 up the sample's hull gap may exceed tol_rel * diam,
    # because of the solver's residual tolerance (ROADMAP item 2), so the
    # classifier may report the disagreement, but it must never read
    # StrictInclusion.
    for d in (8, 12, 16, 20):
        for name, p, expected in [(f"cheb:{d}", chebyshev(d), CHEBYSHEV_CONJUGATE),
                                  (f"monomial:1,{d}", monomial(1, d),
                                   MONOMIAL_CONJUGATE)]:
            try:
                kind = classify_equality(build_context(p, CheckConfig(seed=21))).kind
            except EqualityUnresolvedError:
                kind = None if d >= 16 else "EqualityUnresolved"
            if kind not in (expected, None):
                failures.append((name, kind, None))
    elapsed = time.perf_counter() - start
    _line(2, not failures and elapsed <= 120.0,
          f"12 normal forms + 10 conjugates + 8 of degree 8-20 classified, "
          f"failures={failures}, {elapsed:.0f}s (budget 120s)")


def test_criterion_3_known_strict_cases():
    """Strict-inclusion quadratics show a gap ten times the threshold."""
    ratios = {}
    for label, c in [("z^2-1", -1.0), ("z^2+i", 1j), ("z^2+0.25", 0.25)]:
        p = Polynomial([c, 0, 1])
        cfg = CheckConfig(seed=5)
        ctx = build_context(p, cfg)
        cls = classify_equality(ctx)
        assert cls.kind == STRICT_INCLUSION, label
        ratios[label] = cls.hull_gap / (cfg.tol_rel * ctx.diameter)
    ok = all(r >= 10.0 for r in ratios.values())
    _line(3, ok, "strict gaps at " + ", ".join(
        f"{k}: {v:.1f}x" for k, v in ratios.items()) + " (need >= 10x)")


def test_criterion_4_gauss_lucas_suite():
    """Critical points stay in the hull of the roots, degree 3..8."""
    rng = np.random.default_rng(404)
    start = time.perf_counter()
    worst = -np.inf
    for _ in range(200):
        d = int(rng.integers(3, 9))
        p = Polynomial(rng.uniform(-1, 1, d + 1) + 1j * rng.uniform(-1, 1, d + 1))
        hull = convex_hull(all_roots(p).roots)
        worst = max(worst, float(np.max(signed_distance(
            hull, critical_points(p).roots))))
    elapsed = time.perf_counter() - start
    _line(4, worst <= 1e-8 and elapsed <= 10.0,
          f"200 polynomials, max critical-point excursion {worst:.2e} "
          f"(tol 1e-8), {elapsed:.1f}s (budget 10s)")


def test_criterion_5_hull_convergence_study():
    """Sampled hulls at n=1e4 and n=1e6 agree within 5e-3 of the diameter."""
    p = Polynomial([-1, 0, 1])
    small = convex_hull(sample_julia(p, 10_000, seed=31))
    large = convex_hull(sample_julia(p, 1_000_000, seed=31))
    gap = polygon_hausdorff(small, large)
    ratio = gap / large.diameter
    _line(5, ratio <= 5e-3,
          f"hull drift n=1e4 vs n=1e6 is {ratio:.2e} of diameter (tol 5e-3)")


def test_criterion_6_escape_grid_oracle_equivalence():
    """Escape-raster boundary hulls match inverse-iteration hulls."""
    worst = 0.0
    details = []
    for label, coeffs in [("z^2", [0, 0, 1]), ("2z^2-1", [-1, 0, 2]),
                          ("z^2-1", [-1, 0, 1])]:
        p = Polynomial(coeffs)
        cloud_hull = convex_hull(sample_julia(p, 100_000, seed=13))
        grid = escape_grid(p, resolution=2048, max_iter=400)
        grid_hull = convex_hull(boundary_cells(grid))
        ratio = polygon_hausdorff(cloud_hull, grid_hull) / cloud_hull.diameter
        worst = max(worst, ratio)
        details.append(f"{label}: {ratio:.2e}")
    _line(6, worst <= 5e-3,
          "hull agreement " + ", ".join(details) + " (tol 5e-3)")


def test_criterion_7_preimage_convexity():
    """100 admissible pairs per preset, every interior mix admissible."""
    presets = ["monomial:1,2", "cheb:2", "cheb:3", "quad:-1+0i", "quad:0+1i"]
    from juliahull import parse_polynomial
    failures = []
    for preset in presets:
        p = parse_polynomial(preset).polynomial
        cfg = CheckConfig(julia_samples=50_000, seed=47)
        report = check_preimage_convexity(build_context(p, cfg))
        if report.verdict != PASS or "100 admissible pairs" not in report.note:
            failures.append((preset, report.verdict, report.note))
    _line(7, not failures,
          f"presets {presets} all convex on 100 pairs, failures={failures}")


def test_criterion_8_suite_determinism(tmp_path):
    """Five identical suite invocations emit byte-identical JSON."""
    args = ["suite", "--poly", "quad:-1+0i", "--n", "20000", "--m", "128",
            "--k", "32", "--res", "256", "--seed", "2026"]
    blobs = []
    for i in range(5):
        out = tmp_path / f"run{i}.json"
        code = main(args + ["--out", str(out)])
        assert code == 0
        blobs.append(out.read_bytes())
    identical = all(b == blobs[0] for b in blobs)
    doc = json.loads(blobs[0])
    _line(8, identical and len(doc) == 6,
          f"5 runs, {len(blobs[0])} bytes each, byte-identical={identical}")
