import numpy as np
import pytest

import juliahull.roots as roots_mod
from juliahull import (
    NoRepellingFixedPointError,
    Polynomial,
    RootSolveError,
    all_roots,
    chebyshev,
    convex_hull,
    critical_points,
    escape_radius,
    evaluate,
    preimage_fibers,
    preimages,
    repelling_fixed_point,
    signed_distance,
)


def match_multisets(found, expected, tol):
    found = sorted(found, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    expected = sorted(expected, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    return all(abs(a - b) <= tol for a, b in zip(found, expected))


class TestAllRoots:
    def test_unit_pair(self):
        rs = all_roots(Polynomial([-1, 0, 1]))
        assert match_multisets(rs.roots.tolist(), [-1, 1], 1e-9)

    def test_t3_roots(self):
        rs = all_roots(chebyshev(3))
        expected = [0.0, np.sqrt(3) / 2, -np.sqrt(3) / 2]
        assert match_multisets(rs.roots.tolist(), expected, 1e-9)

    def test_recovers_chosen_degree_six_roots(self):
        chosen = [1.0, -2.0, 1j, -1j, 0.5 + 0.5j, -1.5 - 0.25j]
        coeffs = np.array([1.0 + 0j])
        for r in chosen:
            coeffs = np.convolve(coeffs, np.array([1.0, -r]))
        p = Polynomial(coeffs[::-1])
        rs = all_roots(p)
        assert match_multisets(rs.roots.tolist(), chosen, 1e-8)

    def test_residual_bound_simple_roots(self):
        # O(1) simple roots satisfy the plain coefficient-scale bound
        p = Polynomial([-6, 11, -6, 1])  # (z-1)(z-2)(z-3)
        rs = all_roots(p, tol=1e-12)
        assert rs.residuals.max() <= 1e-12 * np.abs(p.coeffs).max()
        assert len(rs) == 3

    def test_residual_bound_with_multiplicity(self):
        # (z-1)^2 (z+2): the double root is certified against the
        # backward-stable bound tol * max(coeff scale, evaluation scale)
        p = Polynomial([2, -3, 0, 1])
        tol = 1e-12
        rs = all_roots(p, tol=tol)
        eval_scale = np.array([np.abs(p.coeffs) @ np.abs(r) ** np.arange(4)
                               for r in rs.roots])
        bound = tol * np.maximum(np.abs(p.coeffs).max(), eval_scale)
        assert np.all(rs.residuals <= bound)
        assert len(rs) == 3

    def test_deterministic(self):
        p = Polynomial([0.3 + 0.1j, -1, 0.2j, 1])
        a = all_roots(p).roots
        b = all_roots(p).roots
        assert np.array_equal(a, b)

    def test_nonconvergence_carries_best_iterate(self):
        p = Polynomial(np.arange(1, 9, dtype=complex))
        with pytest.raises(RootSolveError) as info:
            all_roots(p, tol=1e-14, max_iter=1)
        assert info.value.best_roots is not None
        assert info.value.residuals is not None

    def test_viete_reconstruction(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            d = int(rng.integers(2, 9))
            p = Polynomial(rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1))
            rs = all_roots(p)
            rebuilt = np.array([p.coeffs[-1]])
            for r in rs.roots:
                rebuilt = np.convolve(rebuilt, np.array([1.0, -r]))
            rebuilt = rebuilt[::-1]
            scale = np.abs(p.coeffs).max()
            assert np.abs(rebuilt - p.coeffs).max() <= 1e-6 * scale


@pytest.mark.parametrize("solve", [
    lambda p: preimage_fibers(p, np.array([0.5, 2.0])),
    lambda p: all_roots(p),
    lambda p: preimages(p, 0.5),
], ids=["preimage_fibers", "all_roots", "preimages"])
def test_solver_failure_raises_with_best_iterate(monkeypatch, solve):
    def never_converges(p, targets, *args, **kwargs):
        m = np.size(targets)
        return (np.full((m, p.degree), 1j), np.ones((m, p.degree)),
                np.zeros(m, dtype=bool))

    monkeypatch.setattr(roots_mod, "solve_fibers", never_converges)
    with pytest.raises(RootSolveError, match="did not converge") as info:
        solve(Polynomial([-1, 0, 1]))
    assert np.array_equal(info.value.best_roots, [1j, 1j])
    assert np.array_equal(info.value.residuals, [1.0, 1.0])


class TestPreimages:
    def test_square_fiber_of_one(self, squaring):
        rs = preimages(squaring, 1.0)
        assert match_multisets(rs.roots.tolist(), [-1, 1], 1e-9)

    def test_square_fiber_of_zero_is_double(self, squaring):
        rs = preimages(squaring, 0.0)
        assert len(rs) == 2
        assert np.abs(rs.roots).max() <= 1e-5

    def test_t2_critical_value_fiber(self, t2):
        # solving 2z^2 - 1 = -1 gives the double root at the critical point
        rs = preimages(t2, -1.0)
        assert len(rs) == 2
        assert np.abs(rs.roots).max() <= 1e-5

    def test_fiber_contains_pulled_point(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            d = int(rng.integers(2, 7))
            p = Polynomial(rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1))
            radius = escape_radius(p)
            z0 = rng.uniform(0, radius) * np.exp(1j * rng.uniform(0, 2 * np.pi, 50))
            fibers = preimage_fibers(p, evaluate(p, z0))
            dist = np.abs(fibers - z0[:, None]).min(axis=1)
            assert dist.max() <= 1e-7

    def test_chunked_solve_is_bitwise_identical(self, monkeypatch):
        rng = np.random.default_rng(7)
        p = Polynomial(rng.normal(size=8) + 1j * rng.normal(size=8))
        targets = rng.normal(size=40) + 1j * rng.normal(size=40)
        whole = roots_mod.solve_fibers(p, targets)
        # three degree-7 members per chunk: 14 chunks, the last one short
        monkeypatch.setattr(roots_mod, "_CHUNK_BUDGET", 3 * 7 * 7)
        chunked = roots_mod.solve_fibers(p, targets)
        assert whole[2].all()
        for a, b in zip(whole, chunked):
            assert np.array_equal(a, b)


class TestCriticalPoints:
    def test_quadratic_family(self):
        rs = critical_points(Polynomial([0.2j, 0, 1]))
        assert len(rs) == 1
        assert abs(rs.roots[0]) <= 1e-12

    def test_t3(self):
        rs = critical_points(chebyshev(3))
        assert match_multisets(rs.roots.tolist(), [0.5, -0.5], 1e-9)

    def test_cubic(self):
        rs = critical_points(Polynomial([0, -3, 0, 1]))
        assert match_multisets(rs.roots.tolist(), [1.0, -1.0], 1e-9)

    def test_gauss_lucas_sample(self):
        # critical points stay in the convex hull of the roots
        rng = np.random.default_rng(2)
        for _ in range(50):
            d = int(rng.integers(3, 9))
            p = Polynomial(rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1))
            hull = convex_hull(all_roots(p).roots)
            sd = signed_distance(hull, critical_points(p).roots)
            assert np.max(sd) <= 1e-8


class TestRepellingFixedPoint:
    def test_square_picks_one_not_zero(self, squaring):
        assert abs(repelling_fixed_point(squaring) - 1.0) <= 1e-9

    def test_t2_fixed_point(self, t2):
        assert abs(repelling_fixed_point(t2) - 1.0) <= 1e-9

    def test_basilica_larger_multiplier(self, basilica):
        # quadratic-formula oracle: fixed points (1 +- sqrt 5)/2, multiplier |2z|
        plus = (1 + np.sqrt(5)) / 2
        minus = (1 - np.sqrt(5)) / 2
        expected = plus if abs(2 * plus) > abs(2 * minus) else minus
        assert abs(repelling_fixed_point(basilica) - expected) <= 1e-9

    def test_parabolic_quadratic_lands_on_the_fixed_point(self):
        # z^2 + 1/4 has one parabolic fixed point; the numerically split
        # double root sits on the Julia set, which is all the seed needs
        fp = repelling_fixed_point(Polynomial([0.25, 0, 1]))
        assert abs(fp - 0.5) <= 1e-4

    def test_error_type_available_for_fallback(self):
        assert issubclass(NoRepellingFixedPointError, RuntimeError)
