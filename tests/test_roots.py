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
    monomial,
    preimage_fibers,
    repelling_fixed_point,
    signed_distance,
)
from juliahull.polynomial import _horner, derivative
from juliahull.roots import DEFAULT_TOL, MAX_ITERATIONS


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
], ids=["preimage_fibers", "all_roots"])
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


def _fiber(p, w):
    """The d roots of p(z) = w."""
    return preimage_fibers(p, np.array([w], dtype=np.complex128))[0]


def _assert_batch_independent(monkeypatch, p, targets, max_iter=MAX_ITERATIONS,
                              alone=False):
    """Every member gets the same roots, residuals and ok bit in any batch.

    The batch is solved whole, in chunks of three members, with its targets
    repeated and reordered, and (with ``alone``) one target at a time.
    """
    whole = roots_mod.solve_fibers(p, targets, max_iter=max_iter)
    rng = np.random.default_rng(targets.size)
    mixed = rng.permutation(np.r_[np.arange(targets.size),
                                  np.arange(targets.size)[::3]])
    batches = [(mixed, roots_mod.solve_fibers(p, targets[mixed], max_iter=max_iter))]
    if alone:
        batches += [([i], roots_mod.solve_fibers(p, targets[i:i + 1], max_iter=max_iter))
                    for i in range(targets.size)]
    # three members per chunk: the last chunk is short unless 3 divides m
    monkeypatch.setattr(roots_mod, "_CHUNK_BUDGET", 3 * p.degree ** 2)
    batches.append((np.arange(targets.size),
                    roots_mod.solve_fibers(p, targets, max_iter=max_iter)))
    for members, solved in batches:
        for a, b in zip(whole, solved):
            assert np.array_equal(a[members], b)
    return whole


class TestPreimages:
    def test_square_fiber_of_one(self, squaring):
        roots = _fiber(squaring, 1.0)
        assert match_multisets(roots.tolist(), [-1, 1], 1e-9)

    def test_square_fiber_of_zero_is_double(self, squaring):
        roots = _fiber(squaring, 0.0)
        assert len(roots) == 2
        assert np.abs(roots).max() <= 1e-5

    def test_t2_critical_value_fiber(self, t2):
        # solving 2z^2 - 1 = -1 gives the double root at the critical point
        roots = _fiber(t2, -1.0)
        assert len(roots) == 2
        assert np.abs(roots).max() <= 1e-5

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
        _, _, ok = _assert_batch_independent(monkeypatch, p, targets)  # 14 chunks
        assert ok.all()
        # two steps leave members short of the bound, and those judged at
        # their last iterate solve as if alone too
        _, _, ok = _assert_batch_independent(monkeypatch, p, targets,
                                             max_iter=2, alone=True)
        assert not ok.all()

    @pytest.mark.parametrize("d", range(2, 7))
    def test_members_solve_as_alone(self, monkeypatch, d):
        # the sampler's deduplicated burn-in and the preimage-convexity
        # check's batched rounds both rest on this
        rng = np.random.default_rng(d)
        p = Polynomial(rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1))
        crit = critical_points(p).roots[0]
        targets = np.r_[rng.normal(size=14) + 1j * rng.normal(size=14),
                        evaluate(p, crit)]  # a critical value: a double root
        roots, _, ok = _assert_batch_independent(monkeypatch, p, targets,
                                                 alone=True)
        assert ok.all()
        # two roots of the last fiber meet near the critical point, at the
        # square root of the residual tolerance
        assert np.sort(np.abs(roots[-1] - crit))[1] <= 1e-4


# Quadratics whose naive roots s +- r lose digits to cancellation (the first
# three), the basilica, and the parabolic map.
_CANCELLATION_CASES = {
    "1e-8z^2+z": [0, 1, 1e-8],
    "z^2+1e4z+0.3": [0.3, 1e4, 1],
    "1e-3z^2+1e6z+0.2-0.1i": [0.2 - 0.1j, 1e6, 1e-3],
    "z^2-1": [-1, 0, 1],
    "z^2+1/4": [0.25, 0, 1],
}


def _mixed_targets(p, m, seed):
    """m targets: half in the unit square, half in the escape square."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m)
    t[m // 2:] *= escape_radius(p)
    return t


class TestQuadraticStart:
    """Degree 2 starts from the exact roots, and _iterate only confirms them."""

    @pytest.mark.parametrize("coeffs", _CANCELLATION_CASES.values(),
                             ids=_CANCELLATION_CASES.keys())
    def test_exact_start_takes_no_step(self, monkeypatch, coeffs):
        # the starts pass at step 0, before any pair buffer is planned
        monkeypatch.setattr(roots_mod, "_sum_plan", None)
        p = Polynomial(coeffs)
        targets = _mixed_targets(p, 4096, seed=3)
        roots, _, ok = roots_mod.solve_fibers(p, targets)
        assert ok.all()
        assert np.array_equal(roots, roots_mod._quadratic_roots(p.coeffs, targets))

    def test_chunked_quadratic_solve_is_bitwise_identical(self, monkeypatch, basilica):
        targets = _mixed_targets(basilica, 40, seed=7)
        _, _, ok = _assert_batch_independent(monkeypatch, basilica, targets)
        assert ok.all()

    def test_perturbed_start_converges_through_the_iteration(self, monkeypatch):
        p = Polynomial([-0.12 + 0.74j, 0.3, 1])
        tol = 1e-10
        targets = _mixed_targets(p, 512, seed=5)
        exact = roots_mod._quadratic_roots(p.coeffs, targets)
        start = exact + 1e-3 * np.abs(exact) * np.exp(1j * np.arange(2))
        starts = []

        def perturbed(coeffs, t):
            starts.append(t.size)
            return start.copy()

        monkeypatch.setattr(roots_mod, "_quadratic_roots", perturbed)
        roots, res, ok = roots_mod.solve_fibers(p, targets, tol)
        assert starts == [targets.size]
        assert ok.all()
        # the backward-stable bound of p(z) - t, whose constant term is a_0 - t
        shifted = np.abs(p.coeffs - np.eye(3)[0] * targets[:, None])
        scale = np.einsum("mrj,mj->mr", np.abs(roots)[..., None] ** np.arange(3), shifted)
        assert np.all(res <= tol * np.maximum(shifted.max(axis=1)[:, None], scale))
        # each member's pair is the exact pair, in either order
        straight = np.abs(roots - exact).max(axis=1)
        crossed = np.abs(roots - exact[:, ::-1]).max(axis=1)
        assert np.minimum(straight, crossed).max() <= 1e-8 * np.abs(exact).max()


def _reference_iterate(coeffs, dcoeffs, targets, z, bounds_of, max_iter):
    """The plain solver loop, the oracle for ``roots._iterate``.

    It gathers z[active] and scatters it back every step, masks the
    diagonal with a boolean eye and allocates every temporary anew.  Its
    ``inv.sum(axis=2)`` fixes the summation order that ``roots._sum_plan``
    writes out.
    """
    m, d = z.shape
    eye = np.eye(d, dtype=bool)
    upper = np.triu(np.ones((d, d), dtype=bool), 1)
    active = np.arange(m)
    for _ in range(max_iter):
        za = z[active]
        pv = _horner(coeffs, za) - targets[active, None]
        done = (np.abs(pv) <= bounds_of(za, active)).all(axis=1)
        if done.any():
            keep = ~done
            active = active[keep]
            if active.size == 0:
                break
            za, pv = za[keep], pv[keep]
        diff = za[:, :, None] - za[:, None, :]
        diff[:, eye] = 1.0
        collided = diff == 0
        if collided.any():
            nudge = 1e-12 * (1.0 + np.abs(za))[:, :, None]
            diff = np.where(collided, np.where(upper, nudge, -nudge), diff)
        dv = _horner(dcoeffs, za)
        dv = np.where(dv == 0, 1e-300, dv)
        newton = pv / dv
        inv = 1.0 / diff
        inv[:, eye] = 0.0
        denom = 1.0 - newton * inv.sum(axis=2)
        denom = np.where(denom == 0, 1.0, denom)
        z[active] = za - newton / denom
    return z


def _reference_solve(p, targets, tol=DEFAULT_TOL, max_iter=MAX_ITERATIONS):
    """One batch of ``solve_fibers`` through ``_reference_iterate``.

    Residuals and ``ok`` are computed afresh at the final iterates, and the
    bound's evaluation scale in complex arithmetic.
    """
    coeffs = p.coeffs
    floor = np.maximum(np.abs(coeffs[1:]).max(), np.abs(coeffs[0] - targets))
    abs_coeffs = np.abs(coeffs).astype(np.complex128)
    abs_coeffs[0] = 0.0
    const_shift = np.abs(coeffs[0] - targets)
    dcoeffs = derivative(p).coeffs

    def bounds_of(z, members):
        scale = _horner(abs_coeffs, np.abs(z)).real + const_shift[members, None]
        return tol * np.maximum(scale, floor[members, None])

    z = roots_mod._initial_points(coeffs, targets, p.degree)
    z = _reference_iterate(coeffs, dcoeffs, targets, z, bounds_of, max_iter)
    res = np.abs(_horner(coeffs, z) - targets[:, None])
    ok = (res <= bounds_of(z, np.arange(targets.size))).all(axis=1)
    return z, res, ok


def _seeded_fibers(d, monic, m=300):
    """A seeded degree-d polynomial and m targets in its escape square."""
    rng = np.random.default_rng(100 + d)
    coeffs = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
    if monic:
        coeffs[-1] = 1.0
    p = Polynomial(coeffs)
    return p, escape_radius(p) * (rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m))


class TestReferenceSolver:
    """``solve_fibers`` gives the reference loop's results bit for bit."""

    @pytest.mark.parametrize("monic", [False, True], ids=["general", "monic"])
    # d = 3 adds its sums in sequence; from d = 4 on they go round four
    # lanes, with 0 to 3 columns left over; d = 66 below splits them in two
    @pytest.mark.parametrize("d", [*range(3, 10), 12, 16])
    # every member here converges within 200 steps, so 200 gives the bits of
    # the full budget, and 3 steps converge none; the two tests below run
    # the full budget, the second on members that need more than 200
    @pytest.mark.parametrize("max_iter", [200, 3])
    def test_bitwise_equal_to_reference(self, d, monic, max_iter):
        p, targets = _seeded_fibers(d, monic)
        expected = _reference_solve(p, targets, max_iter=max_iter)
        for a, b in zip(roots_mod.solve_fibers(p, targets, max_iter=max_iter),
                        expected):
            assert np.array_equal(a, b)

    def test_bitwise_equal_to_reference_above_degree_64(self):
        p, targets = _seeded_fibers(66, monic=False, m=20)
        expected = _reference_solve(p, targets, max_iter=3)
        for a, b in zip(roots_mod.solve_fibers(p, targets, max_iter=3), expected):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("d", [*range(2, 81), 129, 257])
    def test_planned_sums_equal_numpy_sum(self, d):
        # rows of an antisymmetric matrix with a zero diagonal, the shape of
        # the Aberth terms 1/(w_i - w_j); numpy sums each contiguous row
        rng = np.random.default_rng(d)
        members = 5
        shape = (d * (d - 1) // 2, members)
        pairs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        i, j = np.triu_indices(d, 1)  # ordered by i, as the solver's by_row
        matrix = np.zeros((members, d, d), dtype=np.complex128)
        matrix[:, i, j] = pairs.T
        matrix[:, j, i] = -pairs.T
        by_col = pairs[np.lexsort((i, j))]
        count, steps = roots_mod._sum_plan(d)
        acc = np.empty((count, d, members), dtype=np.complex128)
        sums = roots_mod._row_sums(steps, pairs, by_col, acc)
        expected = np.ascontiguousarray(matrix.sum(axis=-1).T)
        assert np.array_equal(sums.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("d", range(3, 13))
    def test_colliding_start_points(self, monkeypatch, d):
        original = roots_mod._initial_points

        def colliding(coeffs, targets, degree):
            z = original(coeffs, targets, degree)
            z[:, 1] = z[:, 0]  # two starts of every member coincide exactly
            return z

        monkeypatch.setattr(roots_mod, "_initial_points", colliding)
        p, targets = _seeded_fibers(d, monic=False)
        start = colliding(p.coeffs, targets, d)
        # no member starts converged, so the first step nudges every pair
        # apart; no step overflows p(z), or the suite's warning filter fails
        assert not (np.abs(evaluate(p, start) - targets[:, None])
                    <= 1e-10 * np.abs(p.coeffs).max()).all(axis=1).any()
        got = roots_mod.solve_fibers(p, targets)
        assert got[2].all()
        for a, b in zip(got, _reference_solve(p, targets)):
            assert np.array_equal(a, b)

    def test_tiny_leading_coefficient_converges(self):
        # 1e-60 z**3: every member needs more than 200 steps, and the
        # single pass converges all of them
        p = Polynomial([0, 0, 0, 1e-60])
        rng = np.random.default_rng(60)
        targets = escape_radius(p) * np.sqrt(rng.uniform(0, 1, 500)) * np.exp(
            2j * np.pi * rng.uniform(0, 1, 500))
        got = roots_mod.solve_fibers(p, targets)
        assert got[2].all()
        for a, b in zip(got, _reference_solve(p, targets)):
            assert np.array_equal(a, b)


class TestCriticalPoints:
    def test_quadratic_family(self):
        rs = critical_points(Polynomial([0.2j, 0, 1]))
        assert len(rs) == 1
        assert abs(rs.roots[0]) <= 1e-12

    def test_double_critical_point_is_exact(self):
        # p' = 3c z^2 is solved in closed form, with no split of the double root
        rs = critical_points(monomial(0.6 + 0.8j, 3))
        assert np.array_equal(rs.roots, [0, 0])

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

    def test_parabolic_quadratic_has_none(self):
        # z^2 + 1/4 has one fixed point, the double root 1/2, of multiplier
        # exactly 1; the sampler then seeds from 1+0i (tests/test_julia.py)
        with pytest.raises(NoRepellingFixedPointError):
            repelling_fixed_point(Polynomial([0.25, 0, 1]))

    def test_error_type_available_for_fallback(self):
        assert issubclass(NoRepellingFixedPointError, RuntimeError)
