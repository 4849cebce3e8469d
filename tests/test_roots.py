import tracemalloc

import numpy as np
import pytest

import juliahull.julia as julia_mod
import juliahull.roots as roots_mod
from juliahull import (
    AffineMap,
    Polynomial,
    RootSolveError,
    all_roots,
    chebyshev,
    conjugate,
    convex_hull,
    critical_points,
    escape_radius,
    evaluate,
    monomial,
    preimage_fibers,
    sample_julia,
    signed_distance,
)
from juliahull.polynomial import _horner, derivative
from juliahull.roots import _PLAN_CACHE_SIZE, MAX_ITERATIONS, RESIDUAL_TOL


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
        rs = all_roots(p)
        assert rs.residuals.max() <= RESIDUAL_TOL * np.abs(p.coeffs).max()
        assert len(rs) == 3

    def test_residual_bound_with_multiplicity(self):
        # (z-1)^2 (z+2): the double root is certified against the
        # backward-stable bound RESIDUAL_TOL * max(coeff scale, evaluation scale)
        p = Polynomial([2, -3, 0, 1])
        rs = all_roots(p)
        eval_scale = np.array([np.abs(p.coeffs) @ np.abs(r) ** np.arange(4)
                               for r in rs.roots])
        bound = RESIDUAL_TOL * np.maximum(np.abs(p.coeffs).max(), eval_scale)
        assert np.all(rs.residuals <= bound)
        assert len(rs) == 3

    def test_deterministic(self):
        p = Polynomial([0.3 + 0.1j, -1, 0.2j, 1])
        a = all_roots(p).roots
        b = all_roots(p).roots
        assert np.array_equal(a, b)

    def test_nonconvergence_carries_best_iterate(self, monkeypatch):
        # one Aberth step leaves the degree-7 roots short of the bound
        monkeypatch.setattr(roots_mod, "MAX_ITERATIONS", 1)
        p = Polynomial(np.arange(1, 9, dtype=complex))
        with pytest.raises(RootSolveError) as info:
            all_roots(p)
        # the target in the CLI's grammar, not a numpy repr
        assert str(info.value).startswith(
            "root iteration did not converge for target 0.0 (worst residual ")
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
    monkeypatch.setattr(roots_mod, "MAX_ITERATIONS", max_iter)
    whole = roots_mod.solve_fibers(p, targets)
    rng = np.random.default_rng(targets.size)
    mixed = rng.permutation(np.r_[np.arange(targets.size),
                                  np.arange(targets.size)[::3]])
    batches = [(mixed, roots_mod.solve_fibers(p, targets[mixed]))]
    if alone:
        batches += [([i], roots_mod.solve_fibers(p, targets[i:i + 1]))
                    for i in range(targets.size)]
    # three members per chunk: the last chunk is short unless 3 divides m
    monkeypatch.setattr(roots_mod, "_CHUNK_BUDGET", 3 * p.degree ** 2)
    batches.append((np.arange(targets.size),
                    roots_mod.solve_fibers(p, targets)))
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
        # the sampler's shared solves of repeated targets and the
        # preimage-convexity check's batched rounds both rest on this
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
        # the starts pass at step 0, before any Aberth sum is taken
        monkeypatch.setattr(roots_mod, "_row_sums", None)
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
        targets = _mixed_targets(p, 512, seed=5)
        exact = roots_mod._quadratic_roots(p.coeffs, targets)
        start = exact + 1e-3 * np.abs(exact) * np.exp(1j * np.arange(2))
        starts = []

        def perturbed(coeffs, t):
            starts.append(t.size)
            return start.copy()

        monkeypatch.setattr(roots_mod, "_quadratic_roots", perturbed)
        roots, res, ok = roots_mod.solve_fibers(p, targets)
        assert starts == [targets.size]
        assert ok.all()
        # the backward-stable bound of p(z) - t, whose constant term is a_0 - t
        shifted = np.abs(p.coeffs - np.eye(3)[0] * targets[:, None])
        scale = np.einsum("mrj,mj->mr", np.abs(roots)[..., None] ** np.arange(3), shifted)
        assert np.all(res <= RESIDUAL_TOL * np.maximum(shifted.max(axis=1)[:, None], scale))
        # each member's pair is the exact pair, in either order
        straight = np.abs(roots - exact).max(axis=1)
        crossed = np.abs(roots - exact[:, ::-1]).max(axis=1)
        assert np.minimum(straight, crossed).max() <= 1e-8 * np.abs(exact).max()


def _starts(coeffs, targets):
    """The Aberth starts of p(z) = t for the coefficients a_0..a_d of p."""
    return roots_mod._initial_points(roots_mod._plan(coeffs), targets)


def _reference_iterate(coeffs, dcoeffs, targets, z, bounds_of, max_iter):
    """The plain solver loop, the oracle for ``roots._iterate``.

    It gathers z[active] and scatters it back every step, masks the
    diagonal with a boolean eye and allocates every temporary anew.  It
    adds the columns of the (active, d, d) reciprocal tensor one by one,
    j = 0..d-1, the order of ``roots._row_sums``; the zero on the diagonal
    that it adds and the solver skips cannot change a bit, since a sum
    that starts at +0 never reads -0.  Its step is the solver's,
    w -= p / (p' - p S), with the same two guards for a zero divisor.
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
        inv = 1.0 / diff
        inv[:, eye] = 0.0
        sums = np.zeros_like(pv)
        for j in range(d):
            sums += inv[:, :, j]
        denom = dv - pv * sums
        denom = np.where(denom == 0, dv, denom)
        capped = np.maximum(np.abs(pv) / (1.0 + np.abs(za)), 1e-300)
        denom = np.where(denom == 0, capped, denom)
        z[active] = za - pv / denom
    return z


def _reference_solve(p, targets, max_iter=MAX_ITERATIONS):
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
        return RESIDUAL_TOL * np.maximum(scale, floor[members, None])

    z = _starts(coeffs, targets)
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
    @pytest.mark.parametrize("d", [*range(3, 10), 12, 16])
    # every member here converges within 200 steps, so 200 gives the bits of
    # the full budget, and 3 steps converge none; the two tests below run
    # the full budget, the second on members that need more than 200
    @pytest.mark.parametrize("max_iter", [200, 3])
    def test_bitwise_equal_to_reference(self, monkeypatch, d, monic, max_iter):
        p, targets = _seeded_fibers(d, monic)
        expected = _reference_solve(p, targets, max_iter=max_iter)
        monkeypatch.setattr(roots_mod, "MAX_ITERATIONS", max_iter)
        for a, b in zip(roots_mod.solve_fibers(p, targets), expected):
            assert np.array_equal(a, b)

    def test_bitwise_equal_to_reference_above_degree_64(self, monkeypatch):
        p, targets = _seeded_fibers(66, monic=False, m=20)
        expected = _reference_solve(p, targets, max_iter=3)
        monkeypatch.setattr(roots_mod, "MAX_ITERATIONS", 3)
        for a, b in zip(roots_mod.solve_fibers(p, targets), expected):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("d", [*range(2, 81), 129, 257])
    def test_planned_sums_equal_numpy_sum(self, d):
        # rows of an antisymmetric matrix with a zero diagonal, the shape of
        # the Aberth terms 1/(w_i - w_j); _row_sums adds the columns in turn
        rng = np.random.default_rng(d)
        members = 5
        shape = (d * (d - 1) // 2, members)
        pairs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        i, j = np.triu_indices(d, 1)  # ordered by i, as the solver's by_row
        matrix = np.zeros((members, d, d), dtype=np.complex128)
        matrix[:, i, j] = pairs.T
        matrix[:, j, i] = -pairs.T
        by_col = pairs[np.lexsort((i, j))]
        sums = roots_mod._row_sums(pairs, by_col,
                                   np.empty((d, members), dtype=np.complex128))
        # bit for bit the sum of the columns in order, diagonal included
        columns = np.zeros((members, d), dtype=np.complex128)
        for k in range(d):
            columns += matrix[:, :, k]
        assert np.array_equal(sums.view(np.uint64),
                              np.ascontiguousarray(columns.T).view(np.uint64))
        # numpy's pairwise row sum agrees to rounding, and bit for bit below
        # d = 4, where it too adds in sequence
        expected = matrix.sum(axis=-1).T
        bound = 2 * d * np.finfo(float).eps * np.abs(matrix).sum(axis=-1).T
        assert np.all(np.abs(sums - expected) <= bound)
        if d < 4:
            assert np.array_equal(sums, expected)

    @pytest.mark.parametrize("d", range(3, 13))
    def test_colliding_start_points(self, monkeypatch, d):
        original = roots_mod._initial_points

        def colliding(plan, targets):
            z = original(plan, targets)
            z[:, 1] = z[:, 0]  # two starts of every member coincide exactly
            return z

        monkeypatch.setattr(roots_mod, "_initial_points", colliding)
        p, targets = _seeded_fibers(d, monic=False)
        start = colliding(roots_mod._plan(p.coeffs), targets)
        # no member starts converged, so the first step nudges every pair
        # apart; no step overflows p(z), or the suite's warning filter fails
        assert not (np.abs(evaluate(p, start) - targets[:, None])
                    <= 1e-10 * np.abs(p.coeffs).max()).all(axis=1).any()
        got = roots_mod.solve_fibers(p, targets)
        assert got[2].all()
        for a, b in zip(got, _reference_solve(p, targets)):
            assert np.array_equal(a, b)

    @staticmethod
    def _start_from(monkeypatch, row):
        """Start every member of a solve from the same row of d points."""
        row = np.asarray(row, dtype=np.complex128)
        monkeypatch.setattr(roots_mod, "_initial_points",
                            lambda plan, targets: np.tile(row, (targets.size, 1)))
        return row

    @staticmethod
    def _aberth_sums(w):
        """S_i = sum over j != i of 1/(w_i - w_j) for one member's iterates."""
        diff = w[:, None] - w[None, :]
        np.fill_diagonal(diff, np.inf)
        return (1.0 / diff).sum(axis=1)

    def _assert_converges_as_reference(self, p, targets):
        got = roots_mod.solve_fibers(p, targets)
        assert got[2].all()
        for a, b in zip(got, _reference_solve(p, targets)):
            assert np.array_equal(a, b)

    # Non-real targets: a real polynomial at a real target keeps real
    # starts on the real axis (TestNewtonPolygonStart), whatever the guards.
    @pytest.mark.parametrize("row", [[1, -1, 0.3 + 0.2j], [-1, 0.5j, 1]])
    def test_start_on_a_critical_point(self, monkeypatch, row):
        # p' = 3 z^2 - 3 vanishes at the starts +-1, where the first step
        # divides by p' - p S alone
        p = Polynomial([0, -3, 0, 1])
        row = self._start_from(monkeypatch, row)
        assert np.count_nonzero(evaluate(derivative(p), row) == 0) == 2
        rng = np.random.default_rng(33)
        self._assert_converges_as_reference(p, rng.normal(size=40) + 1j * rng.normal(size=40))

    @pytest.mark.parametrize("a", [0.25, 1.0, 3.0])
    def test_zero_derivative_and_zero_sum(self, monkeypatch, a):
        # at the middle start 0 of z^3 - t, p' = 0 and S = 1/a - 1/a = 0:
        # Aberth's step is unbounded, and the guard steps by 1 + |w| = 1
        p = monomial(1.0, 3)
        row = self._start_from(monkeypatch, [-a, 0, a])
        assert evaluate(derivative(p), row)[1] == 0 and self._aberth_sums(row)[1] == 0
        rng = np.random.default_rng(34)
        targets = rng.normal(size=40) + 1j * rng.normal(size=40)
        with monkeypatch.context() as patch:
            patch.setattr(roots_mod, "MAX_ITERATIONS", 1)
            first_step = roots_mod.solve_fibers(p, targets)[0][:, 1]
        assert np.allclose(np.abs(first_step), 1.0, rtol=1e-15)
        self._assert_converges_as_reference(p, targets)

    def test_zero_denominator_takes_the_newton_step(self, monkeypatch):
        # z^3 at t = -0.5 + 1.5i from 1, 0 and 1 + i: at the start 1,
        # p = 1.5 - 1.5i and S = 1 + i, so p S = 3 = p' exactly, and the
        # step is p / p' = 0.5 - 0.5i
        p = monomial(1.0, 3)
        row = self._start_from(monkeypatch, [1, 0, 1 + 1j])
        target = np.array([-0.5 + 1.5j])
        pv = evaluate(p, row) - target
        assert np.array_equal(pv[0] * self._aberth_sums(row)[0:1],
                              evaluate(derivative(p), row[0:1]))
        with monkeypatch.context() as patch:
            patch.setattr(roots_mod, "MAX_ITERATIONS", 1)
            assert roots_mod.solve_fibers(p, target)[0][0, 0] == 0.5 + 0.5j
        self._assert_converges_as_reference(p, target)

    def test_tiny_leading_coefficient_converges(self):
        # 1e-60 z**3: from the Cauchy circle these members took up to 275
        # steps; the Newton-polygon start, at the roots of its one edge
        # binomial turned by _START_TURN, takes 2
        p = Polynomial([0, 0, 0, 1e-60])
        rng = np.random.default_rng(60)
        targets = escape_radius(p) * np.sqrt(rng.uniform(0, 1, 500)) * np.exp(
            2j * np.pi * rng.uniform(0, 1, 500))
        got = roots_mod.solve_fibers(p, targets)
        assert got[2].all()
        for a, b in zip(got, _reference_solve(p, targets)):
            assert np.array_equal(a, b)


class TestNewtonPolygonStart:
    """Aberth starts on the circles of the Newton polygon of p - t."""

    @pytest.mark.parametrize("c, d", [(1.0, 3), (0.6 + 0.8j, 5), (1e-60, 3), (3e4j, 7)])
    def test_monomial_fiber_starts_on_one_circle(self, monkeypatch, c, d):
        # c z^d - t: one edge from 0 to d, the circle of radius |t/c|^(1/d)
        coeffs = np.zeros(d + 1, dtype=np.complex128)
        coeffs[-1] = c
        targets = np.array([1.0, 0.5j, -2e-3 + 7j, 3e5])
        z = _starts(coeffs, targets)
        expected = np.abs(targets / c) ** (1.0 / d)
        assert np.allclose(np.abs(z), expected[:, None], rtol=1e-12, atol=0)
        # at the d-th roots of t/c, turned by _START_TURN of their spacing
        turned = np.exp(1j * np.angle(targets / c)[:, None] / d + 2j * np.pi
                        * (np.arange(d) + roots_mod._START_TURN) / d)
        gaps = np.abs((z / np.abs(z))[:, :, None] - turned[:, None, :])
        assert np.all(gaps.min(axis=1) <= 1e-12)  # one start per turned root
        # a small turn off the exact roots: Aberth takes two steps at most
        steps = []
        row_sums = roots_mod._row_sums
        monkeypatch.setattr(roots_mod, "_row_sums",
                            lambda *args: steps.append(1) or row_sums(*args))
        assert roots_mod.solve_fibers(Polynomial(coeffs), targets)[2].all()
        assert len(steps) <= 2

    @pytest.mark.parametrize("t", [1.0 - 1e-6, 1.0 + 1e-3j, 0.9, 1.2])
    def test_chebyshev_fiber_near_its_critical_value(self, t):
        # T_4 - t = 8 z^4 - 8 z^2 + (1 - t): the first edge, from 0 to 2,
        # puts two starts at radius sqrt(|1 - t| / 8), the edge from 2 to 4
        # two on the unit circle
        z = _starts(chebyshev(4).coeffs, np.array([t]))[0]
        assert np.allclose(np.abs(z[:2]), np.sqrt(abs(1.0 - t) / 8.0), rtol=1e-12)
        assert np.allclose(np.abs(z[2:]), 1.0, rtol=1e-12)

    def test_target_equal_to_constant_term(self):
        # a_0 - t = 0: the roots at 0 start at a tiny radius, and every
        # member converges
        p = chebyshev(5)  # odd: a_0 = 0, a simple root at 0
        z = _starts(p.coeffs, np.zeros(1, dtype=np.complex128))
        assert np.abs(z[0, 0]) < 1e-300
        roots, _, ok = roots_mod.solve_fibers(p, [0.0])
        assert ok.all()
        assert np.min(np.abs(roots)) < 1e-300

    def test_real_fibers_leave_the_real_axis(self):
        # A real polynomial at a real target has conjugation-symmetric edge
        # binomials, and Aberth keeps a symmetric start symmetric up to
        # rounding, so starts on the binomials' own roots can be held on
        # the real axis.  With _START_TURN = 0, 7 of these 11,060 members
        # stay unconverged; with the turn, every member converges (0.3 to
        # 0.5 s on a 2-vCPU machine).
        rng = np.random.default_rng(0)
        for d in range(3, 13):
            fibers = []
            for _ in range(12):
                a = rng.uniform(-1, 1, d + 1)
                fibers.append((a, rng.uniform(-2, 2, 41)))
                # real coefficients spread over 10^-6..10^6
                a = rng.choice([-1.0, 1.0], d + 1) * 10.0 ** rng.uniform(-6, 6, d + 1)
                fibers.append((a, a[0] * rng.uniform(-2, 2, 41)))
            for sign in (1.0, -1.0):
                fibers.append((sign * chebyshev(d).coeffs, rng.uniform(-1.5, 1.5, 61)))
            for a, targets in fibers:
                assert roots_mod.solve_fibers(Polynomial(a), targets)[2].all()

    def test_starts_follow_an_affine_conjugate(self):
        # the fibers of g o T_5 o g^-1 over its Julia set lie within 1.4 of
        # the origin, and the Cauchy circle has radius 4.4
        g = AffineMap(0.7 - 1.1j, 0.3 + 0.2j)
        p = conjugate(chebyshev(5), g)
        targets = g(np.linspace(-1, 1, 64))
        z = _starts(p.coeffs, targets)
        roots, _, ok = roots_mod.solve_fibers(p, targets)
        assert ok.all()
        assert np.abs(z).max() <= 1.5 * np.abs(roots).max()


class TestGivenStarts:
    """``solve_fibers(p, targets, starts)``: finite rows replace the solver's starts."""

    @pytest.mark.parametrize("d", [2, 5])
    def test_non_finite_rows_take_the_solvers_own_starts(self, d):
        p, targets = _seeded_fibers(d, monic=False, m=40)
        cold = roots_mod.solve_fibers(p, targets)
        starts = np.full((targets.size, d), np.nan, dtype=np.complex128)
        starts[::3, 0] = np.inf
        starts[1::3, 1:] = 0.5  # one nan left in the row
        for a, b in zip(cold, roots_mod.solve_fibers(p, targets, starts)):
            assert np.array_equal(a, b)

    def test_exact_starts_take_no_step(self, monkeypatch):
        # the cold roots meet the residual bound, so given as starts they
        # are frozen before any step, and come back bit for bit
        p, targets = _seeded_fibers(5, monic=False, m=40)
        roots, res, ok = roots_mod.solve_fibers(p, targets)
        steps = []
        row_sums = roots_mod._row_sums
        monkeypatch.setattr(roots_mod, "_row_sums",
                            lambda *args: steps.append(1) or row_sums(*args))
        again = roots_mod.solve_fibers(p, targets, roots)
        assert not steps
        for a, b in zip((roots, res, ok), again):
            assert np.array_equal(a, b)

    def test_a_member_depends_on_its_own_target_and_starts(self, monkeypatch):
        # rows of nearby fibers as starts, in chunks of three members, give
        # each member's result of a solve of that member alone
        p, targets = _seeded_fibers(4, monic=False, m=30)
        starts = roots_mod.solve_fibers(p, targets + 1e-3)[0]
        starts[::4] = np.nan
        whole = roots_mod.solve_fibers(p, targets, starts)
        assert whole[2].all()
        monkeypatch.setattr(roots_mod, "_CHUNK_BUDGET", 3 * p.degree ** 2)
        chunked = roots_mod.solve_fibers(p, targets, starts)
        for i in range(targets.size):
            alone = roots_mod.solve_fibers(p, targets[i:i + 1], starts[i:i + 1])
            for a, b, c in zip(whole, chunked, alone):
                assert np.array_equal(a[i:i + 1], b[i:i + 1])
                assert np.array_equal(a[i:i + 1], c)

    def test_starts_must_hold_a_row_per_target(self):
        p, targets = _seeded_fibers(3, monic=False, m=4)
        for shape in ((4, 2), (3, 3), (12,)):
            with pytest.raises(ValueError, match="one row of d starts"):
                roots_mod.solve_fibers(p, targets, np.zeros(shape, dtype=complex))


def _log_coefficients(monkeypatch, module, name):
    """Wrap ``module.name`` to log the coefficient bytes it is called with.

    Its first argument is a Polynomial or a coefficient vector.
    """
    log = []
    original = getattr(module, name)

    def logged(first, *args, **kwargs):
        log.append(getattr(first, "coeffs", first).tobytes())
        return original(first, *args, **kwargs)

    monkeypatch.setattr(module, name, logged)
    return log


class TestSolverPlan:
    """Each coefficient vector's plan is built once and kept in a small cache."""

    @staticmethod
    def _random_polynomials(count, d=5, seed=9):
        rng = np.random.default_rng(seed)
        return [Polynomial(rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1))
                for _ in range(count)]

    def test_a_sample_builds_each_plan_once(self, monkeypatch):
        p = self._random_polynomials(1)[0]
        roots_mod._cached_plan.cache_clear()
        built = _log_coefficients(monkeypatch, roots_mod, "_build_plan")
        solved = _log_coefficients(monkeypatch, julia_mod, "solve_fibers")
        sample_julia(p, 100_000, seed=0)
        # p is solved once per sampler step, and its plan built once
        assert solved.count(p.coeffs.tobytes()) > 10
        assert p.coeffs.tobytes() in built
        assert len(built) == len(set(built))

    def test_solve_after_eviction_matches_a_cold_cache(self, monkeypatch):
        p, targets = _seeded_fibers(5, monic=False)
        roots_mod._cached_plan.cache_clear()
        built = _log_coefficients(monkeypatch, roots_mod, "_build_plan")
        cold = roots_mod.solve_fibers(p, targets)
        for q in self._random_polynomials(2 * _PLAN_CACHE_SIZE):
            roots_mod.solve_fibers(q, targets[:4])
        evicted = roots_mod.solve_fibers(p, targets)  # p's plan is built again
        cached = roots_mod.solve_fibers(p, targets)
        assert built.count(p.coeffs.tobytes()) == 2
        for solved in (evicted, cached):
            for a, b in zip(cold, solved):
                assert np.array_equal(a, b)

    def test_cache_holds_at_most_its_size(self):
        roots_mod._cached_plan.cache_clear()
        for q in self._random_polynomials(3 * _PLAN_CACHE_SIZE, d=3):
            roots_mod.solve_fibers(q, [0.5, 2.0j])
            assert roots_mod._cached_plan.cache_info().currsize <= _PLAN_CACHE_SIZE
        assert roots_mod._cached_plan.cache_info().currsize == _PLAN_CACHE_SIZE

    def test_a_cached_plan_keeps_one_pair_table(self):
        # At degree 1024, col_order is d(d - 1)/2 int64 indices, 4.0 MiB.
        # With the row of each pair kept as well, the cached plan held 8.09
        # MiB; that table is now built only when two iterates collide.
        coeffs = np.random.default_rng(3).normal(size=1025).astype(np.complex128)
        roots_mod._cached_plan.cache_clear()
        tracemalloc.start()
        try:
            roots_mod._plan(coeffs)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            roots_mod._cached_plan.cache_clear()
        assert held <= 4.5 * 2 ** 20


class TestNonFiniteResidual:
    def test_overflowed_bound_is_not_convergence(self):
        # sum |a_j| |z|^j overflows at the root near -8e45: the bound is inf,
        # and inf <= inf once read as converged; numpy does not warn
        p = Polynomial([1, 2, 3, 4, 5, 6, 7, 8, 1e-45])
        roots, res, ok = roots_mod.solve_fibers(p, [0.5])
        assert not ok.any()
        for targets in ([0.5], 0.5):
            with pytest.raises(RootSolveError, match="did not converge for target 0.5 "):
                preimage_fibers(p, targets)

    def test_converged_members_have_finite_residuals(self):
        # tiny leading coefficients at degree 8: every member reported as
        # converged has finite residuals
        rng = np.random.default_rng(8)
        for _ in range(4):
            coeffs = rng.normal(size=9) + 1j * rng.normal(size=9)
            coeffs[-1] *= 10.0 ** rng.uniform(-60, -5)
            p = Polynomial(coeffs)
            targets = rng.normal(size=64) + 1j * rng.normal(size=64)
            _, res, ok = roots_mod.solve_fibers(p, targets)
            assert np.isfinite(res[ok]).all()


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
    """The sampler's seed is the repelling fixed point of largest multiplier modulus."""

    def test_square_picks_one_not_zero(self, squaring):
        assert abs(julia_mod._orbit_seed(squaring) - 1.0) <= 1e-9

    def test_t2_fixed_point(self, t2):
        assert abs(julia_mod._orbit_seed(t2) - 1.0) <= 1e-9

    def test_basilica_larger_multiplier(self, basilica):
        # quadratic-formula oracle: fixed points (1 +- sqrt 5)/2, multiplier |2z|
        plus = (1 + np.sqrt(5)) / 2
        minus = (1 - np.sqrt(5)) / 2
        expected = plus if abs(2 * plus) > abs(2 * minus) else minus
        assert abs(julia_mod._orbit_seed(basilica) - expected) <= 1e-9

    def test_parabolic_quadratic_has_none(self):
        # z^2 + 1/4 has one fixed point, the double root 1/2, of multiplier
        # exactly 1, and its solved copies stay inside the margin; the
        # sampler then seeds at 1/2 itself (tests/test_julia.py)
        fixed = all_roots(Polynomial([0.25, -1, 1])).roots
        assert np.abs(2 * fixed).max() <= 1 + julia_mod._REPELLING_MARGIN
