import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage
from scipy.spatial import cKDTree

import juliahull.julia as julia_mod
import juliahull.roots as roots_mod
from juliahull import (
    AffineMap,
    Polynomial,
    boundary_cells,
    chebyshev,
    conjugate,
    convex_hull,
    escape_grid,
    escape_radius,
    evaluate,
    monomial,
    polygon_hausdorff,
    sample_julia,
    to_pgm,
)
from juliahull.geometry import SEGMENT
from juliahull.julia import EscapeGrid, SamplingError


def _hausdorff(a, b):
    """Symmetric sup-inf distance between two point clouds."""
    pa, pb = (np.column_stack([z.real, z.imag]) for z in (a, b))
    return max(cKDTree(pb).query(pa)[0].max(), cKDTree(pa).query(pb)[0].max())


def _sample_raster(cloud, grid):
    """``grid``'s cell layout, with the cells that hold a sample point true."""
    ix = np.round((cloud.points.real - grid.origin_real) / grid.cell_size).astype(int)
    iy = np.round((cloud.points.imag - grid.origin_imag) / grid.cell_size).astype(int)
    cells = np.zeros_like(grid.cells)
    cells[np.clip(iy, 0, grid.height - 1), np.clip(ix, 0, grid.width - 1)] = True
    return replace(grid, cells=cells)


def _area(grid):
    """Area of ``grid``'s true cells."""
    return float(grid.cells.sum()) * grid.cell_size ** 2


def _fill_holes(raster):
    """Empty cells unreachable from the border turn true."""
    return replace(raster, cells=ndimage.binary_fill_holes(raster.cells))


def _count_solves(monkeypatch):
    """Wrap the sampler's solve_fibers; returns the list of batch sizes."""
    calls = []
    original = julia_mod.solve_fibers

    def counting(p, targets, *args, **kwargs):
        calls.append(np.size(targets))
        return original(p, targets, *args, **kwargs)

    monkeypatch.setattr(julia_mod, "solve_fibers", counting)
    return calls


class TestSampleJulia:
    def test_unit_circle(self, squaring):
        cloud = sample_julia(squaring, 100_000, seed=7)
        assert len(cloud) == 100_000
        # quadratic fibers are solved exactly, to a few units in the last place
        assert np.abs(np.abs(cloud.points) - 1.0).max() <= 1e-15

    def test_unimodular_cubic_unit_circle(self):
        cloud = sample_julia(monomial(0.6 + 0.8j, 3), 100_000, seed=7)
        assert len(cloud) == 100_000
        assert np.abs(np.abs(cloud.points) - 1.0).max() <= 1e-6

    def test_chebyshev_segment(self, t2):
        cloud = sample_julia(t2, 100_000, seed=7)
        # +-sqrt of a real in [0, 1]: the closed-form fiber stays on the axis
        assert np.all(cloud.points.imag == 0)
        assert convex_hull(cloud).kind == SEGMENT
        assert cloud.points.real.min() >= -1 - 1e-6
        assert cloud.points.real.max() <= 1 + 1e-6

    def test_reproducible_and_seed_sensitive(self, basilica):
        a = sample_julia(basilica, 10_000, seed=3).points
        b = sample_julia(basilica, 10_000, seed=3).points
        c = sample_julia(basilica, 10_000, seed=4).points
        assert np.array_equal(a, b)
        # z0's complete tree down to its first level of 2048 fibers is the
        # same at every seed; the seed draws the branches after it
        prefix = 2 * (2 * 2048)
        assert np.array_equal(a[:prefix], c[:prefix])
        assert not np.array_equal(a[prefix:], c[prefix:])

    def test_points_stay_inside_escape_disk(self, basilica):
        cloud = sample_julia(basilica, 5_000, seed=1)
        assert np.abs(cloud.points).max() <= escape_radius(basilica) + 1e-9

    def test_validation(self, squaring):
        with pytest.raises(ValueError):
            sample_julia(squaring, 50, seed=0)
        with pytest.raises(ValueError):
            sample_julia(Polynomial([0, 1]), 1000, seed=0)

    def test_hull_diameter_matches_grid_oracle(self, basilica):
        cloud = sample_julia(basilica, 100_000, seed=5)
        cloud_diam = convex_hull(cloud).diameter
        grid = escape_grid(basilica, resolution=2048, max_iter=300)
        grid_diam = convex_hull(boundary_cells(grid)).diameter
        assert cloud_diam == pytest.approx(grid_diam, rel=0.01)

    def test_consecutive_pairs_are_preimages(self, monkeypatch, basilica):
        pairs = []
        original = julia_mod._pullback

        def recorded(p, z):
            fiber = original(p, z)
            pairs.append((z.copy(), fiber.copy()))
            return fiber

        monkeypatch.setattr(julia_mod, "_pullback", recorded)
        sample_julia(basilica, 16_001, seed=2)
        for parents, fiber in pairs:
            # every root of every solved fiber, not only the followed branch
            assert fiber.shape == (parents.size, basilica.degree)
            assert np.abs(evaluate(basilica, fiber) - parents[:, None]).max() <= 1e-8
        # the first step leaves aside z0's root nearest z0
        (z0,), first = pairs[0]
        assert np.array_equal(pairs[1][0], np.delete(first, np.argmin(np.abs(first - z0))))
        for (parents, fiber), (children, _) in zip(pairs[1:], pairs[2:]):
            if parents.size < 2048:
                # the next level of the tree: every root, in order
                assert np.array_equal(children, fiber.ravel()[:children.size])
            else:
                # each orbit goes on from one root of its own fiber; the
                # last step solves only the first orbits
                assert np.all((fiber[:children.size] == children[:, None]).any(axis=1))
        assert [z.size for z, _ in pairs].count(2048) == 2

    def test_sample_is_made_of_whole_fibers(self, basilica):
        # every fiber is kept whole, and n is a multiple of d = 2
        points = sample_julia(basilica, 8192, seed=4).points
        pairs = points.reshape(-1, basilica.degree)
        images = evaluate(basilica, pairs)
        assert np.abs(images[:, 1] - images[:, 0]).max() <= 1e-8
        assert np.abs(pairs.sum(axis=1)).max() <= 1e-8  # roots of z^2 - 1 = t

    def test_solver_calls_pinned(self, monkeypatch, basilica):
        calls = _count_solves(monkeypatch)
        n, m, d = 100_000, 2048, basilica.degree
        sample_julia(basilica, n, seed=0)
        # the fixed point's fiber, then its other root, then every root of
        # each level until a level holds m; then m orbits
        assert calls[:12] == [1] + [2 ** k for k in range(11)]
        assert set(calls[12:-1]) == {m} and len(calls) == 36
        # every solved fiber is kept: the last step solves only the 848 it needs
        assert sum(calls) == n // d and calls[-1] == 848

    @pytest.mark.parametrize("p, n", [
        (Polynomial([-1, 0, 1]), 100_000),
        (monomial(0.6 + 0.8j, 3), 100_000),
        (chebyshev(4), 100_000),
        (Polynomial([0.3 - 0.2j, 0.1j, -0.5, 0.2 + 0.1j, 0.4, 1]), 100_000),
        (Polynomial([0.3 - 0.2j, 0.1j, -0.5, 0.2 + 0.1j, 1]), 2_048 * 4 * 3),
        (Polynomial([-1, 0, 1]), 999),
    ], ids=["d2", "d3", "d4", "d5", "d4-exact-multiple", "small-batch"])
    def test_last_step_solves_only_kept_members(self, monkeypatch, p, n):
        calls = _count_solves(monkeypatch)
        cloud = sample_julia(p, n, seed=0)
        # each solved fiber is kept, the last one in part when d does not divide n
        assert sum(calls) == math.ceil(n / p.degree)
        assert max(calls) <= min(2048, n)
        assert len(cloud) == n

    def test_trim_changes_no_sample_bit(self, monkeypatch):
        # a sample is the prefix of any larger one at the same seed, whether
        # its last step falls in the complete tree (3_001) or after the
        # orbits branch at random (90_001)
        p = Polynomial([0.3 - 0.2j, 0.1j, -0.5, 0.2 + 0.1j, 1])
        full = sample_julia(p, 100_000, seed=3).points
        for n, complete in ((3_001, True), (90_001, False)):
            calls = _count_solves(monkeypatch)
            trimmed = sample_julia(p, n, seed=3).points
            assert sum(calls) == math.ceil(n / 4)
            assert (max(calls) < 2048) == complete
            assert np.array_equal(_bits(trimmed), _bits(full[:n]))

    def test_one_more_pullback_is_stationary(self, basilica):
        cloud = sample_julia(basilica, 100_000, seed=6)
        hull = convex_hull(cloud)
        from juliahull.roots import solve_fibers
        rng = np.random.Generator(np.random.Philox(99))
        roots, _, ok = solve_fibers(basilica, cloud.points)
        assert ok.all()
        picks = roots[np.arange(len(cloud)), rng.integers(0, 2, len(cloud))]
        pulled_hull = convex_hull(picks)
        drift = polygon_hausdorff(hull, pulled_hull)
        assert drift <= 1e-2 * hull.diameter

    def test_affine_equivariance(self, basilica):
        g = AffineMap(2.0, 1j)
        q = conjugate(basilica, g)
        base = sample_julia(basilica, 50_000, seed=8)
        moved = sample_julia(q, 50_000, seed=8)
        hull = convex_hull(moved)
        image = g.a * base.points + g.b
        assert polygon_hausdorff(convex_hull(image), hull) <= 1e-5 * hull.diameter
        assert _hausdorff(image, moved.points) <= 1e-2 * hull.diameter

    @pytest.mark.parametrize("p", [Polynomial([-1, 0, 1]), Polynomial([0.3 - 0.2j, 0.1j, -0.5, 1])],
                             ids=["d2", "d3"])
    def test_branch_of_rank_follows_the_key_order(self, p):
        # rank r is the root with the r-th least Re((w - c) conj(e^i (t - c)))
        rng = np.random.default_rng(0)
        d, m = p.degree, 200
        targets = rng.normal(size=m) + 1j * rng.normal(size=m)
        fiber, _, ok = roots_mod.solve_fibers(p, targets)
        assert ok.all()
        c = -p.coeffs[-2] / (d * p.coeffs[-1])
        key = ((fiber - c) * np.conj(np.exp(1j) * (targets - c))[:, None]).real
        expected = [[fiber[i, j] for j in sorted(range(d), key=lambda j: key[i, j])]
                    for i in range(m)]
        assert np.array_equal(julia_mod._ranked(p, fiber, targets), expected)

    @pytest.mark.parametrize("p, g", [
        (Polynomial([-0.12 + 0.74j, 0, 1]), AffineMap(0.3 - 1.1j, 0.5 - 2j)),
        (Polynomial([0.3 - 0.2j, 0.1j, -0.5, 1]), AffineMap(-1.0, 0.25j)),
        (Polynomial([0.3 - 0.2j, 0.1j, -0.5, 1]), AffineMap(0.3 - 1.1j, 0.5 - 2j)),
        (Polynomial([0.25, 0, 1]), AffineMap(2.0, 1j)),
        (Polynomial([0.25, 0, 1]), AffineMap(0.5 - 0.5j, 0.1)),
    ], ids=["rabbit", "cubic-turned", "cubic", "parabolic-scaled", "parabolic-turned"])
    def test_conjugate_sample_is_the_image(self, p, g):
        # fibers are kept in rank order and orbits draw ranks, not solver
        # columns, so one seed gives the image sample point by point, up to
        # the solver's accuracy, also in a partial last fiber (d divides
        # no n here).  Both parabolic maps seed at the image of 1/2: the
        # second one 7.5e-9 off it, where rounding lifts |lambda| past the
        # margin
        n = 20_003
        base = sample_julia(p, n, seed=1).points
        moved = sample_julia(conjugate(p, g), n, seed=1).points
        gap = np.abs(g.a * base + g.b - moved).max()
        assert gap <= 1e-6 * convex_hull(moved).diameter

    def test_parabolic_quadratic_seeds_at_its_fixed_point(self, monkeypatch):
        # z^2 + 1/4: the one fixed point 1/2 is parabolic, on J_p, so the
        # orbits start there and discard no step
        p = Polynomial([0.25, 0, 1])
        assert julia_mod._orbit_seed(p) == 0.5
        calls = _count_solves(monkeypatch)
        n = 10_001
        cloud = sample_julia(p, n, seed=1)
        assert sum(calls) == math.ceil(n / 2)
        assert len(cloud) == n

    def test_parabolic_seed_passes_over_an_attracting_fixed_point(self):
        # z^3 - 0.5i z^2 + z: none repels; the double fixed point 0 is
        # parabolic, on J_p, and 0.5i attracts (lambda = 0.75), in the
        # Fatou set, so the seed is the fixed point whose lambda lies
        # nearest 1, not the one of least or largest |lambda|
        p = Polynomial([0, 1, -0.5j, 1])
        assert abs(julia_mod._orbit_seed(p)) <= 1e-6

    @pytest.mark.parametrize("d", [24, 32, 64])
    def test_parabolic_cluster_seed_lies_at_zero(self, d):
        # z + z^d: all d fixed points sit at the parabolic 0, solved as a
        # cluster around it, and none repels
        p = Polynomial([0, 1] + [0] * (d - 2) + [1])
        assert abs(julia_mod._orbit_seed(p)) <= 1e-4
        assert len(sample_julia(p, 2_000, seed=0)) == 2_000

    def test_quadratic_sample_takes_no_solver_step(self, monkeypatch, basilica):
        # every fiber starts exact, so _iterate leaves its start untouched
        runs = []
        original = roots_mod._iterate

        def watched(plan, targets, z, bounds_of, max_iter):
            start = z.copy()
            out = original(plan, targets, z, bounds_of, max_iter)
            runs.append(np.array_equal(z, start))
            return out

        monkeypatch.setattr(roots_mod, "_iterate", watched)
        sample_julia(basilica, 100_000, seed=0)
        assert runs and all(runs)

    def test_unconverged_solves_raise_sampling_error(self, unsolvable_fibers,
                                                     basilica):
        with pytest.raises(SamplingError, match="did not converge"):
            sample_julia(basilica, 1_000, seed=0)

    def test_escaped_point_raises_sampling_error(self, monkeypatch, basilica):
        monkeypatch.setattr(julia_mod, "escape_radius", lambda p: 1.0)
        with pytest.raises(SamplingError, match="escaped"):
            sample_julia(basilica, 1_000, seed=0)


def _bits(z):
    return np.ascontiguousarray(z).view(np.uint64)


_FIXED_POINT_SEEDS = {
    "basilica": Polynomial([-1, 0, 1]),
    "z^2": monomial(1, 2),
    "rotated-z^3": monomial(0.6 + 0.8j, 3),
    "T4": chebyshev(4),
    "quartic": Polynomial([0.3 - 0.2j, 0.1j, -0.5, 0.2 + 0.1j, 1]),
}
_FIXED_POINT_SEEDED = pytest.mark.parametrize(
    "p", list(_FIXED_POINT_SEEDS.values()), ids=list(_FIXED_POINT_SEEDS))


class TestDeduplicatedBurnIn:
    """The sample grows z0's preimage tree, and keeps no fiber twice."""

    @_FIXED_POINT_SEEDED
    def test_first_levels_are_the_complete_tree(self, p):
        # the first d^k points are p^-k(z0), which holds every shallower
        # level, as z0 is fixed: the complete tree of repeated fibers from
        # z0, with z0's own subtree in it, up to the solver's rounding.
        # T_4's z0 = 1 is a critical value, so the copy of z0 in the tree
        # has a fiber off by the square root of its rounding (2.8e-7).
        d = p.degree
        tol = 1e-6 if p is _FIXED_POINT_SEEDS["T4"] else 1e-9
        k = int(math.log(8_192, d) + 1e-9)  # 2^13, 3^8, 4^6 lie in the seed-free prefix
        level = np.array([julia_mod._orbit_seed(p)])
        for _ in range(k):
            level = roots_mod.preimage_fibers(p, level).ravel()
        points = sample_julia(p, d ** k, seed=5).points
        assert np.unique(_bits(points).reshape(-1, 2), axis=0).shape[0] == d ** k
        assert _hausdorff(points, level) <= tol * convex_hull(points).diameter

    @pytest.mark.parametrize("p", [chebyshev(2), Polynomial([-2, 0, 1])],
                             ids=["T2", "z^2-2"])
    def test_exact_double_root_grows_one_subtree(self, p):
        # z0's other root -1 (or -2) has the double root 0, kept twice in its
        # fiber but a target once; as two targets, 6,039 points would repeat
        points = sample_julia(p, 100_000, seed=0).points
        assert np.unique(_bits(points).reshape(-1, 2), axis=0).shape[0] == points.size - 1

    @pytest.mark.parametrize("p", [
        Polynomial([-1, 0, 1]),
        monomial(1, 2),
        monomial(0.6 + 0.8j, 3),
        Polynomial([0.3 - 0.2j, 0.1j, -0.5, 0.2 + 0.1j, 1]),
        Polynomial([0.25, 0, 1]),
    ], ids=["basilica", "z^2", "rotated-z^3", "quartic", "parabolic"])
    def test_fixed_point_sample_repeats_no_point(self, p):
        # T_d would not do: z0 = 1 is a critical value, so its fiber holds
        # critical points twice (T_4's holds 0 twice), and the subtrees of
        # the two copies may round to the same bits (T_4 at seeds 0 and 10);
        # z^2 + 1/4 seeds at its parabolic fixed point
        points = sample_julia(p, 100_000, seed=0).points
        assert np.unique(_bits(points).reshape(-1, 2), axis=0).shape[0] == points.size

    @pytest.mark.parametrize("p", [*_FIXED_POINT_SEEDS.values(), Polynomial([0.25, 0, 1])],
                             ids=[*_FIXED_POINT_SEEDS, "parabolic"])
    def test_each_fiber_hangs_from_the_seed_or_a_kept_point(self, monkeypatch, p):
        # so every sample point is an iterated preimage of the seed z0, a
        # repelling fixed point or, for z^2 + 1/4, the parabolic one
        target_of = _record_targets(monkeypatch)
        points = sample_julia(p, 20_000 // p.degree * p.degree, seed=1).points
        _assert_fibers_hang_from_kept_points(p, points, target_of)


def _record_targets(monkeypatch):
    """Wrap the sampler's _pullback; returns {ranked fiber bits: target bits}."""
    target_of = {}
    original = julia_mod._pullback

    def recording(p, targets):
        fiber = original(p, targets)
        for t, row in zip(_bits(targets).reshape(-1, 2), _bits(fiber).reshape(len(fiber), -1)):
            target_of[row.tobytes()] = t.tobytes()
        return fiber

    monkeypatch.setattr(julia_mod, "_pullback", recording)
    return target_of


def _assert_fibers_hang_from_kept_points(p, points, target_of):
    """Each whole fiber of ``points`` is that of the seed or of a point before it.

    No two of the fibers share a target.
    """
    d = p.degree
    seen = {_bits(np.array([julia_mod._orbit_seed(p)])).tobytes()}
    targets = [target_of[fiber.tobytes()] for fiber in _bits(points).reshape(-1, 2 * d)]
    assert len(set(targets)) == len(targets)
    for fiber, target in zip(_bits(points).reshape(-1, 2 * d), targets):
        assert target in seen
        seen.update(pair.tobytes() for pair in fiber.reshape(d, 2))


class TestEscapeGrid:
    def test_disk_area(self, squaring):
        grid = escape_grid(squaring, resolution=512, max_iter=200)
        assert _area(grid) == pytest.approx(np.pi, rel=0.02)

    def test_escaping_critical_orbit_leaves_thin_raster(self):
        p = Polynomial([4, 0, 1])
        radius = escape_radius(p)
        # oracle: the orbit of the critical point escapes almost immediately
        z, steps = 0j, 0
        while abs(z) <= radius:
            z = evaluate(p, z)
            steps += 1
        assert steps < 10
        grid = escape_grid(p, resolution=512, max_iter=200)
        assert _area(grid) < 0.05 * np.pi * radius ** 2

    def test_true_cells_inside_escape_disk(self, basilica):
        grid = escape_grid(basilica, resolution=256, max_iter=100)
        centers = grid.true_centers()
        assert np.abs(centers).max() <= grid.radius

    def test_more_iterations_never_revive_cells(self, basilica):
        low = escape_grid(basilica, resolution=256, max_iter=60)
        high = escape_grid(basilica, resolution=256, max_iter=120)
        assert not np.any(high.cells & ~low.cells)

    def test_grid_rectangle_contains_disk(self, t2):
        grid = escape_grid(t2, resolution=256, max_iter=60)
        left = grid.origin_real - 0.5 * grid.cell_size
        right = grid.origin_real + (grid.width - 1 + 0.5) * grid.cell_size
        assert left < -grid.radius and right > grid.radius

    def test_segment_julia_keeps_axis_row(self, t2):
        grid = escape_grid(t2, resolution=512, max_iter=200)
        centers = grid.true_centers()
        assert centers.size > 0
        assert np.abs(centers.imag).max() == 0.0
        assert centers.real.min() == pytest.approx(-1.0, abs=2 * grid.cell_size)
        assert centers.real.max() == pytest.approx(1.0, abs=2 * grid.cell_size)

    def test_validation(self, squaring):
        with pytest.raises(ValueError):
            escape_grid(squaring, resolution=32)
        with pytest.raises(ValueError):
            escape_grid(squaring, max_iter=10)


def _reference_cells(p, resolution, max_iter):
    """Plain escape loop: one step and one disk test per iteration, no exit."""
    grid = escape_grid(p, resolution, max_iter)
    # the grid's own center arithmetic: origin + i*cell can differ in the last bit
    axis = (np.arange(resolution) - resolution // 2) * grid.cell_size
    centers = (axis[None, :] + 1j * axis[:, None]).ravel()
    alive = np.flatnonzero(np.abs(centers) <= grid.radius)
    w = centers[alive]
    with np.errstate(over="ignore", invalid="ignore"):  # escapers may overflow
        for _ in range(max_iter):
            w = evaluate(p, w)
            inside = np.abs(w) <= grid.radius
            alive, w = alive[inside], w[inside]
    cells = np.zeros(centers.size, dtype=bool)
    cells[alive] = True
    return grid.cells, cells.reshape(grid.cells.shape)


def _random_polynomial(d, seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1, 1, d + 1) + 1j * rng.uniform(-1, 1, d + 1)
    coeffs[-1] += 1.0
    return Polynomial(coeffs)


class TestEscapeGridEarlyExit:
    @pytest.mark.parametrize("p,resolution,max_iter", [
        (Polynomial([-1, 0, 1]), 128, 200),                # basilica
        (Polynomial([-0.12 + 0.74j, 0, 1]), 128, 333),     # rabbit
        (Polynomial([-0.39 + 0.59j, 0, 1]), 96, 51),       # near-Siegel
        # parabolic: orbits near 1/2 creep, so escapers nearly repeat a value
        (Polynomial([0.25, 0, 1]), 256, 1000),
        (chebyshev(3), 128, 200),
        (monomial(np.exp(0.7j), 3), 100, 77),
        *[(_random_polynomial(d, seed=d), 96, 51 + 70 * d) for d in range(2, 7)],
        # unimodular: r_B is 1.0011, so the box hugs the bounded unit disk
        (monomial(np.exp(1j), 5), 128, 300),
    ])
    def test_cells_equal_per_step_reference(self, p, resolution, max_iter):
        cells, reference = _reference_cells(p, resolution, max_iter)
        assert np.array_equal(cells, reference)

    @pytest.mark.parametrize("p", [
        Polynomial([0, 1e150, 0, 1]),                      # odd: the mirror path
        Polynomial([0, 1e150, 1e-3, 1]),
    ])
    def test_overflowing_bisection_keeps_the_escape_radius(self, p):
        # L(R) overflows, so r_B = R; the fixed point 0 keeps its cell bounded
        radius = escape_radius(p)
        assert julia_mod._inner_radius(p, radius, julia_mod._BLOCK_STEPS) == radius
        cells, reference = _reference_cells(p, 64, 50)
        assert cells.sum() == 1
        assert np.array_equal(cells, reference)

    @pytest.mark.parametrize("c", [-1.0, -0.12 + 0.74j])
    def test_periodic_orbits_stop_early(self, c):
        # 1e6 steps per bounded cell would take minutes without the exit
        p = Polynomial([c, 0, 1])
        short = escape_grid(p, resolution=128, max_iter=1000)
        huge = escape_grid(p, resolution=128, max_iter=10 ** 6)
        assert short.cells.any()
        assert np.array_equal(huge.cells, short.cells)

    def test_block_schedule_keeps_cycle_detection(self, monkeypatch, basilica):
        # The block lengths 4, 4, 8, 16, 16, ... end on every power of two,
        # where Brent's snapshot is taken.  A schedule that skips one (a
        # fixed block of 6) never finds a cycle and would step 10**6 times,
        # so the count aborts the grid as soon as it passes the limit.
        calls = []

        def counting(coeffs, w, out=None):
            calls.append(w.size)
            if len(calls) > 300:
                raise AssertionError("the escape loop missed every cycle")
            return horner(coeffs, w, out=out)

        horner = julia_mod._horner
        monkeypatch.setattr(julia_mod, "_horner", counting)
        grid = escape_grid(basilica, resolution=64, max_iter=10 ** 6)
        assert grid.cells.any()
        assert len(calls) <= 300

    def test_overflow_within_a_block_is_silent(self, recwarn):
        # escaping orbits of a large-coefficient sextic pass 1e308 in one block
        p = Polynomial([0, 0, 0, 0, 0, 0, 1e6])
        with np.errstate(over="warn", invalid="warn"):
            grid = escape_grid(p, resolution=64, max_iter=50)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert grid.cells.any()


# zero, or modulus in [0.5, 1] * 10^k, |k| <= 150, at any angle
_coefficient = st.one_of(
    st.just(0j),
    st.builds(lambda mag, angle, k: mag * 10.0 ** k * complex(math.cos(angle), math.sin(angle)),
              st.floats(0.5, 1), st.floats(0, 2 * math.pi), st.integers(-150, 150)),
)


class TestInnerRadius:
    """r_B: centers beyond it leave the escape disk within the first block."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 9).flatmap(lambda d: st.lists(_coefficient, min_size=d + 1,
                                                        max_size=d + 1)),
           st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
    def test_points_beyond_leave_within_the_block(self, coeffs, steps, seed):
        if coeffs[-1] == 0:
            coeffs[-1] = 1.0
        p = Polynomial(coeffs)
        radius = escape_radius(p)
        radii = [julia_mod._inner_radius(p, radius, b) for b in range(steps + 1)]
        assert radii[0] == radius
        assert all(b <= a for a, b in zip(radii, radii[1:]))
        inner = radii[-1]
        rng = np.random.default_rng(seed)
        r = np.concatenate([inner + (radius - inner) * rng.uniform(size=500),
                            np.nextafter(np.full(100, inner), np.inf), [radius]])
        z = r * np.exp(2j * np.pi * rng.uniform(size=r.size))
        z = z[(np.abs(z) > inner) & (np.abs(z) <= radius)]
        # the plain per-step loop: a point is dropped at its first step outside
        left = np.zeros(z.size, dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(steps):
                z = julia_mod._horner(p.coeffs, z)
                left |= ~(np.abs(z) <= radius)
        assert left.all()

    def test_unimodular_monomial_hugs_the_unit_disk(self):
        # K_p is the closed unit disk, and t_k is about 2^(5^-k), which tends to 1
        p = monomial(np.exp(1j), 5)
        assert 1.0 < julia_mod._inner_radius(p, escape_radius(p), 4) < 1.002


def _count_bounded(monkeypatch):
    """Wrap the grid's _bounded; returns the list of point counts passed."""
    calls = []
    original = julia_mod._bounded

    def counting(p, z, max_iter, inner):
        calls.append(z.size)
        return original(p, z, max_iter, inner)

    monkeypatch.setattr(julia_mod, "_bounded", counting)
    return calls


def _box_side(p, resolution, max_iter):
    """Width of the centered index box |axis| <= r_B that escape_grid iterates."""
    grid = escape_grid(p, resolution, max_iter)
    inner = julia_mod._inner_radius(p, grid.radius,
                                    min(max_iter, julia_mod._BLOCK_STEPS))
    axis = (np.arange(resolution) - resolution // 2) * grid.cell_size
    inside = np.flatnonzero(np.abs(axis) <= inner)
    half = resolution // 2
    assert np.array_equal(inside, np.arange(2 * half - inside[-1], inside[-1] + 1))
    assert not grid.cells[:, :inside[0]].any() and not grid.cells[:, inside[-1] + 1:].any()
    return inside.size


class TestEscapeGridSymmetry:
    """Even and odd p iterate half the box and mirror the rest."""

    @pytest.mark.parametrize("p", [
        Polynomial([-1, 0, 1]),                             # basilica
        Polynomial([-0.12 + 0.74j, 0, 1]),                  # rabbit
        # the rabbit conjugated by z -> a z: even, with leading coefficient 1/a
        Polynomial([(0.8 - 0.3j) * (-0.12 + 0.74j), 0, 1 / (0.8 - 0.3j)]),
        chebyshev(4),
        Polynomial(-chebyshev(3).coeffs),                   # odd, lead -4
        Polynomial([0, 3, 0, 1]),
        monomial(0.6 + 0.8j, 3),
        Polynomial([0.1, 0, 0.3 + 0.2j, 0, 1.5 - 0.7j]),
    ], ids=["basilica", "rabbit", "even-lead", "cheb4", "negcheb3", "0,3,0,1",
            "monomial3", "quartic"])
    @pytest.mark.parametrize("resolution", [64, 65, 128, 129])
    def test_cells_equal_full_grid(self, p, resolution):
        grid = escape_grid(p, resolution, max_iter=120)
        axis = (np.arange(resolution) - resolution // 2) * grid.cell_size
        full = julia_mod._bounded(p, (axis[None, :] + 1j * axis[:, None]).ravel(), 120,
                                  grid.radius)
        assert grid.cells.any()
        assert np.array_equal(grid.cells, full.reshape(resolution, resolution))

    @pytest.mark.parametrize("p", [
        Polynomial([0.2, 0.1j, 1]),
        Polynomial([0, 1e-300, 1]),                         # a tiny odd term
        Polynomial([0.1, 0, 0, 1]),
        Polynomial([0, 0.5, 0.3j, 1]),                     # odd but for z^2
    ])
    @pytest.mark.parametrize("resolution", [64, 65])
    def test_parity_free_iterates_every_cell(self, monkeypatch, p, resolution):
        # every cell of the box, in one call
        side = _box_side(p, resolution, 60)
        calls = _count_bounded(monkeypatch)
        escape_grid(p, resolution, max_iter=60)
        assert calls == [side ** 2]
        assert side < resolution

    @pytest.mark.parametrize("resolution", [64, 65, 128, 129])
    def test_quadratic_iterates_about_half(self, monkeypatch, basilica, resolution):
        # the box rows up to the real axis; r_B = 1.629 of R = 3
        side = _box_side(basilica, resolution, 60)
        calls = _count_bounded(monkeypatch)
        escape_grid(basilica, resolution, max_iter=60)
        assert calls == [(side // 2 + 1) * side]
        assert side < 0.55 * resolution


class TestEscapeGridBands:
    """The iterated rows go to _bounded in bands of about _BAND_CENTERS centers."""

    @pytest.mark.parametrize("p", [
        Polynomial([-1, 0, 1]),                             # basilica: even
        Polynomial(-chebyshev(3).coeffs),                   # odd
        Polynomial([0.2 + 0.1j, 0.3j, 0, 1]),               # parity-free cubic
    ], ids=["basilica", "negcheb3", "cubic"])
    @pytest.mark.parametrize("resolution", [64, 65, 129])
    @pytest.mark.parametrize("band", ["one-row", "three-rows", "partial-last"])
    def test_bands_give_the_single_band_cells(self, monkeypatch, p, resolution, band):
        max_iter = 120
        monkeypatch.setattr(julia_mod, "_BAND_CENTERS", 1 << 40)
        single = escape_grid(p, resolution, max_iter).cells
        side = _box_side(p, resolution, max_iter)
        mirrored = not np.any(p.coeffs[(p.degree + 1) % 2::2])
        rows = side // 2 + 1 if mirrored else side
        band_rows = {"one-row": 1, "three-rows": 3, "partial-last": rows // 2 + 1}[band]
        # a budget between whole rows, or below one row, rounds down to them
        budget = 1 if band_rows == 1 else band_rows * side + side // 2
        monkeypatch.setattr(julia_mod, "_BAND_CENTERS", budget)
        calls = _count_bounded(monkeypatch)
        cells = escape_grid(p, resolution, max_iter).cells
        assert single.any() and np.array_equal(cells, single)
        # the calls partition the iterated rows of the box, in bands of band_rows
        assert sum(calls) == rows * side
        assert all(size <= budget or size == side for size in calls)
        assert calls[:-1] == [band_rows * side] * (len(calls) - 1)
        assert len(calls) == -(-rows // band_rows)
        if band == "partial-last":
            assert 0 < calls[-1] < band_rows * side

    @pytest.mark.parametrize("p", [Polynomial([-0.12 + 0.74j, 0, 1]),   # rabbit
                                   Polynomial([0.1, 0.2j, 0.3, 1])],     # parity-free
                             ids=["rabbit", "cubic"])
    def test_peak_memory_is_the_cells_and_one_band(self, p):
        # A band of 2^16 centers is 1 MiB of complex128; its moduli, masks,
        # indices and live orbits read 2.5-3.3 MiB over the cells at 2048^2.
        # Iterating the whole box at once read 19-31 MiB over.  The margin
        # of 6 MiB leaves about 2x room for numpy's temporaries.
        tracemalloc.start()
        try:
            grid = escape_grid(p, 2048, 50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.cells.any()
        assert peak <= grid.cells.nbytes + 6 * 2 ** 20


class TestHoloHullFill:
    """A sample rastered on the escape grid's cells, with its holes filled."""

    def test_filled_circle_cloud_matches_escape_area(self, squaring):
        # smooth boundary: the filled sample reproduces the bounded set's area
        cloud = sample_julia(squaring, 100_000, seed=3)
        grid = escape_grid(squaring, resolution=512, max_iter=200)
        raster = _sample_raster(cloud, grid)
        filled = _fill_holes(raster)
        assert _area(filled) == pytest.approx(_area(grid), rel=0.03)

    def test_filled_basilica_cloud_covers_escape_raster(self, basilica):
        # fractal boundary: the sampled band is wide, so area comparison is
        # meaningless, but the fill must cover the bounded raster exactly and
        # overshoot by at most the band itself
        cloud = sample_julia(basilica, 200_000, seed=3)
        grid = escape_grid(basilica, resolution=128, max_iter=300)
        raster = _sample_raster(cloud, grid)
        filled = _fill_holes(raster)
        assert not np.any(grid.cells & ~filled.cells)
        cell2 = raster.cell_size ** 2
        excess = (filled.cells & ~grid.cells).sum() * cell2
        assert excess <= raster.cells.sum() * cell2


class TestBoundaryCells:
    @pytest.mark.parametrize("name", ["empty", "full", "one", "rim", "blobs"])
    def test_equal_full_raster_reference(self, name):
        # the same centers, in the same order, as the test on the whole raster
        cells = np.zeros((40, 50), dtype=bool)
        if name == "full":
            cells[:] = True
        elif name == "one":
            cells[7, 9] = True
        elif name == "rim":
            cells[0, 3:20] = cells[5:39, -1] = True
        elif name == "blobs":
            cells = np.random.default_rng(0).uniform(size=cells.shape) < 0.3
            cells[:, :4] = cells[-2:] = False
        grid = EscapeGrid(origin_real=-1.3, origin_imag=-0.7, cell_size=0.037,
                          width=50, height=40, cells=cells, radius=2.0, max_iter=50)
        padded = np.pad(cells, 1)
        surrounded = (padded[:-2, 1:-1] & padded[2:, 1:-1]
                      & padded[1:-1, :-2] & padded[1:-1, 2:])
        iy, ix = np.nonzero(cells & ~surrounded)
        expected = grid.origin_real + grid.cell_size * ix + 1j * (
            grid.origin_imag + grid.cell_size * iy)
        got = boundary_cells(grid)
        assert got.dtype == np.complex128
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


class TestPgm:
    def test_header_and_payload(self, t2):
        grid = escape_grid(t2, resolution=128, max_iter=60)
        data = to_pgm(grid)
        header, _, rest = data.partition(b"\n")
        assert header == b"P5"
        comment, _, rest = rest.partition(b"\n")
        assert b"R=1.5" in comment and b"maxIter=60" in comment
        assert b"poly=" in comment
        dims, _, rest = rest.partition(b"\n")
        assert dims == b"128 128"
        maxval, _, payload = rest.partition(b"\n")
        assert maxval == b"255"
        assert len(payload) == 128 * 128
        assert set(np.frombuffer(payload, np.uint8)) <= {0, 255}

    def test_deterministic(self, t2):
        a = to_pgm(escape_grid(t2, resolution=128, max_iter=60))
        b = to_pgm(escape_grid(t2, resolution=128, max_iter=60))
        assert a == b
