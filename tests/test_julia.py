import math
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
from juliahull.julia import BURN_IN, JULIA_SAMPLE, EscapeGrid, SamplingError


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
        assert cloud.label == JULIA_SAMPLE
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
        a = sample_julia(basilica, 2_000, seed=3).points
        b = sample_julia(basilica, 2_000, seed=3).points
        c = sample_julia(basilica, 2_000, seed=4).points
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

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

        def recorded(p, z, *args):
            out = original(p, z, *args)
            # after the call: _pullback may have swapped stubborn parents in place
            pairs.append((z.copy(), out[1].copy()))
            return out

        monkeypatch.setattr(julia_mod, "_pullback", recorded)
        sample_julia(basilica, 2_000, seed=2)
        for parents, fiber in pairs:
            # every root of every solved fiber, not only the followed branch
            assert fiber.shape == (parents.size, basilica.degree)
            assert np.abs(evaluate(basilica, fiber) - parents[:, None]).max() <= 1e-8
        for (_, fiber), (children, _) in zip(pairs, pairs[1:]):
            # each orbit goes on from one root of its previous fiber; the
            # last step solves only the first orbits
            assert np.all((fiber[:children.size] == children[:, None]).any(axis=1))

    def test_sample_is_made_of_whole_fibers(self, basilica):
        # n = 2 kept steps of 2048 orbits times d = 2 roots
        points = sample_julia(basilica, 8192, seed=4).points
        pairs = points.reshape(-1, basilica.degree)
        images = evaluate(basilica, pairs)
        assert np.abs(images[:, 1] - images[:, 0]).max() <= 1e-8
        assert np.abs(pairs.sum(axis=1)).max() <= 1e-8  # roots of z^2 - 1 = t

    def test_solver_calls_pinned(self, monkeypatch, basilica):
        calls = _count_solves(monkeypatch)
        n, m, d = 100_000, 2048, basilica.degree
        sample_julia(basilica, n, seed=0)
        burn = 11 + julia_mod._SPREAD_STEPS  # 2**11 = 2048 orbits
        assert len(calls) == burn + math.ceil(n / (m * d))
        # burn-in solves each distinct target once: the seed alone, then at
        # most d times as many targets per step, until all m are distinct
        assert calls[:5] == [1, 2, 4, 8, 16]
        assert all(b <= min(d * a, m) for a, b in zip(calls, calls[1:burn]))
        assert sum(calls[:burn]) < burn * m / 2
        kept_steps = calls[burn:]
        assert set(kept_steps[:-1]) == {m}
        # the last step solves only the 1696 / 2 members it keeps
        assert kept_steps[-1] == (n - (len(kept_steps) - 1) * m * d) // d == 848

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
        d, m = p.degree, min(2048, n)
        per = math.ceil(n / (m * d))
        lo = (per - 1) * m * d
        assert calls[-1] == math.ceil((n - lo) / d)
        assert calls[-per:-1] == [m] * (per - 1)
        assert len(cloud) == n
        if n % (m * d) == 0:
            assert calls[-1] == m  # an exact multiple keeps the full width

    def test_trim_changes_no_sample_bit(self, monkeypatch):
        # the last step of a 20_001-point sample solves 905 of 2048 members;
        # its points are the prefix of a sample that solves them all
        p = Polynomial([0.3 - 0.2j, 0.1j, -0.5, 0.2 + 0.1j, 1])
        calls = _count_solves(monkeypatch)
        trimmed = sample_julia(p, 20_001, seed=3).points
        assert calls[-1] == 905
        full = sample_julia(p, 3 * 2048 * 4, seed=3).points
        assert calls[-1] == 2048
        assert np.array_equal(_bits(trimmed), _bits(full[:20_001]))

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
        dist = _hausdorff(g.a * base.points + g.b, moved.points)
        diam = convex_hull(moved).diameter
        assert dist <= 1e-2 * diam

    def test_fallback_seed_doubles_burn_in(self, monkeypatch, squaring):
        from juliahull import roots as roots_mod

        def no_fixed_point(p, tol=1e-10):
            raise roots_mod.NoRepellingFixedPointError("forced")

        monkeypatch.setattr(julia_mod, "repelling_fixed_point", no_fixed_point)
        calls = _count_solves(monkeypatch)
        n = 1_000  # one batch of n orbits; one kept step holds 2n roots
        cloud = sample_julia(squaring, n, seed=1)
        assert len(calls) == 2 * BURN_IN + 1
        assert np.abs(np.abs(cloud.points) - 1.0).max() <= 1e-6

    def test_parabolic_quadratic_seeds_from_one(self, monkeypatch):
        # z^2 + 1/4: no fixed point repels, so the orbits start at 1+0i
        calls = _count_solves(monkeypatch)
        n = 1_000
        cloud = sample_julia(Polynomial([0.25, 0, 1]), n, seed=1)
        assert len(calls) == 2 * BURN_IN + 1
        assert len(cloud) == n

    def test_quadratic_sample_takes_no_solver_step(self, monkeypatch, basilica):
        # every fiber starts exact, so _iterate leaves its start untouched
        runs = []
        original = roots_mod._iterate

        def watched(coeffs, dcoeffs, targets, z, bounds_of, max_iter):
            start = z.copy()
            out = original(coeffs, dcoeffs, targets, z, bounds_of, max_iter)
            runs.append(np.array_equal(z, start))
            return out

        monkeypatch.setattr(roots_mod, "_iterate", watched)
        sample_julia(basilica, 100_000, seed=0)
        assert runs and all(runs)

    def test_unconverged_solves_raise_sampling_error(self, unsolvable_fibers,
                                                     basilica):
        with pytest.raises(SamplingError, match="kept failing"):
            sample_julia(basilica, 1_000, seed=0)

    def test_escaped_point_raises_sampling_error(self, monkeypatch, basilica):
        monkeypatch.setattr(julia_mod, "escape_radius", lambda p: 1.0)
        with pytest.raises(SamplingError, match="escaped"):
            sample_julia(basilica, 1_000, seed=0)


def _bits(z):
    return np.ascontiguousarray(z).view(np.uint64)


class TestDeduplicatedBurnIn:
    """Burn-in solves each distinct target once, and no sample bit changes."""

    def test_distinct_keeps_every_bit_pattern_apart(self):
        # z, -z and conj(z), and the two signed zeros, are different targets
        z = np.array([1 + 1j, -1 - 1j, 1 - 1j, complex(0.0, 0.5),
                      complex(-0.0, 0.5), 1 + 1j, -1 - 1j, complex(0.0, 0.5)])
        first, inverse = julia_mod._distinct(z)
        assert first.size == 5
        assert np.array_equal(_bits(z[first][inverse]), _bits(z))
        assert len({tuple(b) for b in _bits(z[first]).reshape(-1, 2).tolist()}) == 5

    @pytest.mark.parametrize("p", [
        Polynomial([-1, 0, 1]),
        monomial(1, 2),
        monomial(0.6 + 0.8j, 3),
        chebyshev(4),
        Polynomial([0.3 - 0.2j, 0.1j, -0.5, 0.2 + 0.1j, 1]),
    ], ids=["basilica", "z^2", "rotated-z^3", "T4", "quartic"])
    def test_sample_equals_the_undeduplicated_one(self, monkeypatch, p):
        deduplicated = sample_julia(p, 20_000, seed=3).points
        monkeypatch.setattr(julia_mod, "_distinct",
                            lambda z: (np.arange(z.size), np.arange(z.size)))
        calls = _count_solves(monkeypatch)
        plain = sample_julia(p, 20_000, seed=3).points
        assert calls[0] == 2048  # every burn-in target solved
        assert np.array_equal(_bits(deduplicated), _bits(plain))

    def test_retries_follow_a_shared_solve(self, monkeypatch):
        # targets whose real part's bits are 0 mod 7 fail their first two
        # solves, so their orbits retry, longer and then on a swapped branch
        p = Polynomial([0.3 - 0.2j, 0.1j, -0.5, 1])
        original = julia_mod.solve_fibers
        retries = []

        def flaky(p, targets, tol, max_iter=roots_mod.MAX_ITERATIONS):
            roots, res, ok = original(p, targets, tol, max_iter=max_iter)
            if max_iter <= 2 * roots_mod.MAX_ITERATIONS:
                ok &= _bits(targets.real) % 7 != 0
            if max_iter > roots_mod.MAX_ITERATIONS:
                retries.append((max_iter, targets.size))
            return roots, res, ok

        monkeypatch.setattr(julia_mod, "solve_fibers", flaky)
        deduplicated = sample_julia(p, 20_000, seed=5).points
        first_run = list(retries)
        monkeypatch.setattr(julia_mod, "_distinct",
                            lambda z: (np.arange(z.size), np.arange(z.size)))
        plain = sample_julia(p, 20_000, seed=5).points
        assert 3 * roots_mod.MAX_ITERATIONS in dict(first_run)  # a swap
        assert retries == 2 * first_run
        assert np.array_equal(_bits(deduplicated), _bits(plain))


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
