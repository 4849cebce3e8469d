"""Point-cloud and raster approximations of Julia sets.

``sample_julia`` transcribes backward invariance into full-fiber inverse
iteration: every step solves the whole fiber p(.) = z of each orbit's
current point, keeps all d preimages as sample points, and moves the orbit
on along one randomly chosen branch.  Orbits are run as one vectorized
batch, which is equivalent to many independent seeded orbits.  All
orbits start at one point, so burn-in solves each distinct target once,
until every target of a step is distinct, and hands its fiber to every
orbit at it: a fiber does not depend on the batch it is solved in, so no
sample bit changes.

``escape_grid`` rasters the bounded-orbit set by iterating cell centers
until they leave the escape disk; ``_bounded`` is that iteration, and the
classifier runs it on hull-interior samples too.  The disk test runs once
per block of a few steps: once |z| >= R, |p(z)| >= 2|z|, so an orbit that
ends a block inside the disk stayed inside for all of it.  An orbit that
returns exactly, in floating point, to its value at the last power-of-two
step (from step 4 on: Brent's cycle detection) is periodic and never
escapes; it is marked bounded and stops early.  The result is exactly that
of a test after every step up to ``max_iter``.

An even or odd p (p(-z) = +-p(z): every coefficient whose index parity
differs from the degree's is zero) has a raster symmetric under z -> -z,
and ``escape_grid`` iterates only the rows on or below the real axis.
The mirror is exact.  The center axis is k*cell for integers k, so the
negated center is a center too.  IEEE rounding is symmetric under sign,
so negating one factor of a product negates it bit for bit.  Horner skips
zero coefficients, so for an even p the accumulator is multiplied by z an
even number of times before each coefficient is added, and p(-z) is p(z)
bit for bit; for an odd p it is -p(z).  The disk test uses |w| and the
cycle test ``==``, and neither sees a sign.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polynomial import Polynomial, _horner, escape_radius, format_polynomial
from .roots import (
    MAX_ITERATIONS,
    DEFAULT_TOL,
    NoRepellingFixedPointError,
    repelling_fixed_point,
    solve_fibers,
)

JULIA_SAMPLE = "JuliaSample"
GENERIC = "Generic"

# Pullback steps discarded before points are kept.  A repelling fixed point
# lies on the Julia set, and so does every iterated preimage of it: there
# burn-in only spreads the batch over distinct branches of the preimage
# tree, which takes ceil(log_d(batch)) steps plus _SPREAD_STEPS.  The
# generic seed 1+0i (used when no fixed point repels) is not on the Julia
# set, so its orbits need 2 * BURN_IN steps of geometric convergence.
BURN_IN = 64
_SPREAD_STEPS = 4

# Orbits advanced in lockstep per batch; a throughput knob, not semantics.
_ORBIT_BATCH = 2048

_GRID_SPAN = 1.05  # half-width of the raster square in units of R (5% margin)

# Escape-grid steps between disk tests.  Escape is permanent, so a test at
# the end of a block decides every step of it; a constant, not an option.
_BLOCK_STEPS = 4


@dataclass(eq=False)
class PointCloud:
    """A finite planar sample; label records how it was produced."""

    points: np.ndarray
    label: str = GENERIC

    def __post_init__(self):
        pts = np.atleast_1d(np.asarray(self.points, dtype=np.complex128))
        if pts.size == 0:
            raise ValueError("point cloud must be nonempty")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point cloud must be finite")
        self.points = pts

    def __len__(self) -> int:
        return self.points.size


@dataclass(eq=False)
class EscapeGrid:
    """Raster membership approximation of the bounded-orbit set.

    ``origin_real/origin_imag`` are the coordinates of the first cell
    center; cell [iy, ix] is centered at origin + (ix + iy*1j)*cell_size.
    True cells stayed inside the disk of radius ``radius`` for ``max_iter``
    iterations.
    """

    origin_real: float
    origin_imag: float
    cell_size: float
    width: int
    height: int
    cells: np.ndarray
    radius: float
    max_iter: int
    polynomial: str = ""

    def __post_init__(self):
        if self.cell_size <= 0 or self.width <= 0 or self.height <= 0:
            raise ValueError("grid geometry must be positive")
        cells = np.asarray(self.cells, dtype=bool)
        if cells.shape != (self.height, self.width):
            raise ValueError("cells must have shape (height, width)")
        self.cells = cells

    def true_centers(self) -> np.ndarray:
        return _centers(self, self.cells)


def _centers(grid: EscapeGrid, mask: np.ndarray) -> np.ndarray:
    """Centers of the cells of ``grid`` where ``mask`` is true."""
    iy, ix = np.nonzero(mask)
    return (grid.origin_real + grid.cell_size * ix
            + 1j * (grid.origin_imag + grid.cell_size * iy))


class SamplingError(RuntimeError):
    """Inverse iteration could not produce a trustworthy Julia sample."""


def _distinct(z: np.ndarray):
    """(first, inverse) with z[first] holding each bit pattern of z once.

    z is z[first][inverse] bit for bit.  Targets are sorted by one 64-bit
    key, the real part's bits xor the imaginary part's with their halves
    swapped, so the two sign bits stay apart and z, -z and conj(z) get
    different keys.  A run of bit-identical neighbours is one target: a key
    shared by two patterns can only split a pattern, never merge two.
    """
    re, im = z.view(np.uint64).reshape(z.size, 2).T
    order = np.argsort(re ^ ((im << 32) | (im >> 32)))
    re, im = re[order], im[order]
    starts = np.empty(z.size, dtype=bool)
    starts[0] = True
    np.not_equal(re[1:], re[:-1], out=starts[1:])
    starts[1:] |= im[1:] != im[:-1]
    inverse = np.empty(z.size, dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return order[starts], inverse


def _pullback(p: Polynomial, z: np.ndarray, prev_fiber, prev_branch,
              branch: np.ndarray, tol: float, share=None):
    """One backward step for all orbits; retries stubborn members.

    Returns (children, fiber) where children = fiber[i, branch[i]].
    ``share`` = ``_distinct(z)`` solves each distinct target once and hands
    every orbit its target's fiber, which is the fiber a solve of that
    orbit alone gives.  A member whose fiber solve fails is retried, first
    with a longer iteration budget, then by backing up to a different
    branch of the previous fiber; five failed retries abort the sampler.
    """
    if share is None:
        roots, res, ok = solve_fibers(p, z, tol)
    else:
        first, inverse = share
        roots, res, ok = (np.take(a, inverse, axis=0)
                          for a in solve_fibers(p, z[first], tol))
    attempt = 0
    while not ok.all():
        attempt += 1
        if attempt > 5:
            i = int(np.flatnonzero(~ok)[0])
            raise SamplingError(
                "inverse iteration aborted: fiber solve kept failing at "
                f"z={z[i]!r} (worst residual {res[i].max():.3e})"
            )
        bad = np.flatnonzero(~ok)
        if prev_fiber is not None and attempt > 1:
            d = p.degree
            swapped = (prev_branch[bad] + attempt) % d
            z[bad] = prev_fiber[bad, swapped]
        r2, s2, ok2 = solve_fibers(p, z[bad], tol,
                                   max_iter=MAX_ITERATIONS * (attempt + 1))
        roots[bad], res[bad], ok[bad] = r2, s2, ok2
    return roots[np.arange(z.size), branch], roots


def _orbit_seed(p: Polynomial, m: int):
    """Start point and burn-in length for a batch of m orbits."""
    try:
        z0 = repelling_fixed_point(p)
    except NoRepellingFixedPointError:
        return 1.0 + 0j, 2 * BURN_IN
    depth = 0  # ceil(log_d m), in exact integer arithmetic
    while p.degree ** depth < m:
        depth += 1
    return z0, depth + _SPREAD_STEPS


def _run_orbits(p: Polynomial, n: int, seed: int, tol: float, capture_pairs: bool):
    d = p.degree
    m = min(_ORBIT_BATCH, n)
    z0, burn = _orbit_seed(p, m)
    per = math.ceil(n / (m * d))
    rng = np.random.Generator(np.random.Philox(seed))
    z = np.full(m, z0, dtype=np.complex128)
    kept = np.empty(n, dtype=np.complex128)
    pairs = [] if capture_pairs else None
    fiber = branch = None
    shared = True  # burn-in orbits share targets until every target is distinct
    for step in range(burn + per):
        next_branch = rng.integers(0, d, size=m)
        share = _distinct(z) if shared and step < burn else None
        shared = share is not None and share[0].size < m
        children, fiber = _pullback(p, z, fiber, branch, next_branch, tol, share)
        branch = next_branch
        if capture_pairs:
            # _pullback may have swapped stubborn parents in place; z is current
            pairs.append((z.copy(), fiber.copy()))
        if step >= burn:
            lo = (step - burn) * m * d
            kept[lo:lo + m * d] = fiber.ravel()[:n - lo]
        z = children
    return kept, pairs


def sample_julia(p: Polynomial, n: int, seed: int,
                 tol: float = DEFAULT_TOL) -> PointCloud:
    """n-point inverse-iteration sample of the Julia set, reproducible per seed.

    Raises SamplingError when the fiber solves keep failing or a sample
    point leaves the escape disk.
    """
    if p.degree < 2:
        raise ValueError("julia sampling requires degree >= 2")
    if n < 100:
        raise ValueError("at least 100 sample points required")
    points, _ = _run_orbits(p, n, seed, tol, capture_pairs=False)
    radius = escape_radius(p)
    worst = float(np.abs(points).max())
    if worst > radius + 1e-9:
        raise SamplingError(
            f"sampled point escaped the invariant disk ({worst} > {radius})"
        )
    return PointCloud(points, label=JULIA_SAMPLE)


def _bounded(p: Polynomial, z: np.ndarray, max_iter: int) -> np.ndarray:
    """Mask of the points of z whose orbits stay in the escape disk for max_iter steps.

    Callers may pass z as a temporary: its only use is the first disk test,
    after which the loop holds just the points inside.
    """
    radius = escape_radius(p)
    alive = np.flatnonzero(np.abs(z) <= radius)
    w, size = z[alive], z.size
    del z
    bounded = np.zeros(size, dtype=bool)
    snapshot = None  # w at the last power-of-two step, from step 4 on
    done = 0
    # An escaped orbit may overflow to inf or nan before its block ends;
    # neither passes the disk test.
    with np.errstate(over="ignore", invalid="ignore"):
        while done < max_iter and alive.size:
            steps = min(_BLOCK_STEPS, max_iter - done)
            for _ in range(steps):
                w = _horner(p.coeffs, w)
            done += steps
            keep = np.abs(w) <= radius
            if snapshot is not None:
                cycled = w == snapshot  # implies inside: the snapshot was inside
                bounded[alive[cycled]] = True
                keep &= ~cycled
                snapshot = snapshot[keep]
            alive, w = alive[keep], w[keep]
            if not done & (done - 1):  # Brent: re-anchor at powers of two
                snapshot = w
    bounded[alive] = True
    return bounded


def _grid_rows(p: Polynomial, xs: np.ndarray, ys: np.ndarray, max_iter: int) -> np.ndarray:
    """Bounded mask of the centers xs[ix] + 1j*ys[iy], laid out [iy, ix].

    The centers go in as a temporary, which _bounded drops after its disk test.
    """
    return _bounded(p, (xs[None, :] + 1j * ys[:, None]).ravel(), max_iter).reshape(
        ys.size, xs.size)


def escape_grid(p: Polynomial, resolution: int = 512, max_iter: int = 200) -> EscapeGrid:
    """Raster of the bounded-orbit set on the square of half-width 1.05 R.

    Cell centers are laid out so the real and imaginary axes are hit
    exactly; segment Julia sets on an axis keep a row of bounded centers
    at any iteration budget instead of draining to an empty raster.  For
    an even or odd p only rows 0..half are iterated, and the rest are the
    mirror image of those (module docstring).
    """
    if resolution < 64:
        raise ValueError("resolution must be at least 64")
    if max_iter < 50:
        raise ValueError("max_iter must be at least 50")
    radius = escape_radius(p)
    cell = 2.0 * _GRID_SPAN * radius / resolution
    half = resolution // 2
    axis = (np.arange(resolution) - half) * cell
    if np.any(p.coeffs[(p.degree + 1) % 2::2]):
        cells = _grid_rows(p, axis, axis, max_iter)
    else:
        # cell [iy, ix] mirrors cell [2 half - iy, 2 half - ix]; for even
        # resolution, column 0 of the upper rows has none and is iterated
        cells = np.empty((resolution, resolution), dtype=bool)
        cells[:half + 1] = _grid_rows(p, axis, axis[:half + 1], max_iter)
        lo = 2 * half + 1 - resolution
        cells[half + 1:, lo:] = cells[lo:half, lo:][::-1, ::-1]
        if lo:
            cells[half + 1:, :1] = _grid_rows(p, axis[:1], axis[half + 1:], max_iter)
    return EscapeGrid(
        origin_real=float(axis[0]), origin_imag=float(axis[0]),
        cell_size=float(cell), width=resolution, height=resolution,
        cells=cells,
        radius=float(radius), max_iter=max_iter,
        polynomial=format_polynomial(p),
    )


def boundary_cells(grid: EscapeGrid) -> np.ndarray:
    """Centers of true cells that touch an empty cell or the image rim."""
    c = grid.cells
    padded = np.pad(c, 1, constant_values=False)
    surrounded = (padded[:-2, 1:-1] & padded[2:, 1:-1]
                  & padded[1:-1, :-2] & padded[1:-1, 2:])
    return _centers(grid, c & ~surrounded)


def to_pgm(grid: EscapeGrid) -> bytes:
    """Binary PGM (P5): 0 = escaping, 255 = bounded, top row = largest imag."""
    header = (
        f"P5\n# R={grid.radius!r} maxIter={grid.max_iter} poly={grid.polynomial}\n"
        f"{grid.width} {grid.height}\n255\n"
    )
    data = (np.flipud(grid.cells).astype(np.uint8) * 255).tobytes()
    return header.encode("ascii") + data
