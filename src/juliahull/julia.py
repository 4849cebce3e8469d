"""Point-cloud and raster approximations of Julia sets.

``sample_julia`` transcribes backward invariance into full-fiber inverse
iteration: every step solves the whole fiber p(.) = z of each orbit's
current point, keeps all d preimages as sample points, and moves the orbit
on along one randomly chosen branch.  Orbits are run as one vectorized
batch, which is equivalent to many independent seeded orbits.

``escape_grid`` rasters the bounded-orbit set by iterating cell centers
until they leave the escape disk; ``_bounded`` is that iteration, and the
classifier runs it on hull-interior samples too.  The disk test runs once
per block of a few steps: once |z| >= R, |p(z)| >= 2|z|, so an orbit that
ends a block inside the disk stayed inside for all of it.  An orbit that
returns exactly, in floating point, to its value at the last power-of-two
step (from step 4 on: Brent's cycle detection) is periodic and never
escapes; it is marked bounded and stops early.  The result is exactly that
of a test after every step up to ``max_iter``.
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

    def bounded_area(self) -> float:
        return float(self.cells.sum()) * self.cell_size ** 2


def _centers(grid: EscapeGrid, mask: np.ndarray) -> np.ndarray:
    """Centers of the cells of ``grid`` where ``mask`` is true."""
    iy, ix = np.nonzero(mask)
    return (grid.origin_real + grid.cell_size * ix
            + 1j * (grid.origin_imag + grid.cell_size * iy))


class SamplingError(RuntimeError):
    """Inverse iteration could not produce a trustworthy Julia sample."""


def _pullback(p: Polynomial, z: np.ndarray, prev_fiber, prev_branch,
              branch: np.ndarray, tol: float):
    """One backward step for all orbits; retries stubborn members.

    Returns (children, fiber) where children = fiber[i, branch[i]].
    A member whose fiber solve fails is retried, first with a longer
    iteration budget, then by backing up to a different branch of the
    previous fiber; five failed retries abort the sampler.
    """
    roots, res, ok = solve_fibers(p, z, tol)
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
    for step in range(burn + per):
        next_branch = rng.integers(0, d, size=m)
        children, fiber = _pullback(p, z, fiber, branch, next_branch, tol)
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


def escape_grid(p: Polynomial, resolution: int = 512, max_iter: int = 200) -> EscapeGrid:
    """Raster of the bounded-orbit set on the square of half-width 1.05 R.

    Cell centers are laid out so the real and imaginary axes are hit
    exactly; segment Julia sets on an axis keep a row of bounded centers
    at any iteration budget instead of draining to an empty raster.
    """
    if resolution < 64:
        raise ValueError("resolution must be at least 64")
    if max_iter < 50:
        raise ValueError("max_iter must be at least 50")
    radius = escape_radius(p)
    cell = 2.0 * _GRID_SPAN * radius / resolution
    half = resolution // 2
    axis = (np.arange(resolution) - half) * cell
    # the full-grid centers go in as a temporary, which _bounded drops early
    cells = _bounded(p, (axis[None, :] + 1j * axis[:, None]).ravel(), max_iter)
    return EscapeGrid(
        origin_real=float(axis[0]), origin_imag=float(axis[0]),
        cell_size=float(cell), width=resolution, height=resolution,
        cells=cells.reshape(resolution, resolution),
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
