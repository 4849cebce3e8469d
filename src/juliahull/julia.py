"""Point-cloud and raster approximations of Julia sets.

``sample_julia`` transcribes backward invariance into full-fiber inverse
iteration: every step solves the whole fiber p(.) = z of each orbit's
current point, keeps all d preimages as sample points, and moves the orbit
on along one randomly chosen branch.  Orbits are run as one vectorized
batch, which is equivalent to many independent seeded orbits.  All
orbits start at one point, so burn-in solves each distinct target once,
until every target of a step is distinct, and hands its fiber to every
orbit at it: a fiber does not depend on the batch it is solved in, so no
sample bit changes.  For the same reason the last step solves only the
first ceil(rest / d) orbits, whose fibers fill the rest of the sample.

``escape_grid`` rasters the bounded-orbit set by iterating cell centers
until they leave the escape disk; ``_bounded`` is that iteration.  The
disk test runs once per block of a few steps: once |z| >= R,
|p(z)| >= 2|z|, so an orbit that ends a block inside the disk stayed
inside for all of it.  An orbit that returns exactly, in floating point,
to its value at the last power-of-two step (from step 4 on: Brent's cycle
detection) is periodic and never escapes; it is marked bounded and stops
early.  The result is exactly that of a test after every step up to
``max_iter``.

Most centers of the disk escape within the first block, so ``_bounded``
drops them before any step.  ``_inner_radius`` certifies a radius
r_B <= R beyond which every computed orbit leaves the disk within the
B steps of the first block.  With S(r) = sum |a_j| r^j and
L(r) = |a_d| r^d - sum_{j<d} |a_j| r^j, |p(z)| >= L(|z|), and Horner's rule
in floating point is within gamma_2d S(|z|) of p(z) (Higham, Accuracy and
Stability, section 5.1).  So t_0 = R and t_k = the least r, rounded up by
bisection, with L(r) - mu S(r) > t_{k-1} give r_B = t_B: a point beyond
t_k lands beyond t_{k-1} in one computed step.  L - mu S increases where
it is positive, so each t_k bounds a half-line.  ``_INNER_SLACK`` (mu) is
far above gamma_2d at DEGREE_CAP, the rounding of |z| and that of
evaluating L and S.  A step that overflows, or that finds no room below
t_{k-1}, keeps t_{k-1}, which is weaker but still sound.  The grid builds
only the centers of the index box |x|, |y| <= r_B, and _bounded's first
disk test reads r_B for R; neither changes a cell.

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

# Slack mu of the inner-radius certificate, relative to S(|z|) (module
# docstring): Higham's gamma_2d for complex Horner at DEGREE_CAP is below
# 1e-11, and the other roundings are smaller still.
_INNER_SLACK = 2.0 ** -30

# Bisection steps per inner-radius step: t_k is found to 2^-30 of t_{k-1},
# well below a cell at any practical resolution.
_INNER_BISECTIONS = 30


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
        return _centers(self, *np.nonzero(self.cells))


def _centers(grid: EscapeGrid, iy: np.ndarray, ix: np.ndarray) -> np.ndarray:
    """Centers of the cells [iy, ix] of ``grid``."""
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


def _run_orbits(p: Polynomial, n: int, seed: int, tol: float) -> np.ndarray:
    d = p.degree
    m = min(_ORBIT_BATCH, n)
    z0, burn = _orbit_seed(p, m)
    per = math.ceil(n / (m * d))
    rng = np.random.Generator(np.random.Philox(seed))
    z = np.full(m, z0, dtype=np.complex128)
    kept = np.empty(n, dtype=np.complex128)
    fiber = branch = None
    shared = True  # burn-in orbits share targets until every target is distinct
    for step in range(burn + per):
        next_branch = rng.integers(0, d, size=m)
        share = _distinct(z) if shared and step < burn else None
        shared = share is not None and share[0].size < m
        lo = (step - burn) * m * d
        if step == burn + per - 1:
            # the last step solves only the members whose fibers it keeps
            w = -(-(n - lo) // d)
            z, fiber, branch, next_branch = z[:w], fiber[:w], branch[:w], next_branch[:w]
        children, fiber = _pullback(p, z, fiber, branch, next_branch, tol, share)
        branch = next_branch
        if step >= burn:
            kept[lo:lo + m * d] = fiber.ravel()[:n - lo]
        z = children
    return kept


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
    points = _run_orbits(p, n, seed, tol)
    radius = escape_radius(p)
    worst = float(np.abs(points).max())
    if worst > radius + 1e-9:
        raise SamplingError(
            f"sampled point escaped the invariant disk ({worst} > {radius})"
        )
    return PointCloud(points, label=JULIA_SAMPLE)


def _inner_radius(p: Polynomial, radius: float, steps: int) -> float:
    """Radius r_B <= R beyond which every computed orbit leaves |z| <= R within ``steps`` steps.

    ``radius`` is the escape radius R; the chain t_0 = R >= t_1 >= ... and
    its certificate are in the module docstring.  Each bisection step is
    one vectorized evaluation of L - mu S.
    """
    a = np.abs(p.coeffs)
    powers = np.arange(a.size)

    def margin(r: float) -> float:  # L(r) - mu S(r); nan on overflow
        terms = a * r ** powers
        return 2.0 * terms[-1] - (1.0 + _INNER_SLACK) * terms.sum()

    t = radius
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            if not margin(t) > t:
                break
            lo, hi = 0.0, t
            for _ in range(_INNER_BISECTIONS):
                mid = 0.5 * (lo + hi)
                if margin(mid) > t:
                    hi = mid
                else:
                    lo = mid
            t = hi
    return t


def _bounded(p: Polynomial, z: np.ndarray, max_iter: int, inner: float) -> np.ndarray:
    """Mask of the points of z whose orbits stay in the escape disk for max_iter steps.

    ``inner`` is ``_inner_radius`` for the first block's steps: the first
    disk test drops every point beyond it, which that block would drop.
    Callers may pass z as a temporary: its only use is the first disk test,
    after which the loop holds just the points inside.
    """
    radius = escape_radius(p)
    alive = np.flatnonzero(np.abs(z) <= inner)
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


def _grid_rows(p: Polynomial, xs: np.ndarray, ys: np.ndarray, max_iter: int,
               inner: float) -> np.ndarray:
    """Bounded mask of the centers xs[ix] + 1j*ys[iy], laid out [iy, ix].

    The centers go in as a temporary, which _bounded drops after its disk test.
    """
    return _bounded(p, (xs[None, :] + 1j * ys[:, None]).ravel(), max_iter,
                    inner).reshape(ys.size, xs.size)


def escape_grid(p: Polynomial, resolution: int = 512, max_iter: int = 200) -> EscapeGrid:
    """Raster of the bounded-orbit set on the square of half-width 1.05 R.

    Cell centers are laid out so the real and imaginary axes are hit
    exactly; segment Julia sets on an axis keep a row of bounded centers
    at any iteration budget instead of draining to an empty raster.  Only
    the centers of the box |x|, |y| <= r_B are iterated; for an even or
    odd p only its rows up to the real axis, and the rest are the mirror
    image of those (module docstring).
    """
    if resolution < 64:
        raise ValueError("resolution must be at least 64")
    if max_iter < 50:
        raise ValueError("max_iter must be at least 50")
    radius = escape_radius(p)
    inner = _inner_radius(p, radius, min(max_iter, _BLOCK_STEPS))
    cell = 2.0 * _GRID_SPAN * radius / resolution
    half = resolution // 2
    axis = (np.arange(resolution) - half) * cell
    # |axis[0]| >= 1.03 R > R >= inner, so the box is symmetric about index half
    m = int(np.count_nonzero(np.abs(axis[:half]) <= inner))
    box = slice(half - m, half + m + 1)
    cells = np.zeros((resolution, resolution), dtype=bool)
    if np.any(p.coeffs[(p.degree + 1) % 2::2]):
        cells[box, box] = _grid_rows(p, axis[box], axis[box], max_iter, inner)
    else:
        # cell [iy, ix] mirrors cell [2 half - iy, 2 half - ix]
        cells[box.start:half + 1, box] = _grid_rows(
            p, axis[box], axis[box.start:half + 1], max_iter, inner)
        cells[half + 1:box.stop, box] = cells[box.start:half, box][::-1, ::-1]
    return EscapeGrid(
        origin_real=float(axis[0]), origin_imag=float(axis[0]),
        cell_size=float(cell), width=resolution, height=resolution,
        cells=cells,
        radius=float(radius), max_iter=max_iter,
        polynomial=format_polynomial(p),
    )


def boundary_cells(grid: EscapeGrid) -> np.ndarray:
    """Centers of true cells that touch an empty cell or the image rim."""
    # on the bounding box of the true cells, whose outside is all empty
    rows = np.flatnonzero(grid.cells.any(axis=1))
    if not rows.size:
        return _centers(grid, rows, rows)
    c = grid.cells[rows[0]:rows[-1] + 1]
    cols = np.flatnonzero(c.any(axis=0))
    c = c[:, cols[0]:cols[-1] + 1]
    padded = np.pad(c, 1, constant_values=False)
    surrounded = (padded[:-2, 1:-1] & padded[2:, 1:-1]
                  & padded[1:-1, :-2] & padded[1:-1, 2:])
    iy, ix = np.nonzero(c & ~surrounded)
    return _centers(grid, iy + rows[0], ix + cols[0])


def to_pgm(grid: EscapeGrid) -> bytes:
    """Binary PGM (P5): 0 = escaping, 255 = bounded, top row = largest imag."""
    header = (
        f"P5\n# R={grid.radius!r} maxIter={grid.max_iter} poly={grid.polynomial}\n"
        f"{grid.width} {grid.height}\n255\n"
    )
    data = (np.flipud(grid.cells).astype(np.uint8) * 255).tobytes()
    return header.encode("ascii") + data
