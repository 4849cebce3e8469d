"""Point-cloud and raster approximations of Julia sets.

``sample_julia`` transcribes backward invariance into full-fiber inverse
iteration: every step solves the whole fiber p(.) = z of each orbit's
current point, keeps all d preimages as sample points, and moves the orbit
on along one randomly chosen branch.  Orbits are run as one vectorized
batch, which is equivalent to many independent seeded orbits.  An orbit
draws the rank of its branch, not a column of the solver's output: the
roots rank by their offsets from the fibers' centroid, measured along a
direction turned a fixed angle from the target's (``_branch_of_rank``).
Ranks survive an affine change of coordinates, so with one seed the
sample of g p g^-1 is the image under g of that of p, up to the solver's
accuracy, when p has one fixed point of largest multiplier modulus and d
divides n (a partial last fiber keeps its roots in the solver's order).

The orbits start at a repelling fixed point z0, which lies on J_p, as
does every iterated preimage of it, so points are kept from the first
step on.  That step solves z0's fiber alone, keeps it, and sends the
orbits along its other d - 1 roots: under z0's own root, the root
nearest z0 (simple, as p'(z0) != 0), the preimage tree repeats the
points kept one level up.  When no fixed point repels, z0 is a point of
a repelling 2-cycle {z0, z1}, on J_p too, and the orbits leave aside
z1 = p(z0), the root of z0's fiber under which the tree repeats z0's
fiber two levels down (``_orbit_seed``).  While orbits share targets, a
step solves each distinct target once, hands its fiber to every orbit
at it, and keeps it once, in the order of the targets' first orbits;
once every target is distinct, it keeps every fiber.  Each kept fiber is
thus that of z0 or of an earlier kept point, and no target's fiber is
kept twice.  A multiple root is the one exception to no point being
kept twice: its copies are distinct targets whose subtrees may round to
the same bits (z0 = 1 of T_4 is a critical value, so its fiber holds 0
twice).  The last step solves only the targets whose fibers fill the
rest of the sample, held by a prefix of the orbits, so a sample is the
prefix of any larger one at the same seed.  A fiber does not depend on
the batch it is solved in, so sharing and trimming change no sample
bit.  A fiber that fails to converge ends the sample with
SamplingError; nothing is retried.

``escape_grid`` rasters the bounded-orbit set by iterating cell centers
until they leave the escape disk; ``_bounded`` is that iteration.  The
disk test runs once per block of steps: once |z| >= R, |p(z)| >= 2|z|, so
an orbit that ends a block inside the disk stayed inside for all of it.
An orbit that returns exactly, in floating point, to its value at the
last power-of-two step (from step 4 on: Brent's cycle detection) is
periodic and never escapes; it is marked bounded and stops early.  The
result is exactly that of a test after every step up to ``max_iter``.

The first block runs ``_BLOCK_STEPS`` = 4 steps; each later one runs as
many steps as are done so far, capped at ``_MAX_BLOCK_STEPS`` = 16, so
the blocks are 4, 4, 8, 16, 16, ...  Every block then ends on each power
of two from 4 on, where Brent's snapshot is taken, and the tests run
less often as the live orbits thin out to the slow and periodic ones.
Neither test can change a cell by running less often: escape is
permanent, and the cycle test compares only with a snapshot taken inside
the disk, so a cycle found later is still a cycle.  A block length that
skips a power of two would silently never re-anchor the snapshot.  A
block steps in place, swapping two buffers sized to the live orbits
(``_horner``'s ``out``), with the ufuncs of an allocating loop in the
same order, so no cell changes a bit; Brent's snapshot is then a copy.

``escape_grid`` hands its rows to ``_bounded`` in bands of about
``_BAND_CENTERS`` = 2^16 centers, at least one row each (``_grid_rows``),
and writes each band's mask straight into the cells.  A center's orbit,
its block schedule and its Brent snapshots depend on that center alone,
so the bands change no cell.  They change where the work runs: a band's
centers are about 1 MiB of complex128, so its first disk test,
compactions and live buffers stay near a core's L2 cache instead of
sweeping the whole box, and the grid holds one band's temporaries at a
time besides the cells.  Each band runs its own tail of slow orbits to
max_iter, and each block of a tail costs numpy's per-call overhead, so
much smaller bands are slower: 2^14 centers lost to one whole-box call on
a near-Siegel grid.

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

from dataclasses import dataclass

import numpy as np

from .polynomial import (Polynomial, _horner, compose, escape_radius, format_complex,
                         format_polynomial)
from .roots import NoRepellingFixedPointError, repelling_fixed_point, solve_fibers

# Orbits advanced in lockstep per batch; a throughput knob, not semantics.
_ORBIT_BATCH = 2048

# e^{-i}: the roots of a fiber rank along a direction turned one radian
# off its target's (``_branch_of_rank``), so mirror-symmetric fibers do
# not tie.
_KEY_TURN = np.exp(-1j)

_GRID_SPAN = 1.05  # half-width of the raster square in units of R (5% margin)

# Centers per row band of the escape grid: about 1 MiB of complex128, so a
# band's live orbits stay near a core's L2 cache (module docstring).
_BAND_CENTERS = 2 ** 16

# Escape-grid steps between disk tests: the first block, then at most
# _MAX_BLOCK_STEPS (module docstring).  Escape is permanent, so a test at
# the end of a block decides every step of it; constants, not options.
# The prefilter of the first block (_inner_radius) is certified for
# _BLOCK_STEPS steps.
_BLOCK_STEPS = 4
_MAX_BLOCK_STEPS = 16

# Slack mu of the inner-radius certificate, relative to S(|z|) (module
# docstring): Higham's gamma_2d for complex Horner at DEGREE_CAP is below
# 1e-11, and the other roundings are smaller still.
_INNER_SLACK = 2.0 ** -30

# Bisection steps per inner-radius step: t_k is found to 2^-30 of t_{k-1},
# well below a cell at any practical resolution.
_INNER_BISECTIONS = 30


@dataclass(eq=False)
class PointCloud:
    """A finite planar sample."""

    points: np.ndarray

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

    z is z[first][inverse] bit for bit, and ``first`` holds the least index
    of each pattern.  Targets are sorted by one 64-bit key, the real part's
    bits xor the imaginary part's with their halves swapped, so the two
    sign bits stay apart and z, -z and conj(z) get different keys.  A run
    of bit-identical neighbours is one target: a key shared by two patterns
    can only split a pattern, never merge two.
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
    return np.minimum.reduceat(order, np.flatnonzero(starts)), inverse


def _branch_of_rank(p: Polynomial, fiber: np.ndarray, targets: np.ndarray,
                    rank: np.ndarray) -> np.ndarray:
    """Column of each row of ``fiber`` that holds its root of rank ``rank``.

    The roots w over a target t rank by the key Re((w - c) conj(u)): their
    offsets from c = -a_{d-1} / (d a_d), the centroid of every fiber,
    projected on u = e^i (t - c).  An affine map g(z) = az + b takes the
    fibers of p to those of g p g^-1, and c and t with them, so it
    multiplies every key by |a|^2 and keeps each rank.  The branch a
    seeded orbit takes thus does not depend on the coordinates.  Two roots
    tie only when their difference is perpendicular to u.  Turning u one
    radian off t - c keeps that off the real roots and mirror pairs of a
    real polynomial over a real target, which differ along or across
    t - c.  Ties, and t = c, keep the solver's order.
    """
    c = -p.coeffs[-2] / (p.degree * p.coeffs[-1])
    conj_u = np.conj(targets - c) * _KEY_TURN
    if fiber.shape[1] == 2:  # c drops out of the difference of the two keys
        return rank ^ (((fiber[:, 0] - fiber[:, 1]) * conj_u).real > 0)
    order = np.argsort(((fiber - c) * conj_u[:, None]).real, axis=1, kind="stable")
    return np.take_along_axis(order, rank[:, None], axis=1)[:, 0]


def _pullback(p: Polynomial, z: np.ndarray, rank: np.ndarray, share=None):
    """One backward step for all orbits: (children, fiber).

    Row i of ``fiber`` is the fiber of z[i], and children[i] its root of
    rank ``rank[i]`` (``_branch_of_rank``).  ``share`` = ``_distinct(z)``
    solves each distinct target once and hands every orbit its target's
    fiber, which is the fiber a solve of that orbit alone gives.  A fiber
    that fails to converge raises SamplingError: a second solve would
    restart from the same starts and replay the first.
    """
    targets = z if share is None else z[share[0]]
    roots, res, ok = solve_fibers(p, targets)
    if not ok.all():
        i = int(np.flatnonzero(~ok)[0])
        raise SamplingError(
            "inverse iteration aborted: fiber solve did not converge at "
            f"z={format_complex(targets[i])} (worst residual {res[i].max():.3e})"
        )
    if share is not None:
        roots = np.take(roots, share[1], axis=0)
    branch = _branch_of_rank(p, roots, z, rank)
    return roots[np.arange(z.size), branch], roots


def _orbit_seed(p: Polynomial):
    """(z0, pred): the orbits' start, on J_p, and the root of its fiber they leave aside.

    z0 is a repelling fixed point and pred = z0 (not p(z0), which in
    floats can land far from z0 when the coefficients are widely spread).
    When no fixed point repels, a 2-cycle does (at most d - 1 cycles do
    not, by Fatou and Shishikura): z0 is a repelling fixed point of p o p
    and pred = p(z0).  Raises SamplingError when neither exists or p o p
    exceeds the degree cap.
    """
    try:
        z0 = repelling_fixed_point(p)
        return z0, z0
    except NoRepellingFixedPointError:
        pass
    try:
        z0 = repelling_fixed_point(compose(p, p))
    except (NoRepellingFixedPointError, ValueError) as exc:
        raise SamplingError(
            f"no fixed point repels, and no 2-cycle seeds the orbits: {exc}") from None
    return z0, complex(p(z0))


def _run_orbits(p: Polynomial, n: int, seed: int) -> np.ndarray:
    d = p.degree
    m = min(_ORBIT_BATCH, n)
    z0, pred = _orbit_seed(p)
    rng = np.random.Generator(np.random.Philox(seed))
    kept = np.empty(n, dtype=np.complex128)
    # keep z0's fiber, and leave z0 along its roots other than pred's
    _, fiber = _pullback(p, np.array([z0]), np.zeros(1, dtype=np.intp))
    kept[:d] = fiber[0, :n]
    lo = min(d, n)  # points kept so far
    fiber = np.delete(fiber, np.argmin(np.abs(fiber[0] - pred)), axis=1)
    fiber = np.broadcast_to(fiber, (m, d - 1))
    z = fiber[0, _branch_of_rank(p, fiber, np.full(m, z0), rng.integers(0, d - 1, size=m))]
    shared = True  # orbits share targets until every target of a step is distinct
    while lo < n:
        rank = rng.integers(0, d, size=z.size)
        share = _distinct(z) if shared else None
        shared = share is not None and share[0].size < z.size
        if (z.size if share is None else share[0].size) * d >= n - lo:
            # the last step solves only the members whose fibers it keeps:
            # the first w distinct targets, held by the first k orbits
            w = -(-(n - lo) // d)
            k = w if share is None else np.sort(share[0])[w - 1] + 1
            z, rank = z[:k], rank[:k]
            if share is not None:
                share = _distinct(z)
        z, fiber = _pullback(p, z, rank, share)
        # the fibers of distinct targets, in the order of their first orbits
        rows = (fiber if share is None else fiber[np.sort(share[0])]).ravel()[:n - lo]
        kept[lo:lo + rows.size] = rows
        lo += rows.size
    return kept


def sample_julia(p: Polynomial, n: int, seed: int) -> PointCloud:
    """n-point inverse-iteration sample of the Julia set, reproducible per seed.

    Raises SamplingError when no fixed point or 2-cycle repels, a fiber
    solve fails or a sample point leaves the escape disk.
    """
    if p.degree < 2:
        raise ValueError("julia sampling requires degree >= 2")
    if n < 100:
        raise ValueError("at least 100 sample points required")
    points = _run_orbits(p, n, seed)
    radius = escape_radius(p)
    worst = float(np.abs(points).max())
    if worst > radius + 1e-9:
        raise SamplingError(
            f"sampled point escaped the invariant disk ({worst} > {radius})"
        )
    return PointCloud(points)


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

    A block steps in place: each step writes into a spare buffer of the
    live orbits' size, and the two swap.  The spare is dropped before the
    compaction, which copies the survivors, so the loop never holds more
    than two arrays of live orbits besides the snapshot.  The snapshot is
    a copy, since the next block writes over both buffers.
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
            # 4, 4, 8, 16, 16, ...: every power of two from 4 on ends a block
            steps = min(max(_BLOCK_STEPS, min(done, _MAX_BLOCK_STEPS)), max_iter - done)
            spare = np.empty_like(w)
            for _ in range(steps):
                w, spare = _horner(p.coeffs, w, out=spare), w
            del spare
            done += steps
            keep = np.abs(w) <= radius
            if snapshot is not None:
                cycled = w == snapshot  # implies inside: the snapshot was inside
                bounded[alive[cycled]] = True
                keep &= ~cycled
                snapshot = snapshot[keep]
            alive, w = alive[keep], w[keep]
            if not done & (done - 1):  # Brent: re-anchor at powers of two
                snapshot = w.copy()
    bounded[alive] = True
    return bounded


def _grid_rows(p: Polynomial, xs: np.ndarray, ys: np.ndarray, max_iter: int,
               inner: float, out: np.ndarray) -> None:
    """Write into out[iy, ix] the bounded mask of the centers xs[ix] + 1j*ys[iy].

    The rows go to ``_bounded`` in bands of about ``_BAND_CENTERS`` centers
    (at least one row each), and each band's mask straight into ``out``.
    A center's orbit, block schedule and Brent snapshot do not depend on
    the other centers, so the bands change no cell (module docstring).
    Each band's centers go in as a temporary, which _bounded drops after
    its disk test.
    """
    rows = max(1, _BAND_CENTERS // xs.size)
    for lo in range(0, ys.size, rows):
        band = ys[lo:lo + rows]
        out[lo:lo + band.size] = _bounded(
            p, (xs[None, :] + 1j * band[:, None]).ravel(), max_iter,
            inner).reshape(band.size, xs.size)


def escape_grid(p: Polynomial, resolution: int = 512, max_iter: int = 200) -> EscapeGrid:
    """Raster of the bounded-orbit set on the square of half-width 1.05 R.

    Cell centers are laid out so the real and imaginary axes are hit
    exactly; segment Julia sets on an axis keep a row of bounded centers
    at any iteration budget instead of draining to an empty raster.  Only
    the centers of the box |x|, |y| <= r_B are iterated; for an even or
    odd p only its rows up to the real axis, and the rest are the mirror
    image of those.  The rows are iterated in bands of about
    ``_BAND_CENTERS`` centers (module docstring).
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
        _grid_rows(p, axis[box], axis[box], max_iter, inner, cells[box, box])
    else:
        # cell [iy, ix] mirrors cell [2 half - iy, 2 half - ix]
        _grid_rows(p, axis[box], axis[box.start:half + 1], max_iter, inner,
                   cells[box.start:half + 1, box])
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
    data = np.multiply(np.flipud(grid.cells), np.uint8(255), dtype=np.uint8)
    return b"".join([header.encode("ascii"), data])
