"""Point-cloud and raster approximations of Julia sets.

``sample_julia`` transcribes backward invariance into full-fiber inverse
iteration: it grows the preimage tree of a fixed point z0 on J_p.
Every step solves the whole fiber p(.) = t of each of its targets t,
keeps all d roots as sample points and picks the next step's targets
among them.  While a step holds fewer than ``_ORBIT_BATCH`` targets, the
next holds every root it solved, in order, cut to ``_ORBIT_BATCH``: the
tree is complete, breadth first, down to the first level of that size.
From then on each target is an orbit, which moves on to the root of a
random rank in its own fiber; the orbits are one vectorized batch,
equivalent to many independent seeded orbits.  So a sample's first
points do not depend on the seed: 8,192 for d = 2 and 12,705 for d = 3.

Every fiber is kept in rank order (``_ranked``): its roots rank by their
offsets from the fibers' centroid, measured along a direction turned a
fixed angle from the target's.  Ranks survive an affine change of
coordinates, so with one seed the sample of g p g^-1 is the image under
g of that of p, point by point up to the solver's accuracy, when p has
one fixed point of largest multiplier modulus.

z0 is the repelling fixed point of largest multiplier modulus or, when
none repels, a parabolic one (``_orbit_seed``).  Every iterated preimage
of it lies on J_p too, so points are kept from the first step on.  That
step solves z0's fiber and leaves aside its root nearest z0 (simple, as
p'(z0) != 0), under which the tree repeats the points kept one level up.
Each kept fiber is thus that of z0 or of an earlier kept point.  A
multiple root is the one way a point is kept twice.  Each fiber is kept
whole, but a root equal to its left neighbour in rank order is not a
target again, so the copies of an exact double root (0 in T_2's fiber of
-1) grow one subtree.  Roots that differ in their last bits grow
separate subtrees, which agree up to rounding.

From degree 3 on, a fiber starts from one kept at an earlier step
(``_StartTable``), the predictor of numerical continuation put in front
of the solver's Aberth corrector.  The square |Re z|, |Im z| <= R, R the
escape radius, is cut into _START_CELLS x _START_CELLS cells, and each
holds the latest kept fiber F' whose target t' falls in it.  A target t
in that cell starts from F' + (t - t') / p'(F'), Euler's step along the
roots as the target moves from t' to t.  A target whose cell is empty,
or whose prediction leaves the Cauchy circle of p - t (a root of F' at
or near a critical point), starts from the Newton polygon, as every
fiber of a quadratic or of a binomial a_0 + a_d z^d does: their starts
are exact or two steps from exact already.  On the seed-0 benchmark
samples of 1e5 points and degree 3 to 6, this cuts the Aberth
member-steps 2.4 to 3.4 times.

So a fiber's computed roots depend on its target and on the fibers kept
at earlier steps, but not on the fibers solved in its own step: the
table is read before a step and written after it.  The last step solves
only the targets whose fibers fill the rest of the sample, and the
orbits draw their ranks for a whole batch, so a sample is the prefix of
any larger one at the same seed.  A fiber that fails to converge ends
the sample with SamplingError; nothing is retried.

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

from .polynomial import (Polynomial, _horner, derivative, escape_radius,
                         format_complex, format_polynomial)
from .roots import all_roots, solve_fibers

# Most targets per step.  z0's tree is complete up to the first level this
# size, which sets the seed-free prefix of a sample; from then on each
# target is one orbit (module docstring).
_ORBIT_BATCH = 2048

# A fixed point repels when its multiplier modulus exceeds 1 by this much
# (``_orbit_seed``).  A Siegel point, whose multiplier has modulus exactly
# 1, is the center of a Fatou component, not a point of J_p; rounded to
# |lambda| = 1 + ulp it must not pass for a repelling seed.
_REPELLING_MARGIN = 1e-9

# e^{-i}: the roots of a fiber rank along a direction turned one radian
# off its target's (``_ranked``), so mirror-symmetric fibers do not tie.
_KEY_TURN = np.exp(-1j)

# Cells per side of the sampler's start table (``_StartTable``).  On the
# seed-0 benchmark samples of degree 3 to 6 at n = 1e5, 256 leaves 37 to
# 659 of 16,667 to 33,334 targets per sample without a start.  64 saves
# fewer Aberth member-steps (40,124 against 33,703 on the random cubic);
# 1024 leaves more targets in empty cells and takes more of them on every
# random op (34,480 on the cubic), and its 8 MiB table made those samples
# slower.
_START_CELLS = 256

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


def _ranked(p: Polynomial, fiber: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """``fiber`` with each row in rank order.

    The roots w over a target t rank by the key Re((w - c) conj(u)): their
    offsets from c = -a_{d-1} / (d a_d), the centroid of every fiber,
    projected on u = e^i (t - c).  An affine map g(z) = az + b takes the
    fibers of p to those of g p g^-1, and c and t with them, so it
    multiplies every key by |a|^2 and keeps each rank.  The sample's order
    and the branches its orbits take thus do not depend on the
    coordinates.  Two roots tie only when their difference is
    perpendicular to u.  Turning u one radian off t - c keeps that off the
    real roots and mirror pairs of a real polynomial over a real target,
    which differ along or across t - c.  Ties, and t = c, keep the solver's
    order.
    """
    c = -p.coeffs[-2] / (p.degree * p.coeffs[-1])
    conj_u = np.conj(targets - c) * _KEY_TURN
    if fiber.shape[1] == 2:  # c drops out of the difference of the two keys
        swap = ((fiber[:, 0] - fiber[:, 1]) * conj_u).real > 0
        return np.where(swap[:, None], fiber[:, ::-1], fiber)
    order = np.argsort(((fiber - c) * conj_u[:, None]).real, axis=1, kind="stable")
    return np.take_along_axis(fiber, order, axis=1)


def _pullback(p: Polynomial, z: np.ndarray, starts=None) -> np.ndarray:
    """The fibers of the targets z, row i that of z[i], each in rank order (``_ranked``).

    ``starts`` goes to ``solve_fibers``: None, or a row of Aberth starts
    per target, non-finite where the solver is to take its own.  A fiber
    that fails to converge raises SamplingError: a second solve would
    restart from the same starts and replay the first.
    """
    roots, res, ok = solve_fibers(p, z, starts)
    if not ok.all():
        i = int(np.flatnonzero(~ok)[0])
        raise SamplingError(
            "inverse iteration aborted: fiber solve did not converge at "
            f"z={format_complex(z[i])} (worst residual {res[i].max():.3e})"
        )
    return _ranked(p, roots, z)


def _orbit_seed(p: Polynomial) -> complex:
    """z0, the root of the sample tree: a fixed point of p on J_p.

    The fixed point of largest multiplier modulus |lambda|, if it repels
    (|lambda| > 1 + _REPELLING_MARGIN); otherwise the one whose lambda lies
    nearest 1.  A fixed point with lambda = 1 exists when none repels: were
    every fixed point simple with |lambda| <= 1, each term of the fixed
    point formula sum 1/(1 - lambda_j) = 0 would have real part at least
    1/2.  It is parabolic, and lies on J_p (Milnor, Dynamics in One
    Complex Variable, section 12).
    """
    shifted = p.coeffs.copy()
    shifted[1] -= 1.0
    fixed = all_roots(Polynomial(shifted)).roots
    multipliers = _horner(derivative(p).coeffs, fixed)
    i = np.argmax(np.abs(multipliers))
    if not abs(multipliers[i]) > 1.0 + _REPELLING_MARGIN:
        i = np.argmin(np.abs(multipliers - 1.0))
    return complex(fixed[i])


class _StartTable:
    """Aberth starts for the sampler's fibers, predicted from kept fibers (module docstring).

    The square |Re z|, |Im z| <= R, R the escape radius, covers J_p and is
    cut into _START_CELLS x _START_CELLS cells.  A cell holds the index of
    the latest kept fiber whose target falls in it (-1 while none does):
    row k of ``fibers`` is kept fiber k, a view of the sample itself, and
    ``origin[k]`` its target.
    """

    def __init__(self, p: Polynomial, kept: np.ndarray):
        d = p.degree
        self.dcoeffs = derivative(p).coeffs
        self.radius = escape_radius(p)
        self.fibers = kept[:kept.size // d * d].reshape(-1, d)
        self.origin = np.empty(self.fibers.shape[0], dtype=np.complex128)
        self.owner = np.full(_START_CELLS ** 2, -1, dtype=np.intp)
        # Cauchy's bound on the roots of p - t is 1 + max(top, |a_0 - t|) / lead
        a = np.abs(p.coeffs)
        self.a0, self.top, self.lead = p.coeffs[0], a[1:-1].max(), a[-1]

    def cells(self, z: np.ndarray) -> np.ndarray:
        """The cell of each target."""
        scale = _START_CELLS / (2.0 * self.radius)
        ix, iy = (np.clip(((u + self.radius) * scale).astype(np.intp), 0,
                          _START_CELLS - 1) for u in (z.real, z.imag))
        return iy * _START_CELLS + ix

    def starts(self, z: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """A row of starts per target: F' + (t - t') / p'(F'), or nan.

        A row is nan, left to the solver's own starts, where the cell is
        empty or the prediction leaves the Cauchy circle of p - t, which
        holds every root: a root of F' where p' vanishes or nearly does
        (a critical point, such as the double root 0 of T_4's fiber over
        1) predicts no start worth taking.
        """
        src = self.owner[cells]
        out = np.full((z.size, self.fibers.shape[1]), np.nan, dtype=np.complex128)
        has = np.flatnonzero(src >= 0)
        near, t = self.fibers[src[has]], z[has]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            guess = near + ((t - self.origin[src[has]])[:, None]
                            / _horner(self.dcoeffs, near))
        cauchy = 1.0 + np.maximum(self.top, np.abs(self.a0 - t)) / self.lead
        inside = (np.abs(guess) <= cauchy[:, None]).all(axis=1)  # False on nan
        out[has[inside]] = guess[inside]
        return out

    def record(self, z: np.ndarray, cells: np.ndarray, first: int) -> None:
        """Enter the fibers of the targets z, kept as fibers ``first`` on."""
        index = first + np.arange(z.size)
        self.origin[index] = z
        np.maximum.at(self.owner, cells, index)  # the latest fiber of a cell wins


def _run_orbits(p: Polynomial, n: int, seed: int) -> np.ndarray:
    d = p.degree
    z0 = _orbit_seed(p)
    rng = np.random.Generator(np.random.Philox(seed))
    kept = np.empty(n, dtype=np.complex128)
    # quadratics start exact, and binomials two steps from their roots
    table = _StartTable(p, kept) if d > 2 and p.coeffs[1:-1].any() else None
    z, lo = np.array([z0]), 0  # the step's targets; points kept so far
    while lo < n:
        # the last step solves only the targets whose fibers it keeps
        z = z[:-(-(n - lo) // d)]
        starts = None
        if table is not None:
            cells = table.cells(z)
            starts = table.starts(z, cells)
        fiber = _pullback(p, z, starts)
        rows = fiber.ravel()[:n - lo]
        kept[lo:lo + rows.size] = rows
        if table is not None and lo + rows.size < n:
            # written after the step that read it, so a fiber's start does
            # not depend on how many fibers its step solves
            table.record(z, cells, lo // d)
        if z.size < _ORBIT_BATCH:
            # the next level of z0's tree: a root equal to its left
            # neighbour grows no second subtree, and under z0's root
            # nearest z0 the tree would repeat itself
            fresh = np.ones(fiber.shape, dtype=bool)
            fresh[:, 1:] = fiber[:, 1:] != fiber[:, :-1]
            if lo == 0:
                fresh[0, np.argmin(np.abs(fiber[0] - z0))] = False
            z = fiber[fresh][:_ORBIT_BATCH]
        else:
            z = fiber[np.arange(z.size), rng.integers(0, d, size=z.size)]
        lo += rows.size
    return kept


def sample_julia(p: Polynomial, n: int, seed: int) -> PointCloud:
    """n-point inverse-iteration sample of the Julia set, reproducible per seed.

    The sample is the prefix of any larger one at the same seed.  Its
    first points, the complete preimage tree of z0 down to the first level
    of ``_ORBIT_BATCH`` fibers (8,192 points for d = 2, 12,705 for d = 3),
    are the same at every seed; the seed draws the orbits' branches after
    that (module docstring).

    Raises SamplingError when a fiber solve fails or a sample point
    leaves the escape disk.
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
