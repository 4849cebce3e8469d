"""Planar convex geometry on complex points.

A hull is built in three steps.  A prefilter first drops the points
strictly inside a polygon of extreme input points.  The polygon starts as
the Akl-Toussaint octagon plus quickhull's first split, the farthest
point on each side of the octagon's longest chord, and, as in quickhull,
gains the farthest point beyond each edge while a pass still drops at
least half the points it tests; of a generic Julia cloud of 1e5 points
well under 1% survive.  Each point is measured against every edge line,
not against a fan from a center, so a thin cloud (the Julia set of a
Chebyshev conjugate, a segment blurred by 1e-10 of its length) loses its
interior as a round one does.
Only the survivors are then sorted lexicographically, by an argsort of
the real parts when no two are equal (``_sort_distinct``), and stripped
of near-duplicates.  Last, a monotone chain over the sorted survivors:
the chord from the first to the last point splits them into a lower and
an upper chain.  Each chain, and then the closed cycle across its two
seams, is reduced in rounds of one vectorized turn test over every
consecutive triple.  A round drops every other member of each run of
failing vertices, never two neighbours, since each of two neighbours can
be collinear only through the other.  The turn tolerance is read only in
a round where every triple turns left (``_pop_mask``), and measured only
on the triples whose line distance, a lower bound, may lie within it.

Where a cheap bound rules a case out, the exact formula is skipped, and
it still decides every case the bound cannot rule out, so no shortcut
changes a bit: the sort's tie fallback, the line distance of
``_pop_mask``, the coordinate gaps before ``hypot`` in ``_within``, and
the squared distances before ``hypot`` in ``_antipodal_diameter``, each
with its rounding argument in its docstring.

Tolerance contract: the vertices are input points in strictly convex ccw
order, and every input point lies within 1e-12 * scale of the hull; a
cluster inside ``_DUP_EPS * scale`` keeps one representative, and a
point dropped as collinear lies within about ``_TURN_EPS * scale`` of it.
The prefilter changes no vertex.  A point it drops lies at least
``2 * _DUP_EPS * scale`` inside the hull of the other input points, so
neither it nor a point within ``_DUP_EPS * scale`` of it is a vertex;
and as the tolerance reads only chains that turn left throughout, which
hold no such point, it drops the same vertices with or without it.
Sorting only the survivors changes one thing: a dropped point no longer
splits a run of near-duplicates.  So when a dropped point may sort inside
a run of distinct near-duplicates of the survivors, the whole cloud is
sorted and stripped first, and the prefilter runs on what is left.

Distances and the polygon Hausdorff distance live here too.  A signed
distance to a proper polygon measures each point's distance to every
edge line once, then the segment distance and the inside test only on
the window of three edges around the nearest line
(``_polygon_distance_kernel``, which says why that is exact).
``_clamp_offsets`` is the one segment-distance primitive.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

PROPER = "Proper"
SEGMENT = "Segment"
POINT = "Point"

# Orientation ties: a vertex within 1e-14 * scale of the chord between its
# neighbors reads as collinear (cross <= eps * scale * |chord|); a plain
# cross <= eps * scale^2 test would misread thin turns over micro-edges.
_TURN_EPS = 1e-14
_DUP_EPS = 1e-12

# Squared distances at least this fraction of the largest may be the
# largest distance (``_antipodal_diameter``); 2^-49 is 16 units of rounding.
_SQUARED_MARGIN = 1.0 - 2.0 ** -49

# Point-edge pairs per block of the distance kernels.  A block holds about
# five float temporaries of this length; 2**16 keeps them near cache size
# and bounds peak memory.
_CHUNK_BUDGET = 65_536

# Edges per block of the diameter's squared distances: small enough that
# the block's few float temporaries stay in cache.
_DIAMETER_BLOCK = 16_384

_TINY = np.finfo(np.float64).tiny  # the least normal float


def _points_of(obj) -> np.ndarray:
    pts = getattr(obj, "points", obj)
    arr = np.atleast_1d(np.asarray(pts, dtype=np.complex128)).ravel()
    if arr.size == 0:
        raise ValueError("empty point set")
    if not np.all(np.isfinite(arr)):
        raise ValueError("points must be finite")
    return arr


@dataclass(eq=False)
class ConvexPolygon:
    """Convex hull output: vertices in counter-clockwise order.

    ``kind`` is Proper (>= 3 vertices, strict turns), Segment (2) or
    Point (1).  A proper polygon computes what its stages share once, on
    first use: the diameter, the edge angles (read by the diameter,
    ``decimate`` and ``_min_area_rectangle``) and the cumulative edge
    lengths (read by ``boundary_points``).  The vertices are not to be
    changed in place after construction.
    """

    vertices: np.ndarray
    kind: str

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.vertices, dtype=np.complex128)).ravel()
        if self.kind == POINT:
            if v.size != 1:
                raise ValueError("point polygon needs exactly 1 vertex")
        elif self.kind == SEGMENT:
            if v.size != 2 or v[0] == v[1]:
                raise ValueError("segment polygon needs 2 distinct vertices")
        elif self.kind == PROPER:
            if v.size < 3:
                raise ValueError("proper polygon needs >= 3 vertices")
            # ring[k + 1] is the edge v_k -> v_k+1, ring[0] the last one again
            ring = np.empty(v.size + 1, dtype=np.complex128)
            np.subtract(v[1:], v[:-1], out=ring[1:-1])
            ring[-1] = v[0] - v[-1]
            ring[0] = ring[-1]
            e = ring[1:]
            scale = max(np.ptp(v.real), np.ptp(v.imag))
            if np.abs(e).min() <= _DUP_EPS * scale:
                raise ValueError("duplicate vertices")
            turn = (ring[:-1] * np.conj(e)).imag
            if not (turn < 0).all():
                raise ValueError("vertices are not strictly convex in ccw order")
        else:
            raise ValueError(f"unknown polygon kind {self.kind!r}")
        self.vertices = v

    def __len__(self) -> int:
        return self.vertices.size

    @cached_property
    def diameter(self) -> float:
        if self.kind == POINT:
            return 0.0
        if self.kind == SEGMENT:
            return abs(self.vertices[1] - self.vertices[0])
        return _antipodal_diameter(self.vertices, self._edge_angles)

    @cached_property
    def _edge_angles(self) -> np.ndarray:
        """Directions of the edges v_k -> v_k+1 of a proper polygon, unwrapped to increase."""
        x, y = self.vertices.real, self.vertices.imag
        angle = np.arctan2(np.roll(y, -1) - y, np.roll(x, -1) - x)
        # every turn lies in (0, pi), so a drop below -pi/2 is a wrap past pi
        wraps = np.concatenate(([0], np.cumsum(np.diff(angle) < -0.5 * np.pi)))
        return angle + 2.0 * np.pi * wraps

    @cached_property
    def _cumulative_lengths(self) -> np.ndarray:
        """0, then the boundary length up to each vertex after the first, then the perimeter."""
        v = self.vertices
        lengths = np.abs(np.roll(v, -1) - v)
        return np.concatenate([[0.0], np.cumsum(lengths)])


def _antipodal_diameter(v: np.ndarray, angle: np.ndarray) -> float:
    """Rotating calipers on a proper ccw polygon, all edges at once.

    Edge k runs from vertex k to k + 1, and ``angle`` holds the edge
    directions, unwrapped to increase.  For edge i the calipers stop at
    the first vertex j whose edge has turned by at least pi from edge i;
    ``searchsorted`` finds it up to rounding, so the candidate pairs are
    (i, j - 1 .. j + 1) and (i + 1, j - 1 .. j + 1) over all i, and the
    diameter is the largest of their distances, each measured with hypot
    as ``abs`` of a Python complex measures it.  hypot measures only the
    pairs ``_diameter_pairs`` keeps.
    """
    a, b = _diameter_pairs(v, angle)
    return float(np.hypot(v.real[a] - v.real[b], v.imag[a] - v.imag[b]).max())


def _diameter_pairs(v: np.ndarray, angle: np.ndarray):
    """(a, b): each unordered candidate pair of the calipers that may be the farthest, once.

    Squared distances d2 of all 6n candidate pairs come first, on the
    vertices scaled by a power of two, which is exact, so that the largest
    coordinate lies in [1/2, 1): the largest d2 is then at least 2^-110 (a
    proper polygon has two vertices at least an ulp of that coordinate
    apart) and at most 8, and no d2 near it over- or underflows.  With
    u = 2^-53, each d2 is within a factor (1 +- u)^2 of the exact squared
    length of its pair's rounded difference, and hypot within one ulp,
    2u, of that length.  So a pair whose hypot is at least that of the
    pair with the largest d2, M, has d2 >= M (1 - 12u), and the test
    d2 >= M (1 - 2^-49) = M (1 - 16u), rounded, keeps it; subnormal scaled
    coordinates add absolute errors near 2^-1074, far inside the slack.
    d2 is taken a block of edges at a time and tested against the largest
    d2 so far, which keeps a superset.  Of the kept pairs, (i + 1, b) goes
    when b is also in the window of edge i + 1, and (a, b) with a > b goes
    when (b, a) is a candidate too, that is when a is in the window of
    edge b - 1 or b; hypot of (a, b) and of (b, a) are the same number.
    """
    n = v.size
    j = np.searchsorted(np.concatenate([angle, angle + 2.0 * np.pi]), angle + np.pi)
    j %= n
    exponent = int(np.frexp(max(np.abs(v.real).max(), np.abs(v.imag).max()))[1])
    # vertex k of the scaled polygon at x[k], y[k], for k = 0 .. n
    x, y = np.empty(n + 1), np.empty(n + 1)
    np.ldexp(v.real, -exponent, out=x[:-1])
    np.ldexp(v.imag, -exponent, out=y[:-1])
    x[-1], y[-1] = x[0], y[0]
    top, kept = 0.0, []
    for lo in range(0, n, _DIAMETER_BLOCK):  # a block of edges i at a time
        hi = min(lo + _DIAMETER_BLOCK, n)
        for shift in (-1, 0, 1):
            b = j[lo:hi] + shift
            b[b == n] = 0
            xb, yb = x[:n][b], y[:n][b]  # index -1 reads vertex n - 1
            for side in (0, 1):  # d2[i - lo] of the pair (i + side, j_i + shift)
                d2 = np.subtract(x[lo + side:hi + side], xb)
                d2 *= d2
                dy = np.subtract(y[lo + side:hi + side], yb)
                dy *= dy
                d2 += dy
                top = max(top, float(d2.max()))
                rows = np.flatnonzero(d2 >= top * _SQUARED_MARGIN) + lo
                if side:  # (i + 1, b) is a pair of edge i + 1 too when b is in its window
                    nxt = rows + 1
                    nxt[nxt == n] = 0
                    rows = rows[~_in_window(j[rows] + shift, j[nxt], n)]
                kept.append((side, shift, rows))
    del x, y  # before the index arithmetic on the kept pairs, which bounds the peak
    a = np.concatenate([rows + side for side, _, rows in kept])
    a[a == n] = 0
    b = np.concatenate([j[rows] + shift for _, shift, rows in kept])
    b %= n
    del kept
    later = np.flatnonzero(a > b)
    first, second = a[later], b[later]
    mirrored = _in_window(first, j[second], n) | _in_window(first, j[second - 1], n)
    keep = np.ones(a.size, dtype=bool)
    keep[later[mirrored]] = False
    return a[keep], b[keep]


def _in_window(b: np.ndarray, c: np.ndarray, n: int) -> np.ndarray:
    """Whether vertex b is one of c - 1, c, c + 1 of an n-gon, indices taken mod n."""
    b = b - c + 1
    b %= n
    return b <= 2


def _convex_corners(c: np.ndarray) -> np.ndarray:
    """The ccw vertices, strict turns only, of the hull of a few points.

    Andrew's monotone chain, one Python step per point.
    """
    seq = np.unique(c).tolist()  # complex values sort by real, then imaginary part

    def chain(points):
        out: list = []
        for q in points:
            while len(out) >= 2 and ((out[-1] - out[-2]).conjugate() * (q - out[-2])).imag <= 0:
                out.pop()
            out.append(q)
        return out[:-1]

    return np.array(chain(seq) + chain(seq[::-1]))


def _candidates(pts: np.ndarray, scale: float) -> np.ndarray:
    """Indices, ascending, of the points that may be hull vertices.

    A convex polygon P of extreme input points rules out every point that
    lies at least ``2 * _DUP_EPS * scale`` inside each edge line of P.  P
    starts as the Akl-Toussaint octagon plus quickhull's first split: the
    farthest point on each side of the chord between the two octagon
    corners farthest apart.  On a thin, turned cloud the octagon's corners
    gather at the cloud's two ends, and that split gives P its width.  A
    pass measures each tested point's depth inside every edge line of P,
    so the test is exact however thin P is.  While a pass drops at least
    half the points it tests, the point farthest beyond each edge becomes
    a corner, as in quickhull, and the survivors are tested again.  So the
    tested points halve from pass to pass, and a cloud in convex position
    (a circle) or on a line costs one pass.

    Points are measured from an octagon corner, so a depth is rounded by
    some 1e-16 * scale.  Should rounding leave a corner of P slightly
    reflex, a point inside every edge line still lies inside P, which lies
    inside the hull of its corners.
    """
    x, y = pts.real, pts.imag
    s, t = x + y, x - y
    octagon = np.unique([np.argmin(x), np.argmax(x), np.argmin(y), np.argmax(y),
                         np.argmin(s), np.argmax(s), np.argmin(t), np.argmax(t)])
    ends = pts[octagon]
    far = np.argmax(np.abs(ends[:, None] - ends[None, :]))
    first, last = ends[far // ends.size], ends[far % ends.size]
    x, y = pts.real - first.real, pts.imag - first.imag
    chord = last - first
    inside, term = np.empty_like(x), np.empty_like(x)
    np.multiply(y, chord.real, out=inside)
    inside -= np.multiply(x, chord.imag, out=term)  # the side of the chord
    split = np.concatenate([octagon, [np.argmin(inside), np.argmax(inside)]])
    corners = x[split] + 1j * y[split]
    depth = 2.0 * _DUP_EPS * scale
    keep = np.arange(pts.size)
    while True:
        v = _convex_corners(corners)
        if v.size < 3:
            return keep
        e = np.roll(v, -1) - v
        normal = 1j * e / np.abs(e)  # inward, for ccw corners
        nx, ny = normal.real, normal.imag
        offset = nx * v.real + ny * v.imag
        near, below = np.zeros(keep.size, dtype=bool), np.empty(keep.size, dtype=bool)
        inside, term = inside[:keep.size], term[:keep.size]
        new = []
        for k in range(v.size):
            np.multiply(x, nx[k], out=inside)
            inside += np.multiply(y, ny[k], out=term)
            inside -= offset[k]
            i = np.argmin(inside)
            if inside[i] < 0.0:  # the point farthest beyond edge k
                new.append(i)
            near |= np.less(inside, depth, out=below)
        out = np.flatnonzero(near)
        if 2 * out.size > keep.size or not new:
            return keep[out]
        corners = np.concatenate([v, x[new] + 1j * y[new]])
        keep, x, y = keep[out], x[out], y[out]


def _pop_mask(o, a, q, eps_len: float) -> np.ndarray:
    """Mask of middle vertices a dropped from the triples o -> a -> q.

    True on a non-left turn (exact cross test); only when every triple
    turns left, True where a lies within ``eps_len`` of the chord segment
    [o, q].  Distance is measured to the segment, not the line, so
    far-away vertices over micro-chords survive.  Distances use hypot, as
    ``abs`` of a Python complex does.  The tolerance thus only ever reads
    a convex chain, which points strictly inside the hull do not change;
    a tolerance test against a chord to such a point could drop a vertex
    that the chain without it keeps, and the prefilter would change it.

    The segment distance is at least the line distance cross / |q - o|,
    so that formula runs only where the line distance is at most
    2 * eps_len, or where len2 = |q - o|^2 is 0, subnormal or not finite.
    That skips no drop.  With u = 2^-53 and len2 normal, so that
    |q - o| >= 1.49e-154, the computed line distance is at most
    |a - o| (1 + 7u) and at most |a - q| (1 + 9u) + 3.1u |q - o|, up to
    absolute terms below 2e-169.  Where it exceeds 2 * eps_len, each of
    the three distances the formula may take thus exceeds eps_len, as
    long as every chord is at most 2^50 * eps_len long and eps_len is at
    least 1e-168.  The hull's eps_len = 1e-14 * scale meets both: its
    chords are at most sqrt(2) * scale long, and len2 is normal only on
    chords of at least 1.49e-154.
    """
    rx, ry = a.real - o.real, a.imag - o.imag
    ex, ey = q.real - o.real, q.imag - o.imag
    cross = rx * ey - ry * ex
    turned = cross <= 0.0
    if turned.any():
        return turned
    len2 = ex * ex + ey * ey
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inner = cross / np.sqrt(len2)
    near = ~((inner > 2.0 * eps_len) & (inner < np.inf) & (len2 >= _TINY))
    at = np.flatnonzero(near)
    rx, ry, ex, ey, len2, inner, a, q = (w[at] for w in (rx, ry, ex, ey, len2, inner, a, q))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = np.divide(rx * ex + ry * ey, len2, out=np.zeros_like(len2),
                      where=len2 != 0.0)
    dist = np.where(t <= 0.0, np.hypot(rx, ry),
                    np.where(t >= 1.0, np.hypot(a.real - q.real, a.imag - q.imag), inner))
    near[at] = dist <= eps_len
    return near


def _within(dx: np.ndarray, dy: np.ndarray, dist: float) -> np.ndarray:
    """hypot(dx, dy) <= dist, with hypot taken only where |dx| and |dy| both are.

    hypot is at least the larger of |dx| and |dy|, so no other entry passes.
    """
    near = np.abs(dx) <= dist
    near &= np.abs(dy) <= dist
    at = np.flatnonzero(near)
    near[at] = np.hypot(dx[at], dy[at]) <= dist
    return near


def _every_other(mask: np.ndarray) -> np.ndarray:
    """The members at even offsets in each run of True: never two neighbours."""
    idx = np.arange(mask.size)
    start = mask & ~np.concatenate(([False], mask[:-1]))
    first = np.maximum.accumulate(np.where(start, idx, 0))
    return mask & ((idx - first) % 2 == 0)


def _every_other_cyclic(mask: np.ndarray) -> np.ndarray:
    """``_every_other`` around a cycle, whose last and first entries are neighbours."""
    n = mask.size
    if mask.all():
        drop = np.zeros(n, dtype=bool)
        drop[:n - n % 2:2] = True
        return drop
    shift = int(np.argmin(mask)) + 1  # a run never wraps past a False entry
    return np.roll(_every_other(np.roll(mask, -shift)), shift)


def _reduce_chain(c: np.ndarray, eps_len: float) -> np.ndarray:
    """Drop popped vertices of an open chain in rounds; the two ends stay.

    Each round drops every other member of each run of popped vertices.
    Dropping two neighbours at once could lose a true vertex, when each
    was collinear only through the other.
    """
    while c.size > 2:
        drop = _every_other(_pop_mask(c[:-2], c[1:-1], c[2:], eps_len))
        if not drop.any():
            break
        c = c[np.concatenate(([True], ~drop, [True]))]
    return c


def _reduce_cycle(v: np.ndarray, scale: float) -> np.ndarray:
    """Drop near-duplicate, then popped vertices around the cycle, in rounds.

    Of a near-duplicate pair the later vertex goes (the last one across
    the seam), and no round drops two neighbours, the seam included.
    """
    eps_len = _TURN_EPS * scale
    while v.size > 2:
        prev = np.roll(v, 1)
        near = _within(v.real - prev.real, v.imag - prev.imag, _DUP_EPS * scale)
        if near.any():
            near[-1] |= near[0]
            near[0] = False
            drop = near
        else:
            drop = _pop_mask(prev, v, np.roll(v, -1), eps_len)
            if not drop.any():
                break
        v = v[~_every_other_cyclic(drop)]
    return v


def _sort_distinct(pts: np.ndarray, dup: float):
    """(points, near): lexicographically sorted, each run cut to its first.

    numpy orders complex values by real part, then imaginary part; the
    stable sort keeps exact ties, such as 0.0 and -0.0, in input order.
    When no two real parts are equal, an argsort of the real parts alone
    gives that same order, about five times faster; on a tie the complex
    sort runs instead.
    A run is a chain of neighbours at most ``dup`` apart in the sort;
    ``near`` holds the first of each pair of distinct such neighbours.
    """
    ordered = pts[np.argsort(pts.real)]
    x = ordered.real
    pts = ordered if (x[1:] > x[:-1]).all() else np.sort(pts, kind="stable")
    gap = np.abs(np.diff(pts))
    near = gap <= dup
    return pts[np.concatenate([[True], ~near])], pts[:-1][near & (gap > 0.0)]


def _splits_a_run(pts: np.ndarray, keep: np.ndarray, near: np.ndarray,
                  dup: float) -> bool:
    """Whether a point not in ``keep`` may sort between two near neighbours.

    Such a point would split their run in the sort of the whole cloud.  It
    would sort between the first of a pair, ``near``, and the second,
    whose real part is at most ``dup`` above it; the test asks only for a
    real part at most ``2 * dup`` above, which is looser and rounding-safe.
    """
    dropped = np.ones(pts.size, dtype=bool)
    dropped[keep] = False
    x = pts.real[dropped]
    at = np.searchsorted(near.real, x, side="right") - 1
    return bool(((at >= 0) & (x <= near.real[at] + 2.0 * dup)).any())


def convex_hull(points) -> ConvexPolygon:
    """Monotone-chain hull with collinear interior points removed.

    The lower chain takes the points on or right of the chord from the
    first to the last sorted point, the upper chain those on or left of it.
    """
    pts = _points_of(points)
    scale = max(np.ptp(pts.real), np.ptp(pts.imag))
    if scale == 0.0:
        return ConvexPolygon(pts[:1].copy(), POINT)
    keep = _candidates(pts, scale)
    cand, near = _sort_distinct(pts[keep], _DUP_EPS * scale)
    if near.size and _splits_a_run(pts, keep, near, _DUP_EPS * scale):
        # the sort of the whole cloud would keep more of that run: sort it first
        cand = _sort_distinct(pts, _DUP_EPS * scale)[0]
        cand = cand[_candidates(cand, scale)]
    pts = cand
    if pts.size == 1:
        return ConvexPolygon(pts, POINT)
    eps_len = _TURN_EPS * scale
    first, chord = pts[0], pts[-1] - pts[0]
    side = chord.real * (pts.imag - first.imag) - chord.imag * (pts.real - first.real)
    lower = _reduce_chain(pts[side <= 0.0], eps_len)
    upper = _reduce_chain(pts[side >= 0.0][::-1], eps_len)
    hull = _reduce_cycle(np.concatenate([lower[:-1], upper[:-1]]), scale)
    if hull.size <= 2:
        # tolerance-collinear input: recover the true extremes by two sweeps,
        # the sort-order endpoints can sit anywhere along the line
        e1 = pts[np.argmax(np.abs(pts - pts[0]))]
        e2 = pts[np.argmax(np.abs(pts - e1))]
        if abs(e2 - e1) <= _DUP_EPS * scale:
            return ConvexPolygon(np.array([e1]), POINT)
        ends = sorted([e1, e2], key=lambda z: (z.real, z.imag))
        return ConvexPolygon(np.array(ends), SEGMENT)
    return ConvexPolygon(hull, PROPER)


def _min_area_rectangle(polygon: ConvexPolygon):
    """``(corner, axis, width, height)`` of a least-area rectangle holding the polygon.

    The rectangle is corner + axis * (x + iy) for 0 <= x <= width and
    0 <= y <= height, with |axis| = 1.  A least-area enclosing rectangle
    of a convex polygon has a side along one of its edges (Freeman and
    Shapira, CACM 18, 1975), so trying each edge direction finds it, and
    its area is at most that of the axis-parallel box.  For edge k the
    other three sides touch the vertices where the edges have turned by
    pi/2, pi and 3 pi/2 from edge k; as in ``_antipodal_diameter``,
    ``searchsorted`` finds them up to rounding, and each is measured with
    its two neighbours and the two ends of edge k.  A segment gives height
    0, a point a rectangle of size 0.
    """
    v = polygon.vertices
    if polygon.kind == POINT:
        return complex(v[0]), 1.0 + 0j, 0.0, 0.0
    if polygon.kind == SEGMENT:
        e = v[1] - v[0]
        return complex(v[0]), complex(e / abs(e)), float(abs(e)), 0.0
    n = v.size
    e = np.roll(v, -1) - v
    axes = e / np.abs(e)
    angle = polygon._edge_angles
    ring = np.concatenate([angle, angle + 2.0 * np.pi, angle + 4.0 * np.pi])
    i = np.arange(n)
    ends = np.stack([i, (i + 1) % n])
    extent = []
    for turn in (0.5, 1.0, 1.5):
        j = np.searchsorted(ring, angle + turn * np.pi)
        near = np.concatenate([ends, [(j - 1) % n, j % n, (j + 1) % n]])
        # vertex coordinates in the frame of edge k, from vertex k
        extent.append((v[near] - v) * np.conj(axes))
    width = extent[0].real.max(axis=0) - extent[2].real.min(axis=0)
    height = extent[1].imag.max(axis=0)
    k = int(np.argmin(width * height))
    low = extent[2].real[:, k].min()
    return complex(v[k] + axes[k] * low), complex(axes[k]), float(width[k]), float(height[k])


def _inverse_len2(ex, ey):
    """1 / (ex^2 + ey^2) per segment, 0 for a zero-length one.

    A segment shorter than about 1.5e-154 counts as zero-length: its
    squared length is subnormal (or 0), and its inverse would overflow.
    """
    len2 = ex * ex + ey * ey
    return np.divide(1.0, len2, out=np.zeros_like(len2),
                     where=len2 >= _TINY)


def _clamp_offsets(rx, ry, ex, ey, inv_len2):
    """Offsets (dx, dy) from points to their nearest points on segments.

    ``(rx, ry)`` is a point relative to a segment start, ``(ex, ey)`` the
    segment and ``inv_len2`` its inverse squared length (0 for a zero-length
    segment, whose nearest point is then its start).  Operands broadcast.
    """
    t = (rx * ex + ry * ey) * inv_len2
    np.clip(t, 0.0, 1.0, out=t)
    return rx - t * ex, ry - t * ey


def _polygon_distance_kernel(vertices: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Signed distances of ``pts`` to a proper ccw polygon, real arithmetic.

    One pass over the edges finds, per point q, the edge k* whose line q
    lies least inside of (or most outside of): q - v_k turned by
    conj(e_k)/|e_k| has q's signed distance to that line as its imaginary
    part.  The segment distance and the inside test then run on the window
    of edges k* - 1, k*, k* + 1 alone.  Inside, the distance to the
    boundary is the least line distance, and its foot lies on edge k*.
    Outside, the nearest boundary point x has q - x in the normal cone at
    x, which is spanned by the normals of the one or two edges through x;
    the most violated line is one of those, so x lies in the window.
    """
    vx, vy = vertices.real, vertices.imag
    ex = np.roll(vx, -1) - vx
    ey = np.roll(vy, -1) - vy
    inv_len2 = _inverse_len2(ex, ey)
    length = np.hypot(ex, ey)
    ux, uy = ex / length, ey / length
    window = np.arange(-1, 2)
    out = np.empty(pts.size)
    chunk = max(1, _CHUNK_BUDGET // vertices.size)
    line_buf = np.empty((min(chunk, pts.size), vertices.size))
    across_buf = np.empty_like(line_buf)
    for lo in range(0, pts.size, chunk):
        hi = min(lo + chunk, pts.size)
        qx = pts[lo:hi].real[:, None]
        qy = pts[lo:hi].imag[:, None]
        line = np.subtract(qy, vy, out=line_buf[:hi - lo])
        line *= ux
        across = np.subtract(qx, vx, out=across_buf[:hi - lo])
        across *= uy
        line -= across
        k = (line.argmin(axis=1)[:, None] + window) % vertices.size
        rx, ry = qx - vx[k], qy - vy[k]
        wx, wy = ex[k], ey[k]
        dx, dy = _clamp_offsets(rx, ry, wx, wy, inv_len2[k])
        dist = np.sqrt((dx * dx + dy * dy).min(axis=1))
        inside = ((wx * ry - wy * rx) >= 0.0).all(axis=1)
        out[lo:hi] = np.where(inside, -dist, dist)
    return out


def distance_to_segments(queries: np.ndarray, starts: np.ndarray,
                         ends: np.ndarray) -> np.ndarray:
    """Distance from each query point to the nearest segment [start, end]."""
    sx, sy = starts.real, starts.imag
    ex, ey = ends.real - sx, ends.imag - sy
    inv_len2 = _inverse_len2(ex, ey)
    out = np.empty(queries.size)
    chunk = max(1, _CHUNK_BUDGET // starts.size)
    for lo in range(0, queries.size, chunk):
        q = queries[lo:lo + chunk]
        dx, dy = _clamp_offsets(q.real[:, None] - sx, q.imag[:, None] - sy,
                                ex, ey, inv_len2)
        out[lo:lo + chunk] = np.sqrt((dx * dx + dy * dy).min(axis=1))
    return out


def signed_distance(polygon: ConvexPolygon, z):
    """Exact Euclidean distance to the boundary, negative strictly inside.

    Segment and Point polygons have no interior, so the result is the
    plain (nonnegative) distance there.
    """
    arr = np.asarray(z, dtype=np.complex128)
    pts = np.atleast_1d(arr).ravel()
    if polygon.kind == PROPER:
        out = _polygon_distance_kernel(polygon.vertices, pts)
    else:  # a point is a zero-length segment
        out = distance_to_segments(pts, polygon.vertices[:1], polygon.vertices[-1:])
    if arr.ndim == 0:
        return float(out[0])
    return out.reshape(arr.shape)


def boundary_points(polygon: ConvexPolygon, count: int) -> np.ndarray:
    """Arc-length uniform boundary sample (linear for a segment).

    Samples sit at the midpoints of ``count`` equal steps, so they stay off
    the vertices: extreme points are approached but never duplicated.
    """
    if count < 1:
        raise ValueError("need at least one boundary sample")
    if polygon.kind == POINT:
        return np.full(count, polygon.vertices[0])
    t = (np.arange(count) + 0.5) / count
    if polygon.kind == SEGMENT:
        a, b = polygon.vertices
        return a + t * (b - a)
    v = polygon.vertices
    cum = polygon._cumulative_lengths
    s = t * cum[-1]
    idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, v.size - 1)
    e = v[(idx + 1) % v.size] - v[idx]
    frac = (s - cum[idx]) / np.abs(e)
    return v[idx] + frac * e


def _rdp_splits(v: np.ndarray, angle: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                eps: float) -> np.ndarray:
    """Douglas-Peucker splits of the index spans (lo, hi) of a convex arc v.

    ``angle[k]`` is the direction of the edge v_k -> v_k+1, increasing
    along v, and each span turns by less than pi.  A span whose farthest
    interior vertex (the first, on ties) lies more than eps from its chord
    keeps that vertex and splits there.  On such an arc the distance to
    the chord's line grows while the edges turn towards the chord's
    direction and shrinks after, so the farthest vertex is where the
    edge angles pass the chord's (``searchsorted``), up to rounding; that
    vertex and its two neighbours in the span are measured.  Every span
    of a level is measured in one pass; returns the kept interior indices.
    """
    vx, vy = v.real, v.imag
    kept = [lo[:0]]
    while lo.size:
        inner = hi - lo > 1
        lo, hi = lo[inner], hi[inner]
        ex, ey = vx[hi] - vx[lo], vy[hi] - vy[lo]
        chord = np.arctan2(ey, ex)
        # the chord's direction lies within the span's turn of its edges
        mid = 0.5 * (angle[lo] + angle[hi - 1])
        chord += 2.0 * np.pi * np.round((mid - chord) / (2.0 * np.pi))
        k = np.searchsorted(angle, chord)[:, None] + np.arange(-1, 2)
        k = np.clip(k, (lo + 1)[:, None], (hi - 1)[:, None])
        dx, dy = _clamp_offsets(vx[k] - vx[lo][:, None], vy[k] - vy[lo][:, None],
                                ex[:, None], ey[:, None], _inverse_len2(ex, ey)[:, None])
        dev = np.sqrt(dx * dx + dy * dy)
        rows, best = np.arange(lo.size), dev.argmax(axis=1)
        far = dev[rows, best] > eps
        split = k[rows, best][far]
        kept.append(split)
        lo, hi = np.concatenate([lo[far], split]), np.concatenate([split, hi[far]])
    return np.concatenate(kept)


def decimate(polygon: ConvexPolygon, eps: float) -> ConvexPolygon:
    """Vertex subset whose boundary stays within eps of the original.

    Used to keep distance queries against huge (circle-like) hulls cheap;
    the exact hull is never replaced by this.  The vertices extreme in x
    and y are kept, and Douglas-Peucker (``_rdp_splits``) splits each arc
    between two of them, whose edges turn by at most pi/2.
    """
    if polygon.kind != PROPER or polygon.vertices.size <= 64:
        return polygon
    v = polygon.vertices
    anchors = sorted({int(np.argmax(v.real)), int(np.argmax(v.imag)),
                      int(np.argmin(v.real)), int(np.argmin(v.imag))})
    # the arcs between consecutive anchors, the last one wrapping around
    ring = np.concatenate([v, v[:anchors[0] + 1]])
    angle = polygon._edge_angles
    angle = np.concatenate([angle, angle[:anchors[0]] + 2.0 * np.pi])
    lo = np.array(anchors)
    hi = np.array(anchors[1:] + [anchors[0] + v.size])
    keep = np.unique(np.concatenate([lo, _rdp_splits(ring, angle, lo, hi, eps)]) % v.size)
    if keep.size < 3:
        return polygon
    return ConvexPolygon(v[keep], PROPER)


def _boundary_queries(polygon: ConvexPolygon, samples: int) -> np.ndarray:
    pts = boundary_points(polygon, samples)
    if polygon.vertices.size <= 8192:
        # sharp corners live at vertices; many-vertex hulls have none
        pts = np.concatenate([pts, polygon.vertices])
    return pts


def polygon_hausdorff(first: ConvexPolygon, second: ConvexPolygon,
                      samples: int = 4096) -> float:
    """Hausdorff distance between two polygon boundaries.

    Dense boundary samples plus the vertices of each polygon are measured
    against the exact boundary of the other (point-to-polygon distance),
    which avoids the density artifacts of comparing raw vertex sets.
    """
    eps_a = 1e-6 * max(first.diameter, 1e-300)
    eps_b = 1e-6 * max(second.diameter, 1e-300)
    qa = decimate(first, eps_a)
    qb = decimate(second, eps_b)
    d_ab = np.abs(signed_distance(qb, _boundary_queries(first, samples))).max()
    d_ba = np.abs(signed_distance(qa, _boundary_queries(second, samples))).max()
    return float(max(d_ab, d_ba))
