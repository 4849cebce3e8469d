"""Planar convex geometry on complex points.

A hull's vertices are exactly the extreme input points, in strictly
convex ccw order; no tolerance merges near points or straightens thin
turns.  Every turn, in the hull and in ``ConvexPolygon``'s validation, is
decided by one exact predicate, ``_orientation``: Shewchuk's adaptive
``orient2d``, vectorized, with its exact stages built on the error-free
transforms of ``eft``.  So a float cloud that is not exactly collinear
(a sampled segment) gives a thin Proper hull, and only an exactly
collinear one a Segment.  A hull is built in three steps: a prefilter
(``_candidates``) drops the points that its rounding bound shows strictly
inside a polygon of extreme input points, of a generic Julia cloud of
1e5 points all but well under 1%; the survivors are sorted and cut to
distinct values (``_sort_distinct``); a monotone chain
(``_monotone_chain``) drops, in rounds of one vectorized turn test, every
vertex that does not turn left.

Distances and the polygon Hausdorff distance live here too.  A signed
distance to a proper polygon finds each point's nearest edge line, then
measures the segment distance and the inside test only on the window of
three edges around it (``_polygon_distance_kernel``, which says why that
is exact).  A polygon of a few hundred vertices or more measures the
lines only on a run of edges that a search over its sorted edge angles
finds and a bound through the vertex centroid certifies (``_edge_runs``);
a smaller one measures every line.
``_clamp_offsets`` is the one segment-distance primitive.  The squared
distances before ``hypot`` in ``_antipodal_diameter`` skip pairs that
cannot be the farthest, by the rounding argument of ``_diameter_pairs``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .eft import expansion_sum, two_product, two_sum

PROPER = "Proper"
SEGMENT = "Segment"
POINT = "Point"

# Shewchuk's error bounds for orient2d in the unit roundoff u = 2^-53;
# _FLOOR covers the rounding of operations that underflow.
_U = 2.0 ** -53
_CCW_A, _CCW_B = (3.0 + 16.0 * _U) * _U, (2.0 + 12.0 * _U) * _U
_CCW_C, _RESULT = (9.0 + 64.0 * _U) * _U * _U, (3.0 + 8.0 * _U) * _U
_FLOOR = 2.0 ** -1070

# Coordinates 0 or within [_SAFE_MIN, _SAFE_MAX] in magnitude keep the
# products of the exact stages free of overflow and underflow.
_SAFE_MIN, _SAFE_MAX = 2.0 ** -480, 2.0 ** 500

# Depth inside the prefilter's polygon, as a fraction of the scale, from
# which a point is strictly inside: 64 u, over three times the rounding
# bound of ``_candidates``.
_PREFILTER_DEPTH = 64.0 * _U

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

# A line within this fraction of D of the least one, D >= |q - v_k| for
# every vertex, may be the least one (``_polygon_distance_kernel``): 32 u.
_LINE_SLACK = 32.0 * _U

# ``_edge_runs`` widens each arc of normals by this angle, far above the
# rounding of the angles it compares, which stays under 1e-14: 2^-40 rad.
_ANGLE_SLACK = 2.0 ** -40

# Proper polygons of at least this many vertices find each point's edges
# by a search over the edge angles (``_edge_runs``), smaller ones by a
# scan of every edge.  The crossover, measured on a 2-vCPU x86 VM with
# numpy 2.4.6 on 6,000 to 7,400 check queries: on a regular n-gon the
# runs hold one edge and the search took 2.8 ms at n = 32 and 3.0 ms at
# 256, against a scan of 2.9 and 8.6 ms; on decimated Julia hulls of
# z^2 + 0.2i, z^3 + 0.1 and z^2 + 0.05, which are not round, the runs are
# wider and the search took 4.6, 3.8 and 5.7 ms at 130, 135 and 198
# vertices, against 3.5, 3.8 and 5.3 ms, but 9.2 ms against 10.5 at 420.
_SEARCH_MIN_VERTICES = 256

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

    ``kind`` is Proper (>= 3 vertices, each edge nonzero and each turn
    strictly left by ``_orientation``), Segment (2 distinct) or Point
    (1).  A proper polygon computes what its stages share once, on first
    use: the diameter, the one sorted table of edge angles (read by the
    diameter, ``decimate``, ``_min_area_rectangle`` and the distance
    kernel's search), the cumulative edge lengths (read by
    ``boundary_points``) and the edge tables of the distance kernel (read
    by ``signed_distance``, which the checks call about ten times per
    query hull).  The vertices are not to be changed in place after
    construction.
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
            ring = np.concatenate([v[-1:], v, v[:1]])
            if (ring[1:] == ring[:-1]).any():
                raise ValueError("duplicate vertices")
            if not (_orientation(ring[:-2], ring[1:-1], ring[2:]) > 0.0).all():
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
        """Directions of the edges v_k -> v_k+1 of a proper polygon, unwrapped and sorted."""
        x, y = self.vertices.real, self.vertices.imag
        return _unwrapped_angles(np.arctan2(np.roll(y, -1) - y, np.roll(x, -1) - x))

    @cached_property
    def _cumulative_lengths(self) -> np.ndarray:
        """0, then the boundary length up to each vertex after the first, then the perimeter."""
        v = self.vertices
        lengths = np.abs(np.roll(v, -1) - v)
        return np.concatenate([[0.0], np.cumsum(lengths)])

    @cached_property
    def _edges(self) -> "_Edges":
        return _Edges(self)


def _unwrapped_angles(angle: np.ndarray) -> np.ndarray:
    """The edge directions ``angle`` of a proper ccw polygon, from arctan2, unwrapped and sorted.

    Every turn lies in (0, pi), so a drop below -pi/2 is a wrap past pi.
    The exact directions then increase, but arctan2 is not promised to be
    monotone: two edges less than an ulp apart in direction may compute
    out of order.  Their running maximum is sorted, as every search over
    it needs, and as close to the exact directions as the computed ones.
    """
    wraps = np.concatenate(([0], np.cumsum(np.diff(angle) < -0.5 * np.pi)))
    angle = angle + 2.0 * np.pi * wraps
    if (angle[1:] < angle[:-1]).any():  # numpy's running maximum is a slow sequential scan
        np.maximum.accumulate(angle, out=angle)
    return angle


def _angle_ring(angle: np.ndarray, first: int = -1) -> np.ndarray:
    """The sorted edge angles over turns ``first`` to 1: ``angle`` + 2 pi k, first <= k <= 1."""
    ring = np.concatenate([angle + 2.0 * np.pi * k for k in range(first, 2)])
    if (ring[1:] < ring[:-1]).any():  # at a join, where the turn at vertex 0 is below rounding
        np.maximum.accumulate(ring, out=ring)
    return ring


def _antipodal_diameter(v: np.ndarray, angle: np.ndarray) -> float:
    """Rotating calipers on a proper ccw polygon, all edges at once.

    Edge k runs from vertex k to k + 1, and ``angle`` holds the edge
    directions, unwrapped and sorted.  For edge i the calipers stop at
    the first vertex j whose edge has turned by at least pi from edge i;
    ``searchsorted`` over ``_angle_ring`` finds it up to rounding, so the
    candidate pairs are (i, j - 1 .. j + 1) and (i + 1, j - 1 .. j + 1)
    over all i, and the diameter is the largest of their distances, each
    measured with hypot as ``abs`` of a Python complex measures it.  hypot
    measures only the pairs ``_diameter_pairs`` keeps.
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
    j = np.searchsorted(_angle_ring(angle, 0), angle + np.pi)
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


def _orientation(a, b, c) -> np.ndarray:
    """Per triple, a float whose sign is exactly that of the turn a -> b -> c.

    Positive for a left (ccw) turn, negative for a right one, zero for
    collinear points; c is a complex array, a and b arrays of its shape or
    scalars.  Shewchuk's adaptive ``orient2d``, vectorized: the cross
    product of the rounded differences from c decides every triple where
    it exceeds the static bound ``(3 + 16u) u`` of the two products'
    magnitudes, u = 2^-53, plus 2^-1070 for a product that underflows.
    Of the rest, a triple with an exactly zero factor in each product is
    collinear, and ``_adaptive_turns`` decides the others in floats where
    each coordinate is 0 or within [2^-480, 2^500] in magnitude: no
    product of its error-free transforms can then overflow or hold a bit
    below 2^-1074.  A row outside that range takes Python integers.
    """
    coords = [part(z) for z in (a, b, c) for part in (np.real, np.imag)]
    ax, ay, bx, by, cx, cy = coords
    with np.errstate(over="ignore", invalid="ignore"):
        acx, bcx, acy, bcy = ax - cx, bx - cx, ay - cy, by - cy
        left, right = acx * bcy, acy * bcx
        det = left - right
        bound = _CCW_A * (np.abs(left) + np.abs(right)) + _FLOOR
        rows = np.flatnonzero(np.logical_not(np.abs(det) > bound))
    if rows.size:
        zero = ((acx[rows] == 0.0) | (bcy[rows] == 0.0)) & ((acy[rows] == 0.0) | (bcx[rows] == 0.0))
        det[rows[zero]] = 0.0
        rows = rows[~zero]
    if rows.size:
        open_ = np.stack([np.broadcast_to(w, det.shape)[rows] for w in coords])
        size = np.abs(open_)
        safe = ~((size > _SAFE_MAX) | ((size > 0.0) & (size < _SAFE_MIN))).any(axis=0)
        det[rows[safe]] = _adaptive_turns(*open_[:, safe])
        for i in np.flatnonzero(~safe):  # in integer units of 2^-1074, exactly
            ax, ay, bx, by, cx, cy = (n << (1075 - d.bit_length()) for n, d in
                                      map(float.as_integer_ratio, open_[:, i].tolist()))
            turn = (ax - cx) * (by - cy) - (ay - cy) * (bx - cx)
            det[rows[i]] = (turn > 0) - (turn < 0)
    return det


def _cross(p, q, r, s):
    """The expansion of p q - r s, and |p q| + |r s| rounded."""
    high, low = two_product(p, q)
    high2, low2 = two_product(r, s)
    return expansion_sum([low, high], [-low2, -high2]), np.abs(high) + np.abs(high2)


def _adaptive_turns(ax, ay, bx, by, cx, cy) -> np.ndarray:
    """Shewchuk's stages B to D of ``orient2dadapt``, each on the rows the last left open.

    B takes the cross product of the rounded differences exactly, as a
    four-component expansion, and decides where its float estimate
    exceeds ``(2 + 12u) u`` of the products' magnitudes, or where the
    differences were exact.  C adds the first-order terms of the
    differences' rounding errors, under its own bound.  D sums every term
    of the exact cross product as one expansion, whose last nonzero
    component gives the sign.
    """
    (acx, acx_tail), (bcx, bcx_tail), (acy, acy_tail), (bcy, bcy_tail) = (
        two_sum(p, -q) for p, q in ((ax, cx), (bx, cx), (ay, cy), (by, cy)))
    b, detsum = _cross(acx, bcy, acy, bcx)
    det = ((b[0] + b[1]) + b[2]) + b[3]
    exact = (acx_tail == 0.0) & (bcx_tail == 0.0) & (acy_tail == 0.0) & (bcy_tail == 0.0)
    rows = np.flatnonzero(~((np.abs(det) >= _CCW_B * detsum) | exact))
    acx, bcx, acy, bcy, acx_tail, bcx_tail, acy_tail, bcy_tail, detsum, *b = (
        w[rows] for w in (acx, bcx, acy, bcy, acx_tail, bcx_tail, acy_tail, bcy_tail, detsum, *b))
    estimate = det[rows]
    bound = _CCW_C * detsum + _RESULT * np.abs(estimate)
    estimate += (acx * bcy_tail + bcy * acx_tail) - (acy * bcx_tail + bcx * acy_tail)
    det[rows] = estimate
    rest = np.flatnonzero(~(np.abs(estimate) >= bound))
    if rest.size:
        acx, bcx, acy, bcy, acx_tail, bcx_tail, acy_tail, bcy_tail, *total = (
            w[rest] for w in (acx, bcx, acy, bcy, acx_tail, bcx_tail, acy_tail, bcy_tail, *b))
        for p, q, r, s in ((acx_tail, bcy, acy_tail, bcx), (acx, bcy_tail, acy, bcx_tail),
                           (acx_tail, bcy_tail, acy_tail, bcx_tail)):
            total = expansion_sum(total, _cross(p, q, r, s)[0])
        top = np.zeros(rest.size)
        for component in total:
            top = np.where(component != 0.0, component, top)
        det[rows[rest]] = top
    return det


def _candidates(pts: np.ndarray, scale: float) -> np.ndarray:
    """Indices, ascending, of the points that may be hull vertices.

    A point is dropped when it lies at least ``_PREFILTER_DEPTH * scale``
    inside each edge line of a convex polygon P of input points, which
    puts it strictly inside P.  P starts as the Akl-Toussaint octagon plus
    quickhull's first split, the farthest point on each side of the chord
    between the two octagon corners farthest apart, which gives a thin,
    turned cloud's P its width.  While a pass drops at least half the
    points it tests, the point farthest beyond each edge becomes a corner,
    as in quickhull, and the survivors are tested again; a cloud in convex
    position (a circle) or on a line costs one pass.

    The rounding bound, with u = 2^-53: the corners' order comes from
    exact turns, and each edge's unit normal from the exact corners'
    difference, so its direction errs by at most 5u however short the
    edge.  Coordinates shifted by an input point lie within scale and err
    by at most u * scale.  The dot products and their difference then err
    by 8.5u * scale, the shifts add 2.9u * scale and the normal's error
    7.1u * scale across the cloud: under 20u * scale, well inside the
    depth of 64u * scale, whose floor of 2^-1070 covers underflow.  No
    shift overflows: ``convex_hull`` passes ``pts`` scaled by a power of
    two into the unit box, as ``_diameter_pairs`` does.  A scaled
    coordinate that underflows moves a point or a corner of P by under
    2^-1074, so a depth by under 2^-1072, which the floor covers too.
    """
    if scale == 0.0:  # distinct points that underflowed to one
        return np.arange(pts.size)
    x, y = pts.real, pts.imag
    s, t = x + y, x - y
    octagon = np.unique([np.argmin(x), np.argmax(x), np.argmin(y), np.argmax(y),
                         np.argmin(s), np.argmax(s), np.argmin(t), np.argmax(t)])
    ends = pts[octagon]
    far = np.argmax(np.abs(ends[:, None] - ends[None, :]))
    first, last = ends[far // ends.size], ends[far % ends.size]
    x, y = pts.real - first.real, pts.imag - first.imag
    chord = last - first
    length = abs(chord)  # a unit chord: no product overflows
    inside, term = np.empty_like(x), np.empty_like(x)
    np.multiply(y, chord.real / length, out=inside)
    inside -= np.multiply(x, chord.imag / length, out=term)  # the side of the chord
    corners = pts[np.concatenate([octagon, [np.argmin(inside), np.argmax(inside)]])]
    depth = _PREFILTER_DEPTH * scale + _FLOOR
    keep = np.arange(pts.size)
    while True:
        v = _monotone_chain(_sort_distinct(corners))
        if v.size < 3:
            return keep
        e = np.roll(v, -1) - v
        length = np.abs(e)
        nx, ny = -e.imag / length, e.real / length  # inward, for ccw corners
        offset = nx * (v.real - first.real) + ny * (v.imag - first.imag)
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
        corners = np.concatenate([v, pts[keep[new]]])
        keep, x, y = keep[out], x[out], y[out]


def _sort_distinct(pts: np.ndarray) -> np.ndarray:
    """The points in lexicographic order, each run of equal ones cut to its first.

    As numpy's stable complex sort: by real part, imaginary part, then
    input order, 0.0 and -0.0 equal.  An argsort of the real parts gives
    that order but in runs of equal real parts, which alone are sorted
    again, by imaginary part and index.
    """
    order = np.argsort(pts.real)
    x = pts.real[order]
    starts = np.concatenate(([True], x[1:] != x[:-1]))
    if not starts.all():
        tied = np.flatnonzero(~(starts & np.concatenate((starts[1:], [True]))))
        index = order[tied]
        order[tied] = index[np.lexsort((index, pts.imag[index], np.cumsum(starts)[tied]))]
    pts = pts[order]
    return pts[np.concatenate(([True], pts[1:] != pts[:-1]))]


def _monotone_chain(pts: np.ndarray) -> np.ndarray:
    """The hull vertices of sorted distinct points, ccw from the first; 2 on a line.

    Andrew's monotone chain, in rounds.  The chord from the first point F
    to the last L splits the points into a lower chain, on or right of
    it, and an upper one, on or left, walked as one closed path
    F -> lower -> L -> upper -> F.  A round drops every vertex of the path
    but L that does not turn left.  In x-monotone order such a vertex
    lies on or beyond the segment between its neighbours, on the chord's
    side, so it lies in the hull of them and of the chord and is no
    extreme point: dropping them all at once changes no hull.  A path that
    turns left at each vertex but L is the hull, and it turns left at L too
    unless every point lies on the chord.
    """
    first, last = pts[0], pts[-1]
    side = _orientation(first, last, pts)
    lower = pts[side <= 0.0]
    path = np.concatenate([lower, pts[side >= 0.0][-2::-1]])
    pinned = np.arange(path.size) == lower.size - 1  # L
    while path.size > 3:
        keep = _orientation(path[:-2], path[1:-1], path[2:]) > 0.0
        keep |= pinned[1:-1]
        if keep.all():
            break
        keep = np.concatenate(([True], keep, [True]))
        path, pinned = path[keep], pinned[keep]
    return path[:-1]


def convex_hull(points) -> ConvexPolygon:
    """The hull: exactly the extreme input points, ccw from the lexicographically first.

    A Segment when the points are exactly collinear, a Point when they are
    all equal.
    """
    pts = _points_of(points)
    box = np.array([pts.real.min(), pts.real.max(), pts.imag.min(), pts.imag.max()])
    if box[0] == box[1] and box[2] == box[3]:
        return ConvexPolygon(pts[:1].copy(), POINT)
    # the prefilter takes the points scaled into the unit box, the chain the
    # points; scaling keeps their order, so the scaled box bounds the scaled points
    exponent = int(np.frexp(np.abs(box).max())[1])
    unit, box = np.empty_like(pts), np.ldexp(box, -exponent)
    np.ldexp(pts.real, -exponent, out=unit.real)
    np.ldexp(pts.imag, -exponent, out=unit.imag)
    keep = _candidates(unit, max(box[1] - box[0], box[3] - box[2]))
    del unit  # before the chain, which on a convex cloud holds every point
    v = _monotone_chain(_sort_distinct(pts[keep]))
    return ConvexPolygon(v, SEGMENT if v.size == 2 else PROPER)


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
    ring = _angle_ring(angle, 0)
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


class _Edges:
    """The edge tables of a proper ccw polygon that the distance kernel reads.

    Edge k runs from vertex k to k + 1; (ux, uy) is its unit direction and
    ``extent`` twice the larger side of the bounding box.  ``searchable``
    says whether ``_edge_runs`` serves the polygon: it has at least
    ``_SEARCH_MIN_VERTICES`` vertices, and its coordinates lie where no
    table of ``_edge_runs`` overflows and |q - c| is a normal float
    wherever its arc is under pi.  That search reads ``center`` and
    ``angle``, the polygon's own ``_edge_angles``.
    """

    def __init__(self, polygon: ConvexPolygon):
        vertices = self.vertices = polygon.vertices
        vx, vy = self.vx, self.vy = vertices.real, vertices.imag
        self.angle = polygon._edge_angles
        self.ex = np.roll(vx, -1) - vx
        self.ey = np.roll(vy, -1) - vy
        length = np.hypot(self.ex, self.ey)
        self.inv_len2 = _inverse_len2(self.ex, self.ey)
        self.ux, self.uy = self.ex / length, self.ey / length
        self.extent = 2.0 * max(np.ptp(vx), np.ptp(vy))
        self.searchable = (vertices.size >= _SEARCH_MIN_VERTICES and _SAFE_MIN <= self.extent
                           and np.abs(vertices).max() <= _SAFE_MAX)

    @cached_property
    def center(self) -> tuple[complex, float]:
        """(c, rho): the vertex centroid, and a lower bound on every line's distance from it."""
        c = self.vertices.mean()
        rho = (self.lines(c.real, c.imag, slice(None)).min()
               - _LINE_SLACK * (abs(c - self.vertices[0]) + self.extent))
        return c, rho

    def lines(self, qx, qy, k):
        """Signed distances of the points (qx, qy) to the lines of edges k, positive inside.

        The arithmetic, and so every bit, is that of the scan in
        ``_least_by_scan``; operands broadcast.
        """
        return (qy - self.vy[k]) * self.ux[k] - (qx - self.vx[k]) * self.uy[k]

    def measure(self, qx, qy, k):
        """Signed distances of the points (qx, qy) to the boundary, on the edges k of each."""
        rx, ry = qx - self.vx[k], qy - self.vy[k]
        wx, wy = self.ex[k], self.ey[k]
        dx, dy = _clamp_offsets(rx, ry, wx, wy, self.inv_len2[k])
        dist = np.sqrt((dx * dx + dy * dy).min(axis=1))
        inside = ((wx * ry - wy * rx) >= 0.0).all(axis=1)
        return np.where(inside, -dist, dist)


def _least_by_scan(e: _Edges, pts: np.ndarray, slack: np.ndarray):
    """(least, wide) per point, as ``_least_on_runs`` gives them, from the lines of every edge."""
    n = e.vx.size
    least = np.empty(pts.size, dtype=np.intp)
    wide = np.empty(pts.size, dtype=bool)
    chunk = max(1, _CHUNK_BUDGET // n)
    line_buf = np.empty((min(chunk, pts.size), n))
    across_buf = np.empty_like(line_buf)
    for lo in range(0, pts.size, chunk):
        hi = min(lo + chunk, pts.size)
        line = np.subtract(pts[lo:hi].imag[:, None], e.vy, out=line_buf[:hi - lo])
        line *= e.ux
        across = np.subtract(pts[lo:hi].real[:, None], e.vx, out=across_buf[:hi - lo])
        across *= e.uy
        line -= across
        rows = np.arange(hi - lo)
        k = least[lo:hi] = line.argmin(axis=1)
        reach = line[rows, k] + slack[lo:hi]
        line[rows[:, None], (k[:, None] + np.arange(-1, 2)) % n] = np.inf
        wide[lo:hi] = line.min(axis=1) <= reach
    return least, wide


def _edge_runs(e: _Edges, pts: np.ndarray, slack: np.ndarray):
    """(first, count) per point: a run of edges holding every line the scan could pick.

    The run is edges first, first + 1, ... first + count - 1, mod n.  With
    c the vertex centroid, the line distance of edge k is exactly affine,
    line_k(q) = line_k(c) - <q - c, n_k>, for the outward normal
    n_k = (uy_k, -ux_k) of |n_k| within 2u of 1, u = 2^-53.  So with
    rho <= line_k(c) for every k, line_k(q) >= rho - |q - c| cos psi_k,
    where psi_k is the angle from q - c to n_k.  The scan measures every
    edge whose computed line is within its reach, the least computed line
    plus ``slack``.  The least is at most D0, the computed line of either
    edge whose normal is nearest the direction of q - c; a computed line
    errs by under 11u D (``_polygon_distance_kernel``), and ``slack`` is at
    least 32u D; so every such edge has an exact line under
    B = D0 + 2 slack, and cos psi_k >= (rho - B) / (|q - c| |n_k|).  That
    is one arc of normals around the direction of q - c, a circular run
    of edges in the order of their angles, found by ``searchsorted`` over
    the sorted angles of ``_angle_ring``.  The arc's cosine is lowered by
    2^-48 of itself, for |n_k| and the rounding of its own terms, and its
    half-angle widened by ``_ANGLE_SLACK``, for the rounding of the
    angles.  rho (``_Edges.center``) is the least computed line at c less
    32u of its own D, a lower bound on every line_k(c).  A point whose
    arc reaches pi (near c, or where a term is not finite) gets count n.
    """
    n = e.vx.size
    ring = _angle_ring(e.angle)
    c, rho = e.center
    dx, dy = pts.real - c.real, pts.imag - c.imag
    r = np.hypot(dx, dy)
    # the direction of the edge whose outward normal points along q - c
    toward = np.arctan2(dy, dx) + 0.5 * np.pi
    toward = ring[n] + np.mod(toward - ring[n], 2.0 * np.pi)
    nearest = np.searchsorted(ring, toward)
    d0 = e.lines(pts.real, pts.imag, np.stack([nearest - 1, nearest]) % n).min(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_arc = (rho - (d0 + 2.0 * slack)) / r
        cos_arc -= 2.0 ** -48 * np.abs(cos_arc)
        half = np.arccos(np.clip(cos_arc, -1.0, 1.0)) + _ANGLE_SLACK
    first = np.searchsorted(ring, toward - half)
    count = np.searchsorted(ring, toward + half, side="right") - first
    count[~((half < np.pi) & (r < np.inf))] = n
    return first, count


def _least_on_runs(e: _Edges, pts: np.ndarray, slack: np.ndarray, first: np.ndarray,
                   count: np.ndarray):
    """(least, wide) per point, from the lines of its run of edges alone (``_edge_runs``).

    ``least`` is the edge of the least computed line, the least index on
    exact ties, and ``wide`` whether a line outside its window comes
    within ``slack`` of it: the scan's k* and near-tie test, as long as
    the run holds every line within that reach.
    """
    n = e.vx.size
    least = np.empty(pts.size, dtype=np.intp)
    wide = np.empty(pts.size, dtype=bool)
    cuts = np.searchsorted(np.cumsum(count), np.arange(_CHUNK_BUDGET, count.sum(), _CHUNK_BUDGET))
    bounds = np.unique([0, *cuts, pts.size]).tolist()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        size = count[lo:hi]
        stops = np.cumsum(size)
        starts = stops - size
        k = np.repeat(first[lo:hi] - starts, size) + np.arange(stops[-1])
        k %= n
        line = e.lines(np.repeat(pts[lo:hi].real, size), np.repeat(pts[lo:hi].imag, size), k)
        least_line = np.minimum.reduceat(line, starts)
        least[lo:hi] = np.minimum.reduceat(np.where(line == np.repeat(least_line, size), k, n),
                                           starts)
        beyond = ~_in_window(k, np.repeat(least[lo:hi], size), n)
        beyond &= line <= np.repeat(least_line + slack[lo:hi], size)
        wide[lo:hi] = np.logical_or.reduceat(beyond, starts)
    return least, wide


def _polygon_distance_kernel(polygon: ConvexPolygon, pts: np.ndarray) -> np.ndarray:
    """Signed distances of ``pts`` to a proper ccw polygon, real arithmetic.

    Per point q, the edge k* whose line q lies least inside of (or most
    outside of), the least index on exact ties, is found first: q - v_k
    turned by conj(e_k)/|e_k| has q's signed distance to that line as its
    imaginary part.  The segment distance and the inside test then run on
    the window of edges k* - 1, k*, k* + 1 alone.  Inside, the distance to
    the boundary is the least line distance, and its foot lies on edge k*.
    Outside, the nearest boundary point x has q - x in the normal cone at
    x, which is spanned by the normals of the one or two edges through x;
    the most violated line is one of those, so x lies in the window.
    Each computed line distance errs by under 11u D, u = 2^-53 and
    D >= |q - v_k| for every k, so rounding may misorder two lines within
    22u D of each other; where a line outside the window comes within
    ``_LINE_SLACK * D`` of the least, every edge is measured instead.
    Across a micro-edge or a run of tiny turns, the window alone could
    miss the nearest edge by far more than rounding.

    A polygon that ``_Edges.searchable`` admits, of
    ``_SEARCH_MIN_VERTICES`` vertices or more, computes lines only on each
    point's run of edges (``_edge_runs``), which holds every line the scan
    compares with its least, and takes k* and makes the near-tie test
    there as the scan does (``_least_on_runs``); so each output is bit for
    bit the scan's, at a cost per point that does not grow with n on a
    round hull.  A smaller one computes every line (``_least_by_scan``).
    """
    e = polygon._edges
    n = e.vx.size
    slack = _LINE_SLACK * (np.abs(pts - e.vertices[0]) + e.extent)
    if e.searchable:
        least, wide = _least_on_runs(e, pts, slack, *_edge_runs(e, pts, slack))
    else:
        least, wide = _least_by_scan(e, pts, slack)
    qx, qy = pts.real[:, None], pts.imag[:, None]
    out = np.empty(pts.size)
    for lo in range(0, pts.size, _CHUNK_BUDGET // 3):  # about _CHUNK_BUDGET pairs per block
        rows = slice(lo, lo + _CHUNK_BUDGET // 3)
        out[rows] = e.measure(qx[rows], qy[rows], (least[rows, None] + np.arange(-1, 2)) % n)
    wide = np.flatnonzero(wide)
    chunk = max(1, _CHUNK_BUDGET // n)
    for lo in range(0, wide.size, chunk):  # a near tie beyond the window: every edge
        rows = wide[lo:lo + chunk]
        out[rows] = e.measure(qx[rows], qy[rows], np.arange(n))
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
    plain (nonnegative) distance there.  A proper polygon measures each
    point on a window of three edges around its nearest edge line, found
    by a scan of every edge or, on polygons of ``_SEARCH_MIN_VERTICES``
    or more, on a certified run of them; both give the same bits
    (``_polygon_distance_kernel``).
    """
    arr = np.asarray(z, dtype=np.complex128)
    pts = np.atleast_1d(arr).ravel()
    if polygon.kind == PROPER:
        out = _polygon_distance_kernel(polygon, pts)
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
    edge angles pass the chord's (``searchsorted``), up to rounding.  That
    vertex and the two on each side of it in the span are measured: edges
    down to one ulp, whose computed angles rounding scrambles, come in
    short runs beside a vertex, and with one on each side 15 of 11,244
    decimations of such hulls split other than a scan of every vertex.
    Every span of a level is measured in one pass; returns the kept
    interior indices.
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
        k = np.searchsorted(angle, chord)[:, None] + np.arange(-2, 3)
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
    angle = _angle_ring(polygon._edge_angles, 0)[:v.size + anchors[0]]
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
