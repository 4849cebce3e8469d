"""Planar convex geometry on complex points.

A hull is built in three steps.  A prefilter first drops the points
strictly inside a polygon of extreme input points.  The polygon starts as
the Akl-Toussaint octagon and, as in quickhull, gains the farthest point
beyond each edge while a pass still drops at least half the points it
tests; of a generic Julia cloud of 1e5 points well under 1% survive.
Only the survivors are then sorted lexicographically and stripped of
near-duplicates.  Last, a monotone chain over the sorted survivors: the
chord from the first to the last point splits them into a lower and an
upper chain.  Each chain, and then the closed cycle across its two seams,
is reduced in rounds of one vectorized turn test over every consecutive
triple.  A round drops every other member of each run of failing
vertices, never two neighbours, since each of two neighbours can be
collinear only through the other.

Tolerance contract: the vertices are input points in strictly convex ccw
order, and every input point lies within 1e-12 * scale of the hull; a
cluster inside ``_DUP_EPS * scale`` keeps one representative, and a
point dropped as collinear lies within about ``_TURN_EPS * scale`` of it.
The prefilter changes no vertex.  A point it drops lies at least
``2 * _DUP_EPS * scale`` inside the hull of the other input points, so
neither it nor a point within ``_DUP_EPS * scale`` of it is a vertex.
Sorting only the survivors changes one thing: a dropped point no longer
splits a run of near-duplicates.  So when the survivors hold a run of
distinct near-duplicates, the whole cloud is sorted and stripped first,
and the prefilter runs on what is left.

Distances and the polygon Hausdorff distance live here too.
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

# Point-edge pairs per block of the distance kernels (vertices per batch in
# Douglas-Peucker).  A block holds about five float temporaries of this
# length; 2**16 keeps them near cache size and bounds peak memory.
_CHUNK_BUDGET = 65_536


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
    Point (1).
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
            e = np.roll(v, -1) - v
            scale = max(np.ptp(v.real), np.ptp(v.imag))
            if np.abs(e).min() <= _DUP_EPS * scale:
                raise ValueError("duplicate vertices")
            turn = (np.roll(e, 1) * np.conj(e)).imag
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
        return _antipodal_diameter(self.vertices)


def _antipodal_diameter(v: np.ndarray) -> float:
    """Rotating calipers on a proper ccw polygon, all edges at once.

    Edge k runs from vertex k to k + 1.  For edge i the calipers stop at
    the first vertex j whose edge has turned by at least pi from edge i;
    ``searchsorted`` on the unwrapped edge angles finds it up to rounding,
    so the pairs (i, j - 1 .. j + 1) and (i + 1, j - 1 .. j + 1) are all
    measured, each with hypot as ``abs`` of a Python complex measures it.
    """
    x, y = v.real, v.imag
    n = v.size
    angle = np.arctan2(np.roll(y, -1) - y, np.roll(x, -1) - x)
    # every turn lies in (0, pi), so a drop below -pi/2 is a wrap past pi
    angle += 2.0 * np.pi * np.concatenate(([0], np.cumsum(np.diff(angle) < -0.5 * np.pi)))
    j = np.searchsorted(np.concatenate([angle, angle + 2.0 * np.pi]), angle + np.pi)
    i = np.arange(n)
    best = 0.0
    for a in (i, (i + 1) % n):
        for b in ((j - 1) % n, j % n, (j + 1) % n):
            best = max(best, float(np.hypot(x[a] - x[b], y[a] - y[b]).max()))
    return best


def _candidates(pts: np.ndarray, scale: float) -> np.ndarray:
    """Indices, ascending, of the points that may be hull vertices.

    A convex polygon P of extreme input points, at first the
    Akl-Toussaint octagon, rules out every point that lies at least
    ``2 * _DUP_EPS * scale`` inside each edge line of P.  One test per
    point decides that.  Let c, the mean of the octagon's corners, lie at
    least rho inside each edge line.  A point of the fan triangle (c, a, b)
    whose depth inside ab is the fraction t of c's lies at least t * rho
    inside each edge line; the triangle is found by the point's angle
    about c.  While a pass drops at least half the points it tests, the
    survivor farthest beyond each edge becomes a corner, as in quickhull,
    and the survivors are tested again.  So the tested points halve from
    pass to pass, and a cloud in convex position (a circle) or on a line
    costs one pass.
    """
    x, y = pts.real, pts.imag
    s, t = x + y, x - y
    corners = np.unique([np.argmin(x), np.argmax(x), np.argmin(y), np.argmax(y),
                         np.argmin(s), np.argmax(s), np.argmin(t), np.argmax(t)])
    center = pts[corners].mean()
    depth = 2.0 * _DUP_EPS * scale
    keep, d = np.arange(pts.size), pts - center
    while True:
        u = np.unique(pts[corners] - center)
        if u.size < 3:
            return keep
        angle = np.arctan2(u.imag, u.real)
        order = np.argsort(angle)
        u, angle = u[order], angle[order]
        e = np.roll(u, -1) - u
        inner = u.real * e.imag - u.imag * e.real  # |e| times c's depth
        rho = (inner / np.abs(e)).min()
        if not rho > depth:  # c on or near an edge line: a flat polygon
            return keep
        # edge k runs from corner k to k + 1; index -1 is the closing edge.
        # A point p goes when e x (p - a) = e x d + inner[k], which is |e|
        # times its depth inside edge k, exceeds inner[k] * depth / rho.
        k = np.searchsorted(angle, np.arctan2(d.imag, d.real)) - 1
        cross = e.real[k] * d.imag - e.imag[k] * d.real
        out = np.flatnonzero(cross <= (inner * (depth / rho - 1.0))[k])
        keep, d = keep[out], d[out]
        if 2 * out.size > k.size:
            return keep
        xy = d.view(np.float64).reshape(-1, 2)
        far = np.array([np.argmax(xy @ (n.imag, -n.real)) for n in e])
        beyond = e.real * d.imag[far] - e.imag * d.real[far] < -inner
        new = np.setdiff1d(keep[far[beyond]], corners)
        if new.size == 0:
            return keep
        corners = np.concatenate([corners, new])


def _pop_mask(o, a, q, eps_len: float) -> np.ndarray:
    """Mask of middle vertices a dropped from the triples o -> a -> q.

    True on a non-left turn (exact cross test) or when a lies within
    ``eps_len`` of the chord segment [o, q]; distance is measured to the
    segment, not the line, so far-away vertices over micro-chords survive.
    Distances use hypot, as ``abs`` of a Python complex does.
    """
    rx, ry = a.real - o.real, a.imag - o.imag
    ex, ey = q.real - o.real, q.imag - o.imag
    cross = rx * ey - ry * ex
    len2 = ex * ex + ey * ey
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = np.divide(rx * ex + ry * ey, len2, out=np.zeros_like(len2),
                      where=len2 != 0.0)
        inner = cross / np.sqrt(len2)
    dist = np.where(t <= 0.0, np.hypot(rx, ry),
                    np.where(t >= 1.0, np.hypot(a.real - q.real, a.imag - q.imag), inner))
    return (cross <= 0.0) | (dist <= eps_len)


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
        near = np.hypot(v.real - prev.real, v.imag - prev.imag) <= _DUP_EPS * scale
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
    """(points, merged): lexicographically sorted, each run cut to its first.

    A run is a chain of neighbours at most ``dup`` apart in the sort;
    ``merged`` tells whether some run held two distinct points.
    """
    pts = pts[np.lexsort((pts.imag, pts.real))]
    gap = np.abs(np.diff(pts))
    near = gap <= dup
    return pts[np.concatenate([[True], ~near])], bool((near & (gap > 0.0)).any())


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
    cand, merged = _sort_distinct(pts[keep], _DUP_EPS * scale)
    if merged and keep.size < pts.size:
        # a dropped point may have split that run in the sort of the whole
        # cloud, which would keep more of it: sort the whole cloud first
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

def _inverse_len2(ex, ey):
    """1 / (ex^2 + ey^2) per segment, 0 for a zero-length one.

    A segment shorter than about 1.5e-154 counts as zero-length: its
    squared length is subnormal (or 0), and its inverse would overflow.
    """
    len2 = ex * ex + ey * ey
    return np.divide(1.0, len2, out=np.zeros_like(len2),
                     where=len2 >= np.finfo(np.float64).tiny)


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
    """Signed distances of ``pts`` to a proper ccw polygon, real arithmetic."""
    vx, vy = vertices.real, vertices.imag
    ex = np.roll(vx, -1) - vx
    ey = np.roll(vy, -1) - vy
    inv_len2 = _inverse_len2(ex, ey)
    out = np.empty(pts.size)
    chunk = max(1, _CHUNK_BUDGET // vertices.size)
    for lo in range(0, pts.size, chunk):
        hi = min(lo + chunk, pts.size)
        rx = pts[lo:hi].real[:, None] - vx[None, :]
        ry = pts[lo:hi].imag[:, None] - vy[None, :]
        dx, dy = _clamp_offsets(rx, ry, ex, ey, inv_len2)
        dist = np.sqrt((dx * dx + dy * dy).min(axis=1))
        inside = ((ex * ry - ey * rx) >= 0.0).all(axis=1)
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
    e = np.roll(v, -1) - v
    lengths = np.abs(e)
    cum = np.concatenate([[0.0], np.cumsum(lengths)])
    s = t * cum[-1]
    idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, v.size - 1)
    frac = (s - cum[idx]) / lengths[idx]
    return v[idx] + frac * e[idx]


def _rdp_splits(v: np.ndarray, spans: list, eps: float) -> list:
    """Douglas-Peucker splits of the index spans (lo, hi) of v.

    A span whose farthest interior vertex (the first, on ties) lies more
    than eps from its chord keeps that vertex and splits there.  Spans are
    measured in batches of about _CHUNK_BUDGET interior vertices, so short
    spans share one pass; returns the kept interior indices.
    """
    vx, vy = v.real, v.imag
    kept: list = []
    while spans:
        batch, size = [], 0
        while spans and size < _CHUNK_BUDGET:
            lo, hi = spans.pop()
            if hi - lo > 1:
                batch.append((lo, hi))
                size += hi - lo - 1
        if not batch:
            continue
        lo, hi = np.array(batch).T
        inner = hi - lo - 1
        first = np.cumsum(inner) - inner  # where each span starts in the batch
        idx = np.arange(size) + np.repeat(lo + 1 - first, inner)
        ex, ey = vx[hi] - vx[lo], vy[hi] - vy[lo]
        per_point = [np.repeat(a, inner) for a in (vx[lo], vy[lo], ex, ey,
                                                    _inverse_len2(ex, ey))]
        dx, dy = _clamp_offsets(vx[idx] - per_point[0], vy[idx] - per_point[1],
                                *per_point[2:])
        dev = np.sqrt(dx * dx + dy * dy)
        peak = np.maximum.reduceat(dev, first)
        at_peak = np.flatnonzero(dev == np.repeat(peak, inner))
        owner = np.searchsorted(first, at_peak, side="right") - 1
        split = idx[at_peak[np.unique(owner, return_index=True)[1]]]
        far = peak > eps
        kept.extend(split[far].tolist())
        spans.extend(zip(lo[far].tolist(), split[far].tolist()))
        spans.extend(zip(split[far].tolist(), hi[far].tolist()))
    return kept


def decimate(polygon: ConvexPolygon, eps: float) -> ConvexPolygon:
    """Vertex subset whose boundary stays within eps of the original.

    Used to keep distance queries against huge (circle-like) hulls cheap;
    the exact hull is never replaced by this.
    """
    if polygon.kind != PROPER or polygon.vertices.size <= 64:
        return polygon
    v = polygon.vertices
    anchors = sorted({int(np.argmax(v.real)), int(np.argmax(v.imag)),
                      int(np.argmin(v.real)), int(np.argmin(v.imag))})
    # the arcs between consecutive anchors, the last one wrapping around
    ring = np.concatenate([v, v[:anchors[0] + 1]])
    arcs = list(zip(anchors, anchors[1:] + [anchors[0] + v.size]))
    keep = np.unique(np.array(anchors + _rdp_splits(ring, arcs, eps)) % v.size)
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
