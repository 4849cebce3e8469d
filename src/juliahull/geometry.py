"""Planar convex geometry on complex points.

Hulls come from a monotone chain over lexicographically sorted points,
with an Akl-Toussaint prefilter so huge clouds stay cheap.  Distances,
separation witnesses, Hausdorff metrics and the degenerate-shape fits
(line and circle) all live here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

PROPER = "Proper"
SEGMENT = "Segment"
POINT = "Point"

# Orientation ties: a vertex within 1e-14 * scale of the chord between its
# neighbors reads as collinear (cross <= eps * scale * |chord|); a plain
# cross <= eps * scale^2 test would misread thin turns over micro-edges.
_TURN_EPS = 1e-14
_DUP_EPS = 1e-12

# Point-edge pairs per block of the distance kernel.  A block holds about
# five float temporaries of this length; 2**16 pairs keeps them near cache
# size and bounds peak memory when several checks run the kernel at once.
_CHUNK_BUDGET = 65_536


def _points_of(obj) -> np.ndarray:
    pts = getattr(obj, "points", obj)
    arr = np.atleast_1d(np.asarray(pts, dtype=np.complex128)).ravel()
    if arr.size == 0:
        raise ValueError("empty point set")
    if not np.all(np.isfinite(arr)):
        raise ValueError("points must be finite")
    return arr


def _inner(z, n):
    """Real inner product on R^2 of complex operands."""
    return (z * np.conj(n)).real


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
        return _calipers_diameter(self.vertices.tolist())

    @cached_property
    def area(self) -> float:
        if self.kind != PROPER:
            return 0.0
        v = self.vertices
        w = np.roll(v, -1)
        return 0.5 * float(np.sum(v.real * w.imag - w.real * v.imag))

    @cached_property
    def perimeter(self) -> float:
        if self.kind == POINT:
            return 0.0
        if self.kind == SEGMENT:
            return 2.0 * abs(self.vertices[1] - self.vertices[0])
        return float(np.abs(np.roll(self.vertices, -1) - self.vertices).sum())


@dataclass(eq=False)
class HalfPlane:
    """{z : <z, normal> >= offset} with a unit normal."""

    normal: complex
    offset: float

    def __post_init__(self):
        n = complex(self.normal)
        if abs(abs(n) - 1.0) > 1e-12:
            raise ValueError("half-plane normal must have unit modulus")
        self.normal = n
        self.offset = float(self.offset)

    def value(self, z):
        """<z, normal> - offset; nonnegative inside the half-plane."""
        return _inner(np.asarray(z, dtype=np.complex128), self.normal) - self.offset

    def contains(self, z, tol: float = 0.0):
        return self.value(z) >= -tol


def _calipers_diameter(pts: list) -> float:
    n = len(pts)
    if n == 2:
        return abs(pts[1] - pts[0])
    best = 0.0
    j = 1
    for i in range(n):
        ni = i + 1 if i + 1 < n else 0
        e = pts[ni] - pts[i]
        while True:
            nj = j + 1 if j + 1 < n else 0
            step = pts[nj] - pts[j]
            if e.real * step.imag - e.imag * step.real > 0.0:
                j = nj
            else:
                break
        best = max(best, abs(pts[i] - pts[j]), abs(pts[ni] - pts[j]))
    return best


def _akl_toussaint_keep(pts: np.ndarray, scale: float) -> np.ndarray:
    """Mask of points NOT strictly inside the extreme-point octagon."""
    x, y = pts.real, pts.imag
    idx = {int(np.argmin(x)), int(np.argmax(x)), int(np.argmin(y)), int(np.argmax(y)),
           int(np.argmin(x + y)), int(np.argmax(x + y)),
           int(np.argmin(x - y)), int(np.argmax(x - y))}
    corners = pts[sorted(idx)]
    center = corners.mean()
    order = np.argsort(np.angle(corners - center))
    poly = corners[order]
    if poly.size < 3:
        return np.ones(pts.size, dtype=bool)
    margin = _DUP_EPS * scale * scale
    inside = np.ones(pts.size, dtype=bool)
    for a, b in zip(poly, np.roll(poly, -1)):
        e = b - a
        cross = e.real * (y - a.imag) - e.imag * (x - a.real)
        inside &= cross > margin
    return ~inside


def _pops(o, a, q, eps_len: float) -> bool:
    """Middle vertex a is dropped from the chain o -> a -> q.

    True on a non-left turn (exact cross test) or when a lies within
    ``eps_len`` of the chord segment [o, q]; distance is measured to the
    segment, not the line, so far-away vertices over micro-chords survive.
    """
    cross = ((a.real - o.real) * (q.imag - o.imag)
             - (a.imag - o.imag) * (q.real - o.real))
    if cross <= 0.0:
        return True
    ex, ey = q.real - o.real, q.imag - o.imag
    len2 = ex * ex + ey * ey
    if len2 == 0.0:
        return abs(a - o) <= eps_len
    t = ((a.real - o.real) * ex + (a.imag - o.imag) * ey) / len2
    if t <= 0.0:
        dist = abs(a - o)
    elif t >= 1.0:
        dist = abs(a - q)
    else:
        dist = cross / (len2 ** 0.5)
    return dist <= eps_len


def _prune_cyclic(verts: list, scale: float) -> list:
    """Drop near-duplicate and tolerance-collinear vertices around the cycle."""
    eps_len = _TURN_EPS * scale
    dup = _DUP_EPS * scale
    changed = True
    while changed and len(verts) > 2:
        changed = False
        out: list = []
        for q in verts:
            if out and abs(q - out[-1]) <= dup:
                changed = True
                continue
            while len(out) >= 2 and _pops(out[-2], out[-1], q, eps_len):
                out.pop()
                changed = True
            out.append(q)
        if len(out) >= 2 and abs(out[0] - out[-1]) <= dup:
            out.pop()
            changed = True
        # turns across the seam are not seen by the sweep above
        while len(out) > 2 and _pops(out[-2], out[-1], out[0], eps_len):
            out.pop()
            changed = True
        while len(out) > 2 and _pops(out[-1], out[0], out[1], eps_len):
            out.pop(0)
            changed = True
        verts = out
    return verts


def convex_hull(points) -> ConvexPolygon:
    """Monotone-chain hull with collinear interior points removed."""
    pts = _points_of(points)
    scale = max(np.ptp(pts.real), np.ptp(pts.imag))
    if scale == 0.0:
        return ConvexPolygon(pts[:1].copy(), POINT)
    order = np.lexsort((pts.imag, pts.real))
    pts = pts[order]
    gap = np.abs(np.diff(pts))
    keep = np.concatenate([[True], gap > _DUP_EPS * scale])
    pts = pts[keep]
    if pts.size == 1:
        return ConvexPolygon(pts, POINT)
    if pts.size > 4096:
        kept = _akl_toussaint_keep(pts, scale)
        pts = pts[kept]
    eps_len = _TURN_EPS * scale
    seq = pts.tolist()

    def chain(seq_iter):
        out = []
        for q in seq_iter:
            while len(out) >= 2 and _pops(out[-2], out[-1], q, eps_len):
                out.pop()
            out.append(q)
        return out

    lower = chain(seq)
    upper = chain(reversed(seq))
    hull = _prune_cyclic(lower[:-1] + upper[:-1], scale)
    if len(hull) <= 2:
        # tolerance-collinear input: recover the true extremes by two sweeps,
        # the sort-order endpoints can sit anywhere along the line
        e1 = pts[np.argmax(np.abs(pts - pts[0]))]
        e2 = pts[np.argmax(np.abs(pts - e1))]
        if abs(e2 - e1) <= _DUP_EPS * scale:
            return ConvexPolygon(np.array([e1]), POINT)
        ends = sorted([e1, e2], key=lambda z: (z.real, z.imag))
        return ConvexPolygon(np.array(ends), SEGMENT)
    return ConvexPolygon(np.array(hull), PROPER)


def _segment_distance(pts: np.ndarray, a: complex, b: complex) -> np.ndarray:
    e = b - a
    len2 = abs(e) ** 2
    if len2 == 0.0:  # length underflow: the segment is a point
        return np.abs(pts - a)
    t = np.clip(((pts - a) * np.conj(e)).real / len2, 0.0, 1.0)
    return np.abs(pts - (a + t * e))


def _polygon_distance_kernel(vertices: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Signed distances of ``pts`` to a proper ccw polygon, real arithmetic."""
    vx, vy = vertices.real, vertices.imag
    ex = np.roll(vx, -1) - vx
    ey = np.roll(vy, -1) - vy
    inv_len2 = 1.0 / (ex * ex + ey * ey)
    out = np.empty(pts.size)
    chunk = max(1, _CHUNK_BUDGET // vertices.size)
    for lo in range(0, pts.size, chunk):
        hi = min(lo + chunk, pts.size)
        rx = pts[lo:hi].real[:, None] - vx[None, :]
        ry = pts[lo:hi].imag[:, None] - vy[None, :]
        t = (rx * ex + ry * ey) * inv_len2
        np.clip(t, 0.0, 1.0, out=t)
        dx = rx - t * ex
        dy = ry - t * ey
        dist = np.sqrt((dx * dx + dy * dy).min(axis=1))
        inside = ((ex * ry - ey * rx) >= 0.0).all(axis=1)
        out[lo:hi] = np.where(inside, -dist, dist)
    return out


def signed_distance(polygon: ConvexPolygon, z):
    """Exact Euclidean distance to the boundary, negative strictly inside.

    Segment and Point polygons have no interior, so the result is the
    plain (nonnegative) distance there.
    """
    arr = np.asarray(z, dtype=np.complex128)
    pts = np.atleast_1d(arr).ravel()
    if polygon.kind == POINT:
        out = np.abs(pts - polygon.vertices[0])
    elif polygon.kind == SEGMENT:
        out = _segment_distance(pts, polygon.vertices[0], polygon.vertices[1])
    else:
        out = _polygon_distance_kernel(polygon.vertices, pts)
    if arr.ndim == 0:
        return float(out[0])
    return out.reshape(arr.shape)


def worst_signed_distance(polygon: ConvexPolygon, points, top: int = 10):
    """Largest signed distance over many points, with the worst offenders.

    Returns ``(worst, offenders, values)``.  Against a many-vertex polygon,
    points deep inside an inscribed disk are bounded by ``|z - o| - r_in``
    (an upper bound on their signed distance, still negative) instead of
    measured edge by edge; potential violators always get the exact value.
    """
    pts = _points_of(points)
    if polygon.kind != PROPER or polygon.vertices.size <= 1024 or pts.size <= 4096:
        sd = signed_distance(polygon, pts)
    else:
        center = complex(polygon.vertices.mean())
        r_in = -signed_distance(polygon, center)
        radial = np.abs(pts - center)
        near = radial > 0.95 * r_in
        sd = radial - r_in
        if near.any():
            sd[near] = signed_distance(polygon, pts[near])
    order = np.argsort(sd)[::-1][:top]
    return float(sd[order[0]]), pts[order], sd[order]


def _nearest_boundary_point(polygon: ConvexPolygon, z: complex) -> complex:
    if polygon.kind == POINT:
        return complex(polygon.vertices[0])
    if polygon.kind == SEGMENT:
        a, b = polygon.vertices
        e = b - a
        len2 = abs(e) ** 2
        if len2 == 0.0:
            return complex(a)
        t = np.clip(((z - a) * np.conj(e)).real / len2, 0.0, 1.0)
        return complex(a + t * e)
    v = polygon.vertices
    e = np.roll(v, -1) - v
    rel = z - v
    t = np.clip((rel * np.conj(e)).real / np.abs(e) ** 2, 0.0, 1.0)
    proj = v + t * e
    return complex(proj[np.argmin(np.abs(z - proj))])


def separating_half_plane(polygon: ConvexPolygon, z: complex) -> HalfPlane:
    """Half-plane containing z, disjoint from the polygon.

    The witness is built from the perpendicular bisector direction at the
    nearest boundary point, so both sides clear the boundary by half the
    separation distance.
    """
    z = complex(z)
    if signed_distance(polygon, z) <= 0.0:
        raise ValueError("point not strictly outside")
    q = _nearest_boundary_point(polygon, z)
    delta = z - q
    normal = delta / abs(delta)
    offset = float(_inner(q, normal) + 0.5 * abs(delta))
    return HalfPlane(normal, offset)


def hausdorff_distance(first, second) -> float:
    """Symmetric sup-inf distance between two finite point sets."""
    a = _points_of(first)
    b = _points_of(second)
    pa = np.column_stack([a.real, a.imag])
    pb = np.column_stack([b.real, b.imag])
    d_ab = cKDTree(pb).query(pa, k=1)[0].max()
    d_ba = cKDTree(pa).query(pb, k=1)[0].max()
    return float(max(d_ab, d_ba))


def boundary_points(polygon: ConvexPolygon, count: int,
                    offset: float = 0.5) -> np.ndarray:
    """Arc-length uniform boundary sample (linear for a segment).

    The default midpoint ``offset`` keeps samples off the vertices, so
    extreme points are approached but never duplicated; ``offset=0``
    anchors the walk at vertex 0 (and, for a segment, includes both
    endpoints), which matters when fibers of the extreme values themselves
    are wanted.
    """
    if count < 1:
        raise ValueError("need at least one boundary sample")
    if polygon.kind == POINT:
        return np.full(count, polygon.vertices[0])
    if polygon.kind == SEGMENT:
        a, b = polygon.vertices
        if offset == 0.0:
            return a + np.linspace(0.0, 1.0, count) * (b - a)
        return a + ((np.arange(count) + offset) / count) * (b - a)
    v = polygon.vertices
    e = np.roll(v, -1) - v
    lengths = np.abs(e)
    cum = np.concatenate([[0.0], np.cumsum(lengths)])
    s = ((np.arange(count) + offset) / count) * cum[-1]
    idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, v.size - 1)
    frac = (s - cum[idx]) / lengths[idx]
    return v[idx] + frac * e[idx]


def _rdp_indices(v: np.ndarray, lo: int, hi: int, eps: float, out: list):
    """Keep lo; recursively keep interior vertices deviating > eps from the chord."""
    out.append(lo)
    stack = [(lo, hi)]
    while stack:
        i, j = stack.pop()
        if j - i < 2:
            continue
        seg = v[i + 1:j]
        dev = _segment_distance(seg, v[i], v[j])
        k = int(np.argmax(dev))
        if dev[k] > eps:
            split = i + 1 + k
            stack.append((split, j))
            stack.append((i, split))
            out.append(split)


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
    keep: list = []
    for a, b in zip(anchors, anchors[1:] + [anchors[0] + v.size]):
        arc = np.concatenate([v[a:], v[: b - v.size + 1]]) if b >= v.size else v[a:b + 1]
        local: list = []
        _rdp_indices(arc, 0, arc.size - 1, eps, local)
        keep.extend((a + k) % v.size for k in sorted(local))
    keep = sorted(set(keep))
    if len(keep) < 3:
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


@dataclass(frozen=True)
class SegmentShape:
    end_a: complex
    end_b: complex


@dataclass(frozen=True)
class CircleShape:
    center: complex
    radius: float


@dataclass(frozen=True)
class GenericShape:
    pass


def fit_line(points):
    """Total-least-squares line; returns (centroid, unit direction, max deviation)."""
    pts = _points_of(points)
    c = pts.mean()
    rel = pts - c
    cov = np.array([[np.mean(rel.real ** 2), np.mean(rel.real * rel.imag)],
                    [np.mean(rel.real * rel.imag), np.mean(rel.imag ** 2)]])
    _, vecs = np.linalg.eigh(cov)
    u = complex(vecs[0, 1], vecs[1, 1])  # eigenvector of the largest eigenvalue
    normal = u * 1j
    dev = np.abs(_inner(rel, normal))
    return complex(c), u, float(dev.max())


def fit_circle(points):
    """Algebraic (Kasa) circle fit plus one Gauss-Newton refinement.

    Returns (center, radius, max radial residual).
    """
    pts = _points_of(points)
    x, y = pts.real, pts.imag
    a_mat = np.column_stack([2.0 * x, 2.0 * y, np.ones_like(x)])
    rhs = x * x + y * y
    (cx, cy, t), *_ = np.linalg.lstsq(a_mat, rhs, rcond=None)
    arg = t + cx * cx + cy * cy
    if arg <= 0.0:
        return 0j, 0.0, math.inf
    r = math.sqrt(arg)
    # one Gauss-Newton step on the geometric residuals
    ri = np.abs(pts - complex(cx, cy))
    ri = np.maximum(ri, 1e-300)
    jac = np.column_stack([-(x - cx) / ri, -(y - cy) / ri, -np.ones_like(ri)])
    delta, *_ = np.linalg.lstsq(jac, -(ri - r), rcond=None)
    cx, cy, r = cx + delta[0], cy + delta[1], r + delta[2]
    if r <= 0.0 or not np.isfinite(r):
        return 0j, 0.0, math.inf
    resid = np.abs(np.abs(pts - complex(cx, cy)) - r)
    return complex(cx, cy), float(r), float(resid.max())


def classify_shape(points, tol_rel: float = 1e-3):
    """Segment, circle or generic shape of a planar sample.

    The segment test runs first so a near-degenerate circle (huge radius)
    still classifies as a segment.
    """
    pts = _points_of(points)
    if pts.size < 10:
        raise ValueError("shape classification needs at least 10 points")
    if not 0.0 < tol_rel < 0.1:
        raise ValueError("tol_rel must lie in (0, 0.1)")
    hull = convex_hull(pts)
    diam = hull.diameter
    if diam == 0.0:
        p = complex(pts[0])
        return SegmentShape(p, p)
    c, u, dev = fit_line(pts)
    if dev <= tol_rel * diam:
        t = _inner(pts - c, u)
        return SegmentShape(complex(c + t.min() * u), complex(c + t.max() * u))
    center, radius, rad_dev = fit_circle(pts)
    if radius > 0.0 and rad_dev <= tol_rel * radius:
        return CircleShape(center, radius)
    return GenericShape()
