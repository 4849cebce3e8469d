import runpy
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from juliahull import (
    AffineMap,
    CheckConfig,
    Polynomial,
    boundary_points,
    build_context,
    chebyshev,
    classify_equality,
    conjugate,
    convex_hull,
    monomial,
    parse_polynomial,
    polygon_hausdorff,
    run_checks,
    sample_julia,
    signed_distance,
)
from juliahull import checks
import juliahull.geometry as geometry
from juliahull.geometry import (
    ConvexPolygon,
    PROPER,
    SEGMENT,
    POINT,
    _PREFILTER_DEPTH,
    decimate,
    distance_to_segments,
)

planar_points = st.lists(
    st.builds(complex,
              st.floats(-5, 5, allow_nan=False, allow_infinity=False),
              st.floats(-5, 5, allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=60,
)


def _units(x: float) -> int:
    """x as the integer multiple of 2^-1074 it is."""
    numerator, denominator = x.as_integer_ratio()
    return numerator * ((1 << 1074) // denominator)


def _exact_turn(o, a, q) -> int:
    """Sign of the turn o -> a -> q in integers: 1 left, -1 right, 0 collinear."""
    ox, oy, ax, ay, qx, qy = (_units(v) for v in (o.real, o.imag, a.real, a.imag,
                                                  q.real, q.imag))
    cross = (ax - ox) * (qy - oy) - (ay - oy) * (qx - ox)
    return (cross > 0) - (cross < 0)


def _reference_turn(o, a, q) -> int:
    """``_exact_turn``, by a float cross product where that is far from rounding."""
    left = (a.real - o.real) * (q.imag - o.imag)
    right = (a.imag - o.imag) * (q.real - o.real)
    if abs(left - right) > 1e-12 * (abs(left) + abs(right)) + 1e-280:
        return 1 if left > right else -1
    return _exact_turn(o, a, q)


def _lexsorted_distinct(points) -> np.ndarray:
    """A stable lexicographic sort, each run of equal points cut to its first."""
    pts = np.asarray(points, dtype=np.complex128).ravel()
    pts = pts[np.lexsort((pts.imag, pts.real))]
    return pts[np.concatenate([[True], pts[1:] != pts[:-1]])]


def _rational_hull_vertices(points) -> list:
    """Andrew's stack chain over all sorted distinct points, with exact turns.

    No prefilter, so a match also shows that the prefilter drops no
    vertex; returns the ccw vertices from the lexicographically first, 2
    for collinear points and 1 for equal ones.
    """
    seq = _lexsorted_distinct(points).tolist()
    if len(seq) == 1:
        return seq

    def chain(points):
        out: list = []
        for q in points:
            while len(out) >= 2 and _reference_turn(out[-2], out[-1], q) <= 0:
                out.pop()
            out.append(q)
        return out[:-1]

    return chain(seq) + chain(seq[::-1])


def _scalar_calipers(pts: list) -> float:
    """Rotating calipers over a proper ccw polygon, one edge at a time.

    The caliper advances while the next edge turns left of edge i.  Where
    the float cross product is within reach of rounding, that is decided
    in integers: on a thin triangle the float one can read a turn of
    pi - 1e-16 as more than pi, and stop past the farthest vertex.
    """
    n = len(pts)
    exact = []  # the vertices in integers, once one is needed
    best = 0.0
    j = 1
    for i in range(n):
        ni = i + 1 if i + 1 < n else 0
        e = pts[ni] - pts[i]
        while True:
            nj = j + 1 if j + 1 < n else 0
            step = pts[nj] - pts[j]
            cross = e.real * step.imag - e.imag * step.real
            if abs(cross) <= 1e-12 * abs(e) * abs(step):
                exact = exact or [(_units(z.real), _units(z.imag)) for z in pts]
                (ax, ay), (bx, by), (cx, cy), (dx, dy) = (exact[k] for k in (i, ni, j, nj))
                cross = (bx - ax) * (dy - cy) - (by - ay) * (dx - cx)
            if cross > 0:
                j = nj
            else:
                break
        best = max(best, abs(pts[i] - pts[j]), abs(pts[ni] - pts[j]))
    return best


def _candidate_pairs(polygon):
    """Keys min * n + max of the calipers' 6n candidate pairs, and the hypot of each."""
    v = polygon.vertices
    x, y, n = v.real, v.imag, v.size
    angle = polygon._edge_angles
    j = np.searchsorted(np.concatenate([angle, angle + 2.0 * np.pi]), angle + np.pi)
    i = np.arange(n)
    a = np.concatenate([side for side in (i, (i + 1) % n) for _ in range(3)])
    b = np.concatenate([(j + shift) % n for _ in range(2) for shift in (-1, 0, 1)])
    return np.minimum(a, b) * n + np.maximum(a, b), np.hypot(x[a] - x[b], y[a] - y[b])


def _unfiltered_diameter(polygon) -> float:
    """The calipers' diameter with every candidate pair measured with hypot."""
    return float(_candidate_pairs(polygon)[1].max())


def _assert_measures_farthest_once(polygon):
    """hypot measures candidates only, each unordered pair once, and every farthest one."""
    a, b = geometry._diameter_pairs(polygon.vertices, polygon._edge_angles)
    n = len(polygon)
    measured = np.minimum(a, b) * n + np.maximum(a, b)
    keys, dist = _candidate_pairs(polygon)
    assert np.unique(measured).size == measured.size
    assert np.isin(measured, keys).all()
    assert np.isin(keys[dist == dist.max()], measured).all()


def _stable_sort_distinct(pts: np.ndarray) -> np.ndarray:
    """``geometry._sort_distinct`` with numpy's stable complex sort on every input."""
    pts = np.sort(pts, kind="stable")
    return pts[np.concatenate([[True], pts[1:] != pts[:-1]])]


def _rolled_edge_angles(v: np.ndarray) -> np.ndarray:
    angle = np.arctan2(np.roll(v.imag, -1) - v.imag, np.roll(v.real, -1) - v.real)
    angle += 2.0 * np.pi * np.concatenate(([0], np.cumsum(np.diff(angle) < -0.5 * np.pi)))
    return np.maximum.accumulate(angle)


def _rolled_boundary_points(v: np.ndarray, count: int) -> np.ndarray:
    e = np.roll(v, -1) - v
    lengths = np.abs(e)
    cum = np.concatenate([[0.0], np.cumsum(lengths)])
    s = (np.arange(count) + 0.5) / count * cum[-1]
    idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, v.size - 1)
    return v[idx] + (s - cum[idx]) / lengths[idx] * e[idx]


def _rational_proper_check(v: np.ndarray):
    """The error a proper polygon's vertices raise, or None, with turns in rationals."""
    if (v == np.roll(v, -1)).any():
        return "duplicate vertices"
    ring = v.tolist()
    if not all(_exact_turn(ring[k - 1], ring[k], ring[(k + 1) % len(ring)]) > 0
               for k in range(len(ring))):
        return "vertices are not strictly convex in ccw order"
    return None


def _count_turn_tests(monkeypatch):
    """Wrap the orientation predicate; returns the list of triple counts passed.

    Calls made inside the prefilter, on its few corners, are not counted.
    """
    calls = []
    in_prefilter = []
    orientation, candidates = geometry._orientation, geometry._candidates

    def counted(a, b, c):
        if not in_prefilter:
            calls.append(np.size(c))
        return orientation(a, b, c)

    def uncounted(pts, scale):
        in_prefilter.append(True)
        try:
            return candidates(pts, scale)
        finally:
            in_prefilter.pop()

    monkeypatch.setattr(geometry, "_orientation", counted)
    monkeypatch.setattr(geometry, "_candidates", uncounted)
    return calls


def _cascade_cloud():
    """A shallow arc over the chord and one far point below it.

    Every arc point pops, but only after its neighbour is dropped: without
    the prefilter this cascade took one reduction round per point.
    """
    x = np.linspace(0, 1, 4000)
    return np.concatenate([x + 1e-3j * (x * x - x), [0.99 - 10j]])


def _micro_edge_cloud(seed: int, count: int) -> np.ndarray:
    """A convex polygon of ``count`` vertices, each with three points beside it.

    They lie 1 to 30 units of rounding of the scale along the vertex's
    edge, and up to a fifth of that outside it, so the exact hull keeps
    many of them, with edges down to one ulp.
    """
    rng = np.random.default_rng(seed)
    v = 3.0 * np.exp(2j * np.pi * np.sort(rng.uniform(size=count))) + 0.5 - 0.25j
    e = np.roll(v, -1) - v
    step = np.spacing(3.0) * rng.uniform(1, 30, (3, count)) / np.abs(e)
    return np.concatenate([v, *(v + e * t * (1 - 0.1j * k) for k, t in enumerate(step))])


def _fixed_clouds():
    """Named clouds with ties, collinear runs and many-vertex hulls."""
    rng = np.random.default_rng(17)
    x = rng.uniform(-1, 1, 20_000)
    return {
        "gauss": rng.normal(size=5000) + 1j * rng.normal(size=5000),
        "circle": 3.0 * np.exp(2j * np.pi * rng.uniform(size=8000)),
        "regular-polygon": np.exp(2j * np.pi * np.arange(64) / 64),
        "lattice": rng.integers(0, 12, 3000) + 1j * rng.integers(0, 12, 3000),
        "thin": rng.uniform(-1, 1, 6000) + 1e-9j * rng.normal(size=6000),
        "collinear": (0.6 - 0.8j) * rng.uniform(-2, 2, 500) + 0.25,
        "parabola": x + 1j * x * x,
        "vertical-ties": rng.integers(0, 4, 5000) + 1j * rng.normal(size=5000),
        "rounded": np.round(rng.normal(size=5000) + 1j * rng.normal(size=5000), 1),
        "cascade": _cascade_cloud(),
    }


def _wide_clouds():
    """Named random clouds, boxes and rings whose coordinates reach +-1.7e308.

    The differences of their points overflow, and so would a prefilter
    that shifted them unscaled.  The points of "underflow" are distinct
    but one in the unit box, where their imaginary parts underflow to 0.
    """
    rng = np.random.default_rng(23)
    top = 1.7e308
    clouds = {"axes": np.array([-1e308, 1e308, 1j, 0.5 - 2j]),
              "underflow": 2.0 ** 1023 + np.array([0, 1e-300j, 3e-300j])}
    for k in range(40):
        kind = ("cloud", "box", "ring")[k % 3]
        n = int(rng.integers(3, 200))
        x, y = top * rng.uniform(-1, 1, (2, n))
        if kind == "box":
            x = np.concatenate([x, [-top, top, top, -top]])
            y = np.concatenate([y, [-top, -top, top, top]])
        elif kind == "ring":
            turn = np.exp(2j * np.pi * rng.uniform(size=n))
            x, y = top * turn.real, top * turn.imag
        pts = np.empty(x.size, dtype=np.complex128)
        pts.real, pts.imag = x, y
        clouds[f"{kind}-{k}"] = pts
    return clouds


class TestConvexHull:
    def test_square_with_interior_point(self, square):
        hull = convex_hull(square)
        assert hull.kind == PROPER
        assert np.allclose(np.sort_complex(hull.vertices), [0, 1j, 1, 1 + 1j])

    def test_collinear_reals_become_segment(self):
        hull = convex_hull(np.array([-1, 0.3, 1, -0.7]))
        assert hull.kind == SEGMENT
        assert np.allclose(np.sort_complex(hull.vertices), [-1, 1])

    def test_sort_orders_like_lexsort(self):
        # exact ties in the real part, duplicates and both signed zeros keep
        # the order of a stable lexicographic sort, bit for bit
        rng = np.random.default_rng(5)
        grid = rng.integers(-3, 4, size=(2, 400)) / 4.0
        grid[grid == 0.0] = rng.choice([0.0, -0.0], size=(grid == 0.0).sum())
        for pts in (grid[0] + 1j * grid[1],
                    np.concatenate([rng.normal(size=300) + 1j * rng.normal(size=300)] * 2),
                    np.array([complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0),
                              complex(0.0, 0.0), 1j, complex(-0.0, 1.0)])):
            got = geometry._sort_distinct(pts)
            reference = _lexsorted_distinct(pts)
            assert np.array_equal(got.view(np.uint64), reference.view(np.uint64))

    def test_identical_points_become_point(self):
        hull = convex_hull(np.full(5, 0.3 + 0.4j))
        assert hull.kind == POINT

    def test_circle_cloud_area(self, squaring):
        cloud = sample_julia(squaring, 100_000, seed=4)
        hull = convex_hull(cloud)
        m = len(hull)
        v = hull.vertices
        w = np.roll(v, -1)
        area = 0.5 * float(np.sum(v.real * w.imag - w.real * v.imag))  # shoelace
        # inscribed regular m-gon area as the analytic oracle
        oracle = 0.5 * m * np.sin(2 * np.pi / m)
        assert area == pytest.approx(oracle, rel=1e-4)
        assert abs(area - np.pi) <= 0.02 * np.pi

    def test_idempotent_on_own_vertices(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=40) + 1j * rng.normal(size=40)
        hull = convex_hull(pts)
        again = convex_hull(hull.vertices)
        assert np.allclose(np.sort_complex(again.vertices),
                           np.sort_complex(hull.vertices))

    @settings(max_examples=60, deadline=None)
    @given(planar_points)
    def test_contains_every_input_point(self, pts):
        pts = np.array(pts)
        hull = convex_hull(pts)
        diam = max(hull.diameter, 1e-9)
        assert np.max(signed_distance(hull, pts)) <= 1e-12 * diam

    @settings(max_examples=40, deadline=None)
    @given(planar_points, planar_points)
    def test_monotone_under_inclusion(self, small, extra):
        small, extra = np.array(small), np.array(extra)
        inner = convex_hull(small)
        outer = convex_hull(np.concatenate([small, extra]))
        diam = max(outer.diameter, 1e-9)
        assert np.max(signed_distance(outer, inner.vertices)) <= 1e-12 * diam

    def test_affine_equivariance(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=200) + 1j * rng.normal(size=200)
        a, b = 0.7 - 1.1j, 0.3 + 0.2j
        direct = convex_hull(a * pts + b)
        mapped = a * convex_hull(pts).vertices + b
        assert len(direct) == mapped.size
        # vertex sets agree up to cyclic rotation
        start = int(np.argmin(np.abs(direct.vertices - mapped[0])))
        rolled = np.roll(direct.vertices, -start)
        assert np.abs(rolled - mapped).max() <= 1e-10

    @settings(max_examples=50, deadline=None)
    @given(planar_points)
    def test_diameter_matches_brute_force(self, pts):
        pts = np.array(pts)
        hull = convex_hull(pts)
        brute = np.abs(pts[:, None] - pts[None, :]).max()
        assert hull.diameter == pytest.approx(brute, abs=1e-9)


class TestHullReference:
    """The vectorized hull and diameter against the rational stack chain, bit for bit."""

    @staticmethod
    def _assert_matches(pts, diameter=True):
        hull = convex_hull(pts)
        expected = _rational_hull_vertices(pts)
        assert hull.kind == {1: POINT, 2: SEGMENT}.get(len(expected), PROPER)
        if hull.kind == POINT:  # any of the equal points, 0.0 and -0.0 alike
            assert hull.vertices[0] == expected[0]
            return
        assert np.array_equal(hull.vertices.view(np.uint64),
                              np.array(expected, dtype=np.complex128).view(np.uint64))
        if hull.kind == PROPER and diameter:
            assert hull.diameter == _scalar_calipers(expected)
            assert hull.diameter == _unfiltered_diameter(hull)

    @settings(max_examples=200, deadline=None)
    @given(planar_points)
    # 0 and -9.4e-249 sort apart, split by -1j: both are vertices
    @example([0j, -1j, 1 + 0j, 2 + 0j, -1 - 1j, -9.386184325654943e-249 + 0j])
    # a thin triangle: its middle vertex lies 1e-16 of the scale off the chord
    @example([1.3906947559347846 - 1.5209263412463796j, 0.9250222734093918 - 0.9000296978791891j,
              0.1704391996562163 + 0.10608106712504516j])
    def test_random_clouds(self, pts):
        self._assert_matches(np.array(pts))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.builds(complex, st.integers(-3, 3), st.integers(-3, 3)),
                    min_size=1, max_size=40))
    def test_integer_lattice_clouds(self, pts):
        self._assert_matches(np.array(pts))

    @pytest.mark.parametrize("name", sorted(_fixed_clouds()))
    def test_fixed_clouds(self, name):
        self._assert_matches(_fixed_clouds()[name])

    @pytest.mark.parametrize("name", sorted(_wide_clouds()))
    def test_clouds_wider_than_the_float_range(self, name):
        # the prefilter runs on the points scaled into the unit box; their
        # diameter overflows, so only the vertices are compared
        self._assert_matches(_wide_clouds()[name], diameter=False)

    @pytest.mark.parametrize("seed", range(4))
    def test_clusters_of_near_duplicates_match_the_exact_chain(self, seed):
        # points within 2e-13 of the scale of each hull vertex: each one
        # that is extreme is a vertex, however near the others
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=400) + 1j * rng.normal(size=400)
        corners = convex_hull(pts).vertices
        scale = max(np.ptp(pts.real), np.ptp(pts.imag))
        jitter = 2e-13 * scale * (rng.normal(size=(corners.size, 4))
                                  + 1j * rng.normal(size=(corners.size, 4)))
        self._assert_matches(np.concatenate([pts, (corners[:, None] + jitter).ravel()]))

    def test_thin_parabola_slivers_match_the_exact_chain(self):
        # x + 1e-12i x^2 turns by less than 1e-12 at each point, and every
        # point is a vertex
        rng = np.random.default_rng(0)
        for _ in range(300):
            x = rng.uniform(-1, 1, int(rng.integers(3, 81)))
            self._assert_matches(x + 1e-12j * x * x)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_parabola_keeps_every_point_inside(self, seed):
        # every point of the parabola is extreme, so a vertex of the hull
        x = np.random.default_rng(seed).uniform(-1, 1, 20_000)
        pts = x + 1j * x * x
        self._assert_matches(pts)
        assert len(convex_hull(pts)) == pts.size

    @pytest.mark.parametrize("cloud, least", [
        # every antipodal pair of +-w_k on a jittered circle lies within
        # rounding of the largest distance
        (np.array([[1], [-1]]) * np.exp(1j * np.pi * np.sort(
            np.random.default_rng(2).uniform(0, 1, 20_000))), 39_600),
        (np.exp(2j * np.pi * np.arange(100_000) / 100_000), 99_000),
        (_micro_edge_cloud(3, 64), 65),
    ], ids=["antipodal", "co-circular", "micro-edges"])
    def test_diameter_ties_match_the_scalar_calipers(self, cloud, least):
        hull = convex_hull(cloud.ravel())
        assert len(hull) >= least
        assert hull.diameter == _scalar_calipers(hull.vertices.tolist())
        assert hull.diameter == _unfiltered_diameter(hull)
        _assert_measures_farthest_once(hull)

    @pytest.mark.parametrize("scale", [2.0 ** -500, 1.0, 2.0 ** 500, 1.1e154])
    def test_diameter_at_extreme_scales(self, scale):
        # at 1.1e154 the squared diameter overflows, unless it is taken on
        # the polygon scaled to 1; the squared edges do not
        rng = np.random.default_rng(8)
        for cloud in (np.exp(2j * np.pi * (np.arange(64) + 0.3) / 64),
                      np.exp(2j * np.pi * rng.uniform(size=2000))):
            polygon = ConvexPolygon(scale * (convex_hull(cloud).vertices + 0.5 - 0.25j), PROPER)
            assert polygon.diameter == _scalar_calipers(polygon.vertices.tolist())
            assert polygon.diameter == _unfiltered_diameter(polygon)

    @pytest.mark.parametrize("cloud, vertices, rounds", [
        # every point of a fine circle is a vertex: a per-point loop would
        # call the turn test about 1e5 times
        (np.exp(2j * np.pi * np.arange(100_000) / 100_000), 100_000, 5),
        # nearly every point pops: dropping one point per round would take
        # about 4000 rounds
        (np.array([1, 1j]) @ np.random.default_rng(1).normal(size=(2, 4096)), 12, 64),
        (_cascade_cloud(), 3, 4),
    ], ids=["circle", "gauss", "cascade"])
    def test_turn_tests_run_in_few_rounds(self, monkeypatch, cloud, vertices, rounds):
        # the calls: the chord's side, each round, and the validation
        calls = _count_turn_tests(monkeypatch)
        assert len(convex_hull(cloud)) == vertices
        assert len(calls) <= rounds

    def test_chain_without_prefilter_runs_in_few_rounds(self, monkeypatch):
        # the prefilter leaves few points to reduce; the rounds alone must
        # also be few, and keep the stack chain's vertices
        pts = np.array([1, 1j]) @ np.random.default_rng(1).normal(size=(2, 4096))
        expected = _rational_hull_vertices(pts)
        calls = _count_turn_tests(monkeypatch)
        got = geometry._monotone_chain(geometry._sort_distinct(pts))
        assert np.array_equal(got, np.array(expected))
        assert len(calls) <= 64


def _count_sorted_points(monkeypatch):
    """Wrap the hull's prefilter; returns the list of survivor counts.

    The survivors are exactly the points that reach the sort.
    """
    counts = []
    original = geometry._candidates

    def counted(pts, scale):
        keep = original(pts, scale)
        counts.append(keep.size)
        return keep

    monkeypatch.setattr(geometry, "_candidates", counted)
    return counts


@st.composite
def _hard_clouds(draw):
    """Clouds of near-duplicates, slivers, near-collinear runs and micro-edges."""
    kind = draw(st.sampled_from(["clusters", "sliver", "tilted", "circle", "micro-edges"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "clusters":
        # near-duplicates of random points, in clusters narrower than
        # 4e-13 of the scale
        pts = np.array(draw(planar_points))
        scale = max(np.ptp(pts.real), np.ptp(pts.imag))
        shape = (pts.size, draw(st.integers(1, 5)))
        jitter = (4e-13 * scale * np.sqrt(rng.uniform(size=shape))
                  * np.exp(2j * np.pi * rng.uniform(size=shape)))
        return np.concatenate([pts, (pts[:, None] + jitter).ravel()])
    if kind == "micro-edges":
        return _micro_edge_cloud(int(rng.integers(2 ** 32)), draw(st.integers(3, 80)))
    if kind == "sliver":
        x = rng.uniform(-1, 1, draw(st.integers(3, 400)))
        return x + 1e-12j * x * x
    if kind == "tilted":
        # a thin segment at an angle, thinner in places than rounding
        t = rng.uniform(-2, 2, draw(st.integers(3, 400)))
        width = draw(st.sampled_from([0.0, 1e-16, 1e-13, 1e-9]))
        return (0.6 - 0.8j) * (t + 1j * width * rng.normal(size=t.size)) + 0.25
    count = draw(st.integers(3, 5000))
    turn = draw(st.floats(0, 1))
    return 3.0 * np.exp(2j * np.pi * (np.arange(count) / count + turn)) + 1 - 2j


class TestPrefilter:
    """The prefilter drops no vertex, and leaves few points to sort."""

    @staticmethod
    def _assert_keeps_vertices(pts):
        scale = max(np.ptp(pts.real), np.ptp(pts.imag))
        if scale == 0.0:
            return
        kept = pts[geometry._candidates(pts, scale)]
        assert np.isin(np.array(_rational_hull_vertices(pts)), kept).all()

    @settings(max_examples=200, deadline=None)
    @given(planar_points)
    def test_keeps_every_vertex_of_random_clouds(self, pts):
        self._assert_keeps_vertices(np.array(pts))

    @settings(max_examples=120, deadline=None)
    @given(_hard_clouds())
    def test_keeps_every_vertex_of_hard_clouds(self, pts):
        self._assert_keeps_vertices(pts)

    @pytest.mark.parametrize("name", sorted(_fixed_clouds()))
    def test_keeps_every_vertex_of_fixed_clouds(self, name):
        self._assert_keeps_vertices(_fixed_clouds()[name])

    @pytest.mark.parametrize("p, seeds", [
        (Polynomial([-1, 0, 1]), [0]),
        (Polynomial([0.3 - 0.2j, 0.1j, -0.5, 1]), [0]),
        # a segment blurred across by about 1e-12 of its length, at 16 seeds
        (chebyshev(4), range(16)),
        # a segment blurred across by rounding alone, its end a fixed point
        # that the sample closes in on to 1e-9
        (conjugate(chebyshev(5), AffineMap(0.7 - 1.1j, 0.3 + 0.2j)), [0]),
        (monomial(1, 2), [0]),
    ], ids=["basilica", "cubic", "T4", "T5-conjugate", "z^2"])
    def test_julia_samples_match_the_stack_chain(self, p, seeds):
        for seed in seeds:
            pts = sample_julia(p, 20_000, seed=seed).points
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(geometry, "_candidates", lambda p, scale: np.arange(p.size))
                unfiltered = convex_hull(pts)
            assert np.array_equal(convex_hull(pts).vertices, unfiltered.vertices)
            TestHullReference._assert_matches(pts)

    def test_point_beside_a_vertex_is_a_vertex_too(self):
        # -1j and a point 5e-84 left of it, which the interior point before
        # it splits from -1j in the sort: both are extreme
        tiny = -4.966197415073449e-84
        pts = np.array([1j, -1j, 1, -1, tiny, tiny - 1j])
        TestHullReference._assert_matches(pts)
        hull = convex_hull(pts)
        assert -1j in hull.vertices and tiny - 1j in hull.vertices

    def test_basilica_sorts_few_points(self, monkeypatch):
        # the octagon alone leaves about a third of a basilica sample
        counts = _count_sorted_points(monkeypatch)
        n = 100_000
        convex_hull(sample_julia(Polynomial([-1, 0, 1]), n, seed=0))
        assert len(counts) == 1 and counts[0] <= 0.05 * n

    @pytest.mark.parametrize("cloud", [
        np.exp(2j * np.pi * np.arange(20_000) / 20_000),
        (0.6 - 0.8j) * np.linspace(-1, 1, 20_000),
    ], ids=["circle", "segment"])
    def test_convex_position_keeps_every_point(self, monkeypatch, cloud):
        counts = _count_sorted_points(monkeypatch)
        convex_hull(cloud)
        assert counts == [cloud.size]

    @settings(max_examples=80, deadline=None)
    @given(st.floats(0, 2 * np.pi), st.floats(-12, -6), st.floats(-3, 3),
           st.floats(0, 1), st.integers(3, 2000), st.integers(0, 2 ** 32 - 1))
    def test_tilted_slivers_match_the_stack_chain(self, angle, log_width, log_offset,
                                                  turn, count, seed):
        # a segment blurred across by 1e-12 to 1e-6 of its length, turned
        # and shifted by up to 1e3: the Julia set of a Chebyshev conjugate
        rng = np.random.default_rng(seed)
        t = rng.uniform(-1, 1, count)
        across = 10.0 ** log_width * rng.normal(size=count)
        shift = 10.0 ** log_offset * np.exp(2j * np.pi * turn)
        pts = np.exp(1j * angle) * (t + 1j * across) + shift
        TestPrefilter._assert_keeps_vertices(pts)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(geometry, "_candidates", lambda p, scale: np.arange(p.size))
            unfiltered = convex_hull(pts)
        hull = convex_hull(pts)
        assert hull.kind == unfiltered.kind
        assert np.array_equal(hull.vertices, unfiltered.vertices)
        TestHullReference._assert_matches(pts)

    @pytest.mark.parametrize("key", ["cheb4", "cheb5-conjugate"])
    def test_thin_julia_samples_sort_few_points(self, monkeypatch, tmp_path, key):
        # the prefilter keeps at most 1000 points beyond those it may not
        # drop: the ones within _PREFILTER_DEPTH * scale of the hull's
        # boundary
        sizes = []
        original = geometry._sort_distinct

        def counted(pts):
            sizes.append(pts.size)
            return original(pts)

        monkeypatch.setattr(geometry, "_sort_distinct", counted)
        workloads = runpy.run_path(str(Path(__file__).resolve().parent.parent
                                       / "perfbench" / "workloads.py"))
        op = next(op for op in workloads["make_workload"]("equality-suite", 0, tmp_path)
                  if op.key == key)
        pts = sample_julia(parse_polynomial(op.poly).polynomial, 100_000, seed=0).points
        hull = convex_hull(pts)
        scale = max(np.ptp(pts.real), np.ptp(pts.imag))
        bound = (signed_distance(hull, pts) > -_PREFILTER_DEPTH * scale).sum()
        assert sizes[-1] <= bound + 1000


# Values that tie: signed zeros, subnormals, and a few round numbers.
_tying_floats = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-309,
                                 0.5, -1.0, 3.0])
_sort_inputs = st.lists(
    st.builds(complex,
              st.one_of(_tying_floats, st.floats(-5, 5, allow_nan=False)),
              st.one_of(_tying_floats, st.floats(-5, 5, allow_nan=False))),
    min_size=1, max_size=60)


@st.composite
def _turn_triples(draw):
    """Triples (a, b, c) of complex arrays at the orientation predicate's hard cases.

    ``line``: rounded points a + t d of a line, so that most turns are
    tiny and of either sign, some nudged off it by an ulp; ``diagonal``:
    points (t, t), (t, -t) or (t, 2t) with t from 1e-30 to 1e30, exactly
    collinear though their differences round; ``zeros``: coordinates from
    a few round values and both signed zeros; ``tiny``: subnormal and
    near-subnormal coordinates; ``underflow``: coordinates of 1e-320 to
    1e-150, whose products underflow.  Half of them are scaled by 2^k, k
    from -1000 to 1000, where they stay finite.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["line", "diagonal", "zeros", "tiny", "underflow"]))
    shape = (3, draw(st.integers(1, 64)))
    if kind == "line":
        start, step = rng.normal(size=2) + 1j * rng.normal(size=2)
        pts = start + step * rng.uniform(-1, 1, shape)
        x, y = pts.real, pts.imag
        x[1] += draw(st.sampled_from([0, 1, -2])) * np.spacing(x[1])
    elif kind == "diagonal":
        x = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-30, 30, shape)
        y = draw(st.sampled_from([1.0, -1.0, 2.0])) * x
    elif kind == "zeros":
        values = np.array([0.0, -0.0, 0.5, -1.0, 3.0])
        x, y = rng.choice(values, shape), rng.choice(values, shape)
    elif kind == "tiny":
        values = np.array([0.0, -0.0, 5e-324, -1e-323, 1e-310, -2.5e-309, 2.0 ** -1022,
                           1e-300, 1.0])
        x, y = rng.choice(values, shape), rng.choice(values, shape)
    else:
        x, y = 10.0 ** rng.uniform(-320, -150, (2,) + shape) * rng.normal(size=(2,) + shape)
    if draw(st.booleans()):
        exponent = draw(st.integers(-1000, 1000))
        with np.errstate(over="ignore"):
            x, y = np.ldexp(x, exponent), np.ldexp(y, exponent)
    assume(np.isfinite(x).all() and np.isfinite(y).all())
    pts = np.empty(shape, dtype=np.complex128)
    pts.real, pts.imag = x, y  # keeps signed zeros, which 1j * y would not
    return pts[0], pts[1], pts[2]


class TestOrientation:
    """The exact orientation predicate against rational arithmetic."""

    @settings(max_examples=500, deadline=None)
    @given(_turn_triples())
    # both products underflow to 0, though the turn is left
    @example((np.array([1e-300 + 0j]), np.array([1e-300j]), np.array([0j])))
    # products overflow to inf
    @example((np.array([1e300 + 0j]), np.array([1e300j]), np.array([-1e300 - 1e300j])))
    def test_signs_match_rationals(self, triples):
        a, b, c = triples
        got = np.sign(geometry._orientation(a, b, c))
        expected = [_exact_turn(*t) for t in zip(a.tolist(), b.tolist(), c.tolist())]
        assert got.tolist() == expected

    def test_scalar_ends_broadcast(self):
        # the chord's side: two scalar ends against an array of points
        pts = np.array([0.5 + 1e-17j, 0.5, 0.5 - 1e-17j, 2 + 0j])
        got = np.sign(geometry._orientation(0j, 1 + 0j, pts))
        assert got.tolist() == [1.0, 0.0, -1.0, 0.0]


class TestExactPrefilters:
    """Each shortcut of the hull and its polygon is bitwise the formula it skips."""

    @settings(max_examples=150, deadline=None)
    @given(_sort_inputs)
    @example([complex(0.0, 1.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, 1.0)])
    @example([complex(5e-324, 1.0), complex(-5e-324, 2.0), complex(1e-310, 0.0),
              complex(-2.5e-309, 3.0)])  # distinct subnormal real parts
    @example([complex(1.0, 2.0)] * 3 + [complex(0.5, 2.0)] * 2)  # exact duplicates
    def test_sort_matches_the_stable_complex_sort(self, pts):
        # the argsort of the real parts, and the tied runs sorted again
        pts = np.array(pts, dtype=np.complex128)
        got, ref = geometry._sort_distinct(pts), _stable_sort_distinct(pts)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(planar_points.map(np.array), _hard_clouds()))
    def test_diameter_measures_each_farthest_candidate_once(self, pts):
        hull = convex_hull(pts)
        assume(hull.kind == PROPER)
        _assert_measures_farthest_once(hull)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(3, 9), st.floats(-17, 0))
    def test_validation_matches_the_rolled_check(self, seed, n, log_bend):
        # convex polygons with a vertex near a chord or a duplicate, and
        # shuffled ones, are accepted or refused as by rational turns
        rng = np.random.default_rng(seed)
        v = np.exp(2j * np.pi * np.sort(rng.uniform(size=n)))
        k = int(rng.integers(n))
        mid = 0.5 * (v[k - 1] + v[(k + 1) % n])
        v[k] = mid + (v[k] - mid) * 10.0 ** log_bend
        if rng.uniform() < 0.2:
            v[k] = v[k - 1]
        if rng.uniform() < 0.2:
            rng.shuffle(v)
        expected = _rational_proper_check(v)
        try:
            ConvexPolygon(v, PROPER)
            got = None
        except ValueError as err:
            got = str(err)
        assert got == expected

    @pytest.mark.parametrize("name", ["circle", "gauss", "parabola", "regular-polygon"])
    def test_cached_edge_data_match_the_rolled_formulas(self, name):
        hull = convex_hull(_fixed_clouds()[name])
        v = hull.vertices
        assert np.array_equal(hull._edge_angles, _rolled_edge_angles(v))
        for count in (1, 7, 4096):
            assert np.array_equal(boundary_points(hull, count).view(np.uint64),
                                  _rolled_boundary_points(v, count).view(np.uint64))


class TestMinAreaRectangle:
    """The preimage-convexity check draws its targets from this rectangle."""

    @settings(max_examples=150, deadline=None)
    @given(planar_points, st.floats(0, 2 * np.pi), st.floats(0.01, 1))
    def test_holds_every_vertex_in_no_more_area_than_the_box(self, pts, angle, squash):
        pts = np.exp(1j * angle) * (np.array(pts).real + 1j * squash * np.array(pts).imag)
        self._assert_least_rectangle(convex_hull(pts))

    @pytest.mark.parametrize("seed", range(3))
    def test_micro_edge_hulls(self, seed):
        hull = convex_hull(_micro_edge_cloud(seed, 16))
        assert np.abs(np.diff(hull.vertices)).min() < 4 * np.spacing(3.0)
        self._assert_least_rectangle(hull)

    @staticmethod
    def _assert_least_rectangle(hull):
        v = hull.vertices
        corner, axis, width, height = geometry._min_area_rectangle(hull)
        assert abs(abs(axis) - 1.0) <= 1e-15 and width >= 0.0 and height >= 0.0
        scale = max(np.ptp(v.real), np.ptp(v.imag), 1e-300)
        local = (v - corner) * np.conj(axis)
        slack = 1e-12 * scale
        assert local.real.min() >= -slack and local.real.max() <= width + slack
        assert local.imag.min() >= -slack and local.imag.max() <= height + slack
        # areas are rounded by some 1e-16 * scale**2, which matters for thin hulls
        area_slack = 1e-12 * scale * scale
        assert width * height <= np.ptp(v.real) * np.ptp(v.imag) + area_slack
        if hull.kind == PROPER:
            # the least area over all edge directions, one edge at a time
            areas = []
            for k in range(v.size):
                u = v[(k + 1) % v.size] - v[k]
                frame = (v - v[k]) * np.conj(u / abs(u))
                areas.append(np.ptp(frame.real) * np.ptp(frame.imag))
            assert width * height == pytest.approx(min(areas), rel=1e-9, abs=area_slack)

    def test_turned_segment_hull(self):
        # a thin hull at 55 degrees: the axis-parallel box is 1e5 times larger
        t = np.linspace(-1, 1, 50)
        pts = np.exp(0.96j) * (t + 1e-6j * (1 - t * t))
        corner, axis, width, height = geometry._min_area_rectangle(convex_hull(pts))
        box = np.ptp(pts.real) * np.ptp(pts.imag)
        assert width * height <= 1e-5 * box
        assert width == pytest.approx(2.0, rel=1e-9)


class TestSignedDistance:
    def test_square_center(self, square):
        hull = convex_hull(square)
        assert signed_distance(hull, 0.5 + 0.5j) == pytest.approx(-0.5)

    def test_square_outside(self, square):
        hull = convex_hull(square)
        assert signed_distance(hull, 2 + 0.5j) == pytest.approx(1.0)

    def test_segment_distance_is_nonnegative(self):
        seg = convex_hull(np.array([-1.0, 1.0]))
        assert signed_distance(seg, 1j) == pytest.approx(1.0)
        assert signed_distance(seg, 0.0) == pytest.approx(0.0, abs=1e-15)


def _plain_segment_distance(z: complex, a: complex, b: complex) -> float:
    """Distance from z to [a, b] by clamped projection, in plain Python."""
    e = b - a
    len2 = e.real * e.real + e.imag * e.imag
    t = 0.0 if len2 == 0.0 else min(1.0, max(0.0, ((z - a) * e.conjugate()).real / len2))
    return abs(z - (a + t * e))


def _plain_signed_distance(vertices: list, kind: str, z: complex) -> float:
    if kind == POINT:
        return abs(z - vertices[0])
    edges = list(zip(vertices, vertices[1:] + vertices[:1]))
    dist = min(_plain_segment_distance(z, a, b) for a, b in edges)
    inside = kind == PROPER and all(
        (b - a).real * (z - a).imag - (b - a).imag * (z - a).real >= 0.0
        for a, b in edges)
    return -dist if inside else dist


finite = st.floats(-9, 9, allow_nan=False)
plane_point = st.builds(complex, finite, finite)


class TestDistanceReference:
    """The clamp-projection kernels against a plain-Python brute force."""

    @settings(max_examples=60, deadline=None)
    @given(planar_points, st.sampled_from([PROPER, SEGMENT, POINT]),
           st.lists(plane_point, min_size=1, max_size=20))
    def test_signed_distance(self, pts, shape, queries):
        pts = np.array(pts)
        if shape == SEGMENT:
            pts = 0.3 - 0.7j + pts.real * (1 + 2j)
        elif shape == POINT:
            pts = pts[:1]
        hull = convex_hull(pts)
        got = signed_distance(hull, np.array(queries))
        verts = hull.vertices.tolist()
        scale = max(1.0, np.abs(pts).max(), np.abs(queries).max())
        for z, value in zip(queries, got):
            ref = _plain_signed_distance(verts, hull.kind, z)
            assert abs(value - ref) <= 1e-12 * scale

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(plane_point, plane_point, st.booleans()),
                    min_size=1, max_size=12),
           st.lists(plane_point, min_size=1, max_size=20))
    def test_distance_to_segments_with_zero_length_ones(self, segments, queries):
        starts = np.array([a for a, _, _ in segments])
        ends = np.array([a if zero else b for a, b, zero in segments])
        got = distance_to_segments(np.array(queries), starts, ends)
        for z, value in zip(queries, got):
            ref = min(_plain_segment_distance(z, a, b)
                      for a, b in zip(starts.tolist(), ends.tolist()))
            assert abs(value - ref) <= 1e-12 * max(1.0, abs(z), np.abs(starts).max())

    def test_segment_with_subnormal_squared_length(self):
        # 6.7e-156 squared is 4.5e-311, whose inverse overflows; the segment
        # counts as zero-length, which errs by about its own length
        tip = 6.709607484364434e-156j
        seg = convex_hull(np.array([0j, tip]))
        assert seg.kind == SEGMENT
        got = signed_distance(seg, np.array([0j, tip, 1 + 0j]))
        assert np.abs(got - [0.0, 0.0, 1.0]).max() <= 2 * abs(tip)


def _kernel(vertices: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """``geometry._polygon_distance_kernel`` on the proper polygon of these vertices."""
    return geometry._polygon_distance_kernel(ConvexPolygon(vertices, PROPER), pts)


def _all_edges_kernel(vertices: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Signed distances measured on every edge: the window kernel's reference."""
    vx, vy = vertices.real, vertices.imag
    ex = np.roll(vx, -1) - vx
    ey = np.roll(vy, -1) - vy
    inv_len2 = geometry._inverse_len2(ex, ey)
    rx = pts.real[:, None] - vx[None, :]
    ry = pts.imag[:, None] - vy[None, :]
    dx, dy = geometry._clamp_offsets(rx, ry, ex, ey, inv_len2)
    dist = np.sqrt((dx * dx + dy * dy).min(axis=1))
    inside = ((ex * ry - ey * rx) >= 0.0).all(axis=1)
    return np.where(inside, -dist, dist)


@st.composite
def _window_cases(draw, max_count=600):
    """(vertices, queries): polygons at the kernel's tolerances, hard queries.

    Up to ``max_count`` points on a curve, or a sixth of that many with
    ulp-long edges beside each.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    count = draw(st.integers(3, max_count))
    if draw(st.booleans()):
        theta = 2 * np.pi * (np.arange(count) + rng.uniform()) / count
    else:
        theta = np.sort(rng.uniform(0, 2 * np.pi, count))
    if draw(st.booleans()):
        # micro-edges: a second vertex 1e-11 further along the curve
        theta = np.sort(np.concatenate([theta, theta[:rng.integers(1, 8)] + 1e-11]))
    thin = draw(st.sampled_from([1.0, 0.3, 1e-6]))
    scale = 10.0 ** draw(st.floats(-5, 5))
    offset = draw(st.sampled_from([0.0, 1.0, 1e3])) * scale * np.exp(2j * np.pi * rng.uniform())
    pts = scale * np.exp(2j * np.pi * rng.uniform()) * (np.cos(theta) + 1j * thin * np.sin(theta))
    if draw(st.integers(0, 3)) == 0:
        # edges down to one ulp, at scale 3
        scale, offset = 3.0, 0.0
        pts = _micro_edge_cloud(int(rng.integers(2 ** 32)), min(count, max_count // 6))
    hull = convex_hull(pts + offset)
    assume(hull.kind == PROPER)
    v = hull.vertices
    n = v.size
    pick = rng.integers(0, n, (64, 4))
    weights = rng.dirichlet(np.ones(4), 64)
    lo, hi = v.real.min() + 1j * v.imag.min(), v.real.max() + 1j * v.imag.max()
    box = 1.5 * (hi - lo)
    near = rng.integers(0, n, 64)
    queries = np.concatenate([
        (v[pick] * weights).sum(axis=1),                          # Dirichlet interior
        lo - 0.25 * (hi - lo) + box.real * rng.uniform(size=64)
        + 1j * box.imag * rng.uniform(size=64),                   # uniform box
        v,                                                        # vertices
        0.5 * (v + np.roll(v, -1)),                               # edge midpoints
        v[near] + scale * 10.0 ** rng.uniform(-15, -3, 64)
        * np.exp(2j * np.pi * rng.uniform(size=64)),              # near-vertex jitter
        v.mean() + scale * 10.0 ** rng.uniform(1, 4, 16)
        * np.exp(2j * np.pi * rng.uniform(size=16)),              # far away
    ])
    return v, queries


class TestWindowKernel:
    """The three-edge window kernel against the all-edges reference."""

    @settings(max_examples=300, deadline=None)
    @given(_window_cases())
    def test_matches_all_edges_reference(self, case):
        v, queries = case
        got = _kernel(v, queries)
        ref = _all_edges_kernel(v, queries)
        scale = max(np.ptp(v.real), np.ptp(v.imag))
        near = np.abs(queries[:, None] - v[None, :]).min(axis=1)
        bound = 8 * np.finfo(float).eps * np.maximum(scale, near)
        assert (np.abs(got - ref) <= bound).all()
        beyond = np.abs(ref) > bound
        assert np.array_equal(np.sign(got[beyond]), np.sign(ref[beyond]))

    @staticmethod
    def _check_queries(monkeypatch, p, cfg):
        """Every (polygon, points) that the checks and the classifier measure."""
        calls = []

        def recording(polygon, z):
            calls.append((polygon, np.atleast_1d(np.asarray(z, dtype=np.complex128)).ravel()))
            return signed_distance(polygon, z)

        monkeypatch.setattr(checks, "signed_distance", recording)
        ctx = build_context(p, cfg)
        run_checks(ctx)
        classify_equality(ctx)
        return calls

    @staticmethod
    def _assert_bit_equal_but_ties(v, pts):
        """Bit-equal to the reference, except where edges outside one window tie.

        At such a point (the center of a symmetric hull) the window may
        measure another of the equal distances than the reference's least.
        """
        got = _kernel(v, pts)
        ref = _all_edges_kernel(v, pts)
        bound = 8 * np.finfo(float).eps * max(np.ptp(v.real), np.ptp(v.imag), np.abs(pts).max())
        assert np.abs(got - ref).max() <= bound
        differs = np.flatnonzero(got.view(np.uint64) != ref.view(np.uint64))
        vx, vy = v.real, v.imag
        ex, ey = np.roll(vx, -1) - vx, np.roll(vy, -1) - vy
        for i in differs:
            dx, dy = geometry._clamp_offsets(pts[i].real - vx, pts[i].imag - vy, ex, ey,
                                             geometry._inverse_len2(ex, ey))
            tied = np.flatnonzero(np.sqrt(dx * dx + dy * dy) <= abs(ref[i]) + bound)
            # the tied edges span more than three consecutive ones
            span = v.size - np.diff(np.concatenate([tied, tied[:1] + v.size])).max()
            assert span > 2, f"no tie at {pts[i]!r}"
        return differs.size

    @pytest.mark.parametrize("p, ties", [
        (Polynomial([-1, 0, 1]), 2),
        (Polynomial([-0.12 + 0.74j, 0, 1]), 1),
        (Polynomial([0.3 - 0.2j, 0.1j, -0.5, 1]), 1),
        (chebyshev(4), 1),
        (conjugate(chebyshev(5), AffineMap(0.7 - 1.1j, 0.3 + 0.2j)), 1),
        (monomial(1, 2), 1),
    ], ids=["basilica", "rabbit", "cubic", "T4", "T5-conjugate", "z^2"])
    def test_bit_equal_on_check_queries(self, monkeypatch, fast_cfg, p, ties):
        calls = self._check_queries(monkeypatch, p, fast_cfg)
        assert calls
        # a conjugation-symmetric hull (the basilica's) holds two real-axis
        # queries equidistant, to one ulp, from a pair of mirror-image edges
        for polygon, pts in calls:
            if polygon.kind == PROPER:
                assert self._assert_bit_equal_but_ties(polygon.vertices, pts) <= ties

    def test_bit_equal_on_a_512_vertex_circle(self, monkeypatch, fast_cfg, squaring):
        # the queries of the squaring map's checks, on a regular 512-gon
        circle = convex_hull(np.exp(2j * np.pi * np.arange(512) / 512))
        assert circle.kind == PROPER and circle.vertices.size == 512
        pts = np.concatenate([z for _, z in self._check_queries(monkeypatch, squaring, fast_cfg)])
        assert self._assert_bit_equal_but_ties(circle.vertices, pts) <= 1


def _full_scan_kernel(vertices: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """The window kernel with each point's least line found by a scan of every edge.

    The search's reference: k* is the least index among exact ties, and a
    line outside the window within ``_LINE_SLACK * D`` of the least sends
    the point to every edge.
    """
    vx, vy = vertices.real, vertices.imag
    ex = np.roll(vx, -1) - vx
    ey = np.roll(vy, -1) - vy
    inv_len2 = geometry._inverse_len2(ex, ey)
    length = np.hypot(ex, ey)
    ux, uy = ex / length, ey / length
    window = np.arange(-1, 2)
    slack = geometry._LINE_SLACK * (np.abs(pts - vertices[0])
                                    + 2.0 * max(np.ptp(vx), np.ptp(vy)))

    def measure(qx, qy, k):
        rx, ry = qx - vx[k], qy - vy[k]
        wx, wy = ex[k], ey[k]
        dx, dy = geometry._clamp_offsets(rx, ry, wx, wy, inv_len2[k])
        dist = np.sqrt((dx * dx + dy * dy).min(axis=1))
        inside = ((wx * ry - wy * rx) >= 0.0).all(axis=1)
        return np.where(inside, -dist, dist)

    out = np.empty(pts.size)
    for lo in range(0, pts.size, 64):
        qx, qy = pts[lo:lo + 64].real[:, None], pts[lo:lo + 64].imag[:, None]
        line = (qy - vy) * ux - (qx - vx) * uy
        rows = np.arange(qx.size)[:, None]
        least = line.argmin(axis=1)[:, None]
        k = (least + window) % vertices.size
        out[lo:lo + 64] = measure(qx, qy, k)
        reach = line[rows, least] + slack[lo:lo + 64, None]
        line[rows, k] = np.inf
        wide = np.flatnonzero(line.min(axis=1) <= reach[:, 0])
        out[lo + wide] = measure(qx[wide], qy[wide], np.arange(vertices.size))
    return out


def _assert_same_bits(got: np.ndarray, ref: np.ndarray):
    differs = np.flatnonzero(got.view(np.uint64) != ref.view(np.uint64))
    assert differs.size == 0, f"{differs.size} differ, first at {differs[0]}"


def _symmetric_polygon(count: int, radius: float) -> np.ndarray:
    """The vertices of a ``count``-gon whose vertices are exact mirror images in the real axis."""
    upper = radius * np.exp(1j * np.pi * (np.arange(count // 2) + 0.5) / (count // 2))
    return convex_hull(np.concatenate([upper, upper.conj()])).vertices


class TestEdgeSearch:
    """The searched edge runs of the distance kernel against the full scan, bit for bit."""

    @settings(max_examples=120, deadline=None)
    @given(_window_cases(max_count=4096))
    def test_matches_the_full_scan(self, case):
        v, queries = case
        _assert_same_bits(_kernel(v, queries),
                          _full_scan_kernel(v, queries))

    @settings(max_examples=120, deadline=None)
    @given(_window_cases(max_count=4096))
    def test_runs_hold_every_line_within_the_scans_reach(self, case):
        # the certificate itself, on polygons of every size: each line the
        # scan compares with its least is in the run, and the run picks the
        # scan's least edge (the least index on exact ties) and near ties
        v, queries = case
        e = ConvexPolygon(v, PROPER)._edges
        slack = geometry._LINE_SLACK * (np.abs(queries - v[0]) + e.extent)
        first, count = geometry._edge_runs(e, queries, slack)
        rows = np.arange(0, queries.size, max(1, queries.size // 256))  # bounds the line matrix
        q = queries[rows]
        ex, ey = np.roll(v.real, -1) - v.real, np.roll(v.imag, -1) - v.imag
        length = np.hypot(ex, ey)
        line = ((q.imag[:, None] - v.imag) * (ex / length)
                - (q.real[:, None] - v.real) * (ey / length))
        least = line.argmin(axis=1)
        within = line <= (line[np.arange(rows.size), least] + slack[rows])[:, None]
        # the place of each edge in the run
        place = (np.arange(v.size) - first[rows, None]) % v.size
        assert (place < count[rows, None])[within].all()
        got_least, got_wide = geometry._least_on_runs(e, q, slack[rows], first[rows], count[rows])
        assert np.array_equal(got_least, least)
        window = (np.arange(v.size) - least[:, None] + 1) % v.size <= 2
        assert np.array_equal(got_wide, (within & ~window).any(axis=1))

    def test_circle_queries_take_short_runs(self, monkeypatch, fast_cfg, squaring):
        # the squaring map's check queries against a regular 512-gon: nearly
        # every point is measured on a run of at most 3 edges, and the
        # center, where every line ties, on every edge
        circle = convex_hull(np.exp(2j * np.pi * np.arange(512) / 512)).vertices
        calls = TestWindowKernel._check_queries(monkeypatch, squaring, fast_cfg)
        pts = np.concatenate([z for _, z in calls] + [np.zeros(1), circle.mean(keepdims=True)])
        e = ConvexPolygon(circle, PROPER)._edges
        slack = geometry._LINE_SLACK * (np.abs(pts - circle[0]) + e.extent)
        _, count = geometry._edge_runs(e, pts, slack)
        assert (count <= 3).mean() > 0.99
        assert (count[-2:] == circle.size).all()
        _assert_same_bits(_kernel(circle, pts),
                          _full_scan_kernel(circle, pts))

    def test_exact_ties_at_the_center_of_a_regular_512_gon(self):
        # the vertices and the center are exactly symmetric under quarter
        # turns, so the lines of edges k and k + 128 tie exactly there
        quarter = np.exp(2j * np.pi * (np.arange(128) + 0.5) / 512)
        circle = convex_hull(np.concatenate([quarter * 1j ** m for m in range(4)])).vertices
        assert circle.size == 512
        pts = np.array([0j, 1e-300, 1e-17 + 1e-17j, 0.5, 0.5j, -0.5])
        _assert_same_bits(_kernel(circle, pts),
                          _full_scan_kernel(circle, pts))

    @pytest.mark.parametrize("n", [16, 512])
    def test_no_queries(self, n):
        hull = convex_hull(np.exp(2j * np.pi * np.arange(n) / n))
        assert signed_distance(hull, np.zeros((0, 3), dtype=complex)).shape == (0, 3)

    def test_near_ties_on_short_runs_near_the_center(self):
        # within 1e-6 of the center of a regular n-gon, lines beyond the
        # window come within the slack of the least on runs shorter than the
        # polygon, so the margins of the certificate decide what is compared
        rng = np.random.default_rng(1)
        for n in (256, 512, 4096):
            v = convex_hull(3 * np.exp(2j * np.pi * np.arange(n) / n) + (0.5 - 2j)).vertices
            pts = v.mean() + 10.0 ** rng.uniform(-14, -6, 4000) * np.exp(
                2j * np.pi * rng.uniform(size=4000))
            e = ConvexPolygon(v, PROPER)._edges
            slack = geometry._LINE_SLACK * (np.abs(pts - v[0]) + e.extent)
            first, count = geometry._edge_runs(e, pts, slack)
            _, wide = geometry._least_on_runs(e, pts, slack, first, count)
            short = count < n
            assert short.sum() > 3000 and wide[short].sum() > 1000
            _assert_same_bits(_kernel(v, pts), _full_scan_kernel(v, pts))

    def test_exact_ties_at_the_vertices_of_an_axis_parallel_edge(self):
        # the first vertex closes a vertical edge, so the lines of edges
        # n - 1 and 0 both read exactly 0 there; the least index must win
        arc = np.exp(1j * np.linspace(-0.4 * np.pi, 0.4 * np.pi, 600)) + 1.0
        v = convex_hull(np.concatenate([arc, [-1 - 0.5j, -1 + 0.5j]])).vertices
        assert v[0] == -1 - 0.5j and v[-1] == -1 + 0.5j and v.size >= 256
        pts = np.concatenate([v, 0.5 * (v + np.roll(v, -1))])
        _assert_same_bits(_kernel(v, pts), _full_scan_kernel(v, pts))

    def test_basilica_real_axis_queries(self, monkeypatch, fast_cfg, basilica):
        # a conjugation-symmetric hull holds real-axis queries equidistant,
        # to an ulp, from mirror-image edges: near ties beyond the window
        calls = TestWindowKernel._check_queries(monkeypatch, basilica, fast_cfg)
        pts = np.concatenate([z for _, z in calls])
        pts = pts[pts.imag == 0.0]
        assert pts.size
        for v in (calls[0][0].vertices, _symmetric_polygon(512, np.abs(pts).max())):
            _assert_same_bits(_kernel(v, pts),
                              _full_scan_kernel(v, pts))

    @pytest.mark.parametrize("case", ["regular-512-gon", "rotated-z^3"])
    def test_runs_of_every_edge(self, case):
        # where every line nearly ties, the run holds every edge: at the
        # vertex centroid of a regular 512-gon, and at the critical point 0
        # of a rotated z^3, against the query hull of its seed-0 checks
        if case == "regular-512-gon":
            v = convex_hull(np.exp(2j * np.pi * np.arange(512) / 512)).vertices
            centre = v.mean()
        else:
            v = build_context(monomial(0.6 + 0.8j, 3), CheckConfig(seed=0)).hull_query.vertices
            centre = 0j
        assert v.size == 512
        pts = centre + np.array([0.0, 1e-15, 1e-14j, -1e-14])
        e = ConvexPolygon(v, PROPER)._edges
        slack = geometry._LINE_SLACK * (np.abs(pts - v[0]) + e.extent)
        assert (geometry._edge_runs(e, pts, slack)[1] == v.size).all()
        _assert_same_bits(_kernel(v, pts), _full_scan_kernel(v, pts))


def _bracket_line(e, q: complex) -> float:
    """D0 of ``_edge_runs``: the least computed line at q of the two edges whose normals bracket q - c."""
    c, _ = e.center
    normal = np.arctan2(-e.ux, e.uy)  # of the outward normal (uy, -ux)
    after = int(np.argmin(np.mod(normal - np.angle(q - c), 2.0 * np.pi)))
    return e.lines(q.real, q.imag, np.array([after - 1, after]) % e.vx.size).min()


def _reaches(e, q: complex, k: int, turn: float = 0.0) -> bool:
    """Whether edge k's outward normal, turned by ``turn`` towards q - c, lies in q's arc.

    The arc of ``_edge_runs``, taken exactly: the normals n with
    <q - c, n> >= rho - B, B = D0 plus twice the slack, in rational
    arithmetic on the floats of ``_Edges``.  The turn's cosine and sine are
    cut to two terms of their series, far below an ulp for the turns here.
    """
    c, rho = e.center
    slack = geometry._LINE_SLACK * (abs(q - e.vertices[0]) + e.extent)
    arc = Fraction(rho) - Fraction(_bracket_line(e, q)) - 2 * Fraction(slack)
    dx, dy = Fraction(q.real) - Fraction(c.real), Fraction(q.imag) - Fraction(c.imag)
    nx, ny = Fraction(e.uy[k]), -Fraction(e.ux[k])
    cos, sin = 1 - Fraction(turn) ** 2 / 2, Fraction(turn) - Fraction(turn) ** 3 / 6
    return max(dx * (nx * cos - side * ny * sin) + dy * (ny * cos + side * nx * sin)
               for side in (1, -1)) >= arc


def _bisect_to_arc_edge(e, point, inside: float, outside: float, k: int,
                        turn: float) -> complex:
    """point(s) at the s between inside and outside where edge k's normal, turned, leaves the arc.

    ``point(inside)`` must reach edge k turned by ``turn``, and
    ``point(outside)`` not; the query found reaches it only turned, so its
    normal lies outside the exact arc by at most ``turn``.
    """
    assert _reaches(e, point(inside), k, turn) and not _reaches(e, point(outside), k, turn)
    while (mid := 0.5 * (inside + outside)) not in (inside, outside):
        if _reaches(e, point(mid), k, turn):
            inside = mid
        else:
            outside = mid
    q = point(inside)
    assert _reaches(e, q, k, turn) and not _reaches(e, q, k)
    return q


def _in_runs(e, pts: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Whether each point's run of ``_edge_runs`` holds its edge, and its arc's cosine."""
    slack = geometry._LINE_SLACK * (np.abs(pts - e.vertices[0]) + e.extent)
    first, count = geometry._edge_runs(e, pts, slack)
    assert (count < e.vx.size).all()
    return (edges - first) % e.vx.size < count


class TestEdgeRunMargins:
    """Each safety margin of ``_edge_runs``, on an input where dropping it changes the run.

    A normal placed just outside its exact arc by a turn must still be in
    the run.  The cosine margin widens the arc by 2^-48 cos / sin of its
    half-angle, and ``_ANGLE_SLACK`` by 2^-40: on arcs near a right angle
    the first is about 1e-17 rad and only the second reaches a turn of
    2^-42, and on arcs of 1e-4 rad the first is 3.6e-11 and only it
    reaches 2^-37.  Neither covers the other's error, so both stay.
    """

    def test_angle_tables_are_sorted_through_rounding_inversions(self):
        # arctan2 is not promised to be monotone, so two edges an ulp apart
        # in direction may compute out of order, and a turn at vertex 0
        # below the rounding puts the last edge past the first one turn on
        first = 0.25
        raw = np.array([first, 1.0, np.nextafter(1.0, 0.0), 2.0, 3.0, -3.0, -1.0,
                        first + np.spacing(2.0 * np.pi)])
        unwrapped = raw + 2.0 * np.pi * (np.arange(raw.size) >= 5)
        angle = geometry._unwrapped_angles(raw)
        assert (np.diff(angle) >= 0.0).all()
        assert (np.abs(angle - unwrapped) <= np.spacing(unwrapped)).all()
        assert angle[-1] - 2.0 * np.pi > angle[0]
        assert (np.diff(geometry._angle_ring(angle)) >= 0.0).all()

    @pytest.mark.parametrize("n, turn", [(256, 2.0 ** -42), (512, 2.0 ** -42),
                                         (2 ** 15, 2.0 ** -37)],
                             ids=["256", "512", "narrow"])
    def test_runs_reach_past_their_exact_arc(self, n, turn):
        # a query nearly equidistant from the lines of edges k - 1 and k of
        # a regular n-gon, placed so that the normal of edge k lies just
        # outside its exact arc, by ``turn`` or less; the run's margins
        # reach past that.  The arcs are about pi / n wide: 0.006 rad at
        # n = 512, where either margin alone reaches 2^-42, and 1e-4 rad at
        # 2^15, where only the cosine margin reaches 2^-37
        v = convex_hull(np.exp(2j * np.pi * np.arange(n) / n) + (0.5 - 2j)).vertices
        e = ConvexPolygon(v, PROPER)._edges
        c, _ = e.center
        normal = np.unwrap(np.arctan2(-e.ux, e.uy))
        radius = 0.5 * np.abs(v - c).min()
        edges = np.random.default_rng(n).choice(n - 1, 32, replace=False) + 1
        pts = np.array([
            _bisect_to_arc_edge(e, lambda s: c + radius * np.exp(1j * s),
                                0.5 * (normal[k - 1] + normal[k]),
                                0.5 * (normal[k - 1] + normal[k]) - 1e-6, k, turn)
            for k in edges])
        assert _in_runs(e, pts, edges).all()

    def test_wide_runs_reach_past_their_exact_arc(self):
        # on an ellipse of axes 1 and 0.05, a query q = c + r, 0.9 <= r <=
        # 0.99, has D0 = 1 - r from the edges at the tip, so its arc's
        # cosine, (rho - D0 - 2 slack) / r, is within 0.06 of 0: the arc is
        # a half-turn wide, and its edge lies among the normals near
        # +-pi/2.  There the cosine margin widens it by under 1e-17 rad,
        # and only ``_ANGLE_SLACK`` reaches a normal 2^-42 outside it.
        n, turn = 512, 2.0 ** -42
        t = 2.0 * np.pi * np.arange(n) / n
        v = convex_hull(np.cos(t) + 0.05j * np.sin(t) + (0.5 - 2j)).vertices
        e = ConvexPolygon(v, PROPER)._edges
        c, rho = e.center
        psi = np.abs(np.arctan2(-e.ux, e.uy))  # of the outward normal, from +x
        cos_lo, cos_hi = ((rho - (1.0 - r)) / r for r in (0.9, 0.99))
        span = np.flatnonzero((np.cos(psi) > cos_lo + 0.005) & (np.cos(psi) < cos_hi - 0.005))
        edges = np.random.default_rng(1).choice(span, 32, replace=False)
        pts = np.array([_bisect_to_arc_edge(e, lambda r: c + r, 0.9, 0.99, k, turn)
                        for k in edges])
        assert (np.abs((rho - (1.0 - (pts - c).real)) / (pts - c).real) < 0.06).all()
        assert _in_runs(e, pts, edges).all()

    def test_rho_bounds_every_line_at_the_centroid(self):
        # the lines of a regular polygon nearly tie at its vertex centroid,
        # and the least computed one may round above the least exact one
        for n in (256, 300, 512, 1000, 4096):
            for offset in (0.0, 0.5 - 2j, 1e3, -7 + 3j):
                e = ConvexPolygon(convex_hull(np.exp(2j * np.pi * np.arange(n) / n)
                                              + offset).vertices, PROPER)._edges
                c, rho = e.center
                cx, cy = Fraction(c.real), Fraction(c.imag)
                assert Fraction(rho) <= min(
                    (cy - Fraction(y)) * Fraction(ux) - (cx - Fraction(x)) * Fraction(uy)
                    for x, y, ux, uy in zip(e.vx.tolist(), e.vy.tolist(),
                                            e.ux.tolist(), e.uy.tolist()))


class TestBoundaryPoints:
    def test_square_samples_on_boundary(self, square):
        hull = convex_hull(square)
        pts = boundary_points(hull, 64)
        assert np.abs(signed_distance(hull, pts)).max() <= 1e-12

    def test_segment_midpoint_grid_avoids_endpoints(self):
        seg = convex_hull(np.array([-1.0, 1.0]))
        pts = boundary_points(seg, 8)
        assert np.abs(pts).max() < 1.0


def _scan_decimate(polygon, eps: float) -> np.ndarray:
    """Reference decimation: Douglas-Peucker measuring every interior vertex of a span.

    The arithmetic per vertex is that of ``geometry._rdp_splits``; the
    first farthest vertex of a span splits it.
    """
    v = polygon.vertices
    n = v.size
    anchors = sorted({int(np.argmax(v.real)), int(np.argmax(v.imag)),
                      int(np.argmin(v.real)), int(np.argmin(v.imag))})
    ring = np.concatenate([v, v[:anchors[0] + 1]])
    vx, vy = ring.real, ring.imag
    kept = set(anchors)
    spans = list(zip(anchors, anchors[1:] + [anchors[0] + n]))
    while spans:
        lo, hi = spans.pop()
        if hi - lo < 2:
            continue
        ex, ey = vx[hi:hi + 1] - vx[lo], vy[hi:hi + 1] - vy[lo]
        dx, dy = geometry._clamp_offsets(vx[lo + 1:hi] - vx[lo], vy[lo + 1:hi] - vy[lo],
                                         ex, ey, geometry._inverse_len2(ex, ey))
        dev = np.sqrt(dx * dx + dy * dy)
        k = int(np.argmax(dev))
        if dev[k] > eps:
            kept.add((lo + 1 + k) % n)
            spans += [(lo, lo + 1 + k), (lo + 1 + k, hi)]
    keep = sorted(kept)
    return v if len(keep) < 3 else v[keep]


class TestDecimate:
    def test_stays_within_budget(self):
        rng = np.random.default_rng(5)
        hull = convex_hull(np.exp(1j * rng.uniform(0, 2 * np.pi, 50_000)))
        eps = 1e-4
        slim = decimate(hull, eps)
        assert len(slim) < len(hull)
        assert polygon_hausdorff(hull, slim) <= eps * 1.01

    @pytest.mark.parametrize("eps", [1e-6, 1e-4, 1e-2])
    def test_matches_one_arc_at_a_time_reference(self, eps):
        # batched spans must split exactly where a plain recursive
        # Douglas-Peucker over each anchor-to-anchor arc does
        rng = np.random.default_rng(11)
        hull = convex_hull((1.0 + 0.3j) * np.exp(1j * rng.uniform(0, 2 * np.pi, 20_000)))
        v = hull.vertices.tolist()
        n = len(v)

        def split(i, j, out):
            if j - i < 2:
                return
            devs = [_plain_segment_distance(v[k % n], v[i % n], v[j % n])
                    for k in range(i + 1, j)]
            k = int(np.argmax(devs))
            if devs[k] > eps:
                out.add((i + 1 + k) % n)
                split(i, i + 1 + k, out)
                split(i + 1 + k, j, out)

        anchors = sorted({int(np.argmax(hull.vertices.real)), int(np.argmax(hull.vertices.imag)),
                          int(np.argmin(hull.vertices.real)), int(np.argmin(hull.vertices.imag))})
        kept = set(anchors)
        for i, j in zip(anchors, anchors[1:] + [anchors[0] + n]):
            split(i, j, kept)
        assert decimate(hull, eps).vertices.tolist() == [v[k] for k in sorted(kept)]

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["circle", "ellipse", "thin", "micro-edges"]), st.integers(100, 1500),
           st.floats(0.0, 1e-2), st.floats(0, 2 * np.pi),
           st.sampled_from([1e-8, 1e-6, 1e-4, 1e-2]), st.integers(0, 2 ** 32 - 1))
    def test_tangent_search_matches_the_full_scan(self, shape, n, jitter, turn, eps, seed):
        # on a convex arc the farthest vertex sits where the edges pass the
        # chord's direction; the split must be the one a scan of every
        # interior vertex finds, bit for bit
        rng = np.random.default_rng(seed)
        aspect = {"circle": 1.0, "ellipse": rng.uniform(0.05, 0.9),
                  "thin": 10.0 ** rng.uniform(-9, -4), "micro-edges": 1.0}[shape]
        angle = rng.uniform(0, 2 * np.pi, n)
        radius = 1.0 + jitter * rng.uniform(size=n)
        pts = (radius * (np.cos(angle) + 1j * aspect * np.sin(angle))
               * np.exp(1j * turn) + (0.3 - 2.0j))
        if shape == "micro-edges":  # edges down to one ulp
            pts = _micro_edge_cloud(seed, n // 4)
        hull = convex_hull(pts)
        assume(hull.kind == PROPER and len(hull) > 64)
        budget = eps * hull.diameter
        assert np.array_equal(decimate(hull, budget).vertices, _scan_decimate(hull, budget))


class TestPolygonHausdorff:
    def test_nested_squares(self):
        inner = convex_hull(np.array([0, 1, 1j, 1 + 1j]))
        outer = convex_hull(np.array([-1 + -1j, 2 - 1j, 2 + 2j, -1 + 2j]))
        assert polygon_hausdorff(inner, outer) == pytest.approx(np.sqrt(2), abs=1e-6)
