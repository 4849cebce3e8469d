import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from juliahull import (
    AffineMap,
    Polynomial,
    boundary_points,
    chebyshev,
    conjugate,
    convex_hull,
    monomial,
    polygon_hausdorff,
    sample_julia,
    signed_distance,
)
import juliahull.geometry as geometry
from juliahull.geometry import (
    PROPER,
    SEGMENT,
    POINT,
    _DUP_EPS,
    _TURN_EPS,
    decimate,
    distance_to_segments,
)

planar_points = st.lists(
    st.builds(complex,
              st.floats(-5, 5, allow_nan=False, allow_infinity=False),
              st.floats(-5, 5, allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=60,
)


def _scalar_pops(o, a, q, eps_len: float) -> bool:
    """Middle vertex a is dropped from the chain o -> a -> q (plain Python)."""
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


def _scalar_chain(seq, eps_len: float) -> list:
    out: list = []
    for q in seq:
        while len(out) >= 2 and _scalar_pops(out[-2], out[-1], q, eps_len):
            out.pop()
        out.append(q)
    return out


def _scalar_prune_cyclic(verts: list, scale: float) -> list:
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
            while len(out) >= 2 and _scalar_pops(out[-2], out[-1], q, eps_len):
                out.pop()
                changed = True
            out.append(q)
        if len(out) >= 2 and abs(out[0] - out[-1]) <= dup:
            out.pop()
            changed = True
        # turns across the seam are not seen by the sweep above
        while len(out) > 2 and _scalar_pops(out[-2], out[-1], out[0], eps_len):
            out.pop()
            changed = True
        while len(out) > 2 and _scalar_pops(out[-1], out[0], out[1], eps_len):
            out.pop(0)
            changed = True
        verts = out
    return verts


def _scalar_hull_vertices(points) -> list:
    """Stack monotone chain over all sorted points, then the cyclic prune.

    The same sort and dedup as ``convex_hull``, but no prefilter, so a
    match also shows that the prefilter drops no vertex; returns the
    vertices of a proper hull, or fewer than 3 points for a degenerate one.
    """
    pts = np.asarray(points, dtype=np.complex128).ravel()
    scale = max(np.ptp(pts.real), np.ptp(pts.imag))
    if scale == 0.0:
        return []
    pts = pts[np.lexsort((pts.imag, pts.real))]
    pts = pts[np.concatenate([[True], np.abs(np.diff(pts)) > _DUP_EPS * scale])]
    seq = pts.tolist()
    eps_len = _TURN_EPS * scale
    lower = _scalar_chain(seq, eps_len)
    upper = _scalar_chain(reversed(seq), eps_len)
    return _scalar_prune_cyclic(lower[:-1] + upper[:-1], scale)


def _scalar_calipers(pts: list) -> float:
    """Rotating calipers over a proper ccw polygon, one edge at a time."""
    n = len(pts)
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


def _count_pop_masks(monkeypatch):
    """Wrap the hull's turn test; returns the list of triple counts passed."""
    calls = []
    original = geometry._pop_mask

    def counted(*args):
        calls.append(args[1].size)
        return original(*args)

    monkeypatch.setattr(geometry, "_pop_mask", counted)
    return calls


def _cascade_cloud():
    """A shallow arc over the chord and one far point below it.

    Every arc point pops, but only after its neighbour is dropped: without
    the prefilter this cascade took one reduction round per point.
    """
    x = np.linspace(0, 1, 4000)
    return np.concatenate([x + 1e-3j * (x * x - x), [0.99 - 10j]])


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


class TestConvexHull:
    def test_square_with_interior_point(self, square):
        hull = convex_hull(square)
        assert hull.kind == PROPER
        assert np.allclose(np.sort_complex(hull.vertices), [0, 1j, 1, 1 + 1j])

    def test_collinear_reals_become_segment(self):
        hull = convex_hull(np.array([-1, 0.3, 1, -0.7]))
        assert hull.kind == SEGMENT
        assert np.allclose(np.sort_complex(hull.vertices), [-1, 1])

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
    """The vectorized hull and diameter against the scalar stack chain.

    Exact vertex agreement is claimed only by ``_assert_matches``.  On
    near-duplicate clusters and on slivers thinner than the turn tolerance
    the two may keep different vertices; there ``_assert_contract`` checks
    the contract instead: a convex hull of input points that leaves every
    point at most 1e-12 * scale outside.
    """

    @staticmethod
    def _assert_contract(pts):
        scale = max(np.ptp(pts.real), np.ptp(pts.imag))
        hull = convex_hull(pts)
        assert hull.kind == PROPER
        assert np.isin(hull.vertices, pts).all()
        e = np.roll(hull.vertices, -1) - hull.vertices
        assert ((np.roll(e, 1) * np.conj(e)).imag < 0).all()
        assert signed_distance(hull, pts).max() <= 1e-12 * scale

    @staticmethod
    def _assert_matches(pts):
        hull = convex_hull(pts)
        expected = _scalar_hull_vertices(pts)
        if len(expected) <= 2:
            assert hull.kind != PROPER
            return
        assert hull.kind == PROPER
        assert np.array_equal(hull.vertices, np.array(expected))
        assert hull.diameter == _scalar_calipers(expected)

    @settings(max_examples=200, deadline=None)
    @given(planar_points)
    # the sort splits 0 and -9.4e-249 by -1j: the two keep different members
    @example([0j, -1j, 1 + 0j, 2 + 0j, -1 - 1j, -9.386184325654943e-249 + 0j])
    def test_random_clouds(self, pts):
        pts = np.array(pts)
        scale = max(np.ptp(pts.real), np.ptp(pts.imag))
        gaps = np.abs(pts[:, None] - pts[None, :])
        if ((gaps > 0) & (gaps <= _DUP_EPS * scale)).any() and len(_scalar_hull_vertices(pts)) > 2:
            self._assert_contract(pts)
        else:
            self._assert_matches(pts)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.builds(complex, st.integers(-3, 3), st.integers(-3, 3)),
                    min_size=1, max_size=40))
    def test_integer_lattice_clouds(self, pts):
        self._assert_matches(np.array(pts))

    @pytest.mark.parametrize("name", sorted(_fixed_clouds()))
    def test_fixed_clouds(self, name):
        self._assert_matches(_fixed_clouds()[name])

    @pytest.mark.parametrize("seed", range(4))
    def test_clusters_inside_dup_eps_keep_the_contract(self, seed):
        # near-duplicates of hull vertices may keep a different
        # representative than the stack chain; the contract still holds
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=400) + 1j * rng.normal(size=400)
        corners = convex_hull(pts).vertices
        scale = max(np.ptp(pts.real), np.ptp(pts.imag))
        jitter = 0.2 * _DUP_EPS * scale * (rng.normal(size=(corners.size, 4))
                                           + 1j * rng.normal(size=(corners.size, 4)))
        self._assert_contract(np.concatenate([pts, (corners[:, None] + jitter).ravel()]))

    def test_thin_parabola_slivers_keep_the_contract(self):
        # x + 1e-12i x^2 is thinner than the turn tolerance: on 258 of these
        # 300 clouds the vertex set differs from the stack chain's, and the
        # worst point lies 1.7e-14 * scale outside the hull
        rng = np.random.default_rng(0)
        for _ in range(300):
            x = rng.uniform(-1, 1, int(rng.integers(3, 81)))
            self._assert_contract(x + 1e-12j * x * x)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_parabola_keeps_every_point_inside(self, seed):
        # on these clouds, dropping two neighbours in one round (each
        # collinear only through the other) leaves a true vertex 1e-10 to
        # 1e-8 * scale outside the hull
        x = np.random.default_rng(seed).uniform(-1, 1, 20_000)
        pts = x + 1j * x * x
        hull = convex_hull(pts)
        dropped = pts[~np.isin(pts, hull.vertices)]
        scale = max(np.ptp(pts.real), np.ptp(pts.imag))
        assert signed_distance(hull, dropped).max() <= _TURN_EPS * scale

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
        calls = _count_pop_masks(monkeypatch)
        assert len(convex_hull(cloud)) == vertices
        assert len(calls) <= rounds

    def test_chain_without_prefilter_runs_in_few_rounds(self, monkeypatch):
        # the prefilter leaves few points to reduce; the rounds alone must
        # also be few, and keep the stack chain's vertices
        pts = np.array([1, 1j]) @ np.random.default_rng(1).normal(size=(2, 4096))
        pts = pts[np.lexsort((pts.imag, pts.real))]
        eps_len = _TURN_EPS * max(np.ptp(pts.real), np.ptp(pts.imag))
        expected = _scalar_chain(pts.tolist(), eps_len)
        calls = _count_pop_masks(monkeypatch)
        assert np.array_equal(geometry._reduce_chain(pts, eps_len), np.array(expected))
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
    """Clouds whose hull sits at the chain's tolerances."""
    kind = draw(st.sampled_from(["clusters", "sliver", "tilted", "circle"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "clusters":
        # near-duplicates of random points, in clusters narrower than
        # _DUP_EPS * scale; the stack chain keeps the lexicographically
        # first of each, which may lie inside the others' hull, but by less
        pts = np.array(draw(planar_points))
        scale = max(np.ptp(pts.real), np.ptp(pts.imag))
        shape = (pts.size, draw(st.integers(1, 5)))
        jitter = (0.4 * _DUP_EPS * scale * np.sqrt(rng.uniform(size=shape))
                  * np.exp(2j * np.pi * rng.uniform(size=shape)))
        return np.concatenate([pts, (pts[:, None] + jitter).ravel()])
    if kind == "sliver":
        x = rng.uniform(-1, 1, draw(st.integers(3, 400)))
        return x + 1e-12j * x * x
    if kind == "tilted":
        # a thin segment at an angle, thinner than the turn tolerance in places
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
        assert np.isin(np.array(_scalar_hull_vertices(pts)), kept).all()

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

    @pytest.mark.parametrize("p", [
        Polynomial([-1, 0, 1]),
        Polynomial([0.3 - 0.2j, 0.1j, -0.5, 1]),
        chebyshev(4),
        conjugate(chebyshev(5), AffineMap(0.7 - 1.1j, 0.3 + 0.2j)),
        monomial(1, 2),
    ], ids=["basilica", "cubic", "T4", "T5-conjugate", "z^2"])
    def test_julia_samples_match_the_stack_chain(self, p):
        pts = sample_julia(p, 20_000, seed=0).points
        TestHullReference._assert_matches(pts)

    def test_dropped_point_splitting_a_run_keeps_its_representative(self):
        # -1j and its near-duplicate are split, in the sort of the whole
        # cloud, by the interior point before it, so the stack chain keeps
        # both and then the first of them around the cycle
        tiny = -4.966197415073449e-84
        pts = np.array([1j, -1j, 1, -1, tiny, tiny - 1j])
        TestHullReference._assert_matches(pts)
        hull = convex_hull(pts)
        assert -1j in hull.vertices and tiny - 1j not in hull.vertices

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


class TestBoundaryPoints:
    def test_square_samples_on_boundary(self, square):
        hull = convex_hull(square)
        pts = boundary_points(hull, 64)
        assert np.abs(signed_distance(hull, pts)).max() <= 1e-12

    def test_segment_midpoint_grid_avoids_endpoints(self):
        seg = convex_hull(np.array([-1.0, 1.0]))
        pts = boundary_points(seg, 8)
        assert np.abs(pts).max() < 1.0


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


class TestPolygonHausdorff:
    def test_nested_squares(self):
        inner = convex_hull(np.array([0, 1, 1j, 1 + 1j]))
        outer = convex_hull(np.array([-1 + -1j, 2 - 1j, 2 + 2j, -1 + 2j]))
        assert polygon_hausdorff(inner, outer) == pytest.approx(np.sqrt(2), abs=1e-6)
