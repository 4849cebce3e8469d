import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from juliahull import (
    CircleShape,
    GenericShape,
    Polynomial,
    SegmentShape,
    boundary_points,
    classify_shape,
    convex_hull,
    polygon_hausdorff,
    sample_julia,
    separating_half_plane,
    signed_distance,
)
from juliahull.geometry import (
    PROPER,
    SEGMENT,
    POINT,
    _boundary_offset,
    decimate,
    distance_to_segments,
    fit_circle,
    fit_line,
)

planar_points = st.lists(
    st.builds(complex,
              st.floats(-5, 5, allow_nan=False, allow_infinity=False),
              st.floats(-5, 5, allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=60,
)


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
        # inscribed regular m-gon area as the analytic oracle
        oracle = 0.5 * m * np.sin(2 * np.pi / m)
        assert hull.area == pytest.approx(oracle, rel=1e-4)
        assert abs(hull.area - np.pi) <= 0.02 * np.pi

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

    @settings(max_examples=60, deadline=None)
    @given(planar_points, plane_point)
    def test_nearest_boundary_point(self, pts, z):
        # the point separating_half_plane builds its witness from
        hull = convex_hull(np.array(pts))
        q = z - _boundary_offset(hull, z)
        verts = hull.vertices.tolist()
        scale = max(1.0, np.abs(pts).max(), abs(z))
        ref = abs(_plain_signed_distance(verts, hull.kind, z))
        assert abs(abs(z - q) - ref) <= 1e-12 * scale
        # q lies on the boundary
        assert abs(_plain_signed_distance(verts, hull.kind, q)) <= 1e-12 * scale


class TestSeparation:
    def test_square_far_point(self, square):
        hull = convex_hull(square)
        hp = separating_half_plane(hull, 3 + 0j)
        assert hp.normal == pytest.approx(1 + 0j)
        assert 1 < hp.offset < 3
        assert hp.contains(3 + 0j)

    def test_segment_perpendicular(self):
        seg = convex_hull(np.array([-1.0, 1.0]))
        hp = separating_half_plane(seg, 2j)
        assert hp.normal == pytest.approx(1j)

    def test_chebyshev_hull_separation(self, t2):
        cloud = sample_julia(t2, 20_000, seed=3)
        hull = convex_hull(cloud)
        hp = separating_half_plane(hull, 1.5 + 0j)
        assert abs(hp.normal - 1.0) <= 1e-6
        assert 1 < hp.offset < 1.5

    @pytest.mark.parametrize("end", [5.727055799813556e-09, 5.727055799813556e-09 - 1j])
    def test_witness_near_a_long_thin_segment(self, end):
        # 0 lies 3e-9 to 6e-9 off a segment of length 1 or 2; a witness
        # direction taken from a rounded r - t e misses the far vertex
        seg = convex_hull(np.array([1j, end]))
        hp = separating_half_plane(seg, 0j)
        assert hp.value(0j) > 0
        assert np.all(hp.value(seg.vertices) < 0)

    def test_rejects_inside_point(self, square):
        hull = convex_hull(square)
        with pytest.raises(ValueError, match="not strictly outside"):
            separating_half_plane(hull, 0.5 + 0.5j)

    @settings(max_examples=40, deadline=None)
    @given(planar_points,
           st.builds(complex, st.floats(-9, 9, allow_nan=False),
                     st.floats(-9, 9, allow_nan=False)))
    def test_soundness(self, pts, z):
        hull = convex_hull(np.array(pts))
        if signed_distance(hull, z) <= 1e-9:
            return
        hp = separating_half_plane(hull, z)
        # affine witness: negative at z, nonnegative on every vertex
        assert hp.value(z) > 0
        assert np.all(hp.value(hull.vertices) < 0)


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


class TestClassifyShape:
    def test_chebyshev_segment(self, t2):
        cloud = sample_julia(t2, 100_000, seed=2)
        shape = classify_shape(cloud.points, 1e-3)
        assert isinstance(shape, SegmentShape)
        ends = sorted([shape.end_a, shape.end_b], key=lambda z: z.real)
        assert abs(ends[0] - (-1)) <= 1e-3 and abs(ends[1] - 1) <= 1e-3

    def test_cubing_circle(self):
        cloud = sample_julia(Polynomial([0, 0, 0, 1]), 100_000, seed=2)
        shape = classify_shape(cloud.points, 1e-3)
        assert isinstance(shape, CircleShape)
        assert abs(shape.center) <= 1e-3
        assert shape.radius == pytest.approx(1.0, abs=1e-3)

    def test_basilica_generic(self, basilica):
        cloud = sample_julia(basilica, 50_000, seed=2)
        tol_rel = 1e-3
        shape = classify_shape(cloud.points, tol_rel)
        assert isinstance(shape, GenericShape)
        # oracle: both fits leave residual far above the acceptance level
        hull = convex_hull(cloud)
        _, _, line_dev = fit_line(cloud.points)
        _, radius, circle_dev = fit_circle(cloud.points)
        assert line_dev > 10 * tol_rel * hull.diameter
        assert circle_dev > 10 * tol_rel * radius

    def test_huge_radius_circle_reads_as_segment(self):
        # near-degenerate arc of a giant circle must classify as a segment
        t = np.linspace(-1e-4, 1e-4, 400)
        arc = 1e4 * np.exp(1j * t) - 1e4
        shape = classify_shape(arc, 1e-3)
        assert isinstance(shape, SegmentShape)

    def test_validation(self):
        with pytest.raises(ValueError):
            classify_shape(np.zeros(5, dtype=complex), 1e-3)
        with pytest.raises(ValueError):
            classify_shape(np.zeros(20, dtype=complex), 0.5)


class TestPolygonHausdorff:
    def test_nested_squares(self):
        inner = convex_hull(np.array([0, 1, 1j, 1 + 1j]))
        outer = convex_hull(np.array([-1 + -1j, 2 - 1j, 2 + 2j, -1 + 2j]))
        assert polygon_hausdorff(inner, outer) == pytest.approx(np.sqrt(2), abs=1e-6)
