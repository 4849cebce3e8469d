import json

import numpy as np
import pytest

from juliahull import (
    AffineMap,
    CheckConfig,
    ConvexPolygon,
    EqualityUnresolvedError,
    EscapeGrid,
    Polynomial,
    RootSolveError,
    build_context,
    chebyshev,
    check_backward_inclusion,
    check_critical_in_hull,
    check_filled_in_hull,
    check_half_plane_surjectivity,
    check_preimage_convexity,
    classify_equality,
    conjugate,
    convex_hull,
    escape_grid,
    escape_radius,
    monomial,
    boundary_cells,
    parse_polynomial,
    preimage_fibers,
    run_checks,
    sample_julia,
    signed_distance,
)
from juliahull import checks
from juliahull.checks import (
    BACKWARD_INCLUSION,
    CHEBYSHEV_CONJUGATE,
    FAIL,
    HALF_PLANE_SURJECTIVITY,
    INCONCLUSIVE,
    MONOMIAL_CONJUGATE,
    PASS,
    PREIMAGE_CONVEXITY,
    STRICT_INCLUSION,
    HullContext,
    _boundary_image_gap,
    _report,
)
from juliahull.geometry import PROPER

# +-T_d bases for the quarter-turn conjugates
CHEBYSHEV_BASES = {f"T{d}": chebyshev(d) for d in range(2, 6)}
CHEBYSHEV_BASES["-T3"] = Polynomial(-chebyshev(3).coeffs)


class TestCheckConfig:
    def test_defaults_valid(self):
        cfg = CheckConfig()
        assert cfg.julia_samples == 100_000
        assert cfg.boundary_samples == 512
        assert cfg.interior_samples == 256
        assert cfg.tol_rel == 1e-3
        assert cfg.residual_tol == 1e-10

    @pytest.mark.parametrize("kwargs", [
        dict(julia_samples=500),
        dict(boundary_samples=4),
        dict(interior_samples=8),
        dict(tol_rel=0.2),
        dict(tol_rel=0.0),
        dict(seed=-1),
        dict(residual_tol=0.0),
        dict(grid_resolution=32),
        dict(grid_max_iter=10),
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            CheckConfig(**kwargs)


def test_query_hull_decimation_follows_tolerance():
    # the decimated query hull stays within 1% of the tolerance of the hull
    cfg = CheckConfig(julia_samples=5_000, tol_rel=1e-5, seed=3,
                      grid_resolution=64, grid_max_iter=50)
    ctx = build_context(monomial(1, 2), cfg)
    assert ctx.hull_query.vertices.size < ctx.hull.vertices.size
    budget = cfg.tol_rel / 100 * ctx.diameter
    assert np.abs(signed_distance(ctx.hull_query, ctx.hull.vertices)).max() <= budget


def _unit_context(cfg: CheckConfig) -> HullContext:
    """A context of diameter 1 with no sample: enough for _report."""
    return HullContext(Polynomial([-1, 0, 1]), None, None, None, 1.0, cfg)


@pytest.mark.parametrize("worst", [np.nan, np.inf])
def test_report_of_non_finite_worst_is_inconclusive(worst, fast_cfg):
    # NaN fails "worst <= tol" and would otherwise read as Fail
    report = _report(_unit_context(fast_cfg), "backward_inclusion",
                     np.zeros(1, dtype=complex), np.array([worst]))
    assert report.verdict == INCONCLUSIVE and report.worst_violation is None
    assert report.note
    json.dumps(report.to_dict(), allow_nan=False)


def test_tied_witnesses_keep_candidate_order(fast_cfg):
    candidates = np.array([1, 2, 3, 4, 5], dtype=complex)
    violations = np.array([0.5, 2.0, 0.0, 2.0, 1.0])
    report = _report(_unit_context(fast_cfg), "backward_inclusion",
                     candidates, violations)
    assert report.verdict == FAIL
    assert report.witnesses == [2, 4, 5, 1]


class TestSolverFailure:
    MESSAGE = "fiber solve missed the residual bound"

    @pytest.fixture
    def failing_ctx(self, basilica, fast_cfg, monkeypatch):
        ctx = build_context(basilica, fast_cfg)

        def give_up(*args, **kwargs):
            raise RootSolveError(self.MESSAGE)

        monkeypatch.setattr(checks, "preimage_fibers", give_up)
        return ctx

    def test_direct_call_reads_inconclusive(self, failing_ctx):
        report = check_backward_inclusion(failing_ctx)
        assert report.verdict == INCONCLUSIVE
        assert report.note == self.MESSAGE
        assert report.worst_violation is None

    def test_only_fiber_checks_turn_inconclusive(self, failing_ctx):
        reports = run_checks(failing_ctx)
        assert [r.check for r in reports if r.verdict == INCONCLUSIVE] == [
            BACKWARD_INCLUSION, PREIMAGE_CONVEXITY, HALF_PLANE_SURJECTIVITY]
        assert all(r.note == self.MESSAGE for r in reports
                   if r.verdict == INCONCLUSIVE)
        assert [r.verdict for r in reports if r.verdict != INCONCLUSIVE] == [
            PASS, PASS]


class TestBackwardInclusion:
    def test_chebyshev_segment(self, t2, fast_cfg):
        report = check_backward_inclusion(build_context(t2, fast_cfg))
        assert report.verdict == PASS
        assert report.witnesses == []

    def test_unimodular_monomial(self, fast_cfg):
        ctx = build_context(monomial(0.6 + 0.8j, 2), fast_cfg)
        report = check_backward_inclusion(ctx)
        assert report.verdict == PASS

    def test_basilica_interior_up_to_sampling(self, basilica):
        cfg = CheckConfig(seed=3)
        ctx = build_context(basilica, cfg)
        report = check_backward_inclusion(ctx)
        assert report.verdict == PASS
        # preimages sit (sampling noise aside) strictly inside the hull
        assert report.worst_violation < 0.01 * cfg.tol_rel * ctx.diameter

    def test_random_polynomials_never_violate(self):
        rng = np.random.default_rng(17)
        for trial in range(8):
            d = int(rng.integers(2, 7))
            p = Polynomial(rng.uniform(0, 1, d + 1) + 1j * rng.uniform(0, 1, d + 1))
            cfg = CheckConfig(julia_samples=20_000, seed=trial)
            report = check_backward_inclusion(build_context(p, cfg))
            assert report.verdict == PASS, (p.coeffs, report.worst_violation)

    def test_json_shape(self, t2, fast_cfg):
        doc = check_backward_inclusion(build_context(t2, fast_cfg)).to_dict()
        assert list(doc) == ["check", "verdict", "worst_violation",
                             "witnesses", "config", "polynomial"]
        assert doc["check"] == "backward_inclusion"
        assert doc["config"]["seed"] == fast_cfg.seed


class TestCriticalInHull:
    def test_quadratic_center(self, fast_cfg):
        report = check_critical_in_hull(build_context(Polynomial([0.2j, 0, 1]), fast_cfg))
        assert report.verdict == PASS

    def test_t4_critical_points(self, fast_cfg):
        p = chebyshev(4)
        report = check_critical_in_hull(build_context(p, fast_cfg))
        assert report.verdict == PASS
        # oracle: zeros of 32z^3 - 16z are 0 and +-sqrt(2)/2, inside [-1, 1]
        from juliahull import critical_points
        crit = np.sort_complex(critical_points(p).roots)
        assert np.allclose(crit, [-np.sqrt(2) / 2, 0, np.sqrt(2) / 2], atol=1e-8)

    def test_bounded_cubic_with_direction_oracle(self, fast_cfg):
        p = Polynomial([0.1, -0.6, 0.05j, 1])
        ctx = build_context(p, fast_cfg)
        report = check_critical_in_hull(ctx)
        assert report.verdict == PASS
        # contradiction search: no direction separates a critical point
        # from the whole Julia sample
        from juliahull import critical_points
        for c in critical_points(p).roots:
            rel = ctx.cloud.points - c
            for theta in np.linspace(0, 2 * np.pi, 360, endpoint=False):
                direction = np.exp(1j * theta)
                if np.min((rel * np.conj(direction)).real) > 1e-6:
                    raise AssertionError("separating direction found")


class TestFilledInHull:
    @pytest.mark.parametrize("coeffs", [[0, 0, 1], [-1, 0, 1]])
    def test_passes(self, coeffs, fast_cfg):
        report = check_filled_in_hull(build_context(Polynomial(coeffs), fast_cfg))
        assert report.verdict == PASS

    def test_segment_bounded_set(self, t2, fast_cfg):
        report = check_filled_in_hull(build_context(t2, fast_cfg))
        assert report.verdict == PASS

    @pytest.mark.parametrize("poly", ["quad:-1+0i", "quad:-0.12+0.74i",
                                      "quad:-0.39+0.59i", "monomial:1,2",
                                      "monomial:0.6+0.8i,3", "cheb:4"])
    def test_worst_equals_scan_of_every_bounded_cell(self, poly):
        # the check measures boundary cells only; convexity makes that exact
        p = parse_polynomial(poly).polynomial
        cfg = CheckConfig(julia_samples=20_000, seed=1)
        ctx = build_context(p, cfg)
        report = check_filled_in_hull(ctx)
        scan = signed_distance(ctx.hull_query, ctx.grid.true_centers()).max()
        assert report.worst_violation == scan - ctx.grid.cell_size * np.sqrt(2)

    def test_fail_witnesses_rank_interior_cells(self):
        cfg = CheckConfig(julia_samples=5_000, seed=0, grid_resolution=64,
                          grid_max_iter=50)
        ctx = build_context(Polynomial([0, 0, 1]), cfg)
        g = ctx.grid
        cells = np.zeros_like(g.cells)
        cells[20:40, 20:40] = True
        ctx.grid = EscapeGrid(g.origin_real, g.origin_imag, g.cell_size,
                              g.width, g.height, cells, g.radius, g.max_iter)
        corner = complex(g.origin_real + 20 * g.cell_size,
                         g.origin_imag + 20 * g.cell_size)
        ctx.hull_query = ConvexPolygon(
            corner - 0.05 - 0.05j + np.array([0, 0.01, 0.01j]), PROPER)
        report = check_filled_in_hull(ctx)
        assert report.verdict == FAIL
        slack = g.cell_size * np.sqrt(2)
        every = signed_distance(ctx.hull_query, ctx.grid.true_centers()) - slack
        # the block is symmetric, so compare values: tied cells may swap
        found = signed_distance(ctx.hull_query, np.array(report.witnesses)) - slack
        assert np.array_equal(np.sort(found), np.sort(every)[-10:])

    def test_direct_grid_scan_oracle(self, basilica):
        # every bounded cell center lies in the sampled hull (plus slack)
        cfg = CheckConfig(julia_samples=50_000, seed=2, grid_resolution=1024)
        ctx = build_context(basilica, cfg)
        grid = escape_grid(basilica, 1024, cfg.grid_max_iter)
        sd = signed_distance(ctx.hull, grid.true_centers())
        slack = grid.cell_size * np.sqrt(2)
        assert sd.max() <= cfg.tol_rel * ctx.diameter + slack


class TestPreimageConvexity:
    def test_disk_case_with_sqrt_oracle(self, squaring):
        cfg = CheckConfig(julia_samples=20_000, seed=5)
        ctx = build_context(squaring, cfg)
        report = check_preimage_convexity(ctx)
        assert report.verdict == PASS
        # oracle: w is admissible for the unit disk iff both preimages
        # +-sqrt(w) stay inside, which happens exactly when |w| <= 1
        rng = np.random.default_rng(0)
        w = rng.uniform(-1.2, 1.2, 400) + 1j * rng.uniform(-1.2, 1.2, 400)
        root = np.sqrt(w)
        tol = cfg.tol_rel * ctx.diameter
        admissible = np.maximum(signed_distance(ctx.hull, root),
                                signed_distance(ctx.hull, -root)) <= tol
        assert np.array_equal(admissible, np.abs(w) <= (1 + tol) ** 2)

    def test_t3_segment(self, fast_cfg):
        report = check_preimage_convexity(build_context(chebyshev(3), fast_cfg))
        assert report.verdict == PASS

    def test_basilica(self, basilica, fast_cfg):
        report = check_preimage_convexity(build_context(basilica, fast_cfg))
        assert report.verdict == PASS
        assert "100 admissible pairs" in report.note


class TestHalfPlaneSurjectivity:
    def test_explicit_square_fibers(self, squaring):
        # E = {Re z >= 0} passes through the critical point 0; fibers of
        # -1 and 4 both meet E (on its boundary for -1)
        fiber_neg, fiber_four = preimage_fibers(squaring, np.array([-1.0, 4.0]))
        assert (fiber_neg.real >= -1e-9).any()
        assert max(fiber_four.real) == pytest.approx(2.0, abs=1e-9)

    def test_check_passes_for_cubic(self, fast_cfg):
        p = Polynomial([0, -3, 0, 1])
        ctx = build_context(p, fast_cfg)
        report = check_half_plane_surjectivity(ctx)
        assert report.verdict == PASS
        # enumeration oracle: all three cube preimages of random targets
        # computed directly, membership checked per half-plane
        rng = np.random.default_rng(1)
        targets = 2 * escape_radius(p) * rng.uniform(0, 1, 20) ** 0.5 \
            * np.exp(1j * rng.uniform(0, 2 * np.pi, 20))
        fibers = preimage_fibers(p, targets)
        for theta in np.linspace(0, np.pi, 10):
            # {<z, e^{i theta}> >= 0}, through the critical hull
            member = (fibers * np.exp(-1j * theta)).real >= -1e-9
            assert member.any(axis=1).all()

    def test_squaring(self, squaring, fast_cfg):
        report = check_half_plane_surjectivity(build_context(squaring, fast_cfg))
        assert report.verdict == PASS


class TestClassifyEquality:
    def test_t5_is_plain_chebyshev(self):
        cfg = CheckConfig(seed=1)
        cls = classify_equality(build_context(chebyshev(5), cfg))
        assert cls.kind == CHEBYSHEV_CONJUGATE
        assert cls.sign_or_c == 1.0
        assert abs(cls.conjugation.a - 1.0) <= 1e-6
        assert abs(cls.conjugation.b) <= 1e-6

    def test_conjugated_cubic_monomial(self):
        g = AffineMap(2.0, 1 - 1j)
        p = conjugate(Polynomial([0, 0, 0, 1]), g)
        cfg = CheckConfig(seed=1)
        cls = classify_equality(build_context(p, cfg))
        assert cls.kind == MONOMIAL_CONJUGATE
        assert abs(abs(cls.sign_or_c) - 1.0) <= 1e-9
        # recovered map must invert the constructed one
        inv = g.inverse()
        assert abs(cls.conjugation.a - inv.a) <= 1e-6
        assert abs(cls.conjugation.b - inv.b) <= 1e-6

    def test_quarter_i_strict(self):
        cfg = CheckConfig(seed=1)
        p = Polynomial([0.25j, 0, 1])
        ctx = build_context(p, cfg)
        cls = classify_equality(ctx)
        assert cls.kind == STRICT_INCLUSION
        assert cls.hull_gap > 10 * cfg.tol_rel * ctx.diameter
        assert cls.conjugation is None and cls.coefficient_residual is None

    @pytest.mark.parametrize("coeffs", [[-1 + 0j, 0, 1], [0.25j, 0, 1]])
    def test_strict_gap_reproduced_on_grid_hulls(self, coeffs):
        # independent oracle: hulls built from the escape raster, not from
        # inverse iteration, leave the same order-of-magnitude gap
        p = Polynomial(coeffs)
        cfg = CheckConfig(seed=1)
        grid = escape_grid(p, resolution=1024, max_iter=300)
        hull = convex_hull(boundary_cells(grid))
        gap = _boundary_image_gap(p, hull, hull, 512)
        assert gap > 10 * cfg.tol_rel * hull.diameter

    @pytest.mark.parametrize("turn", [1, 1j, -1, -1j],
                             ids=["0deg", "90deg", "180deg", "270deg"])
    @pytest.mark.parametrize("base", list(CHEBYSHEV_BASES))
    def test_chebyshev_kind_survives_quarter_turns(self, base, turn):
        # exact quarter turns z -> e^{i theta} z: a vertical or horizontal
        # segment sample hulls to a sliver whose vertex order rounding decides
        cfg = CheckConfig(julia_samples=20_000, seed=0, grid_resolution=64,
                          grid_max_iter=50)
        p = conjugate(CHEBYSHEV_BASES[base], AffineMap(turn))
        ctx = build_context(p, cfg)
        cls = classify_equality(ctx)
        assert cls.kind == CHEBYSHEV_CONJUGATE
        assert cls.hull_gap <= 0.01 * cfg.tol_rel * ctx.diameter

    def test_negated_chebyshev_sign(self):
        cfg = CheckConfig(seed=2)
        cls = classify_equality(build_context(Polynomial(-chebyshev(3).coeffs), cfg))
        assert cls.kind == CHEBYSHEV_CONJUGATE
        assert cls.sign_or_c == -1.0

    def test_normal_form_reproduces_input(self):
        rng = np.random.default_rng(12)
        cfg = CheckConfig(seed=4)
        base = chebyshev(3)
        g = AffineMap(complex(rng.uniform(0.5, 2)) * np.exp(1j * rng.uniform(0, 6)),
                      complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        p = conjugate(base, g)
        cls = classify_equality(build_context(p, cfg))
        assert cls.kind == CHEBYSHEV_CONJUGATE
        normal = Polynomial(cls.sign_or_c * chebyshev(3).coeffs)
        back = conjugate(normal, cls.conjugation.inverse())
        scale = np.abs(p.coeffs).max()
        assert np.abs(back.coeffs - p.coeffs).max() <= 1e-5 * scale

    def test_kind_survives_conjugation(self):
        cfg = CheckConfig(julia_samples=50_000, seed=6)
        rng = np.random.default_rng(3)
        for base in (chebyshev(2), monomial(1j, 2), Polynomial([-1 + 0j, 0, 1])):
            expected = classify_equality(build_context(base, cfg)).kind
            a = complex(rng.uniform(0.5, 2)) * np.exp(1j * rng.uniform(0, 6))
            b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            moved_p = conjugate(base, AffineMap(a, b))
            moved = classify_equality(build_context(moved_p, cfg))
            assert moved.kind == expected

    def test_equality_without_shape_raises(self, basilica, squaring):
        # doctored context: hull equality holds for z^2 but the cloud is
        # replaced by a generic blob, which the classifier must refuse
        cfg = CheckConfig(julia_samples=20_000, seed=5)
        ctx = build_context(squaring, cfg)
        blob = sample_julia(basilica, 20_000, seed=5)
        ctx.cloud = blob
        with pytest.raises(EqualityUnresolvedError, match="increase n"):
            classify_equality(ctx)

    def test_escaping_interior_exposes_false_circle_candidate(self, squaring,
                                                               monkeypatch):
        # doctored context: the cloud still fits the unit circle and the
        # boundary gap is forced to vanish, but the query hull is moved off
        # J_p, so its interior samples escape
        cfg = CheckConfig(julia_samples=20_000, seed=5)
        ctx = build_context(squaring, cfg)
        assert classify_equality(ctx).kind == MONOMIAL_CONJUGATE
        monkeypatch.setattr(checks, "_boundary_image_gap", lambda *args: 0.0)
        ctx.hull_query = convex_hull(ctx.cloud.points + 1.5)
        cls = classify_equality(ctx)
        assert cls.kind == STRICT_INCLUSION
        assert cls.conjugation is None and cls.match_residual is None

    def test_classification_json_shape(self):
        cfg = CheckConfig(julia_samples=20_000, seed=7)
        doc = classify_equality(build_context(chebyshev(2), cfg)).to_dict()
        assert list(doc) == ["kind", "conjugation_a", "conjugation_b",
                             "sign_or_c", "coefficient_residual"]
        assert doc["kind"] == CHEBYSHEV_CONJUGATE
        assert doc["sign_or_c"] == [1.0, 0.0]
