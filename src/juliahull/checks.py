"""Hull-invariance checks and the equality-case classifier.

Every check builds (or receives) the convex hull H of an inverse-iteration
sample of the Julia set, then measures how badly an expected inclusion
fails, in plain Euclidean distance.  A check passes when the worst
violation stays below tol_rel times the hull diameter.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .geometry import (
    CircleShape,
    ConvexPolygon,
    SegmentShape,
    boundary_points,
    classify_shape,
    convex_hull,
    decimate,
    signed_distance,
)
from .julia import (
    EscapeGrid,
    PointCloud,
    _bounded,
    boundary_cells,
    escape_grid,
    sample_julia,
)
from .polynomial import (
    AffineMap,
    Polynomial,
    chebyshev,
    conjugate,
    escape_radius,
    format_polynomial,
    monomial,
)
from .roots import RootSolveError, critical_points, preimage_fibers, solve_fibers

PASS = "Pass"
FAIL = "Fail"
INCONCLUSIVE = "Inconclusive"

STRICT_INCLUSION = "StrictInclusion"
CHEBYSHEV_CONJUGATE = "ChebyshevConjugate"
MONOMIAL_CONJUGATE = "MonomialConjugate"

BACKWARD_INCLUSION = "backward_inclusion"
CRITICAL_IN_HULL = "critical_in_hull"
FILLED_IN_HULL = "filled_in_hull"
PREIMAGE_CONVEXITY = "preimage_convexity"
HALF_PLANE_SURJECTIVITY = "half_plane_surjectivity"

ALL_CHECKS = (BACKWARD_INCLUSION, CRITICAL_IN_HULL, FILLED_IN_HULL,
              PREIMAGE_CONVEXITY, HALF_PLANE_SURJECTIVITY)

# Coefficient agreement required to accept a normal-form match.
_MATCH_TOL = 1e-6


class EqualityUnresolvedError(RuntimeError):
    """Hull equality detected but the sample looks neither segment nor circle."""


@dataclass
class CheckConfig:
    """Sampling and tolerance knobs shared by all checks."""

    julia_samples: int = 100_000
    boundary_samples: int = 512
    interior_samples: int = 256
    tol_rel: float = 1e-3
    seed: int = 0
    residual_tol: float = 1e-10
    grid_resolution: int = 512
    grid_max_iter: int = 200

    def __post_init__(self):
        if self.julia_samples < 1000:
            raise ValueError("julia_samples must be at least 1000")
        if self.boundary_samples < 16 or self.interior_samples < 16:
            raise ValueError("boundary and interior sample counts must be >= 16")
        if not 0.0 < self.tol_rel < 0.05:
            raise ValueError("tol_rel must lie in (0, 0.05)")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.residual_tol <= 0.0:
            raise ValueError("residual_tol must be positive")
        if self.grid_resolution < 64:
            raise ValueError("grid_resolution must be at least 64")
        if self.grid_max_iter < 50:
            raise ValueError("grid_max_iter must be at least 50")


def _complex_pair(z) -> list:
    return [float(np.real(z)), float(np.imag(z))]


@dataclass(eq=False)
class CheckReport:
    check: str
    verdict: str
    worst_violation: Optional[float]
    witnesses: list
    config: CheckConfig
    polynomial: str
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "verdict": self.verdict,
            "worst_violation": self.worst_violation,
            "witnesses": [_complex_pair(w) for w in self.witnesses],
            "config": asdict(self.config),
            "polynomial": self.polynomial,
        }


@dataclass(eq=False)
class Classification:
    """Outcome of classify_equality; ``to_dict`` keeps the first four fields.

    On an equality kind, g = ``conjugation`` turns p into the normal form
    ``sign_or_c`` T_d (sign +-1) or c z^d (|c| = 1).  ``hull_gap`` is the
    largest distance from p(boundary of H) to that boundary, in the image
    plane; ``match_residual`` belongs to a rejected shape candidate.
    """

    kind: str
    conjugation: Optional[AffineMap]
    sign_or_c: Optional[complex]
    coefficient_residual: Optional[float]
    hull_gap: float
    match_residual: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "conjugation_a": None if self.conjugation is None
            else _complex_pair(self.conjugation.a),
            "conjugation_b": None if self.conjugation is None
            else _complex_pair(self.conjugation.b),
            "sign_or_c": None if self.sign_or_c is None
            else _complex_pair(self.sign_or_c),
            "coefficient_residual": self.coefficient_residual,
        }


@dataclass(eq=False)
class HullContext:
    """Shared per-polynomial state: one Julia sample and one escape grid per suite."""

    polynomial: Polynomial
    cloud: PointCloud
    hull: ConvexPolygon
    hull_query: ConvexPolygon
    diameter: float
    config: CheckConfig

    @cached_property
    def grid(self) -> EscapeGrid:
        """The escape grid, built on first read: the classifier never reads it."""
        return escape_grid(self.polynomial, self.config.grid_resolution,
                           self.config.grid_max_iter)


def build_context(p: Polynomial, cfg: CheckConfig) -> HullContext:
    if p.degree < 2:
        raise ValueError("checks require degree >= 2")
    cloud = sample_julia(p, cfg.julia_samples, cfg.seed, tol=cfg.residual_tol)
    hull = convex_hull(cloud)
    diam = hull.diameter
    # distance queries run against a hull decimated to 1% of the tolerance
    query = decimate(hull, cfg.tol_rel / 100 * max(diam, 1e-300))
    return HullContext(p, cloud, hull, query, diam, cfg)


def _rng(cfg: CheckConfig, stream: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(seq))


def _interior_points(hull: ConvexPolygon, count: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Dirichlet-weighted convex combinations of hull vertices (exactly inside)."""
    v = hull.vertices
    if v.size == 1:
        return np.full(count, v[0])
    weights = rng.dirichlet(np.ones(v.size), size=count)
    return weights @ v


def _report(check: str, cfg: CheckConfig, p: Polynomial, diam: float,
            candidates: np.ndarray, violations: np.ndarray, note: str = "") -> CheckReport:
    """Verdict on the largest violation, with up to 10 worst witnesses on Fail."""
    worst = violations.max()
    if not math.isfinite(worst):
        return _inconclusive(check, cfg, p, f"worst violation is {worst}")
    tol = cfg.tol_rel * diam
    verdict = PASS if worst <= tol else FAIL
    witnesses: list = []
    if verdict == FAIL:
        # a stable sort lists exactly tied witnesses in candidate order
        order = np.argsort(-violations, kind="stable")[:10]
        witnesses = [complex(candidates[i]) for i in order if violations[i] > tol]
    return CheckReport(check, verdict, float(worst), witnesses, cfg,
                       format_polynomial(p), note)


def _inconclusive(check: str, cfg: CheckConfig, p: Polynomial, note: str) -> CheckReport:
    return CheckReport(check, INCONCLUSIVE, None, [], cfg,
                       format_polynomial(p), note)


def check_backward_inclusion(p: Polynomial, cfg: CheckConfig,
                             ctx: Optional[HullContext] = None) -> CheckReport:
    """Preimages of boundary and interior hull samples must stay in the hull."""
    ctx = ctx or build_context(p, cfg)
    targets = np.concatenate([
        boundary_points(ctx.hull, cfg.boundary_samples),
        _interior_points(ctx.hull_query, cfg.interior_samples, _rng(cfg, 1)),
    ])
    try:
        fibers = preimage_fibers(p, targets, cfg.residual_tol)
    except RootSolveError as exc:
        return _inconclusive(BACKWARD_INCLUSION, cfg, p, str(exc))
    points = fibers.ravel()
    return _report(BACKWARD_INCLUSION, cfg, p, ctx.diameter, points,
                   signed_distance(ctx.hull_query, points))


def check_critical_in_hull(p: Polynomial, cfg: CheckConfig,
                           ctx: Optional[HullContext] = None) -> CheckReport:
    """Every zero of p' must lie inside the hull."""
    ctx = ctx or build_context(p, cfg)
    try:
        crit = critical_points(p, cfg.residual_tol)
    except RootSolveError as exc:
        return _inconclusive(CRITICAL_IN_HULL, cfg, p, str(exc))
    return _report(CRITICAL_IN_HULL, cfg, p, ctx.diameter, crit.roots,
                   signed_distance(ctx.hull_query, crit.roots))


def check_filled_in_hull(p: Polynomial, cfg: CheckConfig,
                         ctx: Optional[HullContext] = None) -> CheckReport:
    """Bounded-orbit raster cells must sit inside the hull (cell diagonal slack).

    Signed distance to a convex polygon is convex, and a bounded cell with
    four bounded neighbours is the midpoint of two of them, so the largest
    violation lies on a boundary cell.  On Fail every bounded cell is
    measured, so the witnesses rank interior cells too.
    """
    ctx = ctx or build_context(p, cfg)
    grid = ctx.grid
    centers = boundary_cells(grid)
    slack = grid.cell_size * math.sqrt(2.0)
    if centers.size == 0:
        return CheckReport(FILLED_IN_HULL, PASS, -slack, [], cfg,
                           format_polynomial(p), "raster holds no bounded cells")
    violations = signed_distance(ctx.hull_query, centers) - slack
    if violations.max() > cfg.tol_rel * ctx.diameter:
        centers = grid.true_centers()
        violations = signed_distance(ctx.hull_query, centers) - slack
    return _report(FILLED_IN_HULL, cfg, p, ctx.diameter, centers, violations)


def check_preimage_convexity(p: Polynomial, cfg: CheckConfig,
                             ctx: Optional[HullContext] = None,
                             pair_target: int = 100) -> CheckReport:
    """Targets whose full fiber sits in the hull form a convex set.

    Admissible targets are found by rejection sampling over the hull's
    bounding box; every interior convex combination (t = 0.1 .. 0.9) of an
    admissible pair must be admissible again.
    """
    ctx = ctx or build_context(p, cfg)
    rng = _rng(cfg, 2)
    tol = cfg.tol_rel * ctx.diameter
    v = ctx.hull.vertices
    lo_x, hi_x = v.real.min(), v.real.max()
    lo_y, hi_y = v.imag.min(), v.imag.max()
    admissible: list = []
    for _ in range(60):
        w = (rng.uniform(lo_x, hi_x, 128)
             + 1j * rng.uniform(lo_y, hi_y, 128))
        roots, _, ok = solve_fibers(p, w, cfg.residual_tol)
        sd = signed_distance(ctx.hull_query, roots.ravel()).reshape(roots.shape)
        good = ok & (sd.max(axis=1) <= tol)
        admissible.extend(w[good].tolist())
        if len(admissible) >= 2 * pair_target:
            break
    pairs = len(admissible) // 2
    if pairs < 10:
        return _inconclusive(
            PREIMAGE_CONVEXITY, cfg, p,
            f"fewer than 10 admissible pairs found ({pairs})")
    pairs = min(pairs, pair_target)
    w1 = np.array(admissible[0:2 * pairs:2])
    w2 = np.array(admissible[1:2 * pairs:2])
    ts = np.linspace(0.1, 0.9, 9)
    mixed = (ts[:, None] * w1[None, :] + (1.0 - ts)[:, None] * w2[None, :]).ravel()
    try:
        fibers = preimage_fibers(p, mixed, cfg.residual_tol)
    except RootSolveError as exc:
        return _inconclusive(PREIMAGE_CONVEXITY, cfg, p, str(exc))
    points = fibers.ravel()
    return _report(PREIMAGE_CONVEXITY, cfg, p, ctx.diameter, points,
                   signed_distance(ctx.hull_query, points),
                   note=f"{pairs} admissible pairs tested")


def check_half_plane_surjectivity(p: Polynomial, cfg: CheckConfig,
                                  ctx: Optional[HullContext] = None,
                                  planes: int = 20, targets: int = 50) -> CheckReport:
    """Half-planes touching the critical hull map onto the whole plane.

    For each half-plane E through the convex hull of the critical points
    and each target y, at least one preimage of y must lie in E.
    """
    ctx = ctx or build_context(p, cfg)
    rng = _rng(cfg, 3)
    try:
        crit = critical_points(p, cfg.residual_tol)
    except RootSolveError as exc:
        return _inconclusive(HALF_PLANE_SURJECTIVITY, cfg, p, str(exc))
    crit_hull = convex_hull(crit.roots)
    pivots = _interior_points(crit_hull, planes, rng)
    angles = rng.uniform(0.0, 2.0 * np.pi, planes)
    normals = np.exp(1j * angles)
    radius = 2.0 * escape_radius(p)
    u = rng.uniform(0.0, 1.0, targets)
    phase = rng.uniform(0.0, 2.0 * np.pi, targets)
    ys = radius * np.sqrt(u) * np.exp(1j * phase)
    try:
        fibers = preimage_fibers(p, ys, cfg.residual_tol)
    except RootSolveError as exc:
        return _inconclusive(HALF_PLANE_SURJECTIVITY, cfg, p, str(exc))
    # margin of the best fiber point relative to each half-plane boundary
    proj = (fibers[None, :, :] * np.conj(normals)[:, None, None]).real
    offsets = (pivots * np.conj(normals)).real
    best = proj.max(axis=2)
    shortfall = offsets[:, None] - best
    target_grid = np.broadcast_to(ys[None, :], shortfall.shape).ravel()
    return _report(HALF_PLANE_SURJECTIVITY, cfg, p, ctx.diameter,
                   target_grid, shortfall.ravel())


def _boundary_image_gap(p: Polynomial, hull: ConvexPolygon,
                        query: ConvexPolygon, m: int) -> float:
    """Largest distance between p(boundary of the hull) and that boundary.

    With p^-1(H) inside a convex H, equality holds exactly when p maps the
    boundary of H into itself (open mapping theorem), so the distance
    vanishes on the equality locus and measures the defect elsewhere.  An
    image beyond |z| = 2R is pulled radially onto that circle: it still
    lies at least R >= diam/2 outside H, and its distance stays finite.
    """
    images = p(boundary_points(hull, m))
    limit = 2.0 * escape_radius(p)
    modulus = np.abs(images)
    far = modulus > limit
    images[far] *= limit / modulus[far]
    return float(np.abs(signed_distance(query, images)).max())


def _chebyshev_match(p: Polynomial, u: complex, v: complex):
    """Best (residual, sign, map) of g o p o g^-1 against +-T_d for both orientations."""
    target = chebyshev(p.degree).coeffs
    scale = float(np.abs(target).max())
    combos = []
    for a, b in ((u, v), (v, u)):
        g = AffineMap(2.0 / (b - a), -(b + a) / (b - a))
        coeffs = conjugate(p, g).coeffs
        for sign in (1.0, -1.0):
            resid = float(np.abs(coeffs - sign * target).max())
            combos.append((resid, sign, g))
    accepted = [c for c in combos if c[0] <= _MATCH_TOL * scale]
    if accepted:
        # canonical pick: positive sign first, then the map closest to identity
        accepted.sort(key=lambda c: (c[1] != 1.0,
                                     abs(c[2].a - 1.0) + abs(c[2].b), c[0]))
        return accepted[0], scale
    combos.sort(key=lambda c: c[0])
    return combos[0], scale


def classify_equality(p: Polynomial, cfg: CheckConfig,
                      ctx: Optional[HullContext] = None) -> Classification:
    """Decide between strict preimage inclusion and the two equality families.

    p^-1(H) = H holds only for conjugates of +-T_d and of c z^d, |c| = 1.
    Step 1 tests it forward: the hull gap, the largest distance from
    p(boundary of H) to that boundary, vanishes exactly on equality, and a
    gap above tol_rel * diam reads StrictInclusion.  No anchor or branch
    order enters, so the answer does not depend on how the hull is turned.
    Only a gap within tolerance reaches step 2, which fits the Julia sample
    as a segment (Chebyshev normal form, either sign) or a circle
    (unimodular monomial normal form, after checking that hull-interior
    samples stay bounded) and verifies the conjugated coefficients.  A
    sample that fits neither raises EqualityUnresolvedError.
    """
    ctx = ctx or build_context(p, cfg)
    d = p.degree
    gap = _boundary_image_gap(p, ctx.hull, ctx.hull_query, cfg.boundary_samples)
    if gap > cfg.tol_rel * ctx.diameter:
        return Classification(STRICT_INCLUSION, None, None, None, hull_gap=gap)
    shape = classify_shape(ctx.cloud.points, cfg.tol_rel)
    if isinstance(shape, SegmentShape):
        (resid, sign, g), scale = _chebyshev_match(p, shape.end_a, shape.end_b)
        if resid <= _MATCH_TOL * scale:
            return Classification(CHEBYSHEV_CONJUGATE, g, complex(sign),
                                  resid, hull_gap=gap)
        return Classification(STRICT_INCLUSION, None, None, None,
                              hull_gap=gap, match_residual=resid)
    if isinstance(shape, CircleShape):
        # Hull equality forces the hull inside the bounded-orbit set, so
        # escaping hull-interior samples expose a false candidate.  Only
        # circle candidates are tested: a segment-type set has measure zero,
        # where any sampling noise escapes eventually.
        pts = _interior_points(ctx.hull_query, cfg.interior_samples, _rng(cfg, 4))
        if not _bounded(p, pts, cfg.grid_max_iter).all():
            return Classification(STRICT_INCLUSION, None, None, None,
                                  hull_gap=gap)
        g = AffineMap(1.0 / shape.radius, -shape.center / shape.radius)
        coeffs = conjugate(p, g).coeffs
        lead = complex(coeffs[-1])
        c = lead / abs(lead)
        target = monomial(c, d).coeffs
        resid = float(np.abs(coeffs - target).max())
        scale = max(1.0, abs(lead))
        if resid <= _MATCH_TOL * scale and abs(abs(lead) - 1.0) <= _MATCH_TOL:
            return Classification(MONOMIAL_CONJUGATE, g, c, resid, hull_gap=gap)
        return Classification(STRICT_INCLUSION, None, None, None,
                              hull_gap=gap, match_residual=resid)
    raise EqualityUnresolvedError(
        f"hull gap {gap / ctx.diameter:.3g} x diameter is within tol_rel "
        f"{cfg.tol_rel:g}, but the Julia sample fits neither a segment nor a "
        "circle; lower --tol to test for strict inclusion, or increase n "
        "(--n) to sharpen the fit")


def run_checks(p: Polynomial, cfg: CheckConfig,
               ctx: Optional[HullContext] = None) -> list[CheckReport]:
    """All five checks against one shared context, in canonical order."""
    ctx = ctx or build_context(p, cfg)
    return [
        check_backward_inclusion(p, cfg, ctx),
        check_critical_in_hull(p, cfg, ctx),
        check_filled_in_hull(p, cfg, ctx),
        check_preimage_convexity(p, cfg, ctx),
        check_half_plane_surjectivity(p, cfg, ctx),
    ]
