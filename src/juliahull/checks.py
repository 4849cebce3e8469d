"""Hull-invariance checks and the equality-case classifier.

Every check builds (or receives) the convex hull H of an inverse-iteration
sample of the Julia set, then measures how badly an expected inclusion
fails, in plain Euclidean distance.  A check passes when the worst
violation stays below tol_rel times the hull diameter.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
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
    worst_signed_distance,
)
from .julia import EscapeGrid, PointCloud, escape_grid, sample_julia
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

# Decimation budget for distance queries against huge hulls; 1% of the
# check tolerance, so it never influences verdicts.
_QUERY_EPS_REL = 1e-5


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
    grid: EscapeGrid


def build_context(p: Polynomial, cfg: CheckConfig) -> HullContext:
    if p.degree < 2:
        raise ValueError("checks require degree >= 2")
    cloud = sample_julia(p, cfg.julia_samples, cfg.seed, tol=cfg.residual_tol)
    hull = convex_hull(cloud)
    diam = hull.diameter
    query = decimate(hull, _QUERY_EPS_REL * max(diam, 1e-300))
    grid = escape_grid(p, cfg.grid_resolution, cfg.grid_max_iter)
    return HullContext(p, cloud, hull, query, diam, grid)


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


def _report(check: str, cfg: CheckConfig, p: Polynomial, worst, diam: float,
            candidates: np.ndarray, violations: np.ndarray, note: str = "") -> CheckReport:
    """Assemble verdict and up-to-10 worst witnesses from violation values."""
    tol = cfg.tol_rel * diam
    verdict = PASS if worst <= tol else FAIL
    witnesses: list = []
    if verdict == FAIL:
        order = np.argsort(violations)[::-1]
        bad = [complex(candidates[i]) for i in order[:10] if violations[i] > tol]
        witnesses = bad if bad else [complex(candidates[order[0]])]
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
    worst, offenders, values = worst_signed_distance(ctx.hull_query, fibers.ravel())
    return _report(BACKWARD_INCLUSION, cfg, p, worst, ctx.diameter,
                   offenders, values)


def check_critical_in_hull(p: Polynomial, cfg: CheckConfig,
                           ctx: Optional[HullContext] = None) -> CheckReport:
    """Every zero of p' must lie inside the hull."""
    ctx = ctx or build_context(p, cfg)
    try:
        crit = critical_points(p, cfg.residual_tol)
    except RootSolveError as exc:
        return _inconclusive(CRITICAL_IN_HULL, cfg, p, str(exc))
    sd = signed_distance(ctx.hull_query, crit.roots)
    return _report(CRITICAL_IN_HULL, cfg, p, sd.max(), ctx.diameter,
                   crit.roots, sd)


def check_filled_in_hull(p: Polynomial, cfg: CheckConfig,
                         ctx: Optional[HullContext] = None) -> CheckReport:
    """Bounded-orbit raster cells must sit inside the hull (cell diagonal slack)."""
    ctx = ctx or build_context(p, cfg)
    grid = ctx.grid
    centers = grid.true_centers()
    slack = grid.cell_size * math.sqrt(2.0)
    if centers.size == 0:
        return CheckReport(FILLED_IN_HULL, PASS, -slack, [], cfg,
                           format_polynomial(p), "raster holds no bounded cells")
    worst, offenders, values = worst_signed_distance(ctx.hull_query, centers)
    return _report(FILLED_IN_HULL, cfg, p, worst - slack, ctx.diameter,
                   offenders, values - slack)


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
    worst, offenders, values = worst_signed_distance(ctx.hull_query, fibers.ravel())
    return _report(PREIMAGE_CONVEXITY, cfg, p, worst, ctx.diameter,
                   offenders, values, note=f"{pairs} admissible pairs tested")


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
    worst = shortfall.max()
    flat = shortfall.ravel()
    target_grid = np.broadcast_to(ys[None, :], shortfall.shape).ravel()
    return _report(HALF_PLANE_SURJECTIVITY, cfg, p, worst, ctx.diameter,
                   target_grid, flat)


def _match_chains(fibers: np.ndarray) -> np.ndarray:
    """Order each fiber so branch k stays continuous along the target walk.

    ``fibers`` is (m, d): the d preimages of m consecutive boundary samples.
    Greedy nearest-neighbor matching between consecutive fibers returns
    (d, m) polylines tracing the preimage curve of the hull boundary.
    """
    m, d = fibers.shape
    chains = np.empty((d, m), dtype=np.complex128)
    prev = fibers[0].copy()
    chains[:, 0] = prev
    for j in range(1, m):
        row = fibers[j]
        used = np.zeros(d, dtype=bool)
        for k in range(d):
            dist = np.abs(row - prev[k])
            dist[used] = np.inf
            pick = int(np.argmin(dist))
            used[pick] = True
            prev[k] = row[pick]
        chains[:, j] = prev
    return chains


def _distance_to_segments(queries: np.ndarray, starts: np.ndarray,
                          ends: np.ndarray) -> np.ndarray:
    """Min distance from each query to a family of segments, chunked."""
    e = ends - starts
    len2 = np.maximum(np.abs(e) ** 2, 1e-300)
    out = np.empty(queries.size)
    chunk = max(1, 2_000_000 // starts.size)
    for lo in range(0, queries.size, chunk):
        rel = queries[lo:lo + chunk, None] - starts[None, :]
        t = np.clip((rel * np.conj(e)[None, :]).real / len2[None, :], 0.0, 1.0)
        out[lo:lo + chunk] = np.abs(rel - t * e[None, :]).min(axis=1)
    return out


def _boundary_preimage_gap(p: Polynomial, hull: ConvexPolygon, m: int,
                           tol: float) -> float:
    """Max distance from the hull boundary to the preimage curve of that boundary.

    Zero exactly when the boundary is covered by its own preimage (the
    equality case); strict-inclusion polynomials leave inward bulges whose
    depth this reports.  The preimage curve is approximated by the matched
    branch polylines, so it stays dense even where the derivative vanishes.
    The walk anchors at the extreme values (offset 0): their fibers hold
    the critical points that join adjacent preimage branches.
    """
    wb = boundary_points(hull, m, offset=0.0)
    fibers = preimage_fibers(p, wb, tol)
    chains = _match_chains(fibers)
    starts = [chains[:, :-1].ravel()]
    ends = [chains[:, 1:].ravel()]
    # closing chords: match the last fiber back onto the first
    first = chains[:, 0].copy()
    used = np.zeros(chains.shape[0], dtype=bool)
    for k in range(chains.shape[0]):
        dist = np.abs(first - chains[k, -1])
        dist[used] = np.inf
        pick = int(np.argmin(dist))
        used[pick] = True
        starts.append(chains[k, -1:])
        ends.append(first[pick:pick + 1])
    gap = _distance_to_segments(wb, np.concatenate(starts), np.concatenate(ends))
    return float(gap.max())


def _interior_orbits_bounded(p: Polynomial, cfg: CheckConfig,
                             ctx: HullContext) -> bool:
    """Hull-interior samples must have bounded orbits on an equality candidate.

    Meaningful only when the bounded-orbit set has interior (circle-type
    candidates); segment-type sets have measure zero, where any sampling
    noise escapes eventually.
    """
    from .polynomial import _horner

    pts = _interior_points(ctx.hull_query, cfg.interior_samples, _rng(cfg, 4))
    radius = escape_radius(p)
    z = pts.copy()
    for _ in range(cfg.grid_max_iter):
        z = _horner(p.coeffs, z)
        if np.any(np.abs(z) > radius):
            return False
    return True


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

    Step 1 measures how far the hull boundary recedes from its own preimage
    curve; the distance vanishes exactly for hull-preserving polynomials.
    Only on (near-)equality does step 2 fit the Julia sample as a segment
    (Chebyshev normal form, either sign) or a circle (unimodular monomial
    normal form) and verify the conjugated coefficients.
    """
    ctx = ctx or build_context(p, cfg)
    d = p.degree
    gap = _boundary_preimage_gap(p, ctx.hull, cfg.boundary_samples,
                                 cfg.residual_tol)
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
        if not _interior_orbits_bounded(p, cfg, ctx):
            # hull equality forces the hull inside the bounded-orbit set;
            # escaping interior samples expose a false candidate
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
        "equality without segment/circle shape - increase n")


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
