"""Hull-invariance checks and the equality-case classifier.

``build_context`` samples the Julia set once and keeps its convex hull H,
the diameter and the config in a ``HullContext``.  Every check, the
classifier and ``run_checks`` take that context and nothing else: the
polynomial and the config are read from it, so a report cannot mix two
polynomials.  A check measures how badly an expected inclusion fails, in
plain Euclidean distance, and passes when the worst violation stays below
tol_rel times the hull diameter.  A root solver failure inside a check
reads Inconclusive, with the solver's message as the note.  The
classifier takes the equality kind from the coefficients alone, by an
affine normal form, and checks it against the measured hull gap.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property, wraps
from typing import Optional

import numpy as np

from .geometry import (
    ConvexPolygon,
    _min_area_rectangle,
    boundary_points,
    convex_hull,
    decimate,
    signed_distance,
)
from .julia import (
    EscapeGrid,
    PointCloud,
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
from .roots import (RESIDUAL_TOL, RootSolveError, critical_points, preimage_fibers,
                    solve_fibers)

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

# Admissible pairs the preimage-convexity check mixes, and its rejection
# sampling: at most _ROUNDS rounds of _ROUND_SIZE targets, solved in
# batches of rounds.  The first batch holds _FIRST_ROUNDS, because most
# polynomials reach the count in two or three rounds.
_PAIR_TARGET = 100
_ROUNDS = 60
_ROUND_SIZE = 128
_FIRST_ROUNDS = 2

# Half-planes and targets of the half-plane surjectivity check.
_PLANES = 20
_PLANE_TARGETS = 50


class EqualityUnresolvedError(RuntimeError):
    """The normal form and the measured hull gap disagree on hull equality."""


# Every accepted tol_rel lies below this bound (``CheckConfig``).
_TOL_REL_LIMIT = 0.05


@dataclass
class CheckConfig:
    """Sampling and tolerance knobs shared by all checks."""

    julia_samples: int = 100_000
    boundary_samples: int = 512
    interior_samples: int = 256
    tol_rel: float = 1e-3
    seed: int = 0
    # the root solver's constant, shown in reports; not a setting
    residual_tol: float = field(default=RESIDUAL_TOL, init=False)
    grid_resolution: int = 512
    grid_max_iter: int = 200

    def __post_init__(self):
        if self.julia_samples < 1000:
            raise ValueError("julia_samples must be at least 1000")
        if self.boundary_samples < 16 or self.interior_samples < 16:
            raise ValueError("boundary and interior sample counts must be >= 16")
        if not 0.0 < self.tol_rel < _TOL_REL_LIMIT:
            raise ValueError(f"tol_rel must lie in (0, {_TOL_REL_LIMIT:g})")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
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
    plane.  ``coefficient_residual`` is the largest coefficient error of
    g o p o g^-1 against that form, relative to the form's largest
    coefficient; ``match_residual`` is the same residual for the nearest
    normal-form candidate, matched or not.
    """

    kind: str
    conjugation: Optional[AffineMap]
    sign_or_c: Optional[complex]
    coefficient_residual: Optional[float]
    hull_gap: float
    match_residual: float

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
    """One polynomial's sample, hull and escape grid: the argument of every check."""

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
    cloud = sample_julia(p, cfg.julia_samples, cfg.seed)
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
    """Dirichlet-weighted convex combinations of hull vertices (exactly inside).

    Each row of weights times the vertices is summed by numpy's own
    reduction, not a BLAS product, so the points do not depend on the BLAS
    build or its threads, and each equals the sum of its row alone.
    """
    v = hull.vertices
    if v.size == 1:
        return np.full(count, v[0])
    weights = rng.dirichlet(np.ones(v.size), size=count)
    return (weights * v).sum(axis=1)


def _report(ctx: HullContext, check: str, candidates: np.ndarray,
            violations: np.ndarray, note: str = "") -> CheckReport:
    """Verdict on the largest violation, with up to 10 worst witnesses on Fail."""
    worst = violations.max()
    if not math.isfinite(worst):
        return _inconclusive(ctx, check, f"worst violation is {worst}")
    tol = ctx.config.tol_rel * ctx.diameter
    verdict = PASS if worst <= tol else FAIL
    witnesses: list = []
    if verdict == FAIL:
        # a stable sort lists exactly tied witnesses in candidate order
        order = np.argsort(-violations, kind="stable")[:10]
        witnesses = [complex(candidates[i]) for i in order if violations[i] > tol]
    return CheckReport(check, verdict, float(worst), witnesses, ctx.config,
                       format_polynomial(ctx.polynomial), note)


def _inconclusive(ctx: HullContext, check: str, note: str) -> CheckReport:
    return CheckReport(check, INCONCLUSIVE, None, [], ctx.config,
                       format_polynomial(ctx.polynomial), note)


def _solver_guarded(check_fn):
    """Turn a RootSolveError inside ``check_<name>`` into an Inconclusive report."""
    name = check_fn.__name__.removeprefix("check_")

    @wraps(check_fn)
    def guarded(ctx: HullContext) -> CheckReport:
        try:
            return check_fn(ctx)
        except RootSolveError as exc:
            return _inconclusive(ctx, name, str(exc))

    return guarded


@_solver_guarded
def check_backward_inclusion(ctx: HullContext) -> CheckReport:
    """Preimages of boundary and interior hull samples must stay in the hull."""
    cfg = ctx.config
    targets = np.concatenate([
        boundary_points(ctx.hull, cfg.boundary_samples),
        _interior_points(ctx.hull_query, cfg.interior_samples, _rng(cfg, 1)),
    ])
    points = preimage_fibers(ctx.polynomial, targets).ravel()
    return _report(ctx, BACKWARD_INCLUSION, points,
                   signed_distance(ctx.hull_query, points))


@_solver_guarded
def check_critical_in_hull(ctx: HullContext) -> CheckReport:
    """Every zero of p' must lie inside the hull."""
    crit = critical_points(ctx.polynomial)
    return _report(ctx, CRITICAL_IN_HULL, crit.roots,
                   signed_distance(ctx.hull_query, crit.roots))


def check_filled_in_hull(ctx: HullContext) -> CheckReport:
    """Bounded-orbit raster cells must sit inside the hull (cell diagonal slack).

    Signed distance to a convex polygon is convex, and a bounded cell with
    four bounded neighbours is the midpoint of two of them, so the largest
    violation lies on a boundary cell.  On Fail every bounded cell is
    measured, so the witnesses rank interior cells too.
    """
    grid = ctx.grid
    centers = boundary_cells(grid)
    slack = grid.cell_size * math.sqrt(2.0)
    if centers.size == 0:
        return CheckReport(FILLED_IN_HULL, PASS, -slack, [], ctx.config,
                           format_polynomial(ctx.polynomial),
                           "raster holds no bounded cells")
    violations = signed_distance(ctx.hull_query, centers) - slack
    if violations.max() > ctx.config.tol_rel * ctx.diameter:
        centers = grid.true_centers()
        violations = signed_distance(ctx.hull_query, centers) - slack
    return _report(ctx, FILLED_IN_HULL, centers, violations)


@_solver_guarded
def check_preimage_convexity(ctx: HullContext) -> CheckReport:
    """Targets whose full fiber sits in the hull form a convex set.

    Admissible targets are found by rejection sampling over the least-area
    rectangle enclosing the decimated hull (for a thin, turned hull it is
    far smaller than the axis-parallel box), round after round, until a
    round brings the count to 2 * _PAIR_TARGET or _ROUNDS rounds are
    spent; every interior convex combination (t = 0.1 .. 0.9) of up to
    _PAIR_TARGET admissible pairs must be admissible again.  The rounds are
    drawn in order but solved in batches: the first holds _FIRST_ROUNDS
    rounds, and each later one as many as the admissible rate so far says
    are still needed.  A fiber does not depend on the batch it is solved
    in, and admissible targets are listed in the order drawn, of which the
    pairs use only the first 2 * _PAIR_TARGET, so the result is that of
    solving one round at a time.
    """
    p, cfg = ctx.polynomial, ctx.config
    rng = _rng(cfg, 2)
    tol = cfg.tol_rel * ctx.diameter
    corner, axis, width, height = _min_area_rectangle(ctx.hull_query)
    need = 2 * _PAIR_TARGET
    admissible: list = []
    drawn, batch = 0, _FIRST_ROUNDS
    while drawn < _ROUNDS and len(admissible) < need:
        rounds = min(batch, _ROUNDS - drawn)
        w = corner + axis * np.concatenate([rng.uniform(0.0, width, _ROUND_SIZE)
                                            + 1j * rng.uniform(0.0, height, _ROUND_SIZE)
                                            for _ in range(rounds)])
        drawn += rounds
        roots, _, ok = solve_fibers(p, w)
        sd = signed_distance(ctx.hull_query, roots.ravel()).reshape(roots.shape)
        good = ok & (sd.max(axis=1) <= tol)
        admissible.extend(w[good].tolist())
        batch = (math.ceil((need - len(admissible)) * drawn / len(admissible))
                 if admissible else _ROUNDS)
    pairs = len(admissible) // 2
    if pairs < 10:
        return _inconclusive(ctx, PREIMAGE_CONVEXITY,
                             f"fewer than 10 admissible pairs found ({pairs})")
    pairs = min(pairs, _PAIR_TARGET)
    w1 = np.array(admissible[0:2 * pairs:2])
    w2 = np.array(admissible[1:2 * pairs:2])
    ts = np.linspace(0.1, 0.9, 9)
    mixed = (ts[:, None] * w1[None, :] + (1.0 - ts)[:, None] * w2[None, :]).ravel()
    points = preimage_fibers(p, mixed).ravel()
    return _report(ctx, PREIMAGE_CONVEXITY, points,
                   signed_distance(ctx.hull_query, points),
                   note=f"{pairs} admissible pairs tested")


@_solver_guarded
def check_half_plane_surjectivity(ctx: HullContext) -> CheckReport:
    """Half-planes touching the critical hull map onto the whole plane.

    For each of _PLANES half-planes E through the convex hull of the
    critical points and each of _PLANE_TARGETS targets y, at least one
    preimage of y must lie in E.
    """
    p, cfg = ctx.polynomial, ctx.config
    rng = _rng(cfg, 3)
    crit_hull = convex_hull(critical_points(p).roots)
    pivots = _interior_points(crit_hull, _PLANES, rng)
    angles = rng.uniform(0.0, 2.0 * np.pi, _PLANES)
    normals = np.exp(1j * angles)
    radius = 2.0 * escape_radius(p)
    u = rng.uniform(0.0, 1.0, _PLANE_TARGETS)
    phase = rng.uniform(0.0, 2.0 * np.pi, _PLANE_TARGETS)
    ys = radius * np.sqrt(u) * np.exp(1j * phase)
    fibers = preimage_fibers(p, ys)
    # margin of the best fiber point relative to each half-plane boundary
    proj = (fibers[None, :, :] * np.conj(normals)[:, None, None]).real
    offsets = (pivots * np.conj(normals)).real
    best = proj.max(axis=2)
    shortfall = offsets[:, None] - best
    target_grid = np.broadcast_to(ys[None, :], shortfall.shape).ravel()
    return _report(ctx, HALF_PLANE_SURJECTIVITY, target_grid, shortfall.ravel())


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


def _normal_form(p: Polynomial):
    """Canonical match of p against +-T_d and z^d, and the nearest residual.

    Each candidate map g(z) = alpha (z + s), s = a_{d-1} / (d a_d), removes
    the z^{d-1} term of g o p o g^-1, which the three normal forms lack,
    and alpha^{d-1} = a_d / lead(F) gives it the leading coefficient of the
    form F: d - 1 maps for each sign of T_d.  For c z^d the one real
    alpha = |a_d|^{1/(d-1)} > 0 maps J_p to the unit circle, with
    c = a_d / |a_d|.  A candidate's residual is the largest coefficient
    error of g o p o g^-1 relative to the largest coefficient of F.
    Returns (kind, sign_or_c, g, residual) of the canonical match (positive
    sign first, then the map closest to the identity), or None, and the
    smallest residual of any candidate.
    """
    d, lead = p.degree, complex(p.coeffs[-1])
    s = complex(p.coeffs[-2]) / (d * lead)
    forms = []
    for sign in (1.0, -1.0):
        target = sign * chebyshev(d).coeffs
        ratio = lead / complex(target[-1])
        turns = (np.angle(ratio) + 2.0 * np.pi * np.arange(d - 1)) / (d - 1)
        for alpha in abs(ratio) ** (1.0 / (d - 1)) * np.exp(1j * turns):
            forms.append((CHEBYSHEV_CONJUGATE, complex(sign), alpha, target))
    unit = lead / abs(lead)
    forms.append((MONOMIAL_CONJUGATE, unit, abs(lead) ** (1.0 / (d - 1)),
                  monomial(unit, d).coeffs))
    candidates = []
    for kind, sign_or_c, alpha, target in forms:
        g = AffineMap(alpha, alpha * s)
        resid = float(np.abs(conjugate(p, g).coeffs - target).max()
                      / np.abs(target).max())
        candidates.append((kind, sign_or_c, g, resid))
    nearest = min(c[3] for c in candidates)
    matches = [c for c in candidates if c[3] <= _MATCH_TOL]
    if not matches:
        return None, nearest
    return min(matches, key=lambda c: (c[1] != 1.0,
                                       abs(c[2].a - 1.0) + abs(c[2].b),
                                       c[3])), nearest


def classify_equality(ctx: HullContext) -> Classification:
    """Decide between strict preimage inclusion and the two equality families.

    p^-1(H) = H holds only for affine conjugates of +-T_d and of c z^d.
    The kind comes from algebra: the normal form of p (``_normal_form``)
    matches one of those or none.  The hull gap, the largest distance from
    p(boundary of H) to that boundary, is the measurement: it vanishes
    exactly on equality.  A match with the gap within tol_rel * diam gives
    the equality kind, no match with the gap above it StrictInclusion, and
    a disagreement raises EqualityUnresolvedError with both numbers.
    """
    p, cfg = ctx.polynomial, ctx.config
    gap = _boundary_image_gap(p, ctx.hull, ctx.hull_query, cfg.boundary_samples)
    within = gap <= cfg.tol_rel * ctx.diameter
    match, nearest = _normal_form(p)
    if match is not None and within:
        kind, sign_or_c, g, resid = match
        return Classification(kind, g, sign_or_c, resid, hull_gap=gap,
                              match_residual=nearest)
    if match is None and not within:
        return Classification(STRICT_INCLUSION, None, None, None, hull_gap=gap,
                              match_residual=nearest)
    gap_text = f"hull gap {gap / ctx.diameter:.3g} x diameter"
    if match is None:
        raise EqualityUnresolvedError(
            f"{gap_text} is within tol_rel {cfg.tol_rel:g}, but the normal form "
            f"matches neither +-T_d nor z^d (residual {nearest:.3g}); lower "
            "--tol to test for strict inclusion, or increase n (--n) to "
            "sharpen the sample")
    if gap < _TOL_REL_LIMIT * ctx.diameter:
        advice = "raise --tol to accept the gap"
    else:
        advice = f"no accepted --tol covers the gap, as --tol must lie below {_TOL_REL_LIMIT:g}"
    raise EqualityUnresolvedError(
        f"the normal form reads {match[0]} (residual {match[3]:.3g}), but the "
        f"{gap_text} exceeds tol_rel {cfg.tol_rel:g}; the Julia sample is not "
        f"accurate enough to show the hull equality: {advice}")


def run_checks(ctx: HullContext) -> list[CheckReport]:
    """All five checks against one shared context, in canonical order."""
    # module names, looked up per call: tracers patch them there
    return [
        check_backward_inclusion(ctx),
        check_critical_in_hull(ctx),
        check_filled_in_hull(ctx),
        check_preimage_convexity(ctx),
        check_half_plane_surjectivity(ctx),
    ]
