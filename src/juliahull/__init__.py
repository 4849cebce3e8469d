"""Numerical exploration of convex hulls of polynomial Julia sets."""

from .polynomial import (
    AffineMap,
    ParseError,
    Polynomial,
    PolySpec,
    chebyshev,
    compose,
    conjugate,
    derivative,
    escape_radius,
    evaluate,
    format_complex,
    format_polynomial,
    monomial,
    parse_polynomial,
)
from .roots import (
    NoRepellingFixedPointError,
    RootSet,
    RootSolveError,
    all_roots,
    critical_points,
    preimage_fibers,
    repelling_fixed_point,
)
from .julia import (
    EscapeGrid,
    PointCloud,
    SamplingError,
    boundary_cells,
    escape_grid,
    sample_julia,
    to_pgm,
)
from .geometry import (
    ConvexPolygon,
    boundary_points,
    convex_hull,
    polygon_hausdorff,
    signed_distance,
)
from .checks import (
    CheckConfig,
    CheckReport,
    Classification,
    EqualityUnresolvedError,
    build_context,
    check_backward_inclusion,
    check_critical_in_hull,
    check_filled_in_hull,
    check_half_plane_surjectivity,
    check_preimage_convexity,
    classify_equality,
    run_checks,
)

__version__ = "0.1.0"
