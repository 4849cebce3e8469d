"""Numerical exploration of convex hulls of polynomial Julia sets."""

from .polynomial import (
    AffineMap,
    Polynomial,
    chebyshev,
    compose,
    conjugate,
    derivative,
    escape_radius,
    evaluate,
    format_complex,
    format_polynomial,
    monomial,
)
from .roots import (
    NoRepellingFixedPointError,
    RootSet,
    RootSolveError,
    all_roots,
    critical_points,
    preimage_fibers,
    preimages,
    repelling_fixed_point,
)
from .julia import (
    EscapeGrid,
    PointCloud,
    SamplingError,
    boundary_cells,
    escape_grid,
    holo_hull_fill,
    rasterize_points,
    sample_julia,
    to_pgm,
)
from .geometry import (
    CircleShape,
    ConvexPolygon,
    GenericShape,
    HalfPlane,
    SegmentShape,
    boundary_points,
    classify_shape,
    convex_hull,
    hausdorff_distance,
    polygon_hausdorff,
    separating_half_plane,
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
from .cli import ParseError, PolySpec, parse_polynomial, run_suite

__version__ = "0.1.0"
