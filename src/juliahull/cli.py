"""Command-line front end: parse polynomials, run checks, emit reports.

Verbs: ``check`` (five hull checks), ``classify`` (equality classifier),
``suite`` (checks plus classifier), ``render`` (SVG scene).  Reports go to
stdout or ``--out`` as JSON (default) or CSV.

Every verb samples the Julia set once: ``main`` builds one ``HullContext``
and hands it to the checks, the classifier or the scene.

Exit codes: 0 all passed, 1 some check failed, 2 usage error, an
unwritable output path or out of memory, 3 inconclusive outcome
(including a root solver or sampler failure, and a classification whose
algebraic answer and measured hull gap disagree).
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .checks import (
    CheckConfig,
    CheckReport,
    EqualityUnresolvedError,
    FAIL,
    INCONCLUSIVE,
    build_context,
    check_backward_inclusion,
    check_critical_in_hull,
    check_filled_in_hull,
    check_half_plane_surjectivity,
    check_preimage_convexity,
    classify_equality,
    run_checks,
)
from .julia import SamplingError
from .polynomial import (  # noqa: F401  (parse_complex: part of this module's API)
    ParseError,
    Polynomial,
    escape_radius,
    format_complex,
    parse_complex,
    parse_polynomial,
)
from .roots import RootSolveError

# Largest escape radius R accepted.  Geometry squares coordinates up to
# about 2.1 R, which overflows double precision from R near 1e153 on.
_MAX_ESCAPE_RADIUS = 1e150

# Fiber solves stay finite while |a_d| rho^d on the solver's start circle
# (see _start_circle_log10) stays below 1e308.
_MAX_START_LOG10 = 308.0

# A coefficient list may start with a minus sign ("-1,0,2"); argparse would
# read such a separate --poly value as a flag.
_NEGATIVE_VALUE_RE = re.compile(r"^-[\d.]")


# Inert aliases: checks.run_checks runs the checks, but the benchmark harness
# (perfbench/spans.py and perfbench/test_smoke.py) still reads these names.
_CHECK_RUNNERS = (check_backward_inclusion, check_critical_in_hull, check_filled_in_hull,
                  check_preimage_convexity, check_half_plane_surjectivity)
run_check_set = run_checks


def _start_circle_log10(p: Polynomial, radius: float) -> float:
    """log10 of |a_d| rho^d for the fiber solves of the half-plane check.

    That check solves p(z) = y for |y| up to 2R, and every circle that
    roots._initial_points starts Aberth on lies inside the Cauchy circle
    of radius rho = 1 + max(max_{0<j<d} |a_j|, |a_0| + 2R) / |a_d|: an
    edge of the Newton polygon ending at d has radius x^(1/(d-i)) <= 1 + x
    for x = |a_i| / |a_d|, and the other edges have smaller radii.
    """
    mods = [abs(complex(c)) for c in p.coeffs]
    lead = mods[-1]
    top = max(max(mods[1:-1]), mods[0] + 2.0 * radius)
    return math.log10(lead) + p.degree * (math.log10(lead + top) - math.log10(lead))


def _exit_code(reports: list[CheckReport]) -> int:
    verdicts = [r.verdict for r in reports]
    if any(v == FAIL for v in verdicts):
        return 1
    if any(v == INCONCLUSIVE for v in verdicts):
        return 3
    return 0


_CSV_COLUMNS = ("check", "verdict", "worst_violation", "witnesses", "polynomial",
                "kind", "conjugation_a", "conjugation_b", "sign_or_c",
                "coefficient_residual")


def _csv_text(docs: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for doc in docs:
        row = dict.fromkeys(_CSV_COLUMNS, "")
        if "check" in doc:
            row.update(check=doc["check"], verdict=doc["verdict"],
                       worst_violation="" if doc["worst_violation"] is None
                       else repr(doc["worst_violation"]),
                       witnesses=len(doc["witnesses"]),
                       polynomial=doc["polynomial"])
        else:
            row["check"] = "classification"
            row["kind"] = doc["kind"]
            for key in ("conjugation_a", "conjugation_b", "sign_or_c"):
                if doc[key] is not None:
                    row[key] = format_complex(complex(doc[key][0], doc[key][1]))
            if doc["coefficient_residual"] is not None:
                row["coefficient_residual"] = repr(doc["coefficient_residual"])
        writer.writerow(row)
    return buf.getvalue()


def _output(text: str, out: Optional[str]) -> None:
    """Write ``text`` to the path ``out``, or to stdout when there is none."""
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit(docs, fmt: str, out: Optional[str]) -> None:
    if fmt == "csv":
        text = _csv_text(docs)
    else:
        text = json.dumps(docs, indent=2) + "\n"
    _output(text, out)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="juliahull",
        description="Check and explore convex-hull invariance of Julia sets.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("check", "classify", "render", "suite"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--poly", required=True,
                         help="coefficients 'a0,a1,...' or preset cheb:d, "
                              "negcheb:d, monomial:c,d, quad:c")
        cmd.add_argument("--n", type=int, default=CheckConfig.julia_samples,
                         help="Julia sample count")
        cmd.add_argument("--m", type=int, default=CheckConfig.boundary_samples,
                         help="hull boundary samples")
        cmd.add_argument("--k", type=int, default=CheckConfig.interior_samples,
                         help="hull interior samples")
        cmd.add_argument("--tol", type=float, default=CheckConfig.tol_rel,
                         help="relative tolerance (fraction of hull diameter)")
        cmd.add_argument("--seed", type=int, default=CheckConfig.seed)
        cmd.add_argument("--res", type=int, default=CheckConfig.grid_resolution,
                         help="escape grid resolution")
        cmd.add_argument("--max-iter", type=int, default=CheckConfig.grid_max_iter,
                         help="escape grid iteration cap")
        cmd.add_argument("--out", default=None, help="output path (default stdout)")
        if name in ("check", "suite"):
            cmd.add_argument("--format", choices=("json", "csv"), default="json")
        if name == "render":
            cmd.add_argument("--raster-out", default=None,
                             help="also write the escape grid as binary PGM")
    return parser


def _attach_poly_values(argv: list) -> list:
    """Rewrite ``--poly -1,0,2`` as ``--poly=-1,0,2`` so argparse keeps the value."""
    out, i = [], 0
    while i < len(argv):
        if (argv[i] == "--poly" and i + 1 < len(argv)
                and _NEGATIVE_VALUE_RE.match(argv[i + 1])):
            out.append(f"--poly={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def _config_from(args) -> CheckConfig:
    return CheckConfig(
        julia_samples=args.n, boundary_samples=args.m, interior_samples=args.k,
        tol_rel=args.tol, seed=args.seed,
        grid_resolution=args.res, grid_max_iter=args.max_iter,
    )


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_attach_poly_values(argv))
    try:
        spec = parse_polynomial(args.poly)
        if spec.polynomial.degree < 2:
            raise ParseError("checks need a polynomial of degree >= 2", 1)
        with np.errstate(over="ignore"):
            radius = escape_radius(spec.polynomial)
        if radius > _MAX_ESCAPE_RADIUS:
            raise ValueError(f"escape radius {radius:.3g} exceeds {_MAX_ESCAPE_RADIUS:.0e}"
                             "; the hull geometry would overflow")
        start = _start_circle_log10(spec.polynomial, radius)
        if start >= _MAX_START_LOG10:
            raise ValueError(f"|p| reaches 1e{start:.1f} on the root solver's start "
                             "circle; double precision overflows at 1e308")
        cfg = _config_from(args)
    except (ParseError, ValueError) as exc:
        print(f"juliahull: {exc}", file=sys.stderr)
        return 2

    try:
        ctx = build_context(spec.polynomial, cfg)
        if args.command == "classify":
            _emit(classify_equality(ctx).to_dict(), "json", args.out)
            return 0
        if args.command == "render":
            from .scene import render_scene
            svg, reports = render_scene(ctx, spec.source)
            _output(svg, args.out)
            if args.raster_out:
                from .julia import to_pgm
                Path(args.raster_out).write_bytes(to_pgm(ctx.grid))
            return _exit_code(reports)
        reports = run_checks(ctx)
        docs = [r.to_dict() for r in reports]
        if args.command == "suite":
            docs.append(classify_equality(ctx).to_dict())
        _emit(docs, args.format, args.out)
        return _exit_code(reports)
    except OSError as exc:  # only the output writes touch the file system
        print(f"juliahull: cannot write {exc.filename}: {exc.strerror}",
              file=sys.stderr)
        return 2
    except EqualityUnresolvedError as exc:
        print(f"juliahull: {exc}", file=sys.stderr)
        return 3
    except RootSolveError as exc:
        print(f"juliahull: root solver gave up: {exc}", file=sys.stderr)
        return 3
    except SamplingError as exc:
        print(f"juliahull: Julia sampling failed: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"juliahull: out of memory ({exc or 'allocation failed'}); "
              "lower --n, --k or --res", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
