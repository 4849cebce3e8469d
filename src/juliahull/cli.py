"""Command-line front end: parse polynomials, run checks, emit reports.

Verbs: ``check`` (five hull checks), ``classify`` (equality classifier),
``suite`` (checks plus classifier), ``render`` (SVG scene).  Reports go to
stdout or ``--out`` as JSON (default) or CSV.

Exit codes: 0 all passed, 1 some check failed, 2 usage error,
3 inconclusive outcome (including a root solver or sampler failure).
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

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
)
from .julia import SamplingError
from .polynomial import Polynomial, chebyshev, format_complex, monomial
from .roots import RootSolveError

_PRESETS = ("cheb", "negcheb", "monomial", "quad")

_FLOAT_PATTERN = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(
    rf"^(?P<re>{_FLOAT_PATTERN})(?:(?P<im>[+-](?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)i)?$"
)
# A coefficient list may start with a minus sign ("-1,0,2"); argparse would
# read such a separate --poly value as a flag.
_NEGATIVE_VALUE_RE = re.compile(r"^-[\d.]")


class ParseError(ValueError):
    """Malformed polynomial text; ``column`` is 1-based."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


@dataclass(eq=False)
class PolySpec:
    """Parsed CLI polynomial: original text, coefficients, optional preset tag."""

    source: str
    polynomial: Polynomial
    preset: Optional[str] = None


def parse_complex(token: str, column: int = 1) -> complex:
    m = _COMPLEX_RE.match(token)
    if not m:
        raise ParseError(f"malformed complex literal {token!r}", column)
    re_part = float(m.group("re"))
    im_part = float(m.group("im")) if m.group("im") else 0.0
    return complex(re_part, im_part)


def _parse_preset(text: str) -> PolySpec:
    head, _, rest = text.partition(":")
    if head == "quad":
        c = parse_complex(rest, column=len(head) + 2)
        return PolySpec(text, Polynomial([c, 0.0, 1.0]), preset=text)
    if head in ("cheb", "negcheb"):
        if not rest.isdigit():
            raise ParseError(f"preset degree must be an integer, got {rest!r}",
                             len(head) + 2)
        d = int(rest)
        if d < 1:
            raise ParseError("preset degree must be >= 1", len(head) + 2)
        p = chebyshev(d)
        if head == "negcheb":
            p = Polynomial(-p.coeffs)
        return PolySpec(text, p, preset=text)
    # monomial:c,d
    c_text, comma, d_text = rest.rpartition(",")
    if not comma or not d_text.isdigit():
        raise ParseError("monomial preset needs the form monomial:c,d",
                         len(head) + 2)
    c = parse_complex(c_text, column=len(head) + 2)
    d = int(d_text)
    if d < 1 or abs(c) == 0.0:
        raise ParseError("monomial preset needs d >= 1 and c != 0",
                         len(head) + 2)
    return PolySpec(text, monomial(c, d), preset=text)


def parse_polynomial(text: str) -> PolySpec:
    """Parse a coefficient list ('-1,0,2') or a preset ('cheb:3')."""
    if not text:
        raise ParseError("empty polynomial text", 1)
    head = text.split(":", 1)[0]
    if head in _PRESETS:
        return _parse_preset(text)
    coeffs = []
    column = 1
    for token in text.split(","):
        if not token:
            raise ParseError("empty coefficient", column)
        coeffs.append(parse_complex(token, column))
        column += len(token) + 1
    try:
        return PolySpec(text, Polynomial(coeffs))
    except ValueError as exc:
        raise ParseError(str(exc), 1) from None


def worker_count() -> int:
    """Thread cap from JULIAHULL_THREADS; 0 or unset means automatic."""
    raw = os.environ.get("JULIAHULL_THREADS", "0")
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value > 0:
        return value
    return min(5, os.cpu_count() or 1)


_CHECK_RUNNERS = (
    check_backward_inclusion,
    check_critical_in_hull,
    check_filled_in_hull,
    check_preimage_convexity,
    check_half_plane_surjectivity,
)


def run_check_set(p: Polynomial, cfg: CheckConfig, ctx) -> list[CheckReport]:
    """The five checks against a shared context, optionally threaded."""
    workers = worker_count()
    if workers <= 1:
        return [run(p, cfg, ctx) for run in _CHECK_RUNNERS]
    with ThreadPoolExecutor(max_workers=min(workers, len(_CHECK_RUNNERS))) as pool:
        futures = [pool.submit(run, p, cfg, ctx) for run in _CHECK_RUNNERS]
        return [f.result() for f in futures]


def _exit_code(reports: list[CheckReport]) -> int:
    verdicts = [r.verdict for r in reports]
    if any(v == FAIL for v in verdicts):
        return 1
    if any(v == INCONCLUSIVE for v in verdicts):
        return 3
    return 0


def run_suite(spec: PolySpec, cfg: CheckConfig) -> tuple[int, list[dict]]:
    """All five checks plus the classifier; returns (exit code, JSON documents)."""
    p = spec.polynomial
    ctx = build_context(p, cfg)
    reports = run_check_set(p, cfg, ctx)
    classification = classify_equality(p, cfg, ctx)
    docs = [r.to_dict() for r in reports] + [classification.to_dict()]
    return _exit_code(reports), docs


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


def _emit(docs, fmt: str, out: Optional[str]) -> None:
    if fmt == "csv":
        text = _csv_text(docs if isinstance(docs, list) else [docs])
    else:
        text = json.dumps(docs, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
        cmd.add_argument("--n", type=int, default=100_000,
                         help="Julia sample count")
        cmd.add_argument("--m", type=int, default=512,
                         help="hull boundary samples")
        cmd.add_argument("--k", type=int, default=256,
                         help="hull interior samples")
        cmd.add_argument("--tol", type=float, default=1e-3,
                         help="relative tolerance (fraction of hull diameter)")
        cmd.add_argument("--seed", type=int, default=0)
        cmd.add_argument("--res", type=int, default=512,
                         help="escape grid resolution")
        cmd.add_argument("--max-iter", type=int, default=200,
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
        cfg = _config_from(args)
    except (ParseError, ValueError) as exc:
        print(f"juliahull: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "classify":
            ctx = build_context(spec.polynomial, cfg)
            classification = classify_equality(spec.polynomial, cfg, ctx)
            _emit(classification.to_dict(), "json", args.out)
            return 0
        if args.command == "check":
            ctx = build_context(spec.polynomial, cfg)
            reports = run_check_set(spec.polynomial, cfg, ctx)
            _emit([r.to_dict() for r in reports], args.format, args.out)
            return _exit_code(reports)
        if args.command == "suite":
            code, docs = run_suite(spec, cfg)
            _emit(docs, args.format, args.out)
            return code
        # render
        from .scene import render_scene
        svg, grid = render_scene(spec.polynomial, spec.source, cfg)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(svg)
        else:
            sys.stdout.write(svg)
        if args.raster_out:
            from .julia import to_pgm
            with open(args.raster_out, "wb") as fh:
                fh.write(to_pgm(grid))
        return 0
    except EqualityUnresolvedError as exc:
        print(f"juliahull: {exc}", file=sys.stderr)
        return 3
    except RootSolveError as exc:
        print(f"juliahull: root solver gave up: {exc}", file=sys.stderr)
        return 3
    except SamplingError as exc:
        print(f"juliahull: Julia sampling failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
