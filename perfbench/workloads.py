"""Seeded workload generator: the CLI invocations one pass of a workload makes.

Each op is one ``juliahull`` command line plus what its output must say.
The seed reaches the program only as ``--seed`` and through the generated
coefficients, never as a knob of the harness.

Coefficient lists are written in the CLI grammar from plain ``float``
values (``repr(float)``), and passed as ``--poly=TEXT``: argparse reads a
separate ``--poly "-1,0,2"`` value that starts with ``-`` as a flag and
exits 2.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

STRICT = "StrictInclusion"
CHEBYSHEV = "ChebyshevConjugate"
MONOMIAL = "MonomialConjugate"

# Vertices of the polygon standing in for the unit circle, the exact hull of
# a unimodular monomial's Julia set (sagitta 1 - cos(pi/2**16) ~ 1.2e-9).
CIRCLE_VERTICES = 2 ** 16

WORKLOADS = ("generic-suite", "equality-suite", "render-grid")


@dataclass(frozen=True)
class ExactHull:
    """Known hull of J_p: a segment [a, b] or a circle (center, radius)."""

    kind: str  # "segment" or "circle"
    a: complex = 0j
    b: complex = 0j
    center: complex = 0j
    radius: float = 0.0

    @property
    def diameter(self) -> float:
        return abs(self.b - self.a) if self.kind == "segment" else 2.0 * self.radius


@dataclass
class Op:
    """One CLI invocation and its known answer."""

    key: str                     # stable name of the op within its workload
    verb: str                    # "suite" or "render"
    poly: str                    # text given to --poly
    argv: list
    kind: str                    # expected classification kind
    exact: Optional[ExactHull] = None
    res: int = 0                 # render: escape-grid resolution (PGM size)
    out_files: list = field(default_factory=list)


def format_coeff(z: complex) -> str:
    """A complex literal in the CLI grammar, exact for float64 parts."""
    re_part, im_part = float(z.real), float(z.imag)
    sign = "-" if math.copysign(1.0, im_part) < 0 else "+"
    return f"{re_part!r}{sign}{abs(im_part)!r}i"


def format_coeffs(coeffs) -> str:
    return ",".join(format_coeff(complex(c)) for c in coeffs)


def _conjugate_coeffs(coeffs: np.ndarray, a: complex, b: complex) -> np.ndarray:
    """Ascending coefficients of g o p o g^-1 for g(z) = a z + b."""
    # p(g^-1(z)) with g^-1(z) = (z - b)/a, expanded by Horner on polynomials
    inner = np.array([-b / a, 1.0 / a], dtype=np.complex128)
    out = coeffs[-1:].astype(np.complex128)
    for c in coeffs[-2::-1]:
        out = np.convolve(out, inner)
        out[0] += c
    out = out * a
    out[0] += b
    return out


def chebyshev_coeffs(d: int) -> np.ndarray:
    prev = np.array([1.0 + 0j])
    cur = np.array([0j, 1.0 + 0j])
    for _ in range(d - 1):
        nxt = np.zeros(cur.size + 1, dtype=np.complex128)
        nxt[1:] = 2.0 * cur
        nxt[: prev.size] -= prev
        prev, cur = cur, nxt
    return cur


def _suite_op(key: str, poly: str, seed: int, kind: str, sizes: dict,
              exact: Optional[ExactHull] = None) -> Op:
    argv = ["suite", f"--poly={poly}", "--seed", str(seed)] + sizes.get("suite", [])
    return Op(key, "suite", poly, argv, kind, exact)


def _render_op(key: str, poly: str, seed: int, workdir: Path, sizes: dict) -> Op:
    n, res, max_iter = sizes["render"]
    svg = workdir / f"{key}.svg"
    pgm = workdir / f"{key}.pgm"
    argv = ["render", f"--poly={poly}", "--seed", str(seed), "--n", str(n),
            "--res", str(res), "--max-iter", str(max_iter),
            "--out", str(svg), "--raster-out", str(pgm)]
    return Op(key, "render", poly, argv, STRICT, res=res, out_files=[svg, pgm])


FULL_SIZES = {"suite": [], "render": (20_000, 2048, 1000)}
# Small sizes for the harness smoke test.
TINY_SIZES = {"suite": ["--n", "2000", "--m", "32", "--k", "16", "--res", "64",
                        "--max-iter", "50"],
              "render": (2000, 64, 50)}


def make_workload(name: str, seed: int, workdir: Path,
                  sizes: Optional[dict] = None) -> list[Op]:
    """The ops of one pass of workload ``name`` at ``seed``."""
    sizes = FULL_SIZES if sizes is None else sizes
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    if name == "generic-suite":
        ops = [_suite_op("basilica", "quad:-1+0i", seed, STRICT, sizes),
               _suite_op("rabbit", "quad:-0.12+0.74i", seed, STRICT, sizes)]
        for d in range(2, 7):
            coeffs = rng.uniform(0, 1, d + 1) + 1j * rng.uniform(0, 1, d + 1)
            ops.append(_suite_op(f"random-d{d}", format_coeffs(coeffs), seed,
                                 STRICT, sizes))
        return ops
    if name == "equality-suite":
        # a seeded affine conjugate g o T_5 o g^-1; its Julia set is g([-1, 1])
        a = rng.uniform(0.5, 1.5) * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
        b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        t5 = _conjugate_coeffs(chebyshev_coeffs(5), a, b)
        circle = ExactHull("circle", center=0j, radius=1.0)
        return [
            _suite_op("monomial-c3", "monomial:0.6+0.8i,3", seed, MONOMIAL,
                      sizes, circle),
            _suite_op("monomial-2", "monomial:1,2", seed, MONOMIAL, sizes, circle),
            _suite_op("cheb4", "cheb:4", seed, CHEBYSHEV, sizes,
                      ExactHull("segment", a=-1 + 0j, b=1 + 0j)),
            _suite_op("cheb5-conjugate", format_coeffs(t5), seed, CHEBYSHEV,
                      sizes, ExactHull("segment", a=b - a, b=b + a)),
        ]
    if name == "render-grid":
        return [_render_op("rabbit", "quad:-0.12+0.74i", seed, workdir, sizes),
                _render_op("basilica", "quad:-1+0i", seed, workdir, sizes),
                _render_op("siegel", "quad:-0.39+0.59i", seed, workdir, sizes)]
    raise ValueError(f"unknown workload {name!r}")


def exact_polygon(exact: ExactHull):
    """The exact hull as a ``ConvexPolygon`` for ``polygon_hausdorff``."""
    from juliahull.geometry import PROPER, SEGMENT, ConvexPolygon

    if exact.kind == "segment":
        ends = sorted([exact.a, exact.b], key=lambda z: (z.real, z.imag))
        return ConvexPolygon(np.array(ends), SEGMENT)
    angles = 2.0 * np.pi * np.arange(CIRCLE_VERTICES) / CIRCLE_VERTICES
    return ConvexPolygon(exact.center + exact.radius * np.exp(1j * angles), PROPER)
