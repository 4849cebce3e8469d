"""Deterministic SVG scenes: raster underlay, hull, preimages, critical points.

The escape-grid underlay is embedded as a base64 grayscale PNG written by
a tiny encoder here, so repeated invocations produce byte-identical files.
"""
from __future__ import annotations

import base64
import struct
import zlib

import numpy as np

from .checks import HullContext, classify_equality, run_checks
from .geometry import POINT, SEGMENT, boundary_points
from .julia import _GRID_SPAN
from .julia import escape_grid  # noqa: F401  (read by perfbench/test_smoke.py)
from .roots import critical_points, preimage_fibers

_VIEW = 1000.0  # viewport edge in SVG user units
_CLOUD_MARKS = 2000
_PREIMAGE_TARGETS = 64


def _png_gray(img: np.ndarray) -> bytes:
    """Minimal 8-bit grayscale PNG encoder (filter 0 rows, one IDAT)."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    height, width = img.shape
    raw = b"".join(b"\x00" + img[row].tobytes() for row in range(height))

    def chunk(tag: bytes, data: bytes) -> bytes:
        return (struct.pack(">I", len(data)) + tag + data
                + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF))

    header = struct.pack(">IIBBBBB", width, height, 8, 0, 0, 0, 0)
    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", header)
            + chunk(b"IDAT", zlib.compress(raw, 6)) + chunk(b"IEND", b""))


def _fmt(x: float) -> str:
    return f"{x:.2f}"


class _Camera:
    """World square [-span, span]^2 to SVG coordinates, y axis flipped."""

    def __init__(self, span: float):
        self.span = span

    def x(self, value: float) -> float:
        return (value + self.span) / (2.0 * self.span) * _VIEW

    def y(self, value: float) -> float:
        return (self.span - value) / (2.0 * self.span) * _VIEW

    def point(self, z: complex) -> tuple[float, float]:
        x, y = self.x(z.real), self.y(z.imag)
        if not (-1.0 <= x <= _VIEW + 1.0 and -1.0 <= y <= _VIEW + 1.0):
            raise AssertionError(f"scene coordinate {z!r} left the viewport")
        return x, y


def _circle_marks(cam: _Camera, zs, radius: float, fill: str) -> list[str]:
    out = []
    for z in zs:
        x, y = cam.point(complex(z))
        out.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{radius}" '
                   f'fill="{fill}"/>')
    return out


def _cross_marks(cam: _Camera, zs, arm: float, stroke: str) -> list[str]:
    out = []
    for z in zs:
        x, y = cam.point(complex(z))
        out.append(
            f'<path d="M {_fmt(x - arm)} {_fmt(y - arm)} L {_fmt(x + arm)} {_fmt(y + arm)} '
            f'M {_fmt(x - arm)} {_fmt(y + arm)} L {_fmt(x + arm)} {_fmt(y - arm)}" '
            f'stroke="{stroke}" stroke-width="2" fill="none"/>')
    return out


def _hull_path(cam: _Camera, hull) -> str:
    pts = [cam.point(complex(v)) for v in hull.vertices]
    steps = " ".join(f"L {_fmt(x)} {_fmt(y)}" for x, y in pts[1:])
    closing = " Z" if hull.kind not in (SEGMENT, POINT) else ""
    x0, y0 = pts[0]
    return (f'<path d="M {_fmt(x0)} {_fmt(y0)} {steps}{closing}" '
            f'stroke="#14325a" stroke-width="2.5" fill="none"/>')


def render_scene(ctx: HullContext, label: str):
    """Compose the SVG scene for one context; returns (svg text, escape grid).

    Layers: bounded-set raster underlay, Julia sample cloud, hull outline,
    preimages of hull boundary samples, critical points, and a legend with
    the check verdicts and the classification.
    """
    p, cfg = ctx.polynomial, ctx.config
    reports = run_checks(ctx)
    classification = classify_equality(ctx)
    grid = ctx.grid

    span = _GRID_SPAN * grid.radius
    cam = _Camera(span)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_VIEW:.0f}" '
        f'height="{_VIEW:.0f}" viewBox="0 0 {_VIEW:.0f} {_VIEW:.0f}">',
        f'<rect width="{_VIEW:.0f}" height="{_VIEW:.0f}" fill="#ffffff"/>',
    ]

    img = np.where(np.flipud(grid.cells), np.uint8(176), np.uint8(255))
    payload = base64.b64encode(_png_gray(img)).decode("ascii")
    half_cell = 0.5 * grid.cell_size
    left = cam.x(grid.origin_real - half_cell)
    top = cam.y(grid.origin_imag + (grid.height - 1) * grid.cell_size + half_cell)
    extent_x = cam.x(grid.origin_real + (grid.width - 1) * grid.cell_size + half_cell) - left
    extent_y = cam.y(grid.origin_imag - half_cell) - top
    parts.append(
        f'<image x="{_fmt(left)}" y="{_fmt(top)}" width="{_fmt(extent_x)}" '
        f'height="{_fmt(extent_y)}" preserveAspectRatio="none" '
        f'image-rendering="pixelated" '
        f'href="data:image/png;base64,{payload}"/>')

    stride = max(1, len(ctx.cloud) // _CLOUD_MARKS)
    parts.extend(_circle_marks(cam, ctx.cloud.points[::stride], 1.2, "#4878b0"))
    parts.append(_hull_path(cam, ctx.hull))

    targets = boundary_points(ctx.hull, min(_PREIMAGE_TARGETS, cfg.boundary_samples))
    fibers = preimage_fibers(p, targets, cfg.residual_tol).ravel()
    parts.extend(_circle_marks(cam, fibers, 2.2, "#e08214"))
    parts.extend(_cross_marks(cam, critical_points(p, cfg.residual_tol).roots,
                              6.0, "#c03030"))

    legend = [f"poly: {label}"]
    legend.extend(f"{r.check}: {r.verdict}"
                  + (f" (worst={r.worst_violation:.3e})"
                     if r.worst_violation is not None else "")
                  for r in reports)
    legend.append(f"classification: {classification.kind}")
    for i, line in enumerate(legend):
        parts.append(f'<text x="12" y="{22 + 18 * i}" font-family="monospace" '
                     f'font-size="14" fill="#101010">{line}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n", grid
