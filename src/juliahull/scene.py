"""Deterministic SVG scenes: raster underlay, hull, preimages, critical points.

The escape-grid underlay is embedded as a base64 PNG written by a tiny
encoder here, so repeated invocations produce byte-identical files.  A
raster has two levels, so the PNG is 1-bit indexed: one bit per cell,
packed eight to a byte, and a palette that shows a bounded cell gray 176
and an escaping one white, the colours of an 8-bit gray image of the same
cells.  Its rows are all filter 0 and deflated with zlib's run-length
strategy (Z_RLE), which matches only repeats of the previous byte: a
raster comes in long runs, which that strategy codes smaller and several
times faster than the default one.

Marks are placed by one vectorized camera transform and written with one
``%`` template each; numpy runs the same IEEE operations in the same
order as scalar Python floats, and ``'%.2f' % x`` is ``f"{x:.2f}"``, so
the bytes are those of a per-point loop.
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


def _png_mask(mask: np.ndarray) -> bytes:
    """Minimal 1-bit indexed PNG encoder: True pixels gray 176, False white.

    Row r of the image is mask[r].  Each row is a filter byte 0 and its
    bits, the first pixel in the high bit, padded with zero bits to a
    whole byte; one IDAT.
    """
    height, width = mask.shape
    raw = np.zeros((height, 1 + (width + 7) // 8), dtype=np.uint8)
    raw[:, 1:] = np.packbits(mask, axis=1)
    deflate = zlib.compressobj(6, zlib.DEFLATED, 15, 8, zlib.Z_RLE)

    def chunk(tag: bytes, data: bytes) -> bytes:
        return (struct.pack(">I", len(data)) + tag + data
                + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF))

    header = struct.pack(">IIBBBBB", width, height, 1, 3, 0, 0, 0)
    palette = bytes([255, 255, 255, 176, 176, 176])  # index 0 white, 1 gray 176
    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", header) + chunk(b"PLTE", palette)
            + chunk(b"IDAT", deflate.compress(raw) + deflate.flush())
            + chunk(b"IEND", b""))


def _fmt(x: float) -> str:
    return f"{x:.2f}"


class _Camera:
    """World square [-span, span]^2 to SVG coordinates, y axis flipped."""

    def __init__(self, span: float):
        self.span = span

    def x(self, value):
        return (value + self.span) / (2.0 * self.span) * _VIEW

    def y(self, value):
        return (self.span - value) / (2.0 * self.span) * _VIEW

    def points(self, zs) -> tuple[np.ndarray, np.ndarray]:
        """SVG coordinates (x, y) of the points zs, all inside the viewport."""
        z = np.atleast_1d(np.asarray(zs, dtype=np.complex128)).ravel()
        x, y = self.x(z.real), self.y(z.imag)
        inside = (-1.0 <= x) & (x <= _VIEW + 1.0) & (-1.0 <= y) & (y <= _VIEW + 1.0)
        if not inside.all():
            first = complex(z[np.argmin(inside)])
            raise AssertionError(f"scene coordinate {first!r} left the viewport")
        return x, y


def _circle_marks(cam: _Camera, zs, radius: float, fill: str) -> list[str]:
    x, y = cam.points(zs)
    template = f'<circle cx="%.2f" cy="%.2f" r="{radius}" fill="{fill}"/>'
    return [template % xy for xy in zip(x.tolist(), y.tolist())]


def _cross_marks(cam: _Camera, zs, arm: float, stroke: str) -> list[str]:
    x, y = cam.points(zs)
    template = ('<path d="M %.2f %.2f L %.2f %.2f M %.2f %.2f L %.2f %.2f" '
                f'stroke="{stroke}" stroke-width="2" fill="none"/>')
    lists = [a.tolist() for a in (x - arm, y - arm, x + arm, y + arm)]
    return [template % (x0, y0, x1, y1, x0, y1, x1, y0) for x0, y0, x1, y1 in zip(*lists)]


def _hull_path(cam: _Camera, hull) -> str:
    x, y = (a.tolist() for a in cam.points(hull.vertices))
    steps = " ".join("L %.2f %.2f" % xy for xy in zip(x[1:], y[1:]))
    closing = " Z" if hull.kind not in (SEGMENT, POINT) else ""
    return (f'<path d="M {_fmt(x[0])} {_fmt(y[0])} {steps}{closing}" '
            f'stroke="#14325a" stroke-width="2.5" fill="none"/>')


def render_scene(ctx: HullContext, label: str):
    """Compose the SVG scene for one context; returns (svg text, check reports).

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

    payload = base64.b64encode(_png_mask(np.flipud(grid.cells))).decode("ascii")
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
    fibers = preimage_fibers(p, targets).ravel()
    parts.extend(_circle_marks(cam, fibers, 2.2, "#e08214"))
    parts.extend(_cross_marks(cam, critical_points(p).roots, 6.0, "#c03030"))

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
    return "\n".join(parts) + "\n", reports
