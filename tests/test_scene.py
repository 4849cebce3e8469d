import struct
import zlib

import numpy as np
import pytest

from juliahull import Polynomial, convex_hull, escape_grid
from juliahull.scene import _Camera, _circle_marks, _cross_marks, _hull_path, _png_mask


def _chunks(png: bytes) -> list:
    """(tag, data) of every chunk, each checked against its CRC."""
    assert png[:8] == b"\x89PNG\r\n\x1a\n"
    out, at = [], 8
    while at < len(png):
        (size,) = struct.unpack(">I", png[at:at + 4])
        tag, data = png[at + 4:at + 8], png[at + 8:at + 8 + size]
        (crc,) = struct.unpack(">I", png[at + 8 + size:at + 12 + size])
        assert crc == zlib.crc32(tag + data) & 0xFFFFFFFF
        out.append((tag, data))
        at += 12 + size
    return out


def _reference_xy(cam: _Camera, z: complex):
    """The camera transform of one point in Python floats."""
    x = (z.real + cam.span) / (2.0 * cam.span) * 1000.0
    y = (cam.span - z.imag) / (2.0 * cam.span) * 1000.0
    assert -1.0 <= x <= 1001.0 and -1.0 <= y <= 1001.0
    return x, y


def _marks_points(cam: _Camera) -> np.ndarray:
    """Random points, and points whose coordinates land on x.xx5 and .xx5 ties."""
    rng = np.random.default_rng(3)
    ties = np.concatenate([np.arange(0.005, 1000.0, 0.01)[::37],
                           [0.125, 0.375, 2.5, 999.995, 0.0, 1000.0]])
    # the inverse transform, so the coordinates land on or next to the ties
    world = ties / 1000.0 * 2.0 * cam.span - cam.span
    return np.concatenate([
        cam.span * (rng.uniform(-1, 1, 500) + 1j * rng.uniform(-1, 1, 500)),
        world + 1j * world[::-1],
        [-0.0 + 0j, cam.span * (1.0005 - 1.0005j)],
    ])


def test_png_idat_decodes_to_the_filtered_rows(basilica):
    masks = [np.flipud(escape_grid(basilica, resolution=res, max_iter=100).cells)
             for res in (256, 100)]  # 100 = 12 * 8 + 4: a row ends in padding bits
    masks += [np.ones((7, 13), dtype=bool), np.zeros((9, 5), dtype=bool)]
    for mask in masks:
        height, width = mask.shape
        chunks = _chunks(_png_mask(mask))
        assert [tag for tag, _ in chunks] == [b"IHDR", b"PLTE", b"IDAT", b"IEND"]
        assert chunks[0][1] == struct.pack(">IIBBBBB", width, height, 1, 3, 0, 0, 0)
        palette = np.frombuffer(chunks[1][1], dtype=np.uint8).reshape(-1, 3)
        rows = np.frombuffer(zlib.decompress(chunks[2][1]), dtype=np.uint8)
        rows = rows.reshape(height, 1 + -(-width // 8))
        assert not rows[:, 0].any()  # filter type 0 on every row
        bits = np.unpackbits(rows[:, 1:], axis=1)
        assert np.array_equal(bits[:, :width], mask)
        assert not bits[:, width:].any()  # zero padding, so the bytes are deterministic
        # the colours of an 8-bit gray image: bounded 176, escaping 255
        gray = np.where(mask, 176, 255)
        assert np.array_equal(palette[bits[:, :width]], np.stack([gray] * 3, axis=2))


def test_circle_marks_equal_the_per_point_fstrings():
    cam = _Camera(1.7)
    zs = _marks_points(cam)
    expected = []
    for z in zs:
        x, y = _reference_xy(cam, complex(z))
        expected.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="1.2" fill="#4878b0"/>')
    assert _circle_marks(cam, zs, 1.2, "#4878b0") == expected


def test_cross_marks_and_hull_path_equal_the_per_point_fstrings():
    cam = _Camera(2.3)
    zs = _marks_points(cam)
    expected = []
    for z in zs:
        x, y = _reference_xy(cam, complex(z))
        expected.append(
            f'<path d="M {x - 6.0:.2f} {y - 6.0:.2f} L {x + 6.0:.2f} {y + 6.0:.2f} '
            f'M {x - 6.0:.2f} {y + 6.0:.2f} L {x + 6.0:.2f} {y - 6.0:.2f}" '
            f'stroke="#c03030" stroke-width="2" fill="none"/>')
    assert _cross_marks(cam, zs, 6.0, "#c03030") == expected
    for hull in (convex_hull(zs), convex_hull(zs[:1])):
        xy = [_reference_xy(cam, complex(v)) for v in hull.vertices]
        steps = " ".join(f"L {x:.2f} {y:.2f}" for x, y in xy[1:])
        closing = " Z" if len(xy) > 2 else ""
        assert _hull_path(cam, hull) == (
            f'<path d="M {xy[0][0]:.2f} {xy[0][1]:.2f} {steps}{closing}" '
            f'stroke="#14325a" stroke-width="2.5" fill="none"/>')


def test_viewport_error_names_the_first_point_outside():
    cam = _Camera(1.0)
    zs = np.array([0.5 + 0.5j, 1.01 + 0j, -3j, np.nan + 0j])
    with pytest.raises(AssertionError, match=r"^scene coordinate \(1\.01\+0j\) left the viewport$"):
        _circle_marks(cam, zs, 1.2, "#4878b0")
    with pytest.raises(AssertionError, match=r"^scene coordinate \(nan\+0j\) left the viewport$"):
        _cross_marks(cam, zs[3:], 6.0, "#c03030")
