#!/usr/bin/env python3
"""Print a digest of every benchmark op's output, to compare two trees.

Usage, from the repository root:

    python scripts/output_digest.py --seed 0 --seed 31 > before.txt
    python scripts/output_digest.py --against before.txt

Each op of the three benchmark workloads (``perfbench/workloads.py``) runs
through ``juliahull.cli.main`` in this process, with stdout captured and
its files written to a temporary directory.  One line per op:

    seed workload/key exit sha256(stdout) sha256(svg) scene sha256(pgm)

``scene`` digests the SVG with its base64 PNG payload replaced by
sha256 of the decoded image: its width, height and the RGB colour of
every pixel.  The decoder reads 8-bit gray and 1- or 8-bit indexed
images (colour type 0 or 3, filter 0 rows, no interlace).  So a change
of the PNG encoder alone (its deflate settings, bit depth or colour
type) shows as a differing ``svg`` with ``scene`` equal, and a change of
a pixel's colour or of any other SVG byte changes ``scene`` too.

A suite op writes no files; its file digests are those of empty input.
Two trees whose lines are identical give byte-identical reports, scenes,
rasters and exit codes on the whole benchmark.

Every benchmark polynomial has degree 6 or less and a repelling fixed
point, so four more lines per polynomial of ``SAMPLED`` (a real one, a
unimodular monomial, z^2 + 1/4 and a conjugate of it, which have no
repelling fixed point, and T_2, whose fiber of -1 holds a double root,
among them) digest
``sample_julia(p, 20_000, seed)``, its ``convex_hull``, that hull's
``diameter`` with the vertices of ``decimate(hull, 1e-5 * diameter)``,
and the cells of ``escape_grid(p, 512, 200)``, in the same fields:

    seed sample/name 0 sha256(points) sha256(b"") sha256(b"") sha256(b"")
    seed hull/name 0 sha256(vertices) sha256(b"") sha256(b"") sha256(b"")
    seed diameter/name 0 sha256(diameter, decimated) sha256(b"") ...
    seed grid/name 0 sha256(cells) sha256(b"") sha256(b"") sha256(b"")

So a change of the diameter or of the decimation shows on its own line,
even where the reports round it away.

The render ops raster only even quadratics, whose grid iterates the box
rows up to the real axis.  So one more line per ``generic-suite``
polynomial digests the cells of ``escape_grid(p, 2048, 200)``: the
random ones are parity-free, and their grids iterate the whole box in
several row bands.

    seed grid2048/key 0 sha256(cells) sha256(b"") sha256(b"") sha256(b"")

``--against FILE`` compares the lines with a saved run: it runs the saved
run's seeds unless ``--seed`` is given, names on stderr each op whose line
differs (and which of its fields), or that only one of the runs has, and
exits 1 if any op differs.

A tree whose own copy of this script is older prints fewer lines.  To
digest such a tree, the "before" of a comparison, copy this script into
its ``scripts/`` directory and run it there: the script reads ``src/``
and ``perfbench/`` next to the directory it sits in.

    git archive PARENT | tar -x -C /tmp/parent
    cp scripts/output_digest.py /tmp/parent/scripts/
    (cd /tmp/parent && python scripts/output_digest.py --seed 0 --seed 31) > before.txt
    python scripts/output_digest.py --against before.txt
"""
import argparse
import base64
import contextlib
import hashlib
import io
import re
import struct
import sys
import tempfile
import zlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from juliahull import (  # noqa: E402
    AffineMap,
    Polynomial,
    chebyshev,
    conjugate,
    convex_hull,
    escape_grid,
    monomial,
    parse_polynomial,
    sample_julia,
)
from juliahull.cli import main as cli_main  # noqa: E402
from juliahull.geometry import decimate  # noqa: E402
from workloads import WORKLOADS, make_workload  # noqa: E402

FIELDS = ("exit", "stdout", "svg", "scene", "pgm")
SAMPLE_POINTS = 20_000
GRID_RESOLUTION, GRID_MAX_ITER = 512, 200
WIDE_RESOLUTION, WIDE_MAX_ITER = 2048, 200


def _random_polynomial(d: int, seed: int) -> Polynomial:
    """Coefficients uniform in [0, 1) + [0, 1)i, seeded by (seed, d)."""
    rng = np.random.default_rng([seed, d])
    return Polynomial(rng.uniform(0, 1, d + 1) + 1j * rng.uniform(0, 1, d + 1))


def _real_polynomial(d: int, seed: int) -> Polynomial:
    """Real coefficients uniform in [-1, 1), seeded by (seed, d, 1)."""
    rng = np.random.default_rng([seed, d, 1])
    return Polynomial(rng.uniform(-1, 1, d + 1))


# Sampled polynomials off the benchmark, each built from the seed.  The
# fixed conjugate g o T_8 o g^-1 has a thin, tilted and shifted Julia set,
# the segment g([-1, 1]), so its sample and hull lines cover that path.
# The real polynomial's Julia set is symmetric about the real axis, and
# its fibers near that axis mix real roots and conjugate pairs, where a
# conjugation-symmetric start can stall; the monomial's fibers are
# binomials, whose starts lie next to their roots.  z^2 + 1/4 is
# parabolic: no fixed point repels, so its sample seeds at the parabolic
# fixed point 1/2, a path no benchmark op takes; its conjugate seeds at
# the image of 1/2, whose solved copies stay inside the repelling margin
# too.  T_2's fiber of -1 holds the exact double root 0, which the
# sample's tree expands once.
SAMPLED = {
    "cheb:8": lambda seed: chebyshev(8),
    "cheb8-conjugate": lambda seed: conjugate(chebyshev(8),
                                              AffineMap(0.7 - 1.1j, 0.3 + 0.2j)),
    "cheb:16": lambda seed: chebyshev(16),
    "random-d12": lambda seed: _random_polynomial(12, seed),
    "random-d24": lambda seed: _random_polynomial(24, seed),
    "real-d8": lambda seed: _real_polynomial(8, seed),
    "monomial-c7": lambda seed: monomial(0.6 + 0.8j, 7),
    "quad:0.25+0i": lambda seed: parse_polynomial("quad:0.25+0i").polynomial,
    "quad0.25-conjugate": lambda seed: conjugate(parse_polynomial("quad:0.25+0i").polynomial,
                                                 AffineMap(2, 1j)),
    "cheb:2": lambda seed: chebyshev(2),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


_PNG_PAYLOAD = re.compile(rb"data:image/png;base64,([A-Za-z0-9+/=]*)")


def _png_pixels(png: bytes) -> bytes:
    """Width, height and the RGB bytes of every pixel: what a PNG shows, not how it is coded."""
    header, palette, idat, at = b"", b"", [], 8  # past the 8-byte signature
    while at < len(png):
        (size,) = struct.unpack(">I", png[at:at + 4])
        tag, data = png[at + 4:at + 8], png[at + 8:at + 8 + size]
        if tag == b"IHDR":
            header = data
        elif tag == b"PLTE":
            palette = data
        elif tag == b"IDAT":
            idat.append(data)
        at += 12 + size
    width, height, depth, colour, _, filtering, interlace = struct.unpack(">IIBBBBB", header)
    if (colour, depth) not in ((0, 8), (3, 1), (3, 8)) or filtering or interlace:
        raise ValueError(f"unsupported PNG: colour type {colour}, bit depth {depth}, "
                         f"filter method {filtering}, interlace {interlace}")
    rows = np.frombuffer(zlib.decompress(b"".join(idat)), dtype=np.uint8).reshape(height, -1)
    if rows[:, 0].any():
        raise ValueError("unsupported PNG: a row filter other than 0")
    samples = rows[:, 1:] if depth == 8 else np.unpackbits(rows[:, 1:], axis=1)
    samples = samples[:, :width]
    if colour == 0:
        rgb = np.repeat(samples[..., None], 3, axis=2)
    else:
        rgb = np.frombuffer(palette, dtype=np.uint8).reshape(-1, 3)[samples]
    return struct.pack(">II", width, height) + rgb.tobytes()


def scene_digest(svg: bytes) -> str:
    """sha256 of ``svg`` with each PNG payload replaced by sha256 of its pixels."""
    return _sha(_PNG_PAYLOAD.sub(
        lambda m: b"png-pixels:" + _sha(_png_pixels(base64.b64decode(m[1]))).encode("ascii"),
        svg))


def _data_line(seed: int, name: str, data: np.ndarray) -> str:
    """A line of an array's digest, with the three file fields of empty input."""
    return " ".join([str(seed), name, "0", _sha(data.tobytes()), _sha(b""), _sha(b""), _sha(b"")])


def digest_lines(seed: int, workdir: Path):
    """One digest line per workload op at ``seed``, then per sample, hull, diameter and grid.

    The 2048^2 grids of the ``generic-suite`` polynomials come last.
    """
    for name in WORKLOADS:
        for op in make_workload(name, seed, workdir):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli_main(op.argv)
            files = [p.read_bytes() if p.exists() else b"" for p in op.out_files]
            svg, pgm = files + [b""] * (2 - len(files))
            yield " ".join([str(seed), f"{name}/{op.key}", str(code),
                            _sha(stdout.getvalue().encode("utf-8")),
                            _sha(svg), scene_digest(svg), _sha(pgm)])
    for name, make in SAMPLED.items():
        p = make(seed)
        points = sample_julia(p, SAMPLE_POINTS, seed).points
        hull = convex_hull(points)
        diameter = np.float64(hull.diameter)
        decimated = decimate(hull, 1e-5 * diameter).vertices
        cells = escape_grid(p, GRID_RESOLUTION, GRID_MAX_ITER).cells
        for kind, data in (("sample", points), ("hull", hull.vertices),
                           ("diameter", np.concatenate([[diameter], decimated.view(np.float64)])),
                           ("grid", cells)):
            yield _data_line(seed, f"{kind}/{name}", data)
    for op in make_workload("generic-suite", seed, workdir):
        p = parse_polynomial(op.poly).polynomial
        yield _data_line(seed, f"grid2048/{op.key}",
                         escape_grid(p, WIDE_RESOLUTION, WIDE_MAX_ITER).cells)


def parse_digest(text: str) -> dict:
    """Digest lines keyed by "seed workload/key", each to its five fields."""
    ops = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 + len(FIELDS):
            ops[" ".join(parts[:2])] = parts[2:]
    return ops


def differences(ops: dict, saved: dict) -> list:
    """One message per op whose fields differ or that only one run has.

    Saved ops of a seed that ``ops`` does not cover are not compared.
    """
    seeds = {key.split()[0] for key in ops}
    out = []
    for key, fields in ops.items():
        if key not in saved:
            out.append(f"{key}: not in the saved run")
            continue
        changed = [f for f, a, b in zip(FIELDS, fields, saved[key]) if a != b]
        if changed:
            out.append(f"{key}: {', '.join(changed)} differ")
    out += [f"{key}: only in the saved run" for key in saved
            if key not in ops and key.split()[0] in seeds]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, action="append",
                        help="workload seed, repeatable (default 0, or the "
                             "seeds of the --against run)")
    parser.add_argument("--against", metavar="FILE",
                        help="saved output of this script to compare with")
    args = parser.parse_args(argv)
    saved = None
    if args.against:
        saved = parse_digest(Path(args.against).read_text(encoding="utf-8"))
    seeds = args.seed or sorted({int(key.split()[0]) for key in saved or {}}) or [0]
    ops = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            for line in digest_lines(seed, Path(tmp)):
                print(line, flush=True)
                ops.update(parse_digest(line))
    if saved is None:
        return 0
    found = differences(ops, saved)
    for message in found:
        print(f"differs: {message}", file=sys.stderr)
    print(f"{len(found)} ops differ from {args.against}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
