"""The package starts without scipy or the CLI, and the scripts load against its names."""
import ast
import base64
import json
import os
import runpy
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_no_scipy_at_run_time():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import juliahull, juliahull.cli, juliahull.scene; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# numpy names that may hand work to BLAS or LAPACK, whose summation order
# and threads vary between builds
_BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "einsum", "tensordot", "linalg"}


def test_no_blas_calls_in_the_package():
    # results must not depend on the BLAS build: no `@`, no `.dot` and no
    # numpy product or linalg name (decorators are not MatMult nodes)
    found = []
    for path in sorted((ROOT / "src" / "juliahull").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{path.name}:{node.lineno} @")
            elif isinstance(node, ast.Attribute) and (node.attr == "dot" or (
                    isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
                    and node.attr in _BLAS_NAMES)):
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert found == []


@pytest.mark.parametrize("script", ["convergence_study.py", "output_digest.py",
                                    "render_gallery.py"])
def test_scripts_import(script):
    # a name other than __main__ runs the imports and definitions only
    namespace = runpy.run_path(str(ROOT / "scripts" / script),
                               run_name="script_under_test")
    assert callable(namespace["main"])


def test_output_digest_compares_with_a_saved_run(tmp_path, capsys):
    namespace = runpy.run_path(str(ROOT / "scripts" / "output_digest.py"),
                               run_name="script_under_test")
    parse, differences = namespace["parse_digest"], namespace["differences"]
    saved_text = "0 w/a 0 s1 f1 c1 g1\n0 w/b 1 s2 f2 c2 g2\n31 w/a 0 s3 f3 c3 g3\n"
    saved = parse(saved_text)
    assert differences(parse("0 w/a 0 s1 f1 c1 g1\n0 w/b 1 s2 f2 c2 g2\n"), saved) == []
    assert differences(parse("0 w/a 3 s1 f1 c1 h1\n0 w/c 0 s4 f4 c4 g4\n"), saved) == [
        "0 w/a: exit, pgm differ", "0 w/c: not in the saved run",
        "0 w/b: only in the saved run"]
    assert differences(parse("0 w/b 1 s2 f0 c2 g2\n"), saved) == [
        "0 w/b: svg differ", "0 w/a: only in the saved run"]

    # main runs the saved run's seeds and exits 1 when any op differs
    runs = {0: ["0 w/a 0 s1 f1 c1 g1", "0 w/b 1 s2 f2 c2 g2"],
            31: ["31 w/a 0 s3 f3 c3 g3"]}
    main = namespace["main"]
    main.__globals__["digest_lines"] = lambda seed, workdir: iter(runs[seed])
    saved_file = tmp_path / "saved.txt"
    saved_file.write_text(saved_text, encoding="utf-8")
    assert main(["--against", str(saved_file)]) == 0
    assert capsys.readouterr().out == saved_text
    runs[31] = ["31 w/a 0 s3 f3 c3 g0"]
    assert main(["--against", str(saved_file), "--seed", "31"]) == 1
    err = capsys.readouterr().err
    assert "differs: 31 w/a: pgm differ" in err and "0 w/b" not in err


def _png(img: np.ndarray, level: int, depth: int = 8, palette: bytes = b"") -> bytes:
    """A PNG of img deflated at ``level``: 8-bit gray, or indexed by ``palette``."""
    def chunk(tag, data):
        return (struct.pack(">I", len(data)) + tag + data
                + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF))

    rows = np.packbits(img, axis=1) if depth == 1 else img
    raw = np.hstack([np.zeros((img.shape[0], 1), dtype=np.uint8), rows]).tobytes()
    colour = 3 if palette else 0
    header = struct.pack(">IIBBBBB", img.shape[1], img.shape[0], depth, colour, 0, 0, 0)
    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", header)
            + (chunk(b"PLTE", palette) if palette else b"")
            + chunk(b"IDAT", zlib.compress(raw, level)) + chunk(b"IEND", b""))


def test_output_digest_scene_ignores_how_the_png_deflates():
    scene_digest = runpy.run_path(str(ROOT / "scripts" / "output_digest.py"),
                                  run_name="script_under_test")["scene_digest"]

    def svg(png):
        payload = base64.b64encode(png).decode("ascii")
        return f'<svg>\n<image href="data:image/png;base64,{payload}"/>\n</svg>\n'.encode()

    # 61 columns: a 1-bit row ends in three padding bits
    bounded = np.arange(64 * 61).reshape(64, 61) % 7 < 3
    img = np.where(bounded, 176, 255).astype(np.uint8)
    fast, small = svg(_png(img, 1)), svg(_png(img, 9))
    assert fast != small and scene_digest(fast) == scene_digest(small)
    # the same pixels as an indexed image, 1 or 8 bits per index
    palette = bytes([255] * 3 + [176] * 3)
    index = bounded.astype(np.uint8)
    for depth in (1, 8):
        indexed = svg(_png(index, 6, depth, palette))
        assert indexed != small and scene_digest(indexed) == scene_digest(small)
    # a colour changes the scene, in the pixels or in the palette
    changed = img.copy()
    changed[5, 7] = 0
    assert scene_digest(svg(_png(changed, 9))) != scene_digest(small)
    recoloured = svg(_png(index, 6, 1, bytes([255] * 3 + [175] * 3)))
    assert scene_digest(recoloured) != scene_digest(small)
    assert scene_digest(small.replace(b"<svg>", b"<svg >")) != scene_digest(small)


def test_render_gallery_writes_every_scene(tmp_path):
    namespace = runpy.run_path(str(ROOT / "scripts" / "render_gallery.py"),
                               run_name="script_under_test")
    namespace["main"](["--n", "2000", "--out-dir", str(tmp_path)])
    scenes = sorted(tmp_path.glob("*.svg"))
    assert len(scenes) == len(namespace["PRESETS"]) == 8
    assert all(path.read_text(encoding="utf-8").startswith("<svg")
               for path in scenes)


def test_package_import_leaves_cli_out():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import juliahull; "
            "print('juliahull.cli' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cli_module_runs_under_warnings_as_errors():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for poly, kind in [("quad:-1+0i", "StrictInclusion"),
                       ("cheb:3", "ChebyshevConjugate")]:
        argv = [sys.executable, "-W", "error", "-m", "juliahull.cli", "classify",
                "--poly", poly, "--n", "2000", "--res", "64", "--max-iter", "50"]
        out = subprocess.run(argv, capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["kind"] == kind
