#!/usr/bin/env python3
"""Render SVG scenes for a preset gallery into an output directory.

Usage: python scripts/render_gallery.py [--out-dir gallery] [--n 20000]
"""
import argparse
import pathlib

from juliahull import CheckConfig, build_context, parse_polynomial
from juliahull.scene import render_scene

PRESETS = (
    "cheb:2", "cheb:3", "monomial:1,2", "monomial:0.6+0.8i,3",
    "quad:-1+0i", "quad:0+1i", "quad:0.25+0.65i", "quad:-0.12+0.74i",
)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="gallery")
    parser.add_argument("--n", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = CheckConfig(julia_samples=args.n, boundary_samples=128,
                      interior_samples=32, seed=args.seed,
                      grid_resolution=256)
    for preset in PRESETS:
        spec = parse_polynomial(preset)
        svg, _ = render_scene(build_context(spec.polynomial, cfg), spec.source)
        path = out_dir / (preset.replace(":", "_").replace(",", "_") + ".svg")
        path.write_text(svg, encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
