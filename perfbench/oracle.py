"""Output oracle: why an op's output is wrong, or None when it is right."""
from __future__ import annotations

import json
import re
from typing import Optional

from workloads import Op

CHECK_ORDER = ["backward_inclusion", "critical_in_hull", "filled_in_hull",
               "preimage_convexity", "half_plane_surjectivity"]
CHECK_KEYS = ["check", "verdict", "worst_violation", "witnesses", "config",
              "polynomial"]
CONFIG_KEYS = ["julia_samples", "boundary_samples", "interior_samples", "tol_rel",
               "seed", "residual_tol", "grid_resolution", "grid_max_iter"]
CLASSIFICATION_KEYS = ["kind", "conjugation_a", "conjugation_b", "sign_or_c",
                       "coefficient_residual"]

_TEXT_RE = re.compile(r"<text [^>]*>([^<]*)</text>")
_PGM_RE = re.compile(rb"P5\n#[^\n]*\n(\d+) (\d+)\n255\n")


def check_suite(op: Op, stdout: str) -> Optional[str]:
    """Pinned key order, five passing checks in order, the known classification."""
    try:
        docs = json.loads(stdout, object_pairs_hook=lambda pairs: pairs)
    except json.JSONDecodeError as exc:
        return f"report is not JSON: {exc}"
    if len(docs) != 6:
        return f"report holds {len(docs)} documents, expected 6"
    for pairs, name in zip(docs[:5], CHECK_ORDER):
        keys = [k for k, _ in pairs]
        if keys != CHECK_KEYS:
            return f"check keys {keys} differ from the pinned order"
        doc = dict(pairs)
        if doc["check"] != name:
            return f"check {doc['check']!r} where {name!r} was expected"
        if doc["verdict"] != "Pass":
            return f"{name}: verdict {doc['verdict']}"
        config_keys = [k for k, _ in doc["config"]]
        if config_keys != CONFIG_KEYS:
            return f"config keys {config_keys} differ from the pinned order"
    keys = [k for k, _ in docs[5]]
    if keys != CLASSIFICATION_KEYS:
        return f"classification keys {keys} differ from the pinned order"
    kind = dict(docs[5])["kind"]
    if kind != op.kind:
        return f"classified {kind}, expected {op.kind}"
    return None


def check_render(op: Op, svg: str, pgm: bytes) -> Optional[str]:
    """Legend lines name the polynomial, five passes and the kind; PGM is res x res."""
    legend = _TEXT_RE.findall(svg)
    # (text, whole line or only its start)
    expected = ([(f"poly: {op.poly}", True)]
                + [(f"{c}: Pass (worst=", False) for c in CHECK_ORDER]
                + [(f"classification: {op.kind}", True)])
    if len(legend) != len(expected):
        return f"legend has {len(legend)} lines, expected {len(expected)}"
    for line, (want, whole) in zip(legend, expected):
        if line != want if whole else not line.startswith(want):
            return f"legend line {line!r}, expected {want!r}"
    header = _PGM_RE.match(pgm)
    if header is None:
        return "PGM header malformed"
    width, height = int(header.group(1)), int(header.group(2))
    if (width, height) != (op.res, op.res) or len(pgm) != header.end() + op.res ** 2:
        return (f"PGM is {width}x{height} with {len(pgm)} bytes, expected "
                f"{op.res}x{op.res} after a {header.end()}-byte header")
    return None
