"""Spans around calls into juliahull's layers, installed from outside the package.

A ``Tracer`` replaces public functions under the names their callers look
up (``juliahull.julia.solve_fibers`` is what the sampler calls,
``juliahull.checks.convex_hull`` what ``build_context`` calls, and so on)
with wrappers that time the call and count its work.  Nothing in the
package changes; ``remove`` puts every original back.

A name a caller no longer has is skipped, so the tracer keeps working
when a later version of the package moves a call.

Spans are kept in memory, carry the calling thread (the checks run in a
thread pool) and their parent span on that thread, and are written out by
``write`` at the end of a run.
"""
from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

CHECK_NAMES = ("backward_inclusion", "critical_in_hull", "filled_in_hull",
               "preimage_convexity", "half_plane_surjectivity")


@dataclass(eq=False)
class Span:
    name: str                    # "<layer>.<what>", shared by all call sites
    layer: str
    op: int
    thread: int
    parent: Optional["Span"]
    outer_name: bool             # no ancestor span of the same name on this thread
    outer_layer: bool            # no ancestor span of the same layer on this thread
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps functions, records spans, restores the originals on ``remove``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1                 # index of the op in flight, set by the caller
        self.last_result: dict = {}  # span name -> latest result, for capture=True
        self._local = threading.local()
        self._patched: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str,
             count: Optional[Callable] = None, capture: bool = False) -> Callable:
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, layer, self.op, threading.get_ident(),
                        stack[-1] if stack else None,
                        all(s.name != name for s in stack),
                        all(s.layer != layer for s in stack),
                        time.perf_counter())
            self.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            if capture:
                self.last_result[name] = result
            return result

        return traced

    def patch(self, module, attr: str, name: str,
              count: Optional[Callable] = None, capture: bool = False) -> None:
        original = getattr(module, attr, None)
        if original is None:  # this caller no longer looks the name up
            return
        setattr(module, attr, self.wrap(original, name, count, capture))
        self._patched.append((module, attr, original))

    def remove(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        """One JSON object per span, parents referenced by span index."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "op": s.op, "thread": s.thread,
                    "parent": None if s.parent is None else index[id(s.parent)],
                    "start": s.start, "end": s.end, "counts": s.counts,
                }) + "\n")


def _size(x) -> int:
    return int(np.size(getattr(x, "points", x)))


def _solve_counts(args, kwargs, result):
    roots, _, ok = result
    return {"fibers": int(roots.shape[0]), "unconverged": int((~ok).sum())}


def _distance_counts(args, kwargs, result):
    polygon, points = args[0], args[1]
    return {"pairs": _size(points) * int(polygon.vertices.size)}


def install(tracer: Tracer) -> None:
    """Wrap every public call into a layer, under each caller's own name."""
    from juliahull import checks, cli, geometry, julia, roots, scene

    hull = lambda a, k, r: {"points_in": _size(a[0]), "vertices": int(r.vertices.size)}
    for module in (cli, scene):
        tracer.patch(module, "build_context", "checks.build_context", capture=True)
        tracer.patch(module, "classify_equality", "checks.classify")
    # render_scene imports run_check_set from cli at call time, so one patch
    # covers both callers
    tracer.patch(cli, "run_check_set", "checks.pool")
    # cli keeps the five check functions in its own tuple
    original_runners = getattr(cli, "_CHECK_RUNNERS", None)
    if original_runners is not None:
        cli._CHECK_RUNNERS = tuple(
            tracer.wrap(fn, f"checks.{name}")
            for fn, name in zip(original_runners, CHECK_NAMES))
        tracer._patched.append((cli, "_CHECK_RUNNERS", original_runners))
    for name in CHECK_NAMES:
        tracer.patch(checks, f"check_{name}", f"checks.{name}")

    tracer.patch(checks, "sample_julia", "julia.sample",
                 count=lambda a, k, r: {"kept": len(r)})
    tracer.patch(julia, "solve_fibers", "roots.sampler_solve", count=_solve_counts)
    # calls made inside roots itself (preimage_fibers, all_roots, ...)
    tracer.patch(roots, "solve_fibers", "roots.solve", count=_solve_counts)
    tracer.patch(checks, "solve_fibers", "roots.check_solve", count=_solve_counts)
    for module in (checks, scene):
        tracer.patch(module, "preimage_fibers", "roots.check_solve")
        tracer.patch(module, "critical_points", "roots.check_solve")
        tracer.patch(module, "escape_grid", "julia.escape_grid",
                     count=lambda a, k, r: {"cells": int(r.width * r.height)})
        tracer.patch(module, "boundary_points", "geometry.boundary_points")

    for module in (checks, geometry):
        tracer.patch(module, "convex_hull", "geometry.hull", count=hull)
        tracer.patch(module, "signed_distance", "geometry.distance",
                     count=_distance_counts)
    tracer.patch(checks, "worst_signed_distance", "geometry.distance")
    tracer.patch(checks, "decimate", "geometry.decimate",
                 count=lambda a, k, r: {"vertices": int(r.vertices.size)})
    tracer.patch(checks, "classify_shape", "geometry.classify_shape")

    tracer.patch(scene, "render_scene", "scene.render",
                 count=lambda a, k, r: {"svg_bytes": len(r[0].encode("utf-8"))})


def layer_metrics(spans: list[Span], op_walls: list[float],
                  main_thread: int) -> dict:
    """Per-layer figures from the spans of ``len(op_walls)`` traced ops.

    Times and counts are means per op, solver counts are per Julia sample,
    and shares are fractions of the traced ops' wall time.
    """
    ops = max(len(op_walls), 1)
    wall = max(sum(op_walls), 1e-12)

    def named(name):
        return [s for s in spans if s.name == name]

    def seconds(name):
        return sum(s.seconds for s in named(name) if s.outer_name)

    def total(name, key, outer_only=True):
        return sum(s.counts.get(key, 0) for s in named(name)
                   if s.outer_name or not outer_only)

    samples = max(len(named("julia.sample")), 1)
    fibers = total("roots.sampler_solve", "fibers")
    geometry_busy = sum(s.seconds for s in spans
                        if s.layer == "geometry" and s.outer_layer)
    render_self = sum(s.seconds - sum(c.seconds for c in spans if c.parent is s)
                      for s in named("scene.render"))
    cli_children = sum(s.seconds for s in spans
                       if s.parent is None and s.thread == main_thread)
    unconverged = sum(s.counts.get("unconverged", 0) for s in spans)
    check_busy = sum(seconds(f"checks.{c}") for c in CHECK_NAMES)

    out = {
        "julia.sample_s": (seconds("julia.sample") / ops, "s"),
        "roots.solve_s": (seconds("roots.sampler_solve") / ops, "s"),
        "roots.solve_calls": (len(named("roots.sampler_solve")) / samples, "count"),
        "roots.fibers_solved": (fibers / samples, "count"),
        "julia.kept_per_fiber": (total("julia.sample", "kept") / max(fibers, 1),
                                 "ratio"),
        "roots.unconverged_members": (unconverged / ops, "count"),
        "roots.check_solve_s": (seconds("roots.check_solve") / ops, "s"),
        "geometry.hull_s": (seconds("geometry.hull") / ops, "s"),
        "geometry.hull_points_in": (total("geometry.hull", "points_in") / ops, "count"),
        "geometry.hull_vertices": (total("geometry.hull", "vertices") / ops, "count"),
        "geometry.decimate_s": (seconds("geometry.decimate") / ops, "s"),
        "geometry.query_vertices": (total("geometry.decimate", "vertices") / ops,
                                    "count"),
        "geometry.distance_s": (seconds("geometry.distance") / ops, "s"),
        "geometry.point_edge_pairs": (
            total("geometry.distance", "pairs", outer_only=False) / ops, "count"),
        "geometry.classify_shape_s": (seconds("geometry.classify_shape") / ops, "s"),
        "geometry.busy_s": (geometry_busy / ops, "s"),
        "checks.build_context_s": (seconds("checks.build_context") / ops, "s"),
    }
    for c in CHECK_NAMES:
        out[f"checks.{c}_s"] = (seconds(f"checks.{c}") / ops, "s")
    out.update({
        "checks.busy_s": (check_busy / ops, "s"),
        "checks.pool_wall_s": (seconds("checks.pool") / ops, "s"),
        "checks.classify_s": (seconds("checks.classify") / ops, "s"),
        "julia.escape_grid_s": (seconds("julia.escape_grid") / ops, "s"),
        "julia.escape_grid_calls": (len(named("julia.escape_grid")) / ops, "count"),
        "julia.grid_cells": (total("julia.escape_grid", "cells") / ops, "count"),
        "scene.render_self_s": (render_self / ops, "s"),
        "scene.svg_bytes": (total("scene.render", "svg_bytes") / ops, "bytes"),
        "cli.self_s": ((sum(op_walls) - cli_children) / ops, "s"),
        "julia.sample_share": (seconds("julia.sample") / wall, "ratio"),
        "geometry.busy_share": (geometry_busy / wall, "ratio"),
        "julia.escape_grid_share": (seconds("julia.escape_grid") / wall, "ratio"),
        "trace.spans": (len(spans) / ops, "count"),
    })
    return out
