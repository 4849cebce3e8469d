#!/usr/bin/env python3
"""juliahull benchmark: drive ``juliahull.cli.main`` in one process and measure it.

Usage, from the repository root:

    python3 perfbench/run.py --workload generic-suite --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

One client runs a closed loop: it sends the next CLI invocation only after
the previous one returned, in whole passes over the workload's ops, for
about ``--seconds``.  Every op's output goes through the oracle in
``oracle.py``.  With ``--trace 0`` the end-to-end metrics are reported,
with times scaled to a reference machine speed (``speed.py``); with
``--trace 1`` one untraced pass is followed by traced passes, and the
per-layer metrics from ``spans.py`` are reported.  The last line of
standard output is one JSON object with keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
from oracle import check_render, check_suite
from speed import SpeedProbe
from workloads import WORKLOADS, exact_polygon, make_workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"

# Fresh-interpreter imports timed per run for setup_s.
SETUP_REPEATS = 5


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup(name: str, seed: int, probe: SpeedProbe) -> float:
    """Median of fresh-interpreter ``import juliahull.cli`` plus workload generation."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-c", "import juliahull.cli"]
    samples = []
    for _ in range(SETUP_REPEATS):
        probe.sample()
        start = time.perf_counter()
        subprocess.run(command, env=env, check=True, cwd=ROOT)
        make_workload(name, seed, WORKDIR)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class Runner:
    """Runs ops through ``cli.main``, applies the oracle, keeps the tallies."""

    def __init__(self):
        from juliahull import cli

        self.main = cli.main
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.digests: dict[str, str] = {}

    def run(self, op) -> tuple[float, int]:
        """Run one op; returns (latency in s, report bytes)."""
        for path in op.out_files:
            path.unlink(missing_ok=True)
        stdout = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                code = self.main(op.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an op that raises is a failed op, not a crash
            code = f"raised {type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        self.attempted += 1

        report = stdout.getvalue().encode("utf-8")
        files = [p.read_bytes() if p.exists() else b"" for p in op.out_files]
        if code != 0:
            reason = code if isinstance(code, str) else f"exit code {code}"
        elif op.verb == "suite":
            reason = check_suite(op, stdout.getvalue())
        else:
            reason = check_render(op, files[0].decode("utf-8"), files[1])
        digest = hashlib.sha256(report + b"".join(files)).hexdigest()
        if reason is None and self.digests.setdefault(op.key, digest) != digest:
            reason = "report bytes differ from the first repeat of this op"
        if reason is not None:
            self.failures.append((op.key, reason))
        return latency, len(report) + sum(len(f) for f in files)


def run_passes(runner: Runner, ops, seconds: float, probe: SpeedProbe,
               on_op=None) -> list[tuple]:
    """Whole passes over ``ops`` for about ``seconds`` (at least one pass).

    Another pass starts only while it is expected to end less than half a
    pass after ``seconds``, so every run measures the same mix of ops.
    The speed probe runs before each op, outside its timing, for a share
    of the time the op before it took.  Returns
    ``(op, latency, report bytes)`` per op.
    """
    records = []
    start = time.perf_counter()
    passes = 0
    latency = 0.0
    while True:
        for op in ops:
            probe.sample(latency)
            latency, size = runner.run(op)
            records.append((op, latency, size))
            if on_op is not None:
                on_op(op)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed * (1.0 + 0.5 / passes) >= seconds:
            return records


def op_p50(records) -> float:
    """Geometric mean, over the workload's ops, of each op's median latency.

    A plain median over a mix of cheap and dear ops lands on whichever op
    sits in the middle, and jumps between ops as seeds change their cost.
    """
    by_key: dict[str, list] = {}
    for op, latency, _ in records:
        by_key.setdefault(op.key, []).append(latency)
    return math.exp(statistics.fmean(math.log(statistics.median(v))
                                     for v in by_key.values()))


def hull_err_rel(op, ctx) -> float:
    """Hausdorff gap of the sampled hull to the exact hull, over the exact diameter."""
    from juliahull.geometry import polygon_hausdorff

    return polygon_hausdorff(ctx.hull, exact_polygon(op.exact)) / op.exact.diameter


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir()
    runner = Runner()  # imports juliahull, so the timed imports find bytecode
    setup_probe, probe = SpeedProbe(), SpeedProbe()
    setup_raw = measure_setup(name, seed, setup_probe)
    ops = make_workload(name, seed, WORKDIR)

    if not trace:
        # peak RSS after one pass: later passes add allocator fragmentation
        # that a user, who runs one op per process, never sees
        first_pass_rss = []

        def after_op(op):
            if not first_pass_rss and op is ops[-1]:
                rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                first_pass_rss.append(rss_kib / 1024.0)

        records = run_passes(runner, ops, seconds, probe, after_op)
        latencies = [latency for _, latency, _ in records]
        peak_rss_mib = first_pass_rss[0]
        slowdown = probe.slowdown()
        metrics = {
            "ops_per_s": (len(latencies) / sum(latencies) * slowdown, "ops/s"),
            "op_p50_s": (op_p50(records) / slowdown, "s"),
            "setup_s": (setup_raw / setup_probe.slowdown(), "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
        by_op: dict[str, list] = {}
        for op, latency, _ in records:
            by_op.setdefault(op.key, []).append(round(latency, 4))
        notes = {
            "unscaled": {"ops_per_s": len(latencies) / sum(latencies),
                         "op_p50_s": op_p50(records), "setup_s": setup_raw},
            "slowdown": {"ops": slowdown, "setup": setup_probe.slowdown()},
            "op samples": len(latencies),
            "latency by op": by_op,
        }
    else:
        untraced_probe = SpeedProbe()
        untraced = run_passes(runner, ops, 0.0, untraced_probe)
        tracer = spans.Tracer()
        spans.install(tracer)
        contexts = {}

        def after_op(op):
            ctx = tracer.last_result.pop("checks.build_context", None)
            if op.exact is not None and ctx is not None:
                contexts.setdefault(op.key, (op, ctx))
            tracer.op += 1

        tracer.op = 0
        try:
            records = run_passes(runner, ops, seconds, probe, after_op)
        finally:
            tracer.remove()
        tracer.write(WORKDIR / f"trace-{name}-seed{seed}.jsonl")
        errors = {key: hull_err_rel(op, ctx) for key, (op, ctx) in contexts.items()}
        latencies = [latency for _, latency, _ in records]
        metrics = spans.layer_metrics(tracer.spans, latencies,
                                      threading.main_thread().ident)
        traced_mean = statistics.fmean(latencies) / probe.slowdown()
        untraced_mean = (statistics.fmean(latency for _, latency, _ in untraced)
                         / untraced_probe.slowdown())
        metrics.update({
            "checks.hull_err_rel": (max(errors.values(), default=0.0), "ratio"),
            "cli.report_bytes": (statistics.fmean(size for _, _, size in records),
                                 "bytes"),
            "trace.overhead_frac": (traced_mean / untraced_mean - 1.0, "ratio"),
            "machine.slowdown": (probe.slowdown(), "ratio"),
        })
        notes = {"traced ops": len(latencies), "hull_err_rel per op": errors}
    return {"metrics": metrics, "attempted": runner.attempted,
            "failures": runner.failures, "notes": notes}


def environment() -> dict:
    """What the figures depend on besides the code: cores, pool size, libraries."""
    import numpy
    import scipy
    from juliahull import cli

    workers = getattr(cli, "worker_count", None)
    env = {"nproc": os.cpu_count(),
           "check_pool_workers": workers() if workers else 1,
           "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__}
    for var in ("JULIAHULL_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = os.environ.get(var, "unset")
    return env


def _print_result(name: str, result: dict) -> None:
    attempted, failed = result["attempted"], len(result["failures"])
    print(f"== {name}: {attempted} ops attempted, {failed} failed "
          f"(failed_frac {failed / max(attempted, 1):.4g})")
    for key, reason in result["failures"]:
        print(f"   FAILED {key}: {reason}")
    for metric, (value, unit) in result["metrics"].items():
        print(f"   {metric:32s} {value:.6g} {unit}")
    for note, value in result["notes"].items():
        print(f"   ({note}: {value})")


def run_all(seed: int, seconds: float, trace: int) -> None:
    """Every workload in a process of its own, as a single-workload run is."""
    attempted = failed = 0
    metrics = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        *lines, last = proc.stdout.strip().splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{m}": v for m, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "juliahull" / "cli.py").is_file():
        _fail(f"no juliahull sources under {SRC}; run from a full checkout")
    if args.workload == "all":
        run_all(args.seed, args.seconds, args.trace)
        return 0
    sys.path.insert(0, str(SRC))

    print(f"environment: {json.dumps(environment())}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_result(args.workload, result)
    failed = len(result["failures"])
    print(json.dumps({
        "correct": failed == 0, "attempted": result["attempted"], "failed": failed,
        "metrics": {m: {"value": v, "unit": u}
                    for m, (v, u) in result["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
