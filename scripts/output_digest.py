#!/usr/bin/env python3
"""Print a digest of every benchmark op's output, to compare two trees.

Usage, from the repository root:

    python scripts/output_digest.py --seed 0 --seed 31

Each op of the three benchmark workloads (``perfbench/workloads.py``) runs
through ``juliahull.cli.main`` in this process, with stdout captured and
its files written to a temporary directory.  One line per op:

    seed workload/key exit sha256(stdout) sha256(svg) sha256(pgm)

A suite op writes no files; its file digests are those of empty input.
Two trees whose lines are identical give byte-identical reports, scenes,
rasters and exit codes on the whole benchmark.
"""
import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from juliahull.cli import main as cli_main  # noqa: E402
from workloads import WORKLOADS, make_workload  # noqa: E402


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_lines(seed: int, workdir: Path):
    """One digest line per op of every workload at ``seed``."""
    for name in WORKLOADS:
        for op in make_workload(name, seed, workdir):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli_main(op.argv)
            files = [p.read_bytes() if p.exists() else b"" for p in op.out_files]
            files += [b""] * (2 - len(files))
            yield " ".join([str(seed), f"{name}/{op.key}", str(code),
                            _sha(stdout.getvalue().encode("utf-8")),
                            *(_sha(f) for f in files)])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, action="append",
                        help="workload seed, repeatable (default 0)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seed or [0]:
            for line in digest_lines(seed, Path(tmp)):
                print(line, flush=True)


if __name__ == "__main__":
    main()
