#!/usr/bin/env python3
"""Print a digest of every benchmark op's output, to compare two trees.

Usage, from the repository root:

    python scripts/output_digest.py --seed 0 --seed 31 > before.txt
    python scripts/output_digest.py --against before.txt

Each op of the three benchmark workloads (``perfbench/workloads.py``) runs
through ``juliahull.cli.main`` in this process, with stdout captured and
its files written to a temporary directory.  One line per op:

    seed workload/key exit sha256(stdout) sha256(svg) sha256(pgm)

A suite op writes no files; its file digests are those of empty input.
Two trees whose lines are identical give byte-identical reports, scenes,
rasters and exit codes on the whole benchmark.

``--against FILE`` compares the lines with a saved run: it runs the saved
run's seeds unless ``--seed`` is given, names on stderr each op whose line
differs (and which of its fields), or that only one of the runs has, and
exits 1 if any op differs.
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

FIELDS = ("exit", "stdout", "svg", "pgm")


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


def parse_digest(text: str) -> dict:
    """Digest lines keyed by "seed workload/key", each to its four fields."""
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
