"""Fast smoke test of the benchmark harness at tiny sizes.

Run from the repository root with ``python -m pytest perfbench -q``.
"""
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "FULL_SIZES", workloads.TINY_SIZES)


def _result_line(capsys, trace: int) -> dict:
    code = run.main(["--workload", "render-grid", "--seed", "0",
                     "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_metric(tiny, capsys, trace, section):
    result = _result_line(capsys, trace)
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_tiny_ops_pass_the_oracle_except_chebyshev_recognition():
    # at 2000 samples the hull of a Chebyshev Julia set falls short of its
    # endpoints, so the classifier rightly reports strict inclusion there
    run.WORKDIR.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        runner = run.Runner()
        for op in workloads.make_workload(name, 1, run.WORKDIR, workloads.TINY_SIZES):
            runner.run(op)
        for key, reason in runner.failures:
            assert key.startswith("cheb"), (key, reason)
            assert reason == "classified StrictInclusion, expected ChebyshevConjugate"


def test_oracle_rejects_wrong_reports():
    op = workloads.make_workload("generic-suite", 0, run.WORKDIR,
                                 workloads.TINY_SIZES)[0]
    docs = []
    for name in oracle.CHECK_ORDER:
        config = dict.fromkeys(oracle.CONFIG_KEYS, 0)
        docs.append({"check": name, "verdict": "Pass", "worst_violation": 0.0,
                     "witnesses": [], "config": config, "polynomial": "z"})
    docs.append(dict.fromkeys(oracle.CLASSIFICATION_KEYS))
    docs[-1]["kind"] = op.kind
    assert oracle.check_suite(op, json.dumps(docs)) is None

    wrong_kind = json.loads(json.dumps(docs))
    wrong_kind[-1]["kind"] = workloads.CHEBYSHEV
    assert "classified" in oracle.check_suite(op, json.dumps(wrong_kind))
    failed = json.loads(json.dumps(docs))
    failed[1]["verdict"] = "Fail"
    assert "verdict" in oracle.check_suite(op, json.dumps(failed))
    reordered = json.loads(json.dumps(docs))
    reordered[0] = {"verdict": "Pass", **reordered[0]}
    assert "pinned order" in oracle.check_suite(op, json.dumps(reordered))


def test_generator_is_seeded_and_speaks_the_cli_grammar():
    from juliahull import AffineMap, chebyshev, conjugate
    from juliahull.cli import parse_polynomial

    first = workloads.make_workload("equality-suite", 3, run.WORKDIR)
    again = workloads.make_workload("equality-suite", 3, run.WORKDIR)
    other = workloads.make_workload("equality-suite", 4, run.WORKDIR)
    assert [op.argv for op in first] == [op.argv for op in again]
    assert first[-1].argv != other[-1].argv

    op = first[-1]
    exact = op.exact
    a = (exact.b - exact.a) / 2
    b = (exact.b + exact.a) / 2
    parsed = parse_polynomial(op.poly).polynomial.coeffs
    assert abs(parsed - conjugate(chebyshev(5), AffineMap(a, b)).coeffs).max() < 1e-9
    for op in workloads.make_workload("generic-suite", 3, run.WORKDIR):
        assert op.argv[1] == f"--poly={op.poly}"
        parse_polynomial(op.poly)


def test_tracer_restores_every_function():
    from juliahull import checks, cli, julia, scene

    before = (cli._CHECK_RUNNERS, cli.run_check_set, julia.solve_fibers,
              checks.convex_hull, scene.escape_grid)
    tracer = spans.Tracer()
    spans.install(tracer)
    assert julia.solve_fibers is not before[2]
    tracer.remove()
    assert (cli._CHECK_RUNNERS, cli.run_check_set, julia.solve_fibers,
            checks.convex_hull, scene.escape_grid) == before
