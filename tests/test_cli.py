import json

import numpy as np
import pytest

from juliahull import ParseError, Polynomial, chebyshev, format_polynomial, parse_polynomial
from juliahull.cli import main, parse_complex, worker_count


class TestParse:
    def test_coefficient_list(self):
        spec = parse_polynomial("-1,0,2")
        assert np.allclose(spec.polynomial.coeffs, [-1, 0, 2])
        assert spec.preset is None

    def test_chebyshev_preset(self):
        spec = parse_polynomial("cheb:2")
        assert np.allclose(spec.polynomial.coeffs, [-1, 0, 2])
        assert spec.preset == "cheb:2"

    def test_negated_chebyshev_preset(self):
        spec = parse_polynomial("negcheb:3")
        assert np.allclose(spec.polynomial.coeffs, -chebyshev(3).coeffs)

    def test_quadratic_preset(self):
        spec = parse_polynomial("quad:0+1i")
        assert np.allclose(spec.polynomial.coeffs, [1j, 0, 1])

    def test_monomial_preset(self):
        spec = parse_polynomial("monomial:0.6+0.8i,3")
        assert np.allclose(spec.polynomial.coeffs, [0, 0, 0, 0.6 + 0.8j])

    def test_scientific_notation(self):
        assert parse_complex("1e-3+2.5e1i") == complex(1e-3, 25.0)

    def test_malformed_literal_reports_column(self):
        with pytest.raises(ParseError) as info:
            parse_polynomial("1,zz,3")
        assert info.value.column == 3

    def test_empty_coefficient_slot(self):
        with pytest.raises(ParseError):
            parse_polynomial("1,,3")

    def test_spaces_are_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial("1, 2")

    def test_bad_preset_degree(self):
        with pytest.raises(ParseError):
            parse_polynomial("cheb:x")

    def test_round_trip_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = int(rng.integers(1, 7))
            # mix magnitudes so scientific notation shows up
            raw = rng.uniform(-1, 1, d + 1) * 10.0 ** rng.integers(-6, 3, d + 1)
            coeffs = raw + 1j * rng.uniform(-1, 1, d + 1)
            coeffs[-1] += 2.0
            p = Polynomial(coeffs)
            again = parse_polynomial(format_polynomial(p)).polynomial
            assert np.array_equal(again.coeffs, p.coeffs)


class TestWorkerCount:
    def test_explicit_cap(self, monkeypatch):
        monkeypatch.setenv("JULIAHULL_THREADS", "3")
        assert worker_count() == 3

    def test_zero_means_auto(self, monkeypatch):
        monkeypatch.setenv("JULIAHULL_THREADS", "0")
        assert worker_count() >= 1

    def test_garbage_means_auto(self, monkeypatch):
        monkeypatch.setenv("JULIAHULL_THREADS", "lots")
        assert worker_count() >= 1


SMALL = ["--n", "2000", "--m", "64", "--k", "32", "--res", "128", "--seed", "11"]


class TestCommands:
    def test_usage_error_for_degree_one(self, capsys):
        assert main(["check", "--poly", "1,1"] + SMALL) == 2
        assert "degree" in capsys.readouterr().err

    def test_usage_error_for_malformed_poly(self, capsys):
        assert main(["suite", "--poly", "1,oops"] + SMALL) == 2

    def test_poly_value_with_leading_minus(self, tmp_path):
        # the README example, as a separate argument and in the = form
        outs = [tmp_path / "separate.json", tmp_path / "joined.json"]
        for poly_args, out in zip((["--poly", "-1,0,2"], ["--poly=-1,0,2"]), outs):
            assert main(["check", *poly_args, "--out", str(out)] + SMALL) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert json.loads(outs[0].read_text())[0]["polynomial"] \
            == format_polynomial(chebyshev(2))

    def test_sampler_failure_exits_3(self, unsolvable_fibers, capsys):
        assert main(["suite", "--poly", "quad:-1+0i"] + SMALL) == 3
        err = capsys.readouterr().err
        assert err.startswith("juliahull: ") and "kept failing" in err

    def test_check_json_document(self, tmp_path):
        out = tmp_path / "checks.json"
        code = main(["check", "--poly", "quad:-1+0i", "--out", str(out)] + SMALL)
        assert code == 0
        docs = json.loads(out.read_text())
        assert [d["check"] for d in docs] == [
            "backward_inclusion", "critical_in_hull", "filled_in_hull",
            "preimage_convexity", "half_plane_surjectivity"]
        assert all(d["verdict"] == "Pass" for d in docs)

    def test_suite_appends_classification(self, tmp_path):
        out = tmp_path / "suite.json"
        code = main(["suite", "--poly", "cheb:3", "--out", str(out),
                     "--n", "20000", "--m", "128", "--k", "32",
                     "--res", "128", "--seed", "11"])
        assert code == 0
        docs = json.loads(out.read_text())
        assert len(docs) == 6
        assert docs[-1]["kind"] == "ChebyshevConjugate"

    @pytest.mark.parametrize("poly,kind", [
        ("cheb:3", "ChebyshevConjugate"),
        ("monomial:0.6+0.8i,2", "MonomialConjugate"),
        ("quad:-1+0i", "StrictInclusion"),
    ])
    def test_exit_codes_and_kinds(self, tmp_path, poly, kind):
        out = tmp_path / "out.json"
        code = main(["suite", "--poly", poly, "--out", str(out),
                     "--n", "20000", "--m", "128", "--k", "32",
                     "--res", "128", "--seed", "11"])
        assert code == 0
        assert json.loads(out.read_text())[-1]["kind"] == kind

    def test_deterministic_bytes(self, tmp_path):
        paths = [tmp_path / f"run{i}.json" for i in range(2)]
        for path in paths:
            main(["suite", "--poly", "quad:-1+0i", "--out", str(path)] + SMALL)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_thread_count_does_not_change_output(self, tmp_path, monkeypatch):
        blobs = []
        for threads in ("1", "4"):
            monkeypatch.setenv("JULIAHULL_THREADS", threads)
            out = tmp_path / f"threads{threads}.json"
            main(["suite", "--poly", "quad:0+1i", "--out", str(out)] + SMALL)
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_csv_projection(self, tmp_path):
        out = tmp_path / "suite.csv"
        main(["suite", "--poly", "cheb:2", "--format", "csv",
              "--out", str(out)] + SMALL)
        lines = out.read_text().splitlines()
        assert lines[0].split(",")[:3] == ["check", "verdict", "worst_violation"]
        assert len(lines) == 7  # header + five checks + classification
        assert lines[-1].startswith("classification,")

    def test_classify_command(self, tmp_path):
        out = tmp_path / "cls.json"
        code = main(["classify", "--poly", "monomial:1,3", "--out", str(out)]
                    + SMALL)
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "MonomialConjugate"
        assert doc["sign_or_c"] == [1.0, 0.0]


class TestRender:
    def test_segment_scene(self, tmp_path):
        out = tmp_path / "seg.svg"
        code = main(["render", "--poly", "cheb:2", "--out", str(out)] + SMALL)
        assert code == 0
        svg = out.read_text()
        assert svg.startswith("<svg")
        assert svg.count("<image") == 1
        # the hull of a segment Julia set draws as a single, visually flat path
        hull_paths = [l for l in svg.splitlines()
                      if "stroke=\"#14325a\"" in l]
        assert len(hull_paths) == 1
        nums = hull_paths[0].split('"')[1].replace("M", "").replace("L", "") \
            .replace("Z", "").split()
        coords = np.array(nums, dtype=float).reshape(-1, 2)
        assert np.ptp(coords[:, 0]) > 300    # spans the viewport horizontally
        assert np.ptp(coords[:, 1]) <= 0.1   # no visible height

    def test_circle_scene_vertex_count(self, tmp_path):
        out = tmp_path / "circle.svg"
        main(["render", "--poly", "monomial:1,3", "--out", str(out)] + SMALL)
        hull_path = [l for l in out.read_text().splitlines()
                     if "stroke=\"#14325a\"" in l][0]
        assert hull_path.count("L ") >= 64

    def test_markers_inside_hull_box(self, tmp_path):
        out = tmp_path / "scene.svg"
        raster = tmp_path / "scene.pgm"
        code = main(["render", "--poly", "quad:0.25+0.65i", "--out", str(out),
                     "--raster-out", str(raster)] + SMALL)
        assert code == 0
        svg = out.read_text()
        hull_path = [l for l in svg.splitlines() if "stroke=\"#14325a\"" in l][0]
        nums = hull_path.split('"')[1].replace("M", "").replace("L", "") \
            .replace("Z", "").split()
        coords = np.array(nums, dtype=float).reshape(-1, 2)
        lo, hi = coords.min(axis=0), coords.max(axis=0)
        for line in svg.splitlines():
            if 'fill="#e08214"' in line:
                cx = float(line.split('cx="')[1].split('"')[0])
                cy = float(line.split('cy="')[1].split('"')[0])
                assert lo[0] - 1 <= cx <= hi[0] + 1
                assert lo[1] - 1 <= cy <= hi[1] + 1
        header = raster.read_bytes()[:80]
        assert header.startswith(b"P5\n# R=")

    def test_render_deterministic(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for path in (a, b):
            main(["render", "--poly", "quad:0+1i", "--out", str(path)] + SMALL)
        assert a.read_bytes() == b.read_bytes()
