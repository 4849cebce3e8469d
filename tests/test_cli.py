import contextlib
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from juliahull import checks
from juliahull import ParseError, Polynomial, chebyshev, format_polynomial, parse_polynomial
from juliahull.cli import main, parse_complex


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

    @pytest.mark.parametrize("option,value,field", [
        ("--res", "32", "grid_resolution"),
        ("--max-iter", "10", "grid_max_iter"),
    ])
    def test_grid_option_out_of_range_is_usage_error(self, capsys, option,
                                                     value, field):
        argv = ["classify", "--poly", "quad:-1+0i", option, value]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("juliahull: ") and field in err

    @pytest.mark.parametrize("verb", ["check", "classify", "suite", "render"])
    @pytest.mark.parametrize("poly", ["0,1e160,1", "0,1e200,1"])
    def test_escape_radius_too_large_is_usage_error(self, capsys, verb, poly):
        # coordinates this large overflow when the geometry squares them
        assert main([verb, "--poly", poly] + SMALL) == 2
        err = capsys.readouterr().err
        assert err.startswith("juliahull: ") and "escape radius" in err

    def test_large_escape_radius_within_bound_still_works(self, tmp_path):
        out = tmp_path / "suite.json"
        assert main(["suite", "--poly", "0,1e140,1", "--out", str(out)] + SMALL) == 0
        docs = json.loads(out.read_text(), parse_constant=pytest.fail)
        assert all(d["verdict"] == "Pass" for d in docs[:5])

    @pytest.mark.parametrize("verb", ["check", "classify", "suite", "render"])
    @pytest.mark.parametrize("poly", ["0,0,0,0,1e-60", "0,0,0,0,0,1e-40",
                                      "0,0,0,0,0,0,1e-30", "0,0,0,0,0,0,1e-40"])
    def test_solver_start_circle_overflow_is_usage_error(self, capsys, verb, poly):
        # the half-plane check solves p(z) = y for |y| <= 2R; Aberth's start
        # circle there has |a_d| rho^d above 1e333, past double precision
        assert main([verb, "--poly", poly] + SMALL) == 2
        err = capsys.readouterr().err
        assert err.startswith("juliahull: ") and "start circle" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_start_circle_below_overflow_still_runs(self, tmp_path):
        # |a_d| rho^d is about 1e301.8: accepted, and no overflow warning
        out = tmp_path / "check.json"
        assert main(["check", "--poly", "0,0,0,1e-60", "--out", str(out)] + SMALL) == 0
        json.loads(out.read_text(), parse_constant=pytest.fail)

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

    @pytest.mark.parametrize("verb, grids", [
        ("classify", 0), ("check", 1), ("suite", 1), ("render", 1)])
    def test_escape_grid_built_only_when_read(self, monkeypatch, tmp_path,
                                              verb, grids):
        calls = []
        original = checks.escape_grid
        monkeypatch.setattr(checks, "escape_grid",
                            lambda *args: calls.append(args) or original(*args))
        out = tmp_path / "out"
        assert main([verb, "--poly", "quad:-1+0i", "--out", str(out)] + SMALL) == 0
        assert len(calls) == grids

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

    def test_vertical_chebyshev_segment_classifies(self, tmp_path):
        # z^3 + 3z is -T_3 conjugated by z = (i/2) w; its Julia set is [-2i, 2i]
        out = tmp_path / "cls.json"
        assert main(["classify", "--poly", "0,3,0,1", "--out", str(out), "--n",
                     "20000", "--res", "64", "--max-iter", "50"]) == 0
        assert json.loads(out.read_text())["kind"] == "ChebyshevConjugate"

    @pytest.mark.parametrize("poly", ["0.01,0,1", "0,0+0.01i,0,1"])
    def test_unresolved_equality_states_gap_and_tolerance(self, capsys, poly):
        # strict inclusions whose hull gap lies below the default tolerance
        argv = ["classify", "--poly", poly, "--n", "20000", "--res", "64",
                "--max-iter", "50"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert re.search(r"hull gap \S+ x diameter is within tol_rel 0\.001", err)
        assert "lower --tol" in err and "increase n" in err
        assert main(argv + ["--tol", "1e-5"]) == 0
        assert json.loads(capsys.readouterr().out)["kind"] == "StrictInclusion"

    def test_deterministic_bytes(self, tmp_path):
        paths = [tmp_path / f"run{i}.json" for i in range(2)]
        for path in paths:
            main(["suite", "--poly", "quad:-1+0i", "--out", str(path)] + SMALL)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_csv_projection(self, tmp_path):
        out = tmp_path / "suite.csv"
        main(["suite", "--poly", "cheb:2", "--format", "csv",
              "--out", str(out)] + SMALL)
        lines = out.read_text().splitlines()
        assert lines[0].split(",")[:3] == ["check", "verdict", "worst_violation"]
        assert len(lines) == 7  # header + five checks + classification
        assert lines[-1].startswith("classification,")

    @pytest.mark.parametrize("verb,flag", [("check", "--out"), ("classify", "--out"),
                                           ("render", "--raster-out")])
    def test_unwritable_output_is_usage_error(self, capsys, tmp_path, verb, flag):
        target = tmp_path / "missing" / "out"
        extra = ["--out", str(tmp_path / "scene.svg")] if flag != "--out" else []
        code = main([verb, "--poly", "quad:-1+0i", flag, str(target)] + extra + SMALL)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"juliahull: cannot write {target}: ")
        assert "Traceback" not in err

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


# Each option is drawn in range (tiny sizes) unless it is among the
# spoiled ones, which are drawn out of range.
_IN_RANGE = {
    "--n": st.integers(1000, 2000),
    "--m": st.integers(16, 48),
    "--k": st.integers(16, 32),
    "--tol": st.sampled_from(["1e-4", "1e-3", "0.01", "0.049"]),
    "--seed": st.integers(0, 40),
    "--res": st.integers(64, 96),
    "--max-iter": st.integers(50, 80),
}
_OUT_OF_RANGE = {
    "--n": st.integers(-5, 999),
    "--m": st.integers(-1, 15),
    "--k": st.integers(-1, 15),
    "--tol": st.sampled_from(["-1", "0", "0.05", "1", "nan", "inf"]),
    "--seed": st.integers(-3, -1),
    "--res": st.integers(-1, 63),
    "--max-iter": st.integers(-1, 49),
}


@settings(max_examples=20, deadline=None)
@given(verb=st.sampled_from(["check", "classify", "suite", "render"]),
       poly=st.sampled_from(["quad:-1+0i", "quad:0+1i", "cheb:2", "monomial:1,3"]),
       spoiled=st.sets(st.sampled_from(sorted(_IN_RANGE)), max_size=2),
       data=st.data())
def test_option_fuzz_ends_in_a_defined_exit_code(verb, poly, spoiled, data):
    argv = [verb, "--poly", poly]
    for option, in_range in _IN_RANGE.items():
        strategy = _OUT_OF_RANGE[option] if option in spoiled else in_range
        argv += [option, str(data.draw(strategy, label=option))]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    if spoiled:
        assert code == 2 and err.getvalue().startswith("juliahull: ")
    else:
        assert code in (0, 1, 3)


_MANTISSA = st.floats(1e-3, 1e3).map(lambda x: f"{x:.4g}")
_REAL = st.builds("{}{}{}".format, st.sampled_from(["", "+", "-"]), _MANTISSA,
                  st.sampled_from(["", "e2", "E-3", "e+1"]))
_NUMBER = st.one_of(
    _REAL, st.builds("{}{}{}i".format, _REAL, st.sampled_from(["+", "-"]), _MANTISSA))
_STRAY = st.sampled_from(["", "i", "j", "1j", "2+i", "3i", "1+-2i", "1e", "e2",
                          "nan", "inf", "-inf", "1e999", "0x1"])


@st.composite
def _poly_texts(draw):
    """Preset or coefficient-list text, well formed about half of the time."""
    if draw(st.booleans()):
        head = draw(st.sampled_from(["quad", "cheb", "negcheb", "monomial"]))
        body = draw(st.one_of(
            st.integers(-1, 6).map(str), _NUMBER, _STRAY,
            st.builds("{},{}".format, _NUMBER | _STRAY,
                      st.sampled_from(["2", "3", "0", "x", ""]))))
        return f"{head}:{body}"
    tokens = draw(st.lists(_NUMBER, min_size=1, max_size=7))
    if draw(st.booleans()):
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(_STRAY)
    return ",".join(tokens)


@settings(max_examples=25, deadline=None)
@given(verb=st.sampled_from(["check", "classify"]), text=_poly_texts())
def test_poly_grammar_fuzz_ends_in_a_defined_exit_code(verb, text):
    argv = [verb, f"--poly={text}", "--n", "1000", "--m", "16", "--k", "16",
            "--res", "64", "--max-iter", "50"]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert err.getvalue().startswith("juliahull: ")
