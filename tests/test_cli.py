import json
import os
import pathlib
import subprocess
import sys

import pytest

import pbwkit
from pbwkit import cli, gradedring
from pbwkit.cli import main, run_command
from pbwkit.errors import InvariantViolation, ParseError, ValidationError
from pbwkit.linalg import RowSpace
from pbwkit.presentations import parse_presentation

HEISENBERG_TEXT = """\
field = "Q"
generators = ["x", "y", "c"]
ambient_relations = []
deformation = ["x*y - y*x - c", "x*c - c*x", "y*c - c*y"]
max_degree = 8
"""


def gallery(name):
    return str(pbwkit.gallery_path(name))


class TestParsing:
    def test_heisenberg_file(self):
        pres = parse_presentation(HEISENBERG_TEXT)
        assert pres.generators == ["x", "y", "c"]
        assert len(pres.deformation) == 3
        assert pres.max_degree == 8

    def test_x3_file_is_valid(self):
        text = ('generators = ["x"]\nambient_relations = ["x*x*x"]\n'
                'deformation = ["x*x + 1"]\n')
        pres = parse_presentation(text)
        assert pres.ambient_relations == ["x*x*x"]
        assert pres.field_name == "Q"  # default

    def test_constant_deformation_rejected(self):
        text = 'generators = ["x"]\ndeformation = ["2"]\n'
        with pytest.raises(ValidationError):
            parse_presentation(text)

    def test_unknown_key_position(self):
        with pytest.raises(ParseError) as exc:
            parse_presentation('generators = ["x"]\nbogus = 3\n')
        assert exc.value.line == 2

    def test_unterminated_list(self):
        with pytest.raises(ParseError):
            parse_presentation('generators = ["x"\ndeformation = []\n')

    def test_duplicate_key(self):
        with pytest.raises(ParseError):
            parse_presentation('generators = ["x"]\ngenerators = ["y"]\n'
                               'deformation = []\n')

    def test_inhomogeneous_ambient_rejected(self):
        text = ('generators = ["x"]\nambient_relations = ["x*x + x"]\n'
                'deformation = ["x*x"]\n')
        with pytest.raises(ValidationError):
            parse_presentation(text)

    def test_unknown_generator_in_element(self):
        with pytest.raises(ParseError):
            parse_presentation('generators = ["x"]\ndeformation = ["x*q"]\n')

    def test_element_error_position_in_file(self):
        # "x*x - ²" starts at col 17 of line 2, so "²" sits at col 23
        text = 'generators = ["x"]\ndeformation = ["x*x - ²"]\n'
        with pytest.raises(ParseError) as exc:
            parse_presentation(text)
        assert (exc.value.line, exc.value.col) == (2, 23)
        text = ('generators = ["x", "y"]\nambient_relations = ["x*x", "x*q"]\n'
                'deformation = ["x*y"]\n')
        with pytest.raises(ParseError) as exc:
            parse_presentation(text)
        assert (exc.value.line, exc.value.col) == (2, 32)  # the "q"

    def test_round_trip(self):
        pres = parse_presentation(HEISENBERG_TEXT)
        again = parse_presentation(pres.to_text())
        assert again == pres
        for name in pbwkit.gallery_names():
            with open(gallery(name), encoding="utf-8") as fh:
                pres = parse_presentation(fh.read())
            assert parse_presentation(pres.to_text()) == pres


class TestExitCodes:
    def test_check_certified(self, capsys):
        assert main(["check", gallery("heisenberg.pbw")]) == 0

    def test_check_not_pbw(self, capsys):
        assert main(["check", gallery("x3-counterexample.pbw")]) == 1

    def test_check_bounded(self, capsys):
        assert main(["check", gallery("polynomial-ambient.pbw")]) == 2

    def test_parse_error_code(self, tmp_path, capsys):
        f = tmp_path / "bad.pbw"
        f.write_text("generators = [oops\n")
        assert main(["check", str(f)]) == 11

    def test_validation_error_code(self, tmp_path, capsys):
        f = tmp_path / "bad.pbw"
        f.write_text('generators = ["x"]\ndeformation = ["3"]\n')
        assert main(["check", str(f)]) == 12

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/nothing.pbw"]) == 14

    def test_non_ascii_digit_is_parse_error(self, tmp_path, capsys):
        # str.isdigit() accepts "²" but int() does not
        text = 'generators = ["x"]\ndeformation = ["x*x - ²"]\n'
        with pytest.raises(ParseError) as exc:
            parse_presentation(text)
        assert "'²'" in str(exc.value)
        f = tmp_path / "sup.pbw"
        f.write_text(text, encoding="utf-8")
        assert main(["check", str(f)]) == 11
        assert "error[PARSE_ERROR]" in capsys.readouterr().err

    def test_unexpected_exception_code(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")
        monkeypatch.setattr(cli, "run_command", boom)
        assert main(["check", gallery("heisenberg.pbw")]) == 14
        assert "RuntimeError: boom" in capsys.readouterr().err

    def test_broken_invariant_code(self, capsys, monkeypatch):
        # an empty I^3 for k<x>/(x^2) revives a dead degree; the check
        # raises (not assert), so it also holds under python -O
        real_step = gradedring.graded_ideal_step

        def broken_step(prev, gens_block, g, n1, field):
            if n1 >= 3:
                return RowSpace(field)
            return real_step(prev, gens_block, g, n1, field)
        monkeypatch.setattr(gradedring, "graded_ideal_step", broken_step)
        with pytest.raises(InvariantViolation):
            gradedring.PresentedRing(1, gradedring.GradedSubspace.from_elements(
                1, [pbwkit.parse_element("x*x", ["x"])])).hilbert(4)
        assert main(["hilbert", gallery("kx-mod-x2.pbw"), "--upto", "4"]) == 14
        assert "error[INVARIANT_VIOLATED]" in capsys.readouterr().err

    def test_broken_normal_form_code(self, capsys, monkeypatch):
        # doubling the normal forms of the degree-3 words that start with
        # e breaks d1 ∘ d2 = 0; the self-check raises an invariant
        # violation (exit 14), not a bad-input error
        real_nf = gradedring.PresentedRing.nf_word

        def broken_nf(ring, w):
            nf, d = real_nf(ring, w)
            if len(w) == 3 and w[0] == 0:
                return {e: 2 * s for e, s in nf.items()}, d
            return nf, d
        monkeypatch.setattr(gradedring.PresentedRing, "nf_word", broken_nf)
        assert main(["tor", gallery("sl2.pbw"), "--upto", "4"]) == 14
        assert "error[INVARIANT_VIOLATED]: d1 ∘ d2 != 0" in capsys.readouterr().err

    def test_huge_max_degree_exits_quickly(self, tmp_path):
        # Hilbert values up to max_degree cost O(1) each for g = 1; the
        # ladder cap then ends the run with exit 13
        f = tmp_path / "deep.pbw"
        f.write_text('generators = ["x"]\ndeformation = ["x*x"]\n'
                     "max_degree = 100000\n")
        src = pathlib.Path(pbwkit.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-m", "pbwkit.cli", "check", str(f)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 13
        assert "ladder depth 100000 above cap 24" in proc.stderr

    def test_resource_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PBWKIT_MAX_COLUMNS", "10")
        f = tmp_path / "big.pbw"
        f.write_text('generators = ["x", "y"]\ndeformation = ["x*y - y*x"]\n'
                     "max_degree = 6\n")
        assert main(["check", str(f)]) == 13


class TestJsonOutput:
    def test_stable_schema(self, capsys):
        assert main(["check", gallery("heisenberg.pbw"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"verdict", "c", "certified", "jacobi", "dims",
                                "witness", "timings"}

    def test_golden_heisenberg(self, capsys):
        main(["check", gallery("heisenberg.pbw"), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "PBW_CERTIFIED"
        assert payload["c"] == 2 and payload["certified"] is True
        assert payload["jacobi"] == {"1": True, "2": True}
        assert payload["witness"] is None
        assert payload["dims"]["h_A"] == [1, 3, 6, 10, 15, 21, 28]
        assert payload["dims"]["gr_U"] == [1, 3, 6, 10, 15, 21, 28]
        assert payload["dims"]["D"] == [1, 4, 10, 20, 35, 56, 84]
        assert payload["dims"]["ann"] == [0] * 7
        assert payload["dims"]["tor3"] == {"3": 1}

    def test_golden_x3(self, capsys):
        assert main(["check", gallery("x3-counterexample.pbw"), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "NOT_PBW"
        assert payload["jacobi"]["2"] is False
        assert payload["witness"] == "x"
        assert payload["dims"]["D"][:4] == [1, 2, 2, 1]
        assert payload["dims"]["ann"][:4] == [0, 0, 1, 1]

    def test_golden_sl2(self, capsys):
        assert main(["check", gallery("sl2.pbw"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "PBW_CERTIFIED" and payload["c"] == 2
        assert payload["dims"]["gr_U"] == [1, 3, 6, 10, 15, 21, 28]

    def test_golden_clifford(self, capsys):
        assert main(["check", gallery("clifford-diag11.pbw"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "PBW_CERTIFIED"
        assert payload["dims"]["h_A"] == [1, 2, 1, 0, 0, 0, 0]
        assert payload["dims"]["D"] == [1, 3, 4, 4, 4, 4, 4]
        assert payload["dims"]["tor3"] == {"3": 4}

    def test_golden_bracket(self, capsys):
        assert main(["check", gallery("non-jacobi-bracket.pbw"), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "NOT_PBW"
        assert payload["witness"] == "z"
        assert payload["jacobi"] == {"1": True, "2": False}
        assert payload["dims"]["ann"][:3] == [0, 0, 1]

    def test_json_and_text_agree_numerically(self, capsys):
        for name in ("heisenberg.pbw", "x3-counterexample.pbw",
                     "clifford-diag11.pbw"):
            main(["check", gallery(name), "--json"])
            payload = json.loads(capsys.readouterr().out)
            main(["check", gallery(name)])
            text = capsys.readouterr().out
            for key in ("h_A", "gr_U", "D", "ann"):
                if payload["dims"].get(key) is not None:
                    assert str(payload["dims"][key]) in text
            if payload["c"] is not None:
                assert f"c(A) = {payload['c']}" in text
            if payload["witness"]:
                assert f"witness: {payload['witness']}" in text


class TestCommands:
    def test_complexity_kx_mod_x3(self, capsys):
        assert main(["complexity", gallery("kx-mod-x3.pbw")]) == 0
        out = capsys.readouterr().out
        assert "c(A) = 3 (certified)" in out

    def test_jacobi_command(self, capsys):
        assert main(["jacobi", gallery("non-jacobi-bracket.pbw"),
                     "--upto", "3"]) == 0
        out = capsys.readouterr().out
        assert "JACOBI_FAILS(2)" in out and "witness: z" in out

    def test_tor_command_agreement(self, capsys):
        assert main(["tor", gallery("clifford-diag11.pbw"), "--upto", "5"]) == 0
        assert "routes agree" in capsys.readouterr().out

    def test_hilbert_command(self, capsys):
        assert main(["hilbert", gallery("kx-mod-x4.pbw"), "--upto", "6"]) == 0
        out = capsys.readouterr().out
        assert "[1, 1, 1, 1, 0, 0, 0]" in out and "c_A = 2" in out

    def test_rees_command(self, capsys):
        assert main(["rees", gallery("heisenberg.pbw"), "--upto", "5"]) == 0
        assert "REES_OK" in capsys.readouterr().out
        assert main(["rees", gallery("x3-counterexample.pbw"), "--upto", "4"]) == 0
        assert "REES_FAILS(3)" in capsys.readouterr().out

    def test_field_override(self, capsys):
        assert main(["check", gallery("heisenberg.pbw"), "--field", "Fp:7"]) == 2
        out = capsys.readouterr().out
        assert "Fp(7)" in out

    def test_bad_field_flag(self, capsys):
        assert main(["check", gallery("heisenberg.pbw"), "--field", "Fp:6"]) == 12


class TestRunCommand:
    def test_programmatic(self):
        pres = parse_presentation(HEISENBERG_TEXT)
        pres.max_degree = 4
        report = run_command("check", pres)
        assert report.verdict == "PBW_CERTIFIED"
        assert report.exit_code == 0
        assert report.dims["gr_U"] == [1, 3, 6, 10, 15]


class TestReportInvariants:
    def test_gallery_wide(self):
        # NOT_PBW always carries a witness; PBW_CERTIFIED implies certified
        # c and Jacobi all-pass through c(A)
        for name in pbwkit.gallery_names():
            with open(gallery(name), encoding="utf-8") as fh:
                pres = parse_presentation(fh.read())
            report = run_command("check", pres)
            if report.verdict == "NOT_PBW":
                assert report.witness, name
            if report.verdict == "PBW_CERTIFIED":
                assert report.certified, name
                assert report.c is not None, name
                ks = {int(k) for k in report.jacobi}
                assert set(range(1, max(report.c, 0) + 1)) <= ks, name
                assert all(report.jacobi.values()), name


GL2 = ["e*f - f*e - h", "h*e - e*h - 2*e", "h*f - f*h + 2*f",
       "e*c - c*e", "f*c - c*f", "h*c - c*h"]


def test_gl2_tables_four_generators(tmp_path, capsys):
    # U(gl2) is a PBW deformation of k[e, f, h, c]: gr U has the
    # polynomial-ring dimensions C(n+3, 3) and z is regular in D(P)
    f = tmp_path / "gl2.pbw"
    f.write_text('generators = ["e", "f", "h", "c"]\n'
                 f"deformation = {json.dumps(GL2)}\nmax_degree = 5\n")
    assert main(["check", str(f), "--json"]) == 0
    dims = json.loads(capsys.readouterr().out)["dims"]
    assert dims["gr_U"] == [1, 4, 10, 20, 35, 56]
    assert dims["ann"] == [0] * 6
