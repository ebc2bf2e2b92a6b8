import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import pbwkit
from pbwkit import cli, closure, deformation, extension, gradedring, homology, presentations
from pbwkit.cli import COMMANDS, main, run_command
from pbwkit.errors import (InvariantViolation, ParseError, PBWError, ResourceExceeded,
                           ValidationError)
from pbwkit.extension import ExtensionEngine
from pbwkit.linalg import PrimeField, RowSpace, span
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


def _double_nf_word(monkeypatch, word):
    """Make nf_word double the normal form of the word at position
    ``word`` of degree 3; returns the list that records each such read."""
    real_nf, asked = gradedring.PresentedRing.nf_word, []

    def broken_nf(ring, n, p):
        nf, d = real_nf(ring, n, p)
        if (n, p) == (3, word):
            asked.append(p)
            return {k: 2 * s for k, s in nf.items()}, d
        return nf, d
    monkeypatch.setattr(gradedring.PresentedRing, "nf_word", broken_nf)
    return asked


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

    @pytest.mark.parametrize("cmd, text, args, env, message", [
        pytest.param("check", None, ["--field", "Fp:abc"], None,
                     "bad --field 'Fp:abc'; use Q or Fp:PRIME", id="field-flag-not-digits"),
        pytest.param("check", None, ["--field", "Fp:8"], None, "8 is not prime",
                     id="field-flag-composite"),
        pytest.param("check", None, ["--field", "Fp:3317044064679887385961981"], None,
                     "3317044064679887385961981 is not below 3317044064679887385961981, "
                     "the bound of the exact primality test", id="field-flag-above-prime-bound"),
        pytest.param("check", None, ["--field", "R"], None,
                     "bad --field 'R'; use Q or Fp:PRIME", id="field-flag-unknown"),
        pytest.param("check", 'field = "R"\ngenerators = ["x"]\ndeformation = ["x*x"]\n', [],
                     None, "unknown field 'R'; use \"Q\" or \"Fp(p)\"", id="field-in-file"),
        pytest.param("check", 'generators = ["x", "x"]\ndeformation = ["x*x"]\n', [], None,
                     "generator names must be unique", id="duplicate-generators"),
        pytest.param("check", 'generators = []\ndeformation = []\n', [], None,
                     "generators must be a nonempty list of names", id="no-generators"),
        pytest.param("check", 'generators = ["x"]\ndeformation = ["x*x"]\nmax_degree = 0\n',
                     [], None, "max_degree must be a positive integer", id="max-degree-0"),
        pytest.param("check", 'generators = ["x"]\ndeformation = ["x*x"]\ntor_bound = 2\n',
                     [], None, "tor_bound must be an integer >= 3", id="tor-bound-2"),
        pytest.param("check", 'generators = ["x"]\ndeformation = ["x - x"]\n', [], None,
                     "deformation element 'x - x' is zero", id="zero-deformation"),
        pytest.param("check", 'generators = ["x"]\nambient_relations = ["x*x - x*x"]\n'
                     'deformation = ["x*x"]\n', [], None,
                     "ambient relation 'x*x - x*x' is zero", id="zero-ambient"),
        pytest.param("check", None, [], "abc", "PBWKIT_MAX_COLUMNS='abc' is not an integer",
                     id="guard-not-int"),
        *[pytest.param(cmd, 'generators = ["x", "y"]\ndeformation = ["x + 1"]\n', [], None,
                       "top components of degree <= 1: homological commands need "
                       "relations in degrees >= 2", id=f"{cmd}-degree-one-tops")
          for cmd in ("complexity", "tor", "hilbert")],
    ])
    def test_refusal_codes(self, cmd, text, args, env, message, tmp_path, capsys,
                           monkeypatch):
        # every refusal of an input, a flag or a setting exits 12 with its
        # message, before any verdict
        path = gallery("heisenberg.pbw")
        if text is not None:
            path = tmp_path / "in.pbw"
            path.write_text(text)
        if env is not None:
            monkeypatch.setenv("PBWKIT_MAX_COLUMNS", env)
        assert main([cmd, str(path), *args]) == 12
        out, err = capsys.readouterr()
        assert err == f"error[VALIDATION_ERROR]: {message}\n" and not out

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

    def test_minimization_fault_code(self, capsys, monkeypatch):
        # a minimization that drops a row changes the ideal: a program
        # fault (exit 14), not invalid input (exit 12)
        real = deformation.beyond_tilde

        def dropping(chain, g, n, rows):
            # the first row kept in the top degree, len(chain) - 1
            kept = real(chain, g, n, rows)
            return kept[1:] if n == len(chain) - 1 else kept
        monkeypatch.setattr(deformation, "beyond_tilde", dropping)
        assert main(["check", gallery("sl2.pbw")]) == 14
        err = capsys.readouterr().err
        assert "error[INVARIANT_VIOLATED]" in err
        assert "minimization changed the ideal" in err

    def test_k0_minimization_is_certified(self, capsys, monkeypatch):
        # a Ĩ^n that already holds all of T^n keeps no row of K0: the lift
        # minimizes K0 through the certified minimization, so it raises
        # instead of lifting with a LIFT_NOT_MINIMAL note
        real = deformation.graded_ideal_step

        def full(chain, gens_block, g, n1, field):
            if gens_block is None:
                return span(field, ({c: field.one} for c in range(g ** n1)))
            return real(chain, gens_block, g, n1, field)
        monkeypatch.setattr(deformation, "graded_ideal_step", full)
        with open(gallery("polynomial-ambient.pbw"), encoding="utf-8") as fh:
            pres = parse_presentation(fh.read())
        with pytest.raises(InvariantViolation, match="minimization changed the ideal"):
            deformation.lift_presentation(len(pres.generators), pres.parsed_ambient(),
                                          pres.parsed_deformation(), pres.field())
        assert main(["check", gallery("polynomial-ambient.pbw")]) == 14
        err = capsys.readouterr().err
        assert "error[INVARIANT_VIOLATED]" in err
        assert "minimization changed the ideal" in err

    def test_d_count_fault_breaks_exactness(self, capsys, monkeypatch):
        # 0 -> ann(z)^(n-1) -> D^(n-1) -> D^n -> A^n -> 0 is exact for every
        # P: a D table one off at n = 3 fails it there, whatever the verdict,
        # in check and in rees, which read the same tables
        real = ExtensionEngine.dim_d
        monkeypatch.setattr(ExtensionEngine, "dim_d",
                            lambda eng, n: real(eng, n) + (n == 3))
        for name in pbwkit.gallery_names():
            for cmd in ("check", "rees"):
                assert main([cmd, gallery(name)]) == 14, (cmd, name)
                err = capsys.readouterr().err
                assert "error[INVARIANT_VIOLATED]: dim D^3 = " in err, (cmd, name)

    def test_broken_left_product_code(self, capsys, monkeypatch):
        # a left product moved from the row one column past its source
        # does not lead at its pivot (or has no row): a program fault
        # (exit 14), where the kernel would loop on it
        real = closure._Layout.source

        def off_by_one(layout, c):
            i, source = real(layout, c)
            return i, source + 1
        monkeypatch.setattr(closure._Layout, "source", off_by_one)
        for field in ("Q", "Fp:7"):
            assert main(["check", gallery("sl2.pbw"), "--field", field]) == 14
            assert "error[INVARIANT_VIOLATED]" in capsys.readouterr().err

    def test_broken_normal_form_code(self, capsys, monkeypatch):
        # doubling the normal forms of the degree-3 words that start with
        # e raises an invariant violation (exit 14), not a bad-input error.
        # d1 ∘ d2 = 0 is checked by membership in I^m, which reads no
        # normal form of degree m: a d2 row of degree 4 reads either only
        # doubled words (a starts with e) or none, so it is a scaled copy
        # of the right row and stays in I^4.  The kernel it gives has the
        # wrong scales, which A^1 K2^3 ⊆ K2^4 catches
        real_nf = gradedring.PresentedRing.nf_word

        def broken_nf(ring, n, p):
            nf, d = real_nf(ring, n, p)
            if n == 3 and p < ring.g ** 2:
                return {k: 2 * s for k, s in nf.items()}, d
            return nf, d
        monkeypatch.setattr(gradedring.PresentedRing, "nf_word", broken_nf)
        assert main(["tor", gallery("sl2.pbw"), "--upto", "4"]) == 14
        assert "error[INVARIANT_VIOLATED]: A^1 K2^{m-1} escapes K2^m" in capsys.readouterr().err

    def test_broken_one_word_normal_form_code(self, capsys, monkeypatch):
        # doubling the normal form of word 1 of degree 3 (eef), which a d2
        # row built at tor --upto 4 reads, leaves that row outside I^4:
        # d1 ∘ d2 != 0 (exit 14)
        _double_nf_word(monkeypatch, 1)
        assert main(["tor", gallery("sl2.pbw"), "--upto", "4"]) == 14
        assert "error[INVARIANT_VIOLATED]: d1 ∘ d2 != 0" in capsys.readouterr().err

    def test_broken_unread_normal_form_code(self, capsys, monkeypatch):
        # no d2 row that tor --upto 4 builds reads the normal form of eee, so
        # the resolution's dims stay right; the bar route's structure
        # constants read it and count the wrong residual pairs (exit 14)
        _double_nf_word(monkeypatch, 0)
        real, tables = cli.tor3_resolution, []

        def kept(*args):
            tables.append(real(*args))
            return tables[-1]
        monkeypatch.setattr(cli, "tor3_resolution", kept)
        assert main(["tor", gallery("sl2.pbw"), "--upto", "4"]) == 14
        err = capsys.readouterr().err
        assert "error[INVARIANT_VIOLATED]: 9 residual pairs in degree 3" in err
        assert [t.dims for t in tables] == [{3: 1}]

    @pytest.mark.parametrize("bound", [4, 5])
    def test_every_doubled_normal_form_read_exits_14(self, bound, capsys, monkeypatch):
        # doubling the normal form of any one degree-3 word of sl2 that
        # nf_word is asked for is a fault tor reports (exit 14), whichever
        # check or route meets it; word 5 (efh) is never asked for
        unread = []
        for word in range(27):
            asked = _double_nf_word(monkeypatch, word)
            code = main(["tor", gallery("sl2.pbw"), "--upto", str(bound)])
            capsys.readouterr()
            monkeypatch.undo()
            assert code == (14 if asked else 0), word
            if not asked:
                unread.append(word)
        assert unread == [5]

    def test_forged_remainder_column_code(self, capsys, monkeypatch):
        # a remainder on a pivot column is no normal form: nf_word raises
        # an invariant violation and tor exits 14
        real = RowSpace.reduce_full

        def forged(sp, vec, integers=False):
            out = real(sp, vec, integers)
            if integers and sp.rows:
                red, d = out
                return {**red, min(sp.rows): 1}, d
            return out
        monkeypatch.setattr(RowSpace, "reduce_full", forged)
        assert main(["tor", gallery("sl2.pbw"), "--upto", "4"]) == 14
        err = capsys.readouterr().err
        assert "error[INVARIANT_VIOLATED]" in err and "outside the basis" in err

    def test_certified_tables_contradicting_h_a_code(self, capsys, monkeypatch):
        # under PBW_CERTIFIED gr U(P) ≅ A, so a gr U table that differs
        # from h_A in a degree both lists hold breaks an invariant
        real = ExtensionEngine.gr_table

        def wrong(eng, upto, certified=False):
            table = real(eng, upto, certified)
            return table[:-1] + [table[-1] + 1]
        assert main(["check", gallery("heisenberg.pbw")]) == 0
        capsys.readouterr()
        monkeypatch.setattr(ExtensionEngine, "gr_table", wrong)
        assert main(["check", gallery("heisenberg.pbw")]) == 14
        err = capsys.readouterr().err
        assert "error[INVARIANT_VIOLATED]: PBW_CERTIFIED but dim gr U^6 = 29 != h_A(6) = 28" in err
        # a withheld table is not compared
        monkeypatch.setattr(ExtensionEngine, "gr_table", lambda *a, **k: None)
        assert main(["check", gallery("heisenberg.pbw")]) == 0
        assert "gr U table withheld" in capsys.readouterr().out

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
        # a guard inside a decision stage exits 13: (J_1) and (J_2) of
        # k[x,y,z] (c(A) = 2) read the T[z] engine to degree 3, 40 columns
        monkeypatch.setenv("PBWKIT_MAX_COLUMNS", "20")
        f = tmp_path / "big.pbw"
        f.write_text('generators = ["x", "y", "z"]\n'
                     'deformation = ["x*y - y*x", "x*z - z*x", "y*z - z*y"]\n'
                     "max_degree = 6\n")
        assert main(["check", str(f)]) == 13
        assert "T[z]^3 over 3 generators needs 40 columns" in capsys.readouterr().err

    @pytest.mark.parametrize("guard", ["0", "-3"])
    def test_guard_below_one_code(self, guard, capsys, monkeypatch):
        # a column guard below 1 is a bad setting (exit 12), not a refused
        # input (exit 13)
        monkeypatch.setenv("PBWKIT_MAX_COLUMNS", guard)
        assert main(["check", gallery("sl2.pbw")]) == 12
        assert f"PBWKIT_MAX_COLUMNS='{guard}' is below 1" in capsys.readouterr().err

    def test_tables_stop_below_the_guard(self, tmp_path, capsys, monkeypatch):
        # the graded branch certifies T/(xy) to max_degree 7 within a guard
        # of 256 columns; ann(z)^7 would read T[z]^8 (511 columns), so the
        # tables stop at degree 6 with a note instead of exiting 13
        f = tmp_path / "xy.pbw"
        f.write_text('generators = ["x", "y"]\ndeformation = ["x*y"]\n'
                     "max_degree = 7\n")
        monkeypatch.setenv("PBWKIT_MAX_COLUMNS", "256")
        assert main(["check", str(f), "--json"]) == 0
        dims = json.loads(capsys.readouterr().out)["dims"]
        assert dims["h_A"] == list(range(1, 9))
        assert dims["gr_U"] == list(range(1, 8))
        assert dims["D"] == [(n + 1) * (n + 2) // 2 for n in range(7)]
        assert dims["ann"] == [0] * 7
        assert main(["check", str(f)]) == 0
        out = capsys.readouterr().out
        assert "verdict: PBW_CERTIFIED" in out
        assert ("note: tables stop at degree 6: degree 7 needs T[z]^8 with 511 "
                "columns, above the column guard 256") in out
        # unguarded, the tables reach max_degree
        monkeypatch.delenv("PBWKIT_MAX_COLUMNS")
        assert main(["check", str(f), "--json"]) == 0
        dims = json.loads(capsys.readouterr().out)["dims"]
        assert len(dims["gr_U"]) == len(dims["D"]) == len(dims["ann"]) == 8

    def test_deep_max_degree_under_the_guard(self, tmp_path):
        # guard_reach finds the last guarded degree in O(log max_degree)
        # sizes, so sl2 with max_degree 100000 under a guard of 300 columns
        # reports what it reports with max_degree 3000: h_A to degree 5
        # and the tables to degree 3
        src = pathlib.Path(pbwkit.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src), PBWKIT_MAX_COLUMNS="300")
        text = pathlib.Path(gallery("sl2.pbw")).read_text()
        assert "max_degree = 6" in text
        reports = []
        for depth in (3000, 100000):
            f = tmp_path / f"sl2-{depth}.pbw"
            f.write_text(text.replace("max_degree = 6", f"max_degree = {depth}"))
            proc = subprocess.run([sys.executable, "-m", "pbwkit.cli", "check", "--json",
                                   str(f)], env=env, capture_output=True, text=True,
                                  timeout=60)
            assert proc.returncode == 0 and not proc.stderr
            report = json.loads(proc.stdout)
            del report["timings"]
            reports.append(report)
        assert reports[0] == reports[1]
        dims = reports[1]["dims"]
        assert dims["h_A"] == [1, 3, 6, 10, 15, 21]
        assert dims["gr_U"] == [1, 3, 6, 10] and len(dims["D"]) == len(dims["ann"]) == 4

    def test_h_a_stops_below_the_guard(self, tmp_path, capsys, monkeypatch):
        # k[x,y,z] is certified to max_degree 7 within a guard of 1000
        # columns; h_A(7) would read 3^7 = 2187 words, so the h_A list
        # stops at degree 6 with a note instead of exiting 13
        f = tmp_path / "xyz.pbw"
        f.write_text('generators = ["x", "y", "z"]\n'
                     'deformation = ["x*y - y*x", "x*z - z*x", "y*z - z*y"]\n'
                     "max_degree = 7\n")
        monkeypatch.setenv("PBWKIT_MAX_COLUMNS", "1000")
        assert main(["check", str(f), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "PBW_CERTIFIED"
        assert report["dims"]["h_A"] == [(n + 1) * (n + 2) // 2 for n in range(7)]
        assert main(["check", str(f)]) == 0
        assert ("note: h_A stops at degree 6: degree 7 needs 2187 columns, above "
                "the column guard 1000") in capsys.readouterr().out
        # unguarded, h_A reaches max_degree
        monkeypatch.delenv("PBWKIT_MAX_COLUMNS")
        assert main(["check", str(f), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dims"]["h_A"] == [(n + 1) * (n + 2) // 2 for n in range(8)]
        assert main(["check", str(f)]) == 0
        assert "h_A stops" not in capsys.readouterr().out

    def test_complexity_h_a_stops_below_the_guard_as_check_does(self, tmp_path, capsys,
                                                                 monkeypatch):
        # complexity displays h_A by check's rule: within a guard of 1000
        # columns it stops at degree 6 with check's note, where it exited
        # 13 after c(A) was found.  hilbert, which prints h_A and nothing
        # else, still refuses degree 7
        f = tmp_path / "xyz.pbw"
        f.write_text('generators = ["x", "y", "z"]\n'
                     'deformation = ["x*y - y*x", "x*z - z*x", "y*z - z*y"]\n'
                     "max_degree = 7\n")
        monkeypatch.setenv("PBWKIT_MAX_COLUMNS", "1000")
        assert main(["complexity", str(f), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["c"] == 2 and report["certified"]
        assert report["dims"]["h_A"] == [(n + 1) * (n + 2) // 2 for n in range(7)]
        note = ("note: h_A stops at degree 6: degree 7 needs 2187 columns, above the "
                "column guard 1000")
        for cmd in ("complexity", "check"):
            assert main([cmd, str(f)]) == 0
            assert note in capsys.readouterr().out
        assert main(["hilbert", str(f)]) == 13
        assert "2187 columns" in capsys.readouterr().err

    def test_support_quotient_skips_the_guarded_scan(self, tmp_path, capsys, monkeypatch):
        # T/(xy) reaches every degree, so complexity skips the Hilbert scan
        # of A to degree 10 (2^10 columns) and scans Tor_3 to degree 8 only:
        # under a guard of 256 columns it reports what it reports unguarded.
        # check also builds the T[z] engine to degree 9 (1023 columns) for
        # its tables; under the guard of 256 they stop at degree 6
        f = tmp_path / "xy.pbw"
        f.write_text('generators = ["x", "y"]\ndeformation = ["x*y"]\n')

        def run(cmd, guard=None):
            if guard is None:
                monkeypatch.delenv("PBWKIT_MAX_COLUMNS", raising=False)
            else:
                monkeypatch.setenv("PBWKIT_MAX_COLUMNS", guard)
            code = main([cmd, str(f)])
            out, err = capsys.readouterr()
            return code, [ln for ln in out.splitlines() if not ln.startswith("timings:")], err

        code, out, _ = run("complexity", "256")
        assert code == 0 and (code, out) == run("complexity")[:2]
        assert "c(A) = -1 (bounded-degree)" in out and "note: scan bounded by 8" in out
        code, out, _ = run("check", "1023")
        assert code == 0 and (code, out) == run("check")[:2]
        code, out, err = run("check", "256")
        full = run("check")[1]
        assert code == 0 and not err
        assert out[:3] == full[:3]      # verdict, c(A) and h_A
        assert "dim D: [1, 3, 6, 10, 15, 21, 28]" in out
        assert "note: tables stop at degree 6: degree 7 needs T[z]^8 with 511 " \
            "columns, above the column guard 256" in out

    def test_bar_strand_guard_code(self, capsys, monkeypatch):
        # a bar strand over the guard ends `tor` with exit 13
        monkeypatch.setattr(homology, "BAR_STRAND_GUARD", 10)
        assert main(["tor", gallery("sl2.pbw"), "--upto", "5"]) == 13
        assert "error[RESOURCE_EXCEEDED]: bar strand" in capsys.readouterr().err

    def test_tor_mismatch_code(self, capsys, monkeypatch):
        # routes that disagree break an invariant: exit 14, and the report
        # with both tables still goes to stdout
        monkeypatch.setattr(cli, "tor_bar",
                            lambda ring, n, bound: homology.TorTable(n, bound, {3: 99}))
        assert main(["tor", gallery("sl2.pbw"), "--upto", "4", "--json"]) == 14
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "TOR_MISMATCH"
        assert report["dims"]["tor3"] == {"3": 1}
        assert report["dims"]["tor3_bar"] == {"3": 99}
        assert main(["tor", gallery("sl2.pbw"), "--upto", "4"]) == 14
        assert "note: resolution and bar routes DISAGREE" in capsys.readouterr().out

    def test_tor_mismatch_text_shows_bar_table(self, capsys, monkeypatch):
        # the text report of a mismatch shows the bar table it disagrees
        # with; agreeing runs print no such line
        assert main(["tor", gallery("sl2.pbw"), "--upto", "4"]) == 0
        assert "bar dims" not in capsys.readouterr().out
        monkeypatch.setattr(cli, "tor_bar",
                            lambda ring, n, bound: homology.TorTable(n, bound, {3: 99}))
        assert main(["tor", gallery("sl2.pbw"), "--upto", "4"]) == 14
        out = capsys.readouterr().out
        assert "Tor_3 dims: {'3': 1}" in out
        assert "Tor_3 bar dims: {'3': 99}" in out

    @pytest.mark.parametrize("argv", [
        ["check", "--upto", "abc", "FILE"],
        ["check"],
        ["bogus", "FILE"],
        ["check", "FILE", "--field"],
    ], ids=["upto-not-int", "no-file", "bad-command", "field-no-value"])
    def test_argument_error_code(self, argv, capsys):
        # argparse exits 2, the code of PBW_UP_TO_DEGREE; main maps a usage
        # error to 12
        argv = [gallery("heisenberg.pbw") if a == "FILE" else a for a in argv]
        assert main(argv) == 12
        assert "pbwkit: error:" in capsys.readouterr().err

    def test_help_code(self, capsys):
        assert main(["check", gallery("heisenberg.pbw"), "-h"]) == 0
        assert capsys.readouterr().out.startswith("usage: pbwkit")

    @pytest.mark.parametrize("cmd", COMMANDS)
    def test_negative_upto_code(self, cmd, capsys):
        assert main([cmd, "--upto", "-1", gallery("kx-mod-x2.pbw")]) == 12
        assert "error[VALIDATION_ERROR]: --upto must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["check", "complexity"])
    def test_upto_not_read_code(self, cmd, capsys):
        # check and complexity take their degrees from the file; an --upto
        # they would ignore is rejected instead
        assert main([cmd, "--upto", "3", gallery("kx-mod-x2.pbw")]) == 12
        err = capsys.readouterr().err
        assert f"error[VALIDATION_ERROR]: {cmd} does not read --upto" in err
        assert "jacobi, tor, hilbert, rees" in err

    def test_argument_codes_of_the_process(self):
        src = pathlib.Path(pbwkit.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        codes = [subprocess.run([sys.executable, "-m", "pbwkit.cli", "check", *args,
                                 gallery("heisenberg.pbw")],
                                env=env, capture_output=True, timeout=60).returncode
                 for args in (["--upto", "abc"], ["-h"])]
        assert codes == [12, 0]


def _raised(fn):
    """(the exception type, its message) of what fn() raises, or (fn(), "")."""
    try:
        return fn(), ""
    except PBWError as exc:
        return type(exc), str(exc)


def _commutative_ring():
    return gradedring.PresentedRing(2, gradedring.GradedSubspace.from_elements(
        2, [pbwkit.parse_element("x*y - y*x", ["x", "y"])]))


def _weyl_engine():
    return extension.engine_for(deformation.FilteredSubspace(
        2, [pbwkit.parse_element("x*y - y*x - 1", ["x", "y"])]))


@pytest.mark.parametrize("case, outcome, message", [
    (lambda run: run('generators = ["x"]\ndeformation = ["1/7*x"]\n', "--field", "Fp:7"),
     12, "denominator 7 not invertible mod 7"),
    (lambda run: run('generators = ["x"]\ndeformation = ["x*x"]\nmax_degree =\n'),
     11, "missing value"),
    (lambda run: run('generators = ["1x"]\ndeformation = ["x*x"]\n'),
     12, "bad generator name '1x'"),
    (lambda run: _raised(lambda: deformation.lift_presentation(
        1, [pbwkit.parse_element("x", ["x"])], [pbwkit.parse_element("x*x + 1", ["x"])])),
     ValidationError, "ambient relations must be homogeneous of degree >= 2"),
    (lambda run: _raised(lambda: homology.tor_bar(_commutative_ring(), 5, 6)),
     ValidationError, "tor_bar supports homological degrees 1..4"),
    (lambda run: _raised(lambda: homology.tor_bar(_commutative_ring(), 3, 2).dims),
     {}, ""),
    (lambda run: _raised(lambda: _commutative_ring().ideal_component(-1)),
     ValidationError, "negative degree"),
    (lambda run: _raised(lambda: _weyl_engine().ideal_component(-1)),
     ValidationError, "negative degree"),
    (lambda run: _raised(lambda: _weyl_engine().ideal_component(25)),
     ResourceExceeded, "extension degree 25 above cap 24"),
], ids=["fp-denominator", "missing-value", "bad-generator", "degree-1-ambient",
        "tor-bar-degree-5", "tor-bar-below-degree", "ring-negative-degree",
        "engine-negative-degree", "engine-above-cap"])
def test_rare_error_paths(case, outcome, message, tmp_path, capsys):
    # each raise (or early return) here runs in no other test: the CLI's
    # exit code and stderr, or the exception and its message
    def run(text, *flags):
        path = tmp_path / "case.pbw"
        path.write_text(text, encoding="utf-8")
        code = main(["check", str(path), *flags])
        return code, capsys.readouterr().err
    got, text = case(run)
    assert got == outcome and message in text, (got, text)


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

    def test_rees_builds_the_ideal_chain_once(self, capsys, monkeypatch):
        # the identity and the h_A list read one table of dim A^n
        calls = []
        real = extension.ideal_chain
        monkeypatch.setattr(extension, "ideal_chain",
                            lambda rel, upto: calls.append(upto) or real(rel, upto))
        assert main(["rees", gallery("heisenberg.pbw"), "--upto", "6", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["dims"]["rees"] == [True] * 7
        assert calls == [6]

    def test_check_empty_deformation(self, tmp_path, capsys):
        # U(P) = T: every table is the free algebra's, with no Tor_3 table
        f = tmp_path / "free.pbw"
        f.write_text('generators = ["x", "y"]\nambient_relations = []\n'
                     'deformation = []\nmax_degree = 4\n')
        assert main(["check", str(f), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "PBW_CERTIFIED"
        assert payload["dims"] == {"h_A": [1, 2, 4, 8, 16], "gr_U": [1, 2, 4, 8, 16],
                                   "D": [1, 3, 7, 15, 31], "ann": [0] * 5,
                                   "tor3": None}

    def test_lift_not_minimal_note(self, tmp_path, capsys):
        # K0 meets F¹I + IF¹ only in a combination of its two rows:
        # x*x*y - x*y*x = x*(x*y - y*x); the --json schema has no notes,
        # so the note is read from the text report of the same run
        f = tmp_path / "combo.pbw"
        f.write_text('generators = ["x", "y"]\n'
                     'ambient_relations = ["x*x*y + y*y*y", "x*y*x + y*y*y"]\n'
                     'deformation = ["x*y - y*x"]\nmax_degree = 4\n')
        code = main(["check", str(f), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert main(["check", str(f)]) == code
        text = capsys.readouterr().out
        assert f"verdict: {payload['verdict']}" in text
        assert "note: LIFT_NOT_MINIMAL" in text

    def test_lift_not_minimal_keeps_graded_certificate(self, tmp_path, capsys):
        # the same lift with a graded deformation: the verdict stays
        # PBW_CERTIFIED (exit 0), so the note names the non-graded branches
        # it degrades and says that a graded deformation keeps its verdict
        f = tmp_path / "combo.pbw"
        f.write_text('generators = ["x", "y"]\n'
                     'ambient_relations = ["x*x*y + y*y*y", "x*y*x + y*y*y"]\n'
                     'deformation = ["x*y - y*x"]\nmax_degree = 4\n')
        assert main(["check", str(f)]) == 0
        text = capsys.readouterr().out
        assert "verdict: PBW_CERTIFIED" in text
        note = next(line for line in text.splitlines()
                    if line.startswith("note: LIFT_NOT_MINIMAL"))
        assert "non-graded deformation" in note
        assert "R_P" in note and "alpha-image P'" in note
        assert "graded deformation is of PBW type regardless" in note
        assert "positive verdicts are degraded" not in note

    def test_lift_ring_reaches_the_deformation_degree(self, tmp_path, capsys):
        # the lift takes normal forms modulo K0 up to the deformation's top
        # degree 11, above the default ring cap of 10; the same algebra
        # written over the free algebra gives the same report
        deformation = '"x*x*x*x*x*x*x*x*x*x*x - y"'
        reports = []
        for ambient, extra in (('"x*y - y*x"', ""), ("", '"x*y - y*x", ')):
            f = tmp_path / "deep.pbw"
            f.write_text(f'generators = ["x", "y"]\nambient_relations = [{ambient}]\n'
                         f"deformation = [{extra}{deformation}]\nmax_degree = 12\n")
            assert main(["check", str(f), "--json"]) == 2
            report = json.loads(capsys.readouterr().out)
            reports.append({k: v for k, v in report.items() if k != "timings"})
        assert reports[0] == reports[1]
        assert reports[0]["dims"]["h_A"] == list(range(1, 12)) + [11, 11]

    @pytest.mark.parametrize("cmd, key, args, code", [
        ("check", "tor_bound = 11\n", [], 2),
        ("complexity", "tor_bound = 11\n", [], 0),
        ("tor", "", ["--upto", "12"], 0)], ids=["check", "complexity", "tor"])
    def test_ring_reaches_the_tor_bound(self, cmd, key, args, code, tmp_path, capsys):
        # the quantum plane x y = 2 y x at max_degree = 4: the Tor_3 scan to
        # the bound reads I^11 (I^12 for tor), past max(10, max_degree + 1)
        f = tmp_path / "plane.pbw"
        f.write_text('generators = ["x", "y"]\ndeformation = ["x*y - 2*y*x - 1"]\n'
                     f"max_degree = 4\n{key}")
        assert main([cmd, str(f), "--json", *args]) == code
        assert json.loads(capsys.readouterr().out)["dims"]["tor3"] == {}

    def test_field_override(self, capsys):
        assert main(["check", gallery("heisenberg.pbw"), "--field", "Fp:7"]) == 2
        out = capsys.readouterr().out
        assert "Fp(7)" in out

    def test_bad_field_flag(self, capsys):
        assert main(["check", gallery("heisenberg.pbw"), "--field", "Fp:6"]) == 12

    def test_large_prime_field(self, capsys):
        # primality is decided by Miller-Rabin, not trial division, so the
        # Mersenne prime 2^61 - 1 is accepted at once
        start = time.perf_counter()
        assert main(["check", gallery("heisenberg.pbw"), "--field",
                     "Fp:2305843009213693951"]) == 2
        assert time.perf_counter() - start < 1.0
        assert "Fp(2305843009213693951)" in capsys.readouterr().out

    @pytest.mark.parametrize("key, element, code, message", [
        ("deformation", "7*x*x", 12, "deformation element '7*x*x' is zero"),
        ("ambient_relations", "x*y - y*x + 7*x", 2, "")])
    def test_field_flag_validates_like_the_file(self, key, element, code, message,
                                                tmp_path, capsys):
        # the elements are checked over the field the command runs in,
        # whether the file or --field names it: 7 x x is zero over F_7, and
        # x y - y x + 7 x is homogeneous there
        body = {"deformation": ["x*x"], "ambient_relations": [], key: [element]}
        text = ('generators = ["x", "y"]\n'
                f'ambient_relations = {json.dumps(body["ambient_relations"])}\n'
                f'deformation = {json.dumps(body["deformation"])}\n')
        flag, infile = tmp_path / "flag.pbw", tmp_path / "file.pbw"
        flag.write_text(text)
        infile.write_text('field = "Fp(7)"\n' + text)
        for argv in ([str(flag), "--field", "Fp:7"], [str(infile)]):
            assert main(["check", *argv]) == code
            err = capsys.readouterr().err
            assert err == (f"error[VALIDATION_ERROR]: {message}\n" if message else "")
        # over Q the one is a graded deformation, the other inhomogeneous
        assert main(["check", str(flag)]) == (0 if message else 12)
        capsys.readouterr()

    def test_element_position_under_field_flag(self, tmp_path, capsys):
        # an element that fails to parse under --field points into the file
        f = tmp_path / "bad.pbw"
        f.write_text('generators = ["x"]\ndeformation = ["x*x - ²"]\n')
        assert main(["check", str(f), "--field", "Fp:7"]) == 11
        assert "line 2, col 23" in capsys.readouterr().err

    def test_elements_are_parsed_once(self, capsys, monkeypatch):
        # validation parses each element string once, over the field that
        # runs, and the check reads those elements instead of parsing again
        real, parsed = presentations.parse_element, []

        def counted(text, *args):
            parsed.append(text)
            return real(text, *args)
        monkeypatch.setattr(presentations, "parse_element", counted)
        for name in pbwkit.gallery_names():
            with open(gallery(name), encoding="utf-8") as fh:
                pres = parse_presentation(fh.read())
            for field in ([], ["--field", "Fp:32003"]):
                parsed.clear()
                assert main(["check", gallery(name), "--json", *field]) in (0, 1, 2)
                assert parsed == pres.ambient_relations + pres.deformation, name
        capsys.readouterr()

    def test_field_is_parsed_once(self, capsys, monkeypatch):
        # a check over F_p builds its PrimeField, and runs the primality
        # test, once per presentation, not once per stage that reads it
        real, made = PrimeField.__init__, []

        def counted(field, p):
            made.append(p)
            real(field, p)
        monkeypatch.setattr(PrimeField, "__init__", counted)
        for name in pbwkit.gallery_names():
            made.clear()
            assert main(["check", gallery(name), "--json", "--field", "Fp:32003"]) in (0, 1, 2)
            assert made == [32003], name
        capsys.readouterr()


@pytest.mark.parametrize("field", ["Q", "Fp:32003"])
@pytest.mark.parametrize("name, upto", [
    *((name, None) for name in pbwkit.gallery_names()),
    # k[x, y, z] at bound 9: the deepest strands of the bar oracle
    ("sl2.pbw", 9)])
def test_tor_routes_agree(name, upto, field, capsys):
    # resolution and bar at tor's default bound on every gallery file
    upto = [] if upto is None else ["--upto", str(upto)]
    assert main(["tor", gallery(name), "--field", field, *upto]) == 0
    assert "resolution and bar routes agree" in capsys.readouterr().out


@pytest.mark.parametrize("field", ["Q", "Fp:32003"])
def test_tor_report_is_the_same_under_two_hash_seeds(field):
    # no dict or set order that the hash seed moves reaches a Tor table:
    # the --json report of the bar's deepest default run, timings dropped,
    # is the same under PYTHONHASHSEED 0 and 1
    src = pathlib.Path(pbwkit.__file__).resolve().parent.parent
    reports = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-m", "pbwkit.cli", "tor", gallery("sl2.pbw"),
                               "--upto", "8", "--json", "--field", field],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0 and not proc.stderr
        report = json.loads(proc.stdout)
        del report["timings"]
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["dims"]["tor3"] == reports[0]["dims"]["tor3_bar"] == {"3": 1}


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
