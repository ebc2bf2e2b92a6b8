"""The Jacobi ladder that ``pn_ladder`` reads from the T[z] engine.

``pn_ladder`` counts dim P_k and (J_k) from the engine's pivots, and reads
the witness of the first failing (J_k) from the rows of <P_z>^{k+1} that
are z times an element of T[z]^k, reduced modulo <P_z>^k.  Its dims,
verdicts, first failure and witness must be those of the naive ladder
(conftest), which multiplies every row of P_k over word columns, on every
sampled presentation; a witness space whose dimension is not
dim ann(z)^k must raise instead of giving a witness.
"""

import random

import pytest

from pbwkit.cli import main
from pbwkit.deformation import FilteredSubspace, pn_ladder
from pbwkit.errors import InvariantViolation, ResourceExceeded
from pbwkit.extension import ExtensionEngine, engine_for
from pbwkit.freealg import filtration_size, parse_element
from pbwkit.linalg import QQ, PrimeField

from conftest import naive_ladder, row_elements, sampled

UPTO = 5
INSTANCES = 40


@pytest.mark.parametrize("p", [None, 7])
def test_engine_verdicts_match_ladder(p):
    field = QQ if p is None else PrimeField(p)
    rng = random.Random(4700 + (p or 0))
    failed = full = 0
    for _ in range(INSTANCES):
        P = sampled(rng, field)
        eng = engine_for(P)
        lad = pn_ladder(P, UPTO, eng)
        spaces, verdicts, witness = naive_ladder(P, UPTO)
        top = len(spaces) - 1
        assert lad.dims[:top + 1] == [sp.rank for sp in spaces], row_elements(P)
        assert lad.dims[top + 1:] == [filtration_size(P.g, k)
                                      for k in range(top + 1, UPTO + 2)]
        # the ladder builds no component past T[z]^{UPTO+1}, nor past the
        # first full one
        assert eng.saturated_at == (top if spaces[top].rank == filtration_size(P.g, top)
                                    else None)
        assert lad.verdicts == verdicts
        assert lad.first_failure == next((k for k, ok in verdicts.items() if not ok), None)
        if witness is None:
            assert lad.witness is None
        else:
            assert lad.witness.terms == witness.terms, row_elements(P)
            failed += 1
        full += eng.saturated_at is not None
    # the sample reaches both outcomes and a ladder that fills T^{<=k}
    assert 0 < failed < INSTANCES
    assert full


def weyl():
    gens = ["x", "y"]
    return FilteredSubspace(2, [parse_element("x*y - y*x - 1", gens)])


def test_disagreement_raises(monkeypatch):
    # the Weyl algebra passes every (J_k); an engine that counts one pivot
    # too many in each cut P_{k+1} ∩ T^{<=k} reports a failing (J_1), and
    # the witness space, which is zero, then contradicts it
    P = weyl()
    eng = engine_for(P)
    cut = eng.cut_dim
    monkeypatch.setattr(eng, "cut_dim", lambda m, n: cut(m, n) + (m > n))
    with pytest.raises(InvariantViolation, match="witness space has dimension 0, "):
        pn_ladder(P, 3, eng)


def test_depth_cap_is_the_ladders():
    P = weyl()
    with pytest.raises(ResourceExceeded, match="ladder depth 24 above cap 24"):
        pn_ladder(P, 24, engine_for(P))


def test_guard_refuses_before_any_step(tmp_path, capsys, monkeypatch):
    # jacobi --upto 6 on two letters needs T[z]^7, 255 columns: under a
    # guard of 200 it exits 13 before the engine builds a component
    f = tmp_path / "weyl.pbw"
    f.write_text('generators = ["x", "y"]\ndeformation = ["x*y - y*x - 1"]\n')
    steps = []
    real = ExtensionEngine._step
    monkeypatch.setattr(ExtensionEngine, "_step",
                        lambda self, m: steps.append(m) or real(self, m))
    monkeypatch.setenv("PBWKIT_MAX_COLUMNS", "200")
    assert main(["jacobi", str(f), "--upto", "6"]) == 13
    assert "T[z]^7 over 2 generators needs 255 columns" in capsys.readouterr().err
    assert steps == []
    assert main(["jacobi", str(f), "--upto", "5"]) == 0
    assert steps == [1, 2, 3, 4, 5, 6]
