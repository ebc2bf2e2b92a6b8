"""The (J_k) verdicts that ``pbw_check`` reads from the T[z] engine.

``jacobi_verdicts`` decides (J_k) by comparing the engine's cut
dim(P_{k+1} ∩ T^{<=k}) with dim P_k, and runs the Jacobi ladder only when
some (J_k) fails, for its witness.  Its verdicts, first failure and witness
must be the ladder's on every sampled presentation, and a disagreement
between the two must raise instead of picking one.
"""

import random
from fractions import Fraction

import pytest

from pbwkit.deformation import FilteredSubspace, jacobi_verdicts, pn_ladder
from pbwkit.errors import InvalidPresentation, InvariantViolation, ResourceExceeded
from pbwkit.extension import engine_for
from pbwkit.freealg import Element, parse_element
from pbwkit.linalg import QQ, PrimeField

from conftest import random_presentation, row_elements

UPTO = 5
INSTANCES = 40


def sampled(rng, field):
    """A sampler presentation over ``field``, tops of degree 1 allowed;
    spans that are zero or contain a constant there are skipped."""
    while True:
        g, elems = random_presentation(rng, tops_at_least_2=rng.random() < 0.7)
        elems = [Element(field, {w: field.from_fraction(Fraction(s))
                                 for w, s in e.terms.items()}) for e in elems]
        try:
            P = FilteredSubspace(g, elems, field)
        except InvalidPresentation:
            continue
        if P.dim:
            return P


@pytest.mark.parametrize("p", [None, 7])
def test_engine_verdicts_match_ladder(p):
    field = QQ if p is None else PrimeField(p)
    rng = random.Random(4700 + (p or 0))
    failed = 0
    for _ in range(INSTANCES):
        P = sampled(rng, field)
        lad = pn_ladder(P, UPTO)
        got = jacobi_verdicts(P, engine_for(P), UPTO)
        assert got.verdicts == lad.verdicts, row_elements(P)
        assert got.first_failure == lad.first_failure
        if lad.witness is None:
            assert got.witness is None
        else:
            assert got.witness.terms == lad.witness.terms
            failed += 1
    # the sample reaches both outcomes
    assert 0 < failed < INSTANCES


def weyl():
    gens = ["x", "y"]
    return FilteredSubspace(2, [parse_element("x*y - y*x - 1", gens)])


def test_disagreement_raises(monkeypatch):
    # the Weyl algebra passes every (J_k); an engine that reports one cut
    # too many makes every verdict fail, and the ladder then contradicts it
    P = weyl()
    eng = engine_for(P)
    cut = eng.cut_dim
    monkeypatch.setattr(eng, "cut_dim", lambda m, n: cut(m, n) + 1)
    with pytest.raises(InvariantViolation, match="disagree"):
        jacobi_verdicts(P, eng, 3)


def test_depth_cap_is_the_ladders():
    P = weyl()
    with pytest.raises(ResourceExceeded, match="ladder depth 24 above cap 24"):
        jacobi_verdicts(P, engine_for(P), 24)
