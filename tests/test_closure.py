"""The semi-naive closure steps against the naive ones.

The Jacobi ladder multiplies only the rows P_k added to P_{k-1}, and the
T[z] engine stores z·<P_z>^{m-1} shifted and multiplies only the rows of
<P_z>^{m-1} that z·<P_z>^{m-2} lacks.  ``naive_ladder`` and
``NaiveEngine`` (conftest) multiply every row, as the closures did
before; the ladder must give the same stored rows and witness, the engine
the same ideal components and annihilators.
"""

import random
from fractions import Fraction

import pytest

from pbwkit.deformation import FilteredSubspace, extract_alpha, pn_ladder, rp_of
from pbwkit.errors import InvalidPresentation
from pbwkit.extension import engine_for
from pbwkit.freealg import Element, filtration_size
from pbwkit.linalg import QQ, PrimeField

from conftest import NaiveEngine, naive_ladder, random_presentation

LADDER_UPTO = 5
ENGINE_DEGREE = 6
INSTANCES = 30


def sampled(rng, field):
    """A sampler presentation converted to ``field``; spans that are zero
    or contain a constant there are skipped."""
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
def test_closures_match_naive(p):
    field = QQ if p is None else PrimeField(p)
    rng = random.Random(4400 + (p or 0))
    gens, not_pbw, saturated = set(), 0, 0
    for _ in range(INSTANCES):
        P = sampled(rng, field)
        gens.add(P.g)
        lad = pn_ladder(P, LADDER_UPTO)
        spaces, witness = naive_ladder(P, LADDER_UPTO)
        for k, sp in enumerate(lad.spaces):
            if sp is not None:
                assert sp.rows == spaces[k].rows, (k, P.row_elements())
        top = len(spaces) - 1
        full = top if spaces[top].rank == filtration_size(P.g, top) else None
        assert lad.full_from == full
        assert lad.dims[:top + 1] == [sp.rank for sp in spaces]
        assert (lad.witness is None) == (witness is None)
        if witness is not None:
            assert lad.witness.terms == witness.terms
            not_pbw += 1

        eng = engine_for(P)
        naive = NaiveEngine(P.g, extract_alpha(P), rp_of(P), field)
        for n in range(ENGINE_DEGREE):
            assert eng.annihilator_dim(n) == naive.annihilator_dim(n)
            assert eng.annihilator_basis(n) == naive.annihilator_basis(n)
        for m in range(ENGINE_DEGREE + 1):
            mine, theirs = eng.ideal_component(m), naive.ideal_component(m)
            assert sorted(mine.rows) == sorted(theirs.rows), m
            assert mine.contains_space(theirs) and theirs.contains_space(mine)
        assert eng.saturated_at == naive.saturated_at
        if eng.saturated_at is not None and eng.saturated_at < ENGINE_DEGREE:
            saturated += 1
    # the sample reaches every g, both verdicts and the saturated branch
    assert gens == {1, 2, 3}
    assert 0 < not_pbw < INSTANCES
    assert saturated
