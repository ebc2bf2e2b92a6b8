"""The semi-naive closure steps against the naive ones, and the engine's
cuts against the ladder's.

The T[z] engine stores V·<P_z>^{m-1} unreduced and multiplies on the
right only the rows of <P_z>^{m-1} that V·<P_z>^{m-2} lacks, and by z
only those of them it did not insert as right products; the Jacobi ladder
is the same step at z = 1.  ``naive_ladder`` and
``NaiveEngine`` (conftest) multiply every row, as the closures did before;
the ladder must give the same spaces, verdicts and canonical witness, the
engine the same ideal components and annihilators.  The gr U
tables are read from the engine: dim(P_m ∩ T^{<=n}) is its pivots of
<P_z>^m of word degree <= n, which must equal the count on the ladder's
P_m.
"""

import random

import pytest

from pbwkit.deformation import (LADDER_DEPTH_CAP, FilteredSubspace,
                                extract_alpha, pn_ladder, rp_of)
from pbwkit.extension import GR_TABLE_COLUMN_CAP, engine_for
from pbwkit.freealg import filtration_size, parse_element
from pbwkit.linalg import QQ, PrimeField, RowSpace

from conftest import (NaiveEngine, annihilator_basis, inserted, naive_ladder,
                      right_products, row_elements, sampled)

LADDER_UPTO = 5
ENGINE_DEGREE = 6
INSTANCES = 30


@pytest.mark.parametrize("p", [None, 7])
def test_closures_match_naive(p):
    field = QQ if p is None else PrimeField(p)
    rng = random.Random(4400 + (p or 0))
    gens, not_pbw, saturated = set(), 0, 0
    for _ in range(INSTANCES):
        P = sampled(rng, field)
        gens.add(P.g)
        lad = pn_ladder(P, LADDER_UPTO)
        spaces, verdicts, witness = naive_ladder(P, LADDER_UPTO)
        for k, sp in enumerate(lad.spaces):
            if sp is not None:
                assert sp.equals_space(spaces[k]), (k, row_elements(P))
        top = len(spaces) - 1
        full = top if spaces[top].rank == filtration_size(P.g, top) else None
        assert lad.full_from == full
        assert lad.dims[:top + 1] == [sp.rank for sp in spaces]
        assert lad.verdicts == verdicts
        assert (lad.witness is None) == (witness is None)
        if witness is not None:
            assert lad.witness.terms == witness.terms
            not_pbw += 1

        eng = engine_for(P)
        naive = NaiveEngine(P.g, extract_alpha(P), rp_of(P), field)
        for n in range(ENGINE_DEGREE):
            assert eng.annihilator_dim(n) == naive.annihilator_dim(n)
            assert annihilator_basis(eng, n) == annihilator_basis(naive, n)
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


def ladder_cut(lad, m, n):
    """dim(P_m ∩ T^{<=n}) counted on the ladder's P_m."""
    sp = lad.spaces[m]
    if sp is None:      # P_m = T^{<=m} once the ladder is full
        return filtration_size(lad.g, min(m, n))
    start = lad.basis.suffix_start(n)
    return sum(1 for c in sp.rows if c >= start)


def ladder_gr_table(P, upto, certified, ladder):
    """gr U(P) as gr_table built it from ladders: cuts P_n ∩ T^{<=n} when
    certified, else the first m (under the column cap) at which the ladder
    is full or the cuts agree with those at m - 1.  ``ladder(m)`` is a
    ladder that holds P_m."""
    g = P.g
    if certified:
        cuts = [ladder_cut(ladder(n), n, n) for n in range(upto + 1)]
    else:
        cuts = None
        depth = max(upto + 1, P.max_degree)
        while filtration_size(g, depth + 1) <= GR_TABLE_COLUMN_CAP \
                and depth < LADDER_DEPTH_CAP:
            m = depth + 1
            lad = ladder(m)
            now = [ladder_cut(lad, m, n) for n in range(upto + 1)]
            if lad.full_from is not None and lad.full_from <= m or \
                    now == [ladder_cut(lad, m - 1, n) for n in range(upto + 1)]:
                cuts = now
                break
            depth += 1
        if cuts is None:
            return None
    return [filtration_size(g, n) - cuts[n] - (filtration_size(g, n - 1) - cuts[n - 1]
                                               if n else 0)
            for n in range(upto + 1)]


@pytest.mark.parametrize("p", [None, 7])
def test_engine_cuts_match_ladder(p):
    field = QQ if p is None else PrimeField(p)
    rng = random.Random(4500 + (p or 0))
    withheld = 0
    for _ in range(INSTANCES):
        P = sampled(rng, field)
        lad = pn_ladder(P, 6)
        eng = engine_for(P)
        for m in range(8):
            for n in range(m + 1):
                assert eng.cut_dim(m, n) == ladder_cut(lad, m, n), (m, n, row_elements(P))

        ladders = [lad]

        def ladder(m):
            if m > ladders[-1].upto + 1:
                ladders.append(pn_ladder(P, m - 1))
            return ladders[-1]

        for upto in (3, 5, 6):
            for certified in (False, True):
                want = ladder_gr_table(P, upto, certified, ladder)
                assert eng.gr_table(upto, certified) == want, (upto, certified)
                withheld += want is None
    # the sample reaches the withheld tables too
    assert withheld


SL2 = ["e*f - f*e - h", "h*e - e*h - 2*e", "h*f - f*h + 2*f"]


def first_not_pbw(seed):
    """The first sampler presentation over Q whose ladder fails a (J_k)."""
    rng = random.Random(seed)
    while True:
        P = sampled(rng, QQ)
        if pn_ladder(P, LADDER_UPTO).first_failure is not None:
            return P


@pytest.mark.parametrize("case", ["sl2", "sampled"])
def test_ladder_inserts_only_the_new_rows(case, monkeypatch):
    # a ladder or engine step stores the previous space by the g left maps
    # and inserts only N, N·V, z·N' and the generators of the new degree,
    # N' being the rows of N not inserted as right products R:
    # |N|·g + |N \ R| + |gens| rows
    if case == "sl2":
        P = FilteredSubspace(3, [parse_element(t, ["e", "f", "h"]) for t in SL2])
    else:
        P = first_not_pbw(4600)
    inserts, shifted = [], []
    real_reduce, real_store = RowSpace._reduce, RowSpace.store_shifted

    def reduce(self, vec, full=False, store=False):
        if store:
            inserts.append(self)
        return real_reduce(self, vec, full, store)

    def store_shifted(self, other, cols):
        shifted.append((self, other))
        return real_store(self, other, cols)
    monkeypatch.setattr(RowSpace, "_reduce", reduce)
    monkeypatch.setattr(RowSpace, "store_shifted", store_shifted)
    lad = pn_ladder(P, LADDER_UPTO)
    eng = engine_for(P)
    eng.ideal_component(ENGINE_DEGREE)
    monkeypatch.undo()

    def check_step(prev, nxt, gens, at):
        assert [o for sp, o in shifted if sp is nxt] == [prev] * P.g, at
        new = {min(row) for row in inserted(prev)}
        assert right_products(prev) <= new, at
        assert sum(sp is nxt for sp in inserts) == \
            len(new) * P.g + len(new - right_products(prev)) + gens, at

    gens = {}
    for row in P.space.raw_basis():
        deg = P.basis.degree_of_pos(min(row))
        gens[deg] = gens.get(deg, 0) + 1
    steps = 0
    for k in range(LADDER_UPTO + 1):
        prev, nxt = lad.spaces[k], lad.spaces[k + 1]
        if nxt is None:
            break
        steps += 1
        check_step(prev, nxt, gens.get(k + 1, 0), k)
    assert steps >= 3
    for m in range(1, ENGINE_DEGREE + 1):
        check_step(eng.ideal_component(m - 1), eng.ideal_component(m),
                   len(eng._pz_by_degree.get(m, ())), m)
    # both cases skip some central products
    assert any(right_products(sp) for sp in lad.spaces if sp is not None)
    assert (lad.first_failure is None) == (case == "sl2")


@pytest.mark.parametrize("p", [None, 7])
def test_skipped_central_products_lie_in_the_component(p):
    # closure_step skips z·r for every row r it inserted as a right
    # product s·x_i: z·r = (z·s)·x_i - Σ c_q z·q is in the next component
    # already.  Check each skipped product against the finished component,
    # on the sample of test_closures_match_naive
    field = QQ if p is None else PrimeField(p)
    rng = random.Random(4400 + (p or 0))
    skipped = 0
    for _ in range(INSTANCES):
        P = sampled(rng, field)
        lad = pn_ladder(P, LADDER_UPTO)
        for k in range(LADDER_UPTO + 1):
            prev, nxt = lad.spaces[k], lad.spaces[k + 1]
            if nxt is None:
                break
            for c in right_products(prev):
                # z = 1 moves no column
                assert nxt.contains(prev.rows[c]), (k, row_elements(P))
                skipped += 1
        eng = engine_for(P)
        for m in range(1, ENGINE_DEGREE + 1):
            prev, comp = eng.ideal_component(m - 1), eng.ideal_component(m)
            shift = P.g ** m        # z· moves past the g^m words of degree m
            for c in right_products(prev):
                assert comp.contains({q + shift: s for q, s in prev.rows[c].items()}), \
                    (m, row_elements(P))
                skipped += 1
    assert skipped
