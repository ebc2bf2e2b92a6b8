"""The closure steps by standard words against the naive ones, and the
engine's cuts against the naive ladder's.

The T[z] engine stores V·<P_z>^{m-1} unreduced, multiplies by z the rows
of <P_z>^{m-1} that V·<P_z>^{m-2} lacks, and multiplies each generator g
on the right only by the standard words β, carried as representatives
ĉ(g, β) modulo the left and central products, in descending signature
and with none kept for a candidate that reduced to zero; the graded ideal
<R> is the same step with no z.  ``NaiveEngine`` (conftest) multiplies every row, as
the closures did before; the engine must give the same ideal components
and annihilators.  The Jacobi ladder and the gr U tables are read from the
engine: dim(P_m ∩ T^{<=n}) is its pivots of <P_z>^m of word degree <= n,
which must equal the count on the naive ladder's P_m (``naive_ladder``,
over word columns).
"""

import random
from fractions import Fraction
from math import gcd
from operator import itemgetter

import pytest

from pbwkit.deformation import FilteredSubspace, pn_ladder, rp_of
from pbwkit.extension import ENGINE_DEGREE_CAP, GR_TABLE_COLUMN_CAP, engine_for
from pbwkit.freealg import filtration_size, parse_element
from pbwkit.gradedring import GradedSubspace, ideal_chain
from pbwkit.closure import Component
from pbwkit.linalg import QQ, ModInt, PrimeField, RowSpace

from conftest import (NaiveEngine, annihilator_basis, inserted, lex_columns, lex_words,
                      naive_ladder, pz_rows, representatives, row_elements, sampled,
                      zcolumns, zword_at)

LADDER_UPTO = 5
ENGINE_DEGREE = 6
INSTANCES = 30
SL2 = ["e*f - f*e - h", "h*e - e*h - 2*e", "h*f - f*h + 2*f"]


def normal_row(row, c, p):
    """Whether the row leads at c and is primitive with a positive pivot
    entry over Q, monic with residues in [0, p) over F_p."""
    vals = list(row.values())
    if min(row) != c:
        return False
    if p is None:
        return all(type(s) is int for s in vals) and gcd(*vals) == 1 and row[c] > 0
    return row[c] == 1 and all(0 < s < p for s in vals)


def given(comp, src, a, b):
    """The product ``Component.take`` is given: the row src, or the row of
    the component below with pivot src, moved by column k -> a·k + b."""
    row = src if type(src) is dict else comp.below.rows[src]
    return {a * k + b: s for k, s in row.items()}


def sl2_and_sampled(p, seed):
    """sl2 and the first INSTANCES sampler presentations at ``seed``, over
    Q (p None) or F_p."""
    field = QQ if p is None else PrimeField(p)
    rng = random.Random(seed)
    sl2 = FilteredSubspace(3, [parse_element(t, ["e", "f", "h"], field) for t in SL2], field)
    return [sl2] + [sampled(rng, field) for _ in range(INSTANCES)]


@pytest.mark.parametrize("p, seed", [(None, 2), (7, 4703)])
def test_stored_rows_are_normalised(p, seed, monkeypatch):
    # a product whose leading column is no pivot is held without a
    # kernel pass and built on first read, so it must be built as the row
    # the kernel stores: normalised, checked as Component.take stores it
    # (a row that is not would derail the next reduction that reads it)
    # and again on every component of the engine to degree 6 and of the
    # graded ideal; the engine's cut counts must equal those the naive
    # engine counts on its rows
    real, partway, raw = Component.take, [], []

    def put(self, lead, src, a, b, stop):
        if not normal_row(given(self, src, a, b), lead, p):
            (partway if self.is_pivot(lead) else raw).append(lead)
        out = real(self, lead, src, a, b, stop)
        if out[0] is not None:
            assert normal_row(self.rows[out[0]], out[0], p)
        return out
    monkeypatch.setattr(Component, "take", put)
    for P in sl2_and_sampled(p, seed):
        eng = engine_for(P)
        naive = NaiveEngine(P)
        for m in range(ENGINE_DEGREE + 1):
            comp = eng.ideal_component(m)
            assert all(normal_row(row, c, p)
                       for c, row in zip(sorted(comp.rows), comp.raw_basis()))
            assert eng.dim_d(m) == naive.dim_d(m), m
            assert [eng.cut_dim(m, n) for n in range(m + 1)] == \
                [naive.cut_dim(m, n) for n in range(m + 1)], m
        for comp in ideal_chain(rp_of(P), ENGINE_DEGREE):
            assert all(normal_row(row, c, p)
                       for c, row in zip(sorted(comp.rows), comp.raw_basis()))
    # a product arrives unnormalised only as a multiple ĉ(g, β)·x of a
    # representative read partway along its chain, where it met the pivot
    # L of a row r that a candidate of larger signature stored.  r·x leads
    # at g·L + x and lies in V·I^{m-1} + z·I^{m-1} plus the span of the
    # products of signature larger than that of (g, βx), all in the space
    # when ĉ(g, β)·x comes (Component's proof), so g·L + x is a pivot
    # by then: the sample reaches such products, and all meet a pivot
    assert partway and not raw


@pytest.mark.parametrize("p", [None, 7])
def test_closures_match_naive(p):
    field = QQ if p is None else PrimeField(p)
    rng = random.Random(4400 + (p or 0))
    gens, not_pbw, saturated = set(), 0, 0
    for _ in range(INSTANCES):
        P = sampled(rng, field)
        gens.add(P.g)
        eng = engine_for(P)
        naive = NaiveEngine(P)
        for n in range(ENGINE_DEGREE):
            assert eng.annihilator_dim(n) == naive.annihilator_dim(n)
            assert annihilator_basis(eng, n) == annihilator_basis(naive, n)
        not_pbw += any(eng.annihilator_dim(n) for n in range(ENGINE_DEGREE))
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


class NaiveCuts:
    """cut(m, n) = dim(P_m ∩ T^{<=n}), counted on the pivots of the naive
    ladder's P_m; the ladder is rebuilt deeper when m needs it."""

    def __init__(self, P):
        self.P = P
        self._build(7)

    def _build(self, depth):
        self.depth, self.spaces = depth, naive_ladder(self.P, depth)[0]

    def __call__(self, m, n):
        if m > self.depth + 1:
            self._build(m - 1)
        if self.full(m):
            return filtration_size(self.P.g, n)
        start = filtration_size(self.P.g, self.depth + 1) - filtration_size(self.P.g, n)
        return sum(1 for c in self.spaces[m].rows if c >= start)

    def full(self, m):
        """P_m = T^{<=m}: the naive ladder stops at its first full space."""
        top = len(self.spaces) - 1
        return m >= top and self.spaces[top].rank == filtration_size(self.P.g, top)


def ladder_gr_table(P, upto, certified, cut):
    """gr U(P) as gr_table builds it, from the cuts ``cut(m, n)`` of the
    naive ladder: P_n ∩ T^{<=n} when certified, else the first m (under
    the column cap) at which the ladder is full or the cuts agree with
    those at m - 1."""
    g = P.g
    if certified:
        cuts = [cut(n, n) for n in range(upto + 1)]
    else:
        cuts = None
        depth = max(upto + 1, P.max_degree)
        while filtration_size(g, depth + 1) <= GR_TABLE_COLUMN_CAP \
                and depth < ENGINE_DEGREE_CAP:
            m = depth + 1
            now = [cut(m, n) for n in range(upto + 1)]
            if cut.full(m) or now == [cut(m - 1, n) for n in range(upto + 1)]:
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
        cut = NaiveCuts(P)
        eng = engine_for(P)
        for m in range(8):
            for n in range(m + 1):
                assert eng.cut_dim(m, n) == cut(m, n), (m, n, row_elements(P))
        for upto in (3, 5, 6):
            for certified in (False, True):
                want = ladder_gr_table(P, upto, certified, cut)
                assert eng.gr_table(upto, certified) == want, (upto, certified)
                withheld += want is None
    # the sample reaches the withheld tables too
    assert withheld


def first_not_pbw(seed):
    """The first sampler presentation over Q whose ladder fails a (J_k)."""
    rng = random.Random(seed)
    while True:
        P = sampled(rng, QQ)
        if pn_ladder(P, LADDER_UPTO).first_failure is not None:
            return P


class Closure:
    """The components I^0..I^top of one closure, with word-level column
    arithmetic of its own: ``col(n, w)`` is the column of the word w in
    I^n, ``left``, ``right`` and ``central`` move a degree-n vector to
    degree n + 1 through the words at its columns (``central`` is None
    without z), and ``gens[m]`` are the generator rows of degree m that
    the step for I^m was given."""

    def __init__(self, g, comps, col, left, right, central, gens):
        self.g, self.comps, self.col = g, comps, col
        self.left, self.right, self.central, self.gens = left, right, central, gens

    @classmethod
    def engine(cls, P, eng, top):
        g = eng.g

        def move(vec, n, word):
            col = zcolumns(g, n + 1)
            return {col[word(zword_at(g, n, c))]: s for c, s in vec.items()}
        return cls(g, [eng.ideal_component(m) for m in range(top + 1)],
                   lambda n, w: zcolumns(g, n)[w],
                   lambda x, vec, n: move(vec, n, lambda w: (x,) + w),
                   lambda vec, n, x: move(vec, n, lambda w: w + (x,)),
                   lambda vec, n: move(vec, n, lambda w: w), pz_rows(P))

    @classmethod
    def graded(cls, rel, top):
        g = rel.g

        def move(vec, n, word):
            src, dst = lex_words(g, n), lex_columns(g, n + 1)
            return {dst[word(src[c])]: s for c, s in vec.items()}
        return cls(g, ideal_chain(rel, top), lambda n, w: lex_columns(g, n)[w],
                   lambda x, vec, n: move(vec, n, lambda w: (x,) + w),
                   lambda vec, n, x: move(vec, n, lambda w: w + (x,)), None,
                   {n: rel.blocks[n].raw_basis() for n in rel.degrees()})

    def word(self, n, i):
        """The i-th word of length n in lex order."""
        out = []
        for _ in range(n):
            i, x = divmod(i, self.g)
            out.append(x)
        return tuple(reversed(out))

    def standard(self, n, w):
        return self.col(n, w) not in self.comps[n].rows

    def signature(self, gen, d, word):
        """(column of lead(gen)·word, |word|) for a generator row of degree
        d, lead(gen) moved by this closure's own right products."""
        vec = {min(gen): 1}
        for k, x in enumerate(word):
            vec = self.right(vec, d + k, x)
        return min(vec), len(word)

    def named(self, m, c, n):
        """The generator row and the word (g, β) of a representative of
        I^m that ``Component`` keeps with (c, n): β the word of length n
        with lex index c mod g^n and g the one generator of degree m - n
        with lead(g)·β at column c."""
        beta = self.word(n, c % self.g ** n)
        found = [gen for gen in self.gens.get(m - n, ())
                 if self.signature(gen, m - n, beta) == (c, n)]
        assert len(found) == 1, (m, c, n)
        return found[0], beta

    def steps(self):
        """(m, I^{m-1}, I^m) for every step."""
        return [(m, self.comps[m - 1], self.comps[m]) for m in range(1, len(self.comps))]


def graded_case(g, names, rels, field=QQ):
    return GradedSubspace.from_elements(
        g, [parse_element(t, names, field) for t in rels], field)


@pytest.mark.parametrize("case", ["sl2", "sampled"])
def test_closure_steps_insert_only_the_new_rows(case, monkeypatch):
    # a step holds the left products of the previous component, the one
    # below it, and passes to Component.take, the entry of every product,
    # one z-product per row of N, but for those it skips, which lie in the
    # component, one product per representative ĉ(g, β) kept by the
    # previous step and letter x with βx standard, and one per generator of
    # the new degree: the engine and a graded ideal
    if case == "sl2":
        P = FilteredSubspace(3, [parse_element(t, ["e", "f", "h"]) for t in SL2])
        rel = graded_case(2, ["x", "y"], ["x*y - y*x - x*x", "y*y*x - x*y*y"])
    else:
        P = first_not_pbw(4600)
        rel = rp_of(P)
    inserts, central = [], []
    real_put = Component.take

    def put(self, lead, src, a, b, stop):
        inserts.append(self)
        if not isinstance(stop, set):
            central.append((self, monic_key(given(self, src, a, b), None)))
        return real_put(self, lead, src, a, b, stop)
    monkeypatch.setattr(Component, "take", put)
    eng = engine_for(P)
    eng.ideal_component(ENGINE_DEGREE)
    graded = Closure.graded(rel, ENGINE_DEGREE)
    monkeypatch.undo()

    skipped = central_skipped = 0
    for cl in (Closure.engine(P, eng, ENGINE_DEGREE), graded):
        assert len(cl.steps()) >= 3
        for m, prev, nxt in cl.steps():
            # the step holds x·r for every row r of the one below it
            for row in prev.rows.values():
                for x in range(cl.g):
                    moved = cl.left(x, row, m - 1)
                    assert nxt.rows[min(moved)] == moved, m
            assert nxt.rank == cl.g * prev.rank + len(nxt.inserted), m
            want = 0
            if cl.central:
                products = [cl.central(r, m - 1) for r in inserted(prev)]
                given_keys = [key for sp, key in central if sp is nxt]
                left = [monic_key(vec, None) for vec in products]
                for key in given_keys:
                    left.remove(key)
                assert all(nxt.contains(vec) for vec in products
                           if monic_key(vec, None) in left), m
                want += len(given_keys)
                central_skipped += len(left)
            for row, c, n in representatives(prev):
                w = cl.named(m - 1, c, n)[1]
                letters = sum(cl.standard(n + 1, w + (x,)) for x in range(cl.g))
                want += letters
                skipped += cl.g - letters
            want += len(cl.gens.get(m, ()))
            assert sum(sp is nxt for sp in inserts) == want, m
    # the sample skips some products g·β, β not standard, and the sampled
    # engine some central products (sl2's engine skips none)
    assert skipped and bool(central_skipped) == (case == "sampled")
    assert (pn_ladder(P, LADDER_UPTO, eng).first_failure is None) == (case == "sl2")


def proportional(a, b):
    """a = λ b for some nonzero λ, a and b nonzero."""
    if not a or a.keys() != b.keys():
        return False
    c0 = min(a)
    return all(a[c] * b[c0] == b[c] * a[c0] for c in a)


@pytest.mark.parametrize("p", [None, 7])
def test_representatives_and_skipped_multiples(p):
    # every multiple ĉ(g, β)·x that a step skips (βx not standard) lies in
    # the finished component, and every representative the step keeps is a
    # nonzero multiple of g·β modulo V·I^{m-1} + z·I^{m-1}, that space
    # built here from the words; on the sample of test_closures_match_naive,
    # engine and the graded ideal <R_P> to degree 6
    field = QQ if p is None else PrimeField(p)
    rng = random.Random(4400 + (p or 0))
    skipped = kept = early = 0
    for _ in range(INSTANCES):
        P = sampled(rng, field)
        for cl in (Closure.engine(P, engine_for(P), ENGINE_DEGREE),
                   Closure.graded(rp_of(P), ENGINE_DEGREE)):
            for m, prev, nxt in cl.steps():
                for row, c, n in representatives(prev):
                    w = cl.named(m - 1, c, n)[1]
                    for x in range(cl.g):
                        if not cl.standard(n + 1, w + (x,)):
                            assert nxt.contains(cl.right(row, m - 1, x)), \
                                (m, row_elements(P))
                            skipped += 1
                base = RowSpace(field)
                for r in prev.basis():
                    for x in range(cl.g):
                        base.insert(cl.left(x, r, m - 1))
                    if cl.central:
                        base.insert(cl.central(r, m - 1))
                for row, c, n in representatives(nxt):
                    g_beta, w = cl.named(m, c, n)
                    for k, x in enumerate(w):
                        g_beta = cl.right(g_beta, m - n + k, x)
                    assert proportional(base.reduce_full(row), base.reduce_full(g_beta)), \
                        (m, c, n, row_elements(P))
                    kept += 1
                    # a representative read where its chain met another
                    # candidate's pivot is not the row the step stored
                    early += nxt.rows.get(min(row)) is not row
    assert skipped and kept and early


def monic_key(vec, p):
    """vec up to a nonzero scalar: its entries over the one at its leading
    column, sorted by column."""
    if p is None:
        lead = Fraction(vec[min(vec)])
        return tuple(sorted((c, Fraction(s) / lead) for c, s in vec.items() if s))
    res = {c: s.v if isinstance(s, ModInt) else s % p for c, s in vec.items()}
    inv = pow(res[min(vec)], -1, p)
    return tuple(sorted((c, s * inv % p) for c, s in res.items() if s))


def spy_candidates(monkeypatch, p):
    """Record the candidates of every closure step as ``Component.take``
    is given them, the products passed with the set of the step's own
    pivots: (space, ``monic_key`` of the product, whether it reduced to
    zero), in order."""
    calls, real = [], Component.take

    def put(self, lead, src, a, b, stop):
        key = monic_key(given(self, src, a, b), p) if isinstance(stop, set) else None
        out = real(self, lead, src, a, b, stop)
        if key is not None:
            calls.append((self, key, out[0] is None))
        return out
    monkeypatch.setattr(Component, "take", put)
    return calls


def step_candidates(cl, m, prev, nxt, calls, p):
    """The candidates of the step for I^m in the order it processed them,
    as ((deg g, lead column of g, β), signature, reduced to zero), each
    named and made with the closure's own products: ĉ(g, β)·x for each
    representative ĉ(g, β) of ``prev`` and letter x with βx standard, and
    the generators of degree m.  Each is processed once.  A generator and
    a multiple ĉ(g, β)·x may be equal up to a scalar; such candidates are
    told apart by taking their names in descending signature."""
    want, made = {}, 0
    for row, c, n in representatives(prev):
        gen, beta = cl.named(m - 1, c, n)
        for x in range(cl.g):
            if cl.standard(n + 1, beta + (x,)):
                word = beta + (x,)
                want.setdefault(monic_key(cl.right(row, m - 1, x), p), []).append(
                    ((m - 1 - n, min(gen), word), cl.signature(gen, m - 1 - n, word)))
                made += 1
    for gen in cl.gens.get(m, ()):
        want.setdefault(monic_key(gen, p), []).append(
            ((m, min(gen), ()), cl.signature(gen, m, ())))
        made += 1
    for names in want.values():
        names.sort(key=itemgetter(1), reverse=True)
    got = [want[key].pop(0) + (zero,) for space, key, zero in calls if space is nxt]
    assert len(got) == made and not any(want.values()), m
    return got


@pytest.mark.parametrize("p, seed", [(None, 4400), (7, 4407)])
def test_candidates_in_descending_signature(p, seed, monkeypatch):
    # Component's zero criterion is exact only when every candidate
    # ĉ(g, β) is processed after all those of larger signature (c, |β|),
    # c the column of lead(g)·β: named from the representatives and the
    # generators with this file's own column arithmetic, the candidates
    # of every step of the engine and of the graded ideal <R_P> to degree
    # 6 must fall strictly in signature, in the order Component.take is
    # given them
    calls = spy_candidates(monkeypatch, p)
    steps = early = 0
    for P in sl2_and_sampled(p, seed):
        for cl in (Closure.engine(P, engine_for(P), ENGINE_DEGREE),
                   Closure.graded(rp_of(P), ENGINE_DEGREE)):
            for m, prev, nxt in cl.steps():
                got = step_candidates(cl, m, prev, nxt, calls, p)
                sigs = [sig for _, sig, _ in got]
                assert all(a > b for a, b in zip(sigs, sigs[1:])), (m, sigs, row_elements(P))
                steps += len(sigs) > 1
                # a generator processed before some multiple ĉ(g, β)·x
                words = [name[2] for name, _, _ in got]
                early += () in words[:-1] and any(words[words.index(()) + 1:])
        calls.clear()
    # the sample reaches steps of several candidates, and generators that
    # go before multiples of smaller signature
    assert steps and early


@pytest.mark.parametrize("p, seed", [(None, 4400), (7, 4407)])
def test_zero_candidates_keep_no_multiples(p, seed, monkeypatch):
    # a candidate ĉ(g, β) that reduced to zero keeps no representative, so
    # no ĉ(g, β)·x is processed at the next degree, and the components are
    # still the naive closures': every cut of the engine equals
    # NaiveEngine's, and the graded ideal <R_P> has the pivots of the span
    # of all left and right products and generators
    calls = spy_candidates(monkeypatch, p)
    skipped = 0
    for P in sl2_and_sampled(p, seed):
        eng = engine_for(P)
        for cl in (Closure.engine(P, eng, ENGINE_DEGREE),
                   Closure.graded(rp_of(P), ENGINE_DEGREE)):
            zeros = set()
            for m, prev, nxt in cl.steps():
                got = step_candidates(cl, m, prev, nxt, calls, p)
                for (d, lead, word), _, _ in got:
                    assert (d, lead, word[:-1]) not in zeros, (m, word, row_elements(P))
                # the multiples ĉ(g, β)·x, βx standard, that a step
                # without the criterion would make
                skipped += sum(cl.standard(len(w) + 1, w + (x,)) for d, lead, w in zeros
                               for x in range(cl.g))
                zeros = {name for name, _, zero in got if zero}
            if cl.central is None:
                naive = RowSpace(P.field)
                for m, prev, nxt in cl.steps():
                    below, naive = naive, RowSpace(P.field)
                    for r in below.basis():
                        for x in range(cl.g):
                            naive.insert(cl.left(x, r, m - 1))
                            naive.insert(cl.right(r, m - 1, x))
                    for gen in cl.gens.get(m, ()):
                        naive.insert(gen)
                    assert sorted(naive.rows) == sorted(nxt.rows), m
        calls.clear()
        naive = NaiveEngine(P)
        for m in range(ENGINE_DEGREE + 1):
            assert [eng.cut_dim(m, n) for n in range(m + 1)] == \
                [naive.cut_dim(m, n) for n in range(m + 1)], m
    # the sample has zero candidates whose multiples the criterion skips
    assert skipped


# (skipped, zero) central products per degree 0..ENGINE_DEGREE of the
# engines of test_skipped_central_products_reduce_to_zero
CENTRAL_COUNTS = {
    None: ([0, 0, 0, 0, 0, 5, 17], [0, 0, 0, 3, 6, 45, 69]),
    7: ([0, 0, 0, 0, 0, 5, 47], [0, 0, 0, 3, 18, 61, 68]),
}


@pytest.mark.parametrize("p, seed", [(None, 2), (7, 4703)])
def test_skipped_central_products_reduce_to_zero(p, seed, monkeypatch):
    # a central product z·r, r in N, is skipped when a central product of
    # a lower degree reduced to zero whose generator is r's, whose word is
    # a prefix of r's and whose power of z is no larger (Component's
    # case (e)): every product a step skips lies in its finished
    # component, the engine's cuts are the naive engine's, and the counts
    # of skipped and of zero central products per degree are pinned
    calls, real = [], Component.take

    def put(self, lead, src, a, b, stop):
        out = real(self, lead, src, a, b, stop)
        if not isinstance(stop, set):
            calls.append((self, monic_key(given(self, src, a, b), p), out[0] is None))
        return out
    monkeypatch.setattr(Component, "take", put)
    skipped, zeros = [0] * (ENGINE_DEGREE + 1), [0] * (ENGINE_DEGREE + 1)
    for P in sl2_and_sampled(p, seed):
        eng = engine_for(P)
        cl = Closure.engine(P, eng, ENGINE_DEGREE)
        naive = NaiveEngine(P)
        for m, prev, nxt in cl.steps():
            products = {}
            for r in inserted(prev):
                vec = cl.central(r, m - 1)
                products[monic_key(vec, p)] = vec
            for sp, key, zero in calls:
                if sp is nxt:
                    del products[key]
                    zeros[m] += zero
            for vec in products.values():
                assert nxt.contains(vec), (m, row_elements(P))
            skipped[m] += len(products)
            assert [eng.cut_dim(m, n) for n in range(m + 1)] == \
                [naive.cut_dim(m, n) for n in range(m + 1)], m
        calls.clear()
    assert (skipped, zeros) == CENTRAL_COUNTS[p]
