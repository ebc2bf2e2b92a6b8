import gc
import sys
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from pbwkit import cli, gallery_path, homology, linalg
from pbwkit.errors import InvariantViolation, NotMinimalRelations, ResourceExceeded
from pbwkit.freealg import Element, multiply, parse_element
from pbwkit.deformation import minimize_relations
from pbwkit.gradedring import GradedSubspace, PresentedRing
from pbwkit.homology import (ResolutionSlice, complexity, is_commutator_relations,
                             support_reach, tor3_resolution, tor_bar)
from pbwkit.linalg import QQ, PrimeField, RowSpace, span

from conftest import (basis_words, lex_words, naive_bar_rows, naive_d2_row, naive_nf,
                      naive_strand, naive_tor3_resolution, naive_tor_bar, overlap_dimension,
                      random_homogeneous, sampler_rings, to_field)

X, XY, XYZ = ["x"], ["x", "y"], ["x", "y", "z"]


def setup(g, texts, gens):
    rel = GradedSubspace.from_elements(g, [parse_element(t, gens) for t in texts])
    return PresentedRing(g, rel), rel


def free_ring(g):
    rel = GradedSubspace(g, QQ)
    return PresentedRing(g, rel), rel


class TestTor3Resolution:
    def test_free_all_zero(self):
        ring, rel = free_ring(2)
        t = tor3_resolution(ring, rel, 5)
        assert t.dims == {}

    def test_dual_numbers(self):
        # [DERIVED via the bar oracle below] k[x]/(x^2) is Koszul:
        # Tor_{3,3} = 1, nothing else in range
        ring, rel = setup(1, ["x*x"], X)
        t = tor3_resolution(ring, rel, 6)
        assert t.dims == {3: 1}

    def test_x3_koszul_family_value(self):
        # 3-Koszul: Tor_{3,4} != 0 and c(A) = 3
        ring, rel = setup(1, ["x*x*x"], X)
        t = tor3_resolution(ring, rel, 6)
        assert t.dims == {4: 1}

    def test_requires_minimal_relations(self):
        ring, rel = setup(1, ["x*x"], X)
        fat = GradedSubspace.from_elements(
            1, [parse_element("x*x", X), parse_element("x*x*x", X)])
        with pytest.raises(NotMinimalRelations):
            tor3_resolution(PresentedRing(1, fat), fat, 5)

    @pytest.mark.parametrize("p", [None, 7])
    def test_non_minimal_relation_above_the_bound(self, p):
        # x^3 (x y - y x) lies in F¹I + IF¹ and enters no slice below its
        # degree 5: to bound 4 the table is that of k[x, y, z]
        field = QQ if p is None else PrimeField(p)
        comm = ["x*y - y*x", "x*z - z*x", "y*z - z*y"]

        def rel_of(texts):
            return GradedSubspace.from_elements(
                3, to_field(field, [parse_element(t, XYZ) for t in texts]), field)

        fat, thin = rel_of(comm + ["x*x*x*x*y - x*x*x*y*x"]), rel_of(comm)
        ring = PresentedRing(3, fat, field)
        assert tor3_resolution(ring, fat, 4).dims == {3: 1}
        assert tor3_resolution(PresentedRing(3, thin, field), thin, 4).dims == {3: 1}
        with pytest.raises(NotMinimalRelations):
            tor3_resolution(ring, fat, 5)

    @pytest.mark.parametrize("p", [None, 7])
    def test_kernel_decides_minimality(self, p, rng):
        # random relations, some with a letter times an earlier one: the
        # resolution refuses them iff the closure finds R^n ∩ (F¹I + IF¹)
        # != 0 in some degree n <= bound
        field = QQ if p is None else PrimeField(p)
        seen = set()
        for _ in range(30):
            g = rng.choice([1, 2, 2, 3])
            elems = []
            for _ in range(rng.randint(1, 3)):
                if elems and rng.random() < 0.5:
                    x = Element(QQ, {(rng.randrange(g),): QQ.one})
                    e = rng.choice(elems)
                    elems.append(multiply(x, e) if rng.random() < 0.5 else multiply(e, x))
                else:
                    elems.append(random_homogeneous(rng, g, rng.randint(2, 3), 2))
            rel = GradedSubspace.from_elements(g, to_field(field, elems), field)
            if not rel.degrees():
                continue
            bound = rng.choice([3, 4])
            comp = minimize_relations(rel)
            minimal = all(comp.dim(n) == rel.dim(n) for n in rel.degrees() if n <= bound)
            try:
                tor3_resolution(PresentedRing(g, rel, field), rel, bound)
                refused = False
            except NotMinimalRelations:
                refused = True
            assert refused != minimal, [str(e) for e in elems]
            seen.add((refused, any(n > bound for n in rel.degrees())))
        assert seen >= {(True, False), (False, False), (False, True)}


class TestTorBar:
    def test_tor1_is_generators(self):
        ring, rel = setup(2, ["x*y - y*x"], XY)
        t = tor_bar(ring, 1, 5)
        assert t.dims == {1: 2}

    def test_tor2_is_relations(self):
        ring, rel = setup(1, ["x*x"], X)
        assert tor_bar(ring, 2, 5).dims == {2: 1}
        ring3, rel3 = setup(1, ["x*x*x"], X)
        assert tor_bar(ring3, 2, 5).dims == {3: 1}

    def test_free_vanishes_above_1(self):
        ring, rel = free_ring(2)
        assert tor_bar(ring, 2, 4).dims == {}
        assert tor_bar(ring, 3, 4).dims == {}

    def test_tor4_sanity_window(self):
        # k[x]/(x^2) has its minimal resolution periodic: Tor_{n,n} = 1
        ring, rel = setup(1, ["x*x"], X)
        assert tor_bar(ring, 4, 5).dims == {4: 1}

    def test_tor2_matches_minimal_relations_randomized(self, rng):
        for _ in range(6):
            g = rng.choice([1, 2])
            elems = [random_homogeneous(rng, g, d, 2) for d in (2, 3)]
            elems = [e for e in elems if not e.is_zero()]
            if not elems:
                continue
            raw = GradedSubspace.from_elements(g, elems)
            rel = minimize_relations(raw)
            ring = PresentedRing(g, rel)
            t = tor_bar(ring, 2, 5)
            for m in range(6):
                assert t.dim(m) == rel.dim(m), (m, [e.terms for e in elems])


class TestOracleEquivalence:
    def test_gallery_algebras(self):
        cases = [
            (1, ["x*x"], X),
            (1, ["x*x*x"], X),
            (2, ["x*y - y*x"], XY),
            (2, ["x*x", "y*y", "x*y + y*x"], XY),
            (2, ["x*x + y*y", "x*y - y*x"], XY),
            (2, ["x*x", "x*y"], XY),
            (3, ["x*y - y*x", "x*z - z*x", "y*z - z*y"], XYZ),
        ]
        for g, texts, gens in cases:
            ring, rel = setup(g, texts, gens)
            res = tor3_resolution(ring, rel, 6)
            bar = tor_bar(ring, 3, 6)
            assert res.dims == bar.dims, texts

    def test_k2_inside_aplus_r_and_d1d2_zero(self):
        # the slice builder checks these structural facts and raises on a
        # failure; running it over the gallery cases exercises the checks
        for g, texts, gens in ((1, ["x*x"], X), (2, ["x*x", "x*y"], XY)):
            ring, rel = setup(g, texts, gens)
            tor3_resolution(ring, rel, 6)


class TestComplexity:
    def test_koszul_family(self):
        # c = n for k[x]/(x^n), certified, and the bound c_A + 2 is attained
        for n in (2, 3, 4):
            ring, rel = setup(1, ["*".join(["x"] * n)], X)
            res = complexity(ring, rel)
            assert res.c == n and res.certified
            hd = ring.hilbert(n + 1)
            assert hd.c_a + 2 == n == res.c

    def test_free(self):
        ring, rel = free_ring(2)
        res = complexity(ring, rel)
        assert res.c == -1 and res.certified

    def test_plane_is_koszul_with_no_tor3(self):
        # two commuting variables: Tor_3 = Lambda^3(k^2) = 0, so c = -1;
        # certified through the polynomial-ring recognition
        ring, rel = setup(2, ["x*y - y*x"], XY)
        res = complexity(ring, rel)
        assert res.c == -1 and res.certified
        # the bar oracle agrees through degree 6
        assert tor_bar(ring, 3, 6).dims == {}

    def test_three_commuting_variables(self):
        ring, rel = setup(3, ["x*y - y*x", "x*z - z*x", "y*z - z*y"], XYZ)
        res = complexity(ring, rel)
        assert res.c == 2 and res.certified
        assert res.table.dims == {3: 1}

    def test_infinite_dimensional_unrecognized_is_bounded(self, monkeypatch):
        ring, rel = setup(2, ["x*x + y*y", "x*y - y*x"], XY)
        # the support holds every word of degree 2, so T/J dies there and
        # the Hilbert scan still runs (to min(max_degree, 6 + 3) = 9)
        assert support_reach(rel, 9) == 1
        scans = []
        hilbert = ring.hilbert
        monkeypatch.setattr(ring, "hilbert", lambda upto: scans.append(upto) or hilbert(upto))
        res = complexity(ring, rel, bound_hint=6)
        assert scans == [9]
        assert not res.certified and res.note == "scan bounded by 6"
        assert res.c == tor_bar(ring, 3, 6).top_degree() - 1

    def test_upper_bound_asserted(self):
        ring, rel = setup(2, ["x*x", "y*y", "x*y + y*x"], XY)
        res = complexity(ring, rel)
        hd = ring.hilbert(6)
        assert res.certified and res.c <= hd.c_a + 2


class TestSupportQuotient:
    """``support_reach`` against h_A: A = T/<rel> maps onto T/J, J the
    monomial ideal of rel's support words."""

    def test_reached_degrees_are_nonzero_in_a(self):
        # the 200 rings of the acceptance tests' suite 1 (all of them have
        # nonzero minimized relations)
        reached = set()
        for ring, rel in sampler_rings(QQ, 200, seed=20260810):
            k = support_reach(rel, 8)
            assert all(ring.hilbert_value(n) > 0 for n in range(k + 1))
            reached.add(k)
        assert {1, 2, 8} <= reached

    def test_exact_on_monomial_relations(self, rng):
        # T/J is A itself: T/J reaches n iff h_A(n) > 0
        cases = [(1, ["x*x*x*x"]), (1, ["x*x"]), (2, ["x*y"]), (2, ["x*x", "x*y"]),
                 (2, ["x*x", "y*y", "x*y*x*y*x"]),
                 (2, ["x*y", "y*x", "x*x*x", "y*y*y*y"])]
        rels = [GradedSubspace.from_elements(g, [parse_element(t, XYZ[:g]) for t in texts])
                for g, texts in cases]
        for _ in range(40):
            g = rng.choice([1, 2, 2, 3])
            words = {tuple(rng.randrange(g) for _ in range(rng.randint(2, 4)))
                     for _ in range(rng.randint(1, 4))}
            rels.append(GradedSubspace.from_elements(
                g, [Element(QQ, {w: QQ.one}) for w in words]))
        reached = []
        for rel in rels:
            ring = PresentedRing(rel.g, rel)
            reached.append(support_reach(rel, 10))
            assert reached[-1] == max(n for n in range(11) if ring.hilbert_value(n))
        assert reached[:6] == [3, 1, 10, 10, 5, 3]


class TestPurity:
    def test_x3_is_4_pure(self):
        ring, rel = setup(1, ["x*x*x"], X)
        t = tor3_resolution(ring, rel, 6)
        assert t.purity() == ("pure", 4)

    def test_free_vacuous(self):
        ring, rel = free_ring(1)
        t = tor3_resolution(ring, rel, 5)
        assert t.purity() == "zero"

    def test_quadratic_monomial_sample(self):
        # [DERIVED by both routes] <x^2, xy> is a quadratic monomial
        # algebra, so Koszul: both routes give Tor_3 = {3: 2} to degree 7
        ring, rel = setup(2, ["x*x", "x*y"], XY)
        t = tor3_resolution(ring, rel, 6)
        bar = tor_bar(ring, 3, 6)
        assert t.dims == bar.dims

    def test_pure_relations_vanishing_below(self):
        # N-pure relations force Tor_{3,m} = 0 for m <= N
        ring, rel = setup(2, ["x*x*y", "y*x*x"], XY)
        t = tor3_resolution(ring, rel, 6)
        assert all(m > 3 for m in t.dims)


class TestCommutatorRecognition:
    def test_recognizes_any_basis(self):
        rel = GradedSubspace.from_elements(
            2, [parse_element("2*x*y - 2*y*x", XY)])
        assert is_commutator_relations(rel, 2)

    def test_rejects_quadric(self):
        rel = GradedSubspace.from_elements(
            2, [parse_element("x*y - y*x", XY), parse_element("x*x", XY)])
        assert not is_commutator_relations(rel, 2)

    @pytest.mark.parametrize("p", [None, 2, 3])
    def test_commutator_certificate_is_lambda3(self, p):
        # k[x_1..x_g] is Koszul over every field, so Tor_3 = Λ³V: one entry
        # C(g, 3) in internal degree 3, as the resolution and the overlap
        # space (R⊗V) ∩ (V⊗R) count it too
        field = QQ if p is None else PrimeField(p)
        for g in range(1, 5):
            gens = [f"x{i}" for i in range(g)]
            texts = [f"{a}*{b} - {b}*{a}"
                     for i, a in enumerate(gens) for b in gens[i + 1:]]
            rel = GradedSubspace.from_elements(
                g, [parse_element(t, gens, field) for t in texts], field)
            ring = PresentedRing(g, rel, field)
            want = g * (g - 1) * (g - 2) // 6
            table = {3: want} if want else {}
            res = complexity(ring, rel, bound_hint=5)
            assert res.certified and res.c == (2 if want else -1)
            assert res.table.dims == table
            assert tor3_resolution(ring, rel, 5).dims == table
            if g > 1:       # one letter has no commutator: R = 0 is not 2-pure
                assert overlap_dimension(rel, g) == want


# ---------------------------------------------------------------------------
# Integer rows against the field-scalar builders of conftest.

def _mixed_merge_scales(ring, top=5):
    """True iff some chain a|b|c of degree <= top has merges ab and bc whose
    normal forms have different denominators: then the bar row of a|b|c
    rescales the row of b|c to a new lcm."""
    g = ring.g
    pos = {d: ring.basis(d)[0] for d in range(1, top - 1)}
    for da in range(1, top - 1):
        for db in range(1, top - da):
            for dc in range(1, top - da - db + 1):
                for a, b, c in product(pos[da], pos[db], pos[dc]):
                    if (ring.nf_word(da + db, a * g ** db + b)[1]
                            != ring.nf_word(db + dc, b * g ** dc + c)[1]):
                        return True
    return False


@pytest.mark.parametrize("p", [None, 7])
def test_integer_tor_rows_match_field_rows(p):
    # the bar rows run at every homological degree tor_bar serves; over Q
    # some rings rescale a row to a new lcm of denominators.  A zero normal
    # form has denominator 1, so only nonzero merges count: the first two
    # such rings are sample rings 9 and 43
    field = QQ if p is None else PrimeField(p)
    rings = sampler_rings(field, 44)
    if p is None:
        assert sum(_mixed_merge_scales(ring) for ring, _ in rings) >= 2
    for ring, rel in rings:
        assert tor3_resolution(ring, rel, 6).dims == naive_tor3_resolution(ring, rel, 6)
        for n in (1, 2, 3, 4):
            assert tor_bar(ring, n, 5).dims == naive_tor_bar(ring, n, 5), n
        for n in range(6):
            # the integer normal form of the word at each position, over the
            # ranks of the basis, against the field-scalar normal form
            words = basis_words(ring, n)
            for q, w in enumerate(product(range(ring.g), repeat=n)):
                nf, d = ring.nf_word(n, q)
                assert d > 0 and all(type(s) is int for s in nf.values())
                assert nf or d == 1
                if p is not None:
                    assert d == 1 and all(0 < s < p for s in nf.values())
                want = ring.normal_form(Element(field, {w: field.one})).terms
                assert {words[k]: field.from_fraction(Fraction(s, d))
                        for k, s in nf.items()} == want


@pytest.mark.parametrize("p", [None, 7])
def test_letter_first_rows_span_the_bar_differential(p):
    # d(u|l|x) gives d(ul|x) = d(u|d(l|x)); with A^d = A^(d-1) A^1 every
    # row of d_s lies in the span of the rows of the chains l|y, l a letter
    field = QQ if p is None else PrimeField(p)
    rings = [ring for ring, _ in sampler_rings(field, 20)]
    for g, texts, gens in ((3, ["x*y - y*x", "x*z - z*x", "y*z - z*y"], XYZ),
                           (2, ["x*y*x - y*x*y"], XY)):
        rel = GradedSubspace.from_elements(
            g, [parse_element(t, gens, field) for t in texts], field)
        rings.append(PresentedRing(g, rel, field))
    for ring in rings:
        for s in range(1, 6):
            for r in range(s, 7):
                below = naive_strand(ring, s - 1, r)
                dom = naive_strand(ring, s, r)
                rows = naive_bar_rows(ring, dom, below)
                letter = [row for chain, row in zip(dom, rows) if len(chain[0]) == 1]
                assert span(field, letter).rank == span(field, rows).rank, (s, r)


def _spy_ranks(monkeypatch):
    """Wrap ``homology.integer_rank``.  Each rank's rows are recorded in the
    list returned, copied before the rank, which may change them, reads
    them; each must be a fresh dict with no zero entry."""
    ranks = []
    real_rank = homology.integer_rank

    def spy(field, rows):
        rows = list(rows)
        assert len({id(row) for row in rows}) == len(rows)
        assert all(all(row.values()) for row in rows)
        ranks.append([dict(row) for row in rows])
        return real_rank(field, rows)
    monkeypatch.setattr(homology, "integer_rank", spy)
    return ranks


def _count_steps(monkeypatch):
    """Count the elimination steps of ``integer_rank``: the rows its
    reductions subtract, each read from its space's rows.  Returns a list
    whose one item is the count."""
    steps = [0]

    class Held(dict):
        def get(self, c, default=None):
            row = dict.get(self, c, default)
            steps[0] += row is not None
            return row

    class Counted(RowSpace):
        def __init__(self, field):
            super().__init__(field)
            self._rows = Held()
    real_rank = homology.integer_rank

    def rank(field, rows):
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "RowSpace", Counted)
            return real_rank(field, rows)
    monkeypatch.setattr(homology, "integer_rank", rank)
    return steps


def test_bar_spans_read_the_letter_rows(monkeypatch):
    # each rank of tor_bar reads the letter rows l|w|x' whose product l w
    # is no basis word and whose prefix l w[:-1] is one, as residual rows:
    # sum_d1 (kept pairs of degree d1) cnt(s-2, m-1-d1) of them for d_3 and
    # d_4 in every degree m, w of degree d1 (their rows are pinned by
    # test_bar_ranks_count_the_normal_product_rows).  The normal words of
    # k[x, y, z] are the non-increasing ones, closed under a quadratic
    # Gröbner basis, so only the 3 pairs with d1 = 1 are kept; it has no
    # zero residual row
    ring, rel = setup(3, ["x*y - y*x", "x*z - z*x", "y*z - z*y"], XYZ)
    ranks = _spy_ranks(monkeypatch)
    assert tor_bar(ring, 3, 6).dims == {3: 1}
    normal = [set(basis_words(ring, d)) for d in range(7)]
    kept = [sum((l,) + w not in normal[d1 + 1] and (l,) + w[:-1] in normal[d1]
                for l in range(ring.g) for w in normal[d1])
            for d1 in range(6)]
    assert kept[1:] == [3, 0, 0, 0, 0]
    sizes = [len(rows) for rows in ranks]
    assert sizes == [sum(kept[d1] * len(naive_strand(ring, s - 2, m - 1 - d1))
                         for d1 in range(1, m - 1))
                     for m in range(3, 7) for s in (3, 4)]
    assert sizes == [9, 0, 18, 27, 30, 108, 45, 288]


def _chain_key(ring):
    """The order of ``homology._strand_starts`` on tuple chains: the
    degree, then the rank in the basis, of each factor in turn."""
    ranks = {}

    def key(chain):
        out = []
        for w in chain:
            if len(w) not in ranks:
                ranks[len(w)] = {u: i for i, u in enumerate(basis_words(ring, len(w)))}
            out += (len(w), ranks[len(w)][w])
        return tuple(out)
    return key


def test_strand_starts_place_the_naive_chains():
    # start[s][r][d] counts the chains of the (s, r) strand whose first
    # factor has degree < d, the empty chain of strand 0 counting as
    # degree 0, and ends with the strand's size; the chain a|x sits at
    # start[s][r][d] + i cnt(s-1, r-d) + pos(x), a the i-th basis word of
    # degree d, which orders the chains by (degree, rank) of each factor
    # in turn.  A strand is listed up to the degree its h values reach
    finite = sampler_rings(QQ, 18)[17][0]
    assert finite.hilbert(8).finite_dim
    rings = [setup(3, ["x*y - y*x", "x*z - z*x", "y*z - z*y"], XYZ)[0],
             setup(2, ["x*y*x - y*x*y"], XY)[0], finite]
    bound, top = 7, 4
    for ring in rings:
        key = _chain_key(ring)
        for reach in (bound, 5):
            h = [0] + [len(ring.basis(d)[0]) for d in range(1, reach + 1)]
            start = homology._strand_starts(h, top, bound)

            def pos(s, r, chain):
                if not chain:
                    return 0
                d, i = key(chain[:1])
                return start[s][r][d] + i * start[s - 1][r - d][-1] + pos(s - 1, r - d, chain[1:])
            assert len(start) == top + 1
            for s in range(top + 1):
                assert len(start[s]) == (bound if s == 0 else min(bound, reach - 1 + s)) + 1
                for r, st in enumerate(start[s]):
                    # naive_strand(ring, 1, 0) is the empty word, outside A+
                    chains = sorted((c for c in naive_strand(ring, s, r) if all(c)), key=key)
                    first = [len(c[0]) if c else 0 for c in chains]
                    assert st == [sum(f < d for f in first)
                                  for d in range(max(r - s + 2, 1) if s else 1)] + [len(chains)]
                    assert [pos(s, r, c) for c in chains] == list(range(len(chains)))


def _bar_rings(field):
    """The first 20 sampler rings, k[x, y, z] and the Jordan plane over
    ``field``: nf(xy) = yx + y^2 there has two words, the sampled rings'
    products of two words at most one."""
    kxyz = PresentedRing(3, GradedSubspace.from_elements(
        3, [parse_element(t, XYZ, field) for t in ("x*y - y*x", "x*z - z*x", "y*z - z*y")],
        field), field)
    jordan = PresentedRing(2, GradedSubspace.from_elements(
        2, [parse_element("x*y - y*x - y*y", XY, field)], field), field)
    return [ring for ring, _ in sampler_rings(field, 20)] + [kxyz, jordan]


def _naive_letter_rows(ring, s, r, key):
    """The letter chains l|w|x' of the (s, r) strand in chain order; their
    naive rows, the chain at place q of the (s-1, r) strand being column
    -q; the residual row of each chain whose l w is no basis word: its
    row minus sum c_k times the row of l_k|w_k|x', nf(l w) = sum c_k l_k w_k;
    and the set of those chains whose pair tor_bar skips, their prefix
    l w[:-1] being no basis word."""
    zero = ring.field.zero
    normal = {d: set(basis_words(ring, d)) for d in range(1, r + 1)}
    below = sorted(naive_strand(ring, s - 1, r), key=key)
    dom = sorted((c for c in naive_strand(ring, s, r) if len(c[0]) == 1), key=key)
    rows = {c: {-q: x for q, x in row.items()}
            for c, row in zip(dom, naive_bar_rows(ring, dom, below))}
    residual = {}
    for c in dom:
        lw = c[0] + c[1]
        if lw in normal[len(lw)]:
            continue
        row = dict(rows[c])
        for e, beta in naive_nf(ring, lw).items():
            for col, x in rows[(e[:1], e[1:]) + c[2:]].items():
                row[col] = row.get(col, zero) - beta * x
        residual[c] = {col: x for col, x in row.items() if x}
    skipped = {c for c in residual if c[0] + c[1][:-1] not in normal[len(c[1])]}
    return dom, rows, residual, skipped


def _monic(row):
    if not row:
        return row
    lead = row[min(row)]
    return {c: s / lead for c, s in row.items()}


def _handed_strands(ring, monkeypatch):
    """(s, m, handed, naive) for d_2, d_3 and d_4 in each degree m <= 6:
    the rows tor_bar hands to the rank of d_s on the (s, m) strand, read in
    the field with their zero rows dropped, and ``_naive_letter_rows`` of
    that strand.  d_3 is read from tor_bar(ring, 2, 6)."""
    field, key = ring.field, _chain_key(ring)
    ranks = _spy_ranks(monkeypatch)
    for n in (2, 3):
        ranks.clear()
        tor_bar(ring, n, 6)
        got = iter(ranks)
        for m in range(n, 7):
            for s in (n, n + 1):
                handed = [{c: field.from_int(x) for c, x in row.items()
                           if field.from_int(x)} for row in next(got)]
                if (n, s) != (3, 3):
                    yield s, m, [row for row in handed if row], _naive_letter_rows(
                        ring, s, m, key)


@pytest.mark.parametrize("p", [None, 7])
def test_bar_ranks_count_the_normal_product_rows(p, monkeypatch):
    # a letter row of l|w|x' whose product l w is a basis word is counted;
    # of the others, those whose prefix l w[:-1] is a basis word go to the
    # rank as residual rows and the rest are skipped.  For d_2, d_3 and d_4
    # to degree 6 the count plus the rank of the rows handed over is the
    # rank of the naive letter rows, and the rows handed over are the
    # nonzero naive residual rows of the pairs not skipped, up to scale, in
    # the order of the degree of w, then l, w and x', once read in the
    # field.  Over F_7 the residual rows cancel mod 7 where the integers do
    # not
    field = QQ if p is None else PrimeField(p)
    for ring in _bar_rings(field):
        key = _chain_key(ring)
        for s, m, handed, (dom, rows, residual, skipped) in _handed_strands(
                ring, monkeypatch):
            order = sorted(set(residual) - skipped, key=lambda c: (len(c[1]), key(c)))
            want = [residual[c] for c in order if residual[c]]
            assert [_monic(row) for row in handed] == [_monic(row) for row in want]
            count = len(dom) - len(residual)
            assert count + span(field, handed).rank == span(field, rows.values()).rank


@pytest.mark.parametrize("p", [None, 7])
def test_bar_skipped_pairs_lie_in_the_counted_and_handed_span(p, monkeypatch):
    # the second Morse step: the naive letter rows of the pairs (l, w)
    # that tor_bar skips, deg w >= 2 and l w[:-1] no basis word, lie in
    # the span of the counted rows and the rows handed to the rank, and so
    # does every other letter row.  The first 20 sampler rings have cubic
    # relations and kept pairs with deg w = 2 and 3 (sample rings 2, 4, 6
    # and more), which a skip of every pair with deg w >= 2 would drop.
    # Sample ring 193, x^2, y^2, xyx + 2xyy, keeps the pair (x, yx), and a
    # skip that tested the suffix l w[1:] would drop it
    field = QQ if p is None else PrimeField(p)
    skips, keeps = 0, set()
    for ring in _bar_rings(field) + [sampler_rings(field, 194)[193][0]]:
        for s, m, handed, (dom, rows, residual, skipped) in _handed_strands(
                ring, monkeypatch):
            spanned = span(field, [rows[c] for c in dom if c not in residual] + handed)
            assert spanned.rank == span(field, rows.values()).rank, (s, m)
            assert all(spanned.contains(row) for row in rows.values()), (s, m)
            skips += len(skipped)
            keeps.update(len(c[1]) for c in set(residual) - skipped)
    assert skips and keeps >= {1, 2, 3}


@pytest.mark.parametrize("p", [None, 7])
def test_bar_letter_rows_lead_at_their_merged_chain(p, monkeypatch):
    # the chain at position q of a strand is column -q, so a letter row
    # d(l|x) = mu(l, x_1)|x' - l|d(x) leads at its largest chain: past
    # every chain l|y, the merged chain at the top basis word of nf(l x_1).
    # Where l x_1 is a basis word e that chain is e|x', with entry 1, and
    # those rows lead at distinct columns, while a residual row has terms
    # on the chains l|y alone: so the rows tor_bar counts are independent
    # of each other and of the residual rows
    field = QQ if p is None else PrimeField(p)
    rings = _bar_rings(field)
    for ring in rings:
        key = _chain_key(ring)
        assert tor_bar(ring, 3, 5).dims == naive_tor_bar(ring, 3, 5)
        for m in range(3, 6):
            for s in (3, 4):
                below = sorted(naive_strand(ring, s - 1, m), key=key)
                index = {c: q for q, c in enumerate(below)}
                letters = sum(len(c[0]) == 1 for c in below)
                dom, rows, residual, _ = _naive_letter_rows(ring, s, m, key)
                counted = set()
                for chain in dom:
                    row = rows[chain]
                    nf = naive_nf(ring, chain[0] + chain[1])
                    if nf:
                        top = max(nf, key=lambda w: key((w,)))
                        assert min(row) == -index[(top,) + chain[2:]], chain
                    if chain not in residual:
                        lead = -index[(chain[0] + chain[1],) + chain[2:]]
                        assert min(row) == lead and row[lead] == field.one, chain
                        assert lead not in counted
                        counted.add(lead)
                for row in residual.values():
                    assert all(-c < letters for c in row)
    # k[x, y, z] at bound 8: the ranks take 2 520 residual rows and 1 571
    # elimination steps
    ranks = _spy_ranks(monkeypatch)
    steps = _count_steps(monkeypatch)
    assert tor_bar(rings[-2], 3, 8).dims == {3: 1}
    assert sum(map(len, ranks)) == 2520
    assert steps == [1571]


def test_bar_blocks_built_once_where_read(monkeypatch):
    # tor_bar builds the rows of a block (s, r, d, i), the chains a_i|x of
    # the (s, r) strand whose first factor is the i-th basis word of
    # degree d, on its first read and keeps them.  The rank of d_s in
    # degree m reads the blocks (s - 1, m - 1, d1, j) of each kept pair
    # (l, w_j) and of the w_{b_k} of nf(l w_j) = sum c_k l_{a_k} w_{b_k}, and
    # a block of strand s > 2 reads every block of strand s - 1 that holds
    # its x.  Each _bar_row call builds one row of the block its caller's
    # frame, block(s, r, d, i), names: on k[x, y, z] at bound 8 every block
    # read is built once, in full, and no other, 138 of the 323 blocks of
    # strands 2 and 3 in degrees <= 7; 3 112 rows, where the whole strands
    # below the bound held 8 128
    ring, rel = setup(3, ["x*y - y*x", "x*z - z*x", "y*z - z*y"], XYZ)
    built = Counter()
    real = homology._bar_row

    def spy(*args):
        frame = sys._getframe(1).f_locals
        built[frame["s"], frame["r"], frame["d"], frame["i"]] += 1
        return real(*args)
    monkeypatch.setattr(homology, "_bar_row", spy)
    assert tor_bar(ring, 3, 8).dims == {3: 1}
    words = [basis_words(ring, d) for d in range(8)]
    normal = [set(ws) for ws in words]
    rank = [{w: k for k, w in enumerate(ws)} for ws in words]

    def cnt(s, r):
        return len(naive_strand(ring, s, r)) if s else r == 0

    read = set()

    def reads(s, r, d, i):
        if s == 1 or (s, r, d, i) in read:
            return
        read.add((s, r, d, i))
        for d1 in range(1, r - d - s + 3):
            if cnt(s - 2, r - d - d1):
                for j in range(len(words[d1])):
                    reads(s - 1, r - d, d1, j)
    for m in range(3, 9):
        for s in (3, 4):
            for d1 in range(1, m - s + 2):
                if not cnt(s - 2, m - 1 - d1):
                    continue
                for l in range(ring.g):
                    for j, w in enumerate(words[d1]):
                        lw = (l,) + w
                        if lw in normal[d1 + 1] or (l,) + w[:-1] not in normal[d1]:
                            continue
                        reads(s - 1, m - 1, d1, j)
                        for e in naive_nf(ring, lw):
                            reads(s - 1, m - 1, d1, rank[d1][e[1:]])
    assert set(built) == read
    assert all(n == cnt(s - 1, r - d) for (s, r, d, i), n in built.items())
    blocks = sum(len(words[d]) for s in (2, 3) for r in range(s, 8)
                 for d in range(1, r - s + 2))
    assert (len(read), blocks) == (138, 323)
    assert sum(built.values()) == 3112


def test_bar_strand_guard_before_rows(monkeypatch):
    # the strand sizes are counted from the Hilbert values, so the guard
    # trips before any normal form is read or any row is inserted
    ring, rel = setup(2, ["x*y - y*x"], XY)
    calls = []
    monkeypatch.setattr(homology, "BAR_STRAND_GUARD", 10)
    monkeypatch.setattr(ring, "nf_word", lambda n, p: calls.append((n, p)))
    monkeypatch.setattr(homology, "integer_rank", lambda *a: calls.append(a))
    with pytest.raises(ResourceExceeded, match="bar strand"):
        tor_bar(ring, 3, 6)
    assert calls == []


def _forge_basis(monkeypatch, ring):
    """Put in the basis of degree 3 a word whose suffix of degree 2 holds
    the first pivot of I^2, in place of the first basis word."""
    real = ring.basis
    bad = min(ring.ideal_component(2).rows)

    def forged(n):
        if n != 3:
            return real(n)
        positions = sorted([bad] + real(3)[0][1:])
        return positions, {pos: k for k, pos in enumerate(positions)}
    monkeypatch.setattr(ring, "basis", forged)


def _forge_nf(monkeypatch, ring):
    """Make the first basis word of degree 2 normalise to zero."""
    real = ring.nf_word
    word = ring.basis(2)[0][0]
    monkeypatch.setattr(ring, "nf_word",
                        lambda n, p: ({}, 1) if (n, p) == (2, word) else real(n, p))


@pytest.mark.parametrize("forge, message", [(_forge_basis, "suffix outside the basis"),
                                            (_forge_nf, "residual pairs")],
                         ids=["basis", "nf_word"])
def test_bar_split_disagreeing_with_the_basis_raises(forge, message, monkeypatch, capsys):
    # tor_bar counts the rows of the pairs l w that are basis words; a
    # basis word with no basis suffix, or a count of the other pairs other
    # than h(1) h(d1) - h(1 + d1), is a basis and normal forms that
    # disagree, and raises; ``pbwkit tor`` exits 14 on it.  In the CLI the
    # forgery comes after the resolution, so only the bar sees it
    ring, rel = setup(3, ["x*y - y*x", "x*z - z*x", "y*z - z*y"], XYZ)
    forge(monkeypatch, ring)
    with pytest.raises(InvariantViolation, match=message):
        tor_bar(ring, 3, 5)
    real = cli.tor3_resolution

    def resolution_then_forge(ring, rel, bound):
        table = real(ring, rel, bound)
        forge(monkeypatch, ring)
        return table
    monkeypatch.setattr(cli, "tor3_resolution", resolution_then_forge)
    assert cli.main(["tor", str(gallery_path("sl2.pbw")), "--upto", "5"]) == 14
    err = capsys.readouterr().err
    assert "error[INVARIANT_VIOLATED]" in err and message in err


def test_d2_kernel_exact_for_mixed_row_scales():
    # sample ring 45 is the first whose K2^5 has a vector on d2 rows of
    # different integer scales L: there the tags L keep the kernel exact
    ring, rel = sampler_rings(QQ, 46)[45]
    m, g = 5, ring.g
    sl = ResolutionSlice(ring, rel, m)
    scales = [den for _, den in sl.d2_rows()]
    # the field-scalar rows over the same columns: a (x) r at the block's
    # offset + rank(a), b (x) x_i at rank(b) g + i
    codomain = {(b, i): k * g + i
                for k, b in enumerate(basis_words(ring, m - 1)) for i in range(g)}
    rows = []
    for j, row, off in sl.blocks:
        assert off == len(rows)
        words = lex_words(g, j)
        rel_row = {words[p]: QQ.from_int(s) for p, s in row.items()}
        rows.extend(naive_d2_row(ring, rel_row, a, codomain)
                    for a in basis_words(ring, m - j))
    assert len(rows) == len(scales)
    ker = sl.kernel_of_d2()
    assert any(len({scales[k] for k in v}) > 1 for v in ker)
    for v in ker:
        total = {}
        for k, c in v.items():
            for col, s in rows[k].items():
                total[col] = total.get(col, 0) + c * s
        assert not any(total.values())


@pytest.mark.parametrize("p", [None, 7])
def test_resolution_matches_field_rows_to_degree_8(p):
    # the uncertified complexity scan reads Tor_3 through degree 8; the
    # positional rows agree with the field-scalar rows there too, on g <= 2
    # and on the 8 rings with g = 3, where K2^m is read from exactness
    # past the last kernel (ring 6: Tor_{3,8} = 1 with no kernel at m = 8)
    field = QQ if p is None else PrimeField(p)
    rings = sampler_rings(field, 30)
    assert sum(ring.g == 3 for ring, _ in rings) == 8
    for ring, rel in rings:
        assert tor3_resolution(ring, rel, 8).dims == naive_tor3_resolution(ring, rel, 8)


def _kernel_degrees(monkeypatch):
    """The list that receives, at each call of the tagged kernel, the
    degree m of the slice it eliminates: the last slice made."""
    made, ran = [], []
    init, kernel = ResolutionSlice.__init__, homology.left_kernel_basis

    def counted_init(sl, ring, rel, m):
        made.append(m)
        init(sl, ring, rel, m)

    def spy(*args, **kwargs):
        ran.append(made[-1])
        return kernel(*args, **kwargs)
    monkeypatch.setattr(ResolutionSlice, "__init__", counted_init)
    monkeypatch.setattr(homology, "left_kernel_basis", spy)
    return ran


def _ring_of(field, g, texts, gens):
    rel = GradedSubspace.from_elements(
        g, to_field(field, [parse_element(t, gens) for t in texts]), field)
    return PresentedRing(g, rel, field), rel


COMM = ["x*y - y*x", "x*z - z*x", "y*z - z*y"]


def _kernel_cases(field):
    """((ring, rel), bound, Tor_3 dims, degrees where the kernel runs)."""
    return [
        # k[x, y, z]: K2^m = A^1 K2^{m-1} from m = 4 on
        (_ring_of(field, 3, COMM, XYZ), 8, {3: 1}, [3]),
        # R^3 has unit columns at m = 3; the syzygy of Tor_{3,4} is new
        (_ring_of(field, 1, ["x*x*x"], X), 8, {4: 1}, [3, 4]),
        # new syzygies at m = 4 and 7 below the bound
        (sampler_rings(field, 5)[4], 8, {4: 1, 7: 1}, [3, 4, 7]),
        # Tor_{3,8} = 1 at the bound, with no kernel there
        (sampler_rings(field, 7)[6], 8, {7: 1, 8: 1}, [3, 7]),
        # the relation of degree 5 lies above the bound
        (_ring_of(field, 3, COMM + ["x*x*x*x*y - x*x*x*y*x"], XYZ), 4, {3: 1}, [3]),
    ]


@pytest.mark.parametrize("p", [None, 7])
def test_kernel_runs_only_where_its_vectors_are_read(p, monkeypatch):
    # dim K2^m comes from exactness; d2's kernel is eliminated only where
    # slice m + 1 reads a syzygy outside A^1 K2^{m-1} or R^m has unit
    # columns, and never at m = bound for minimality's sake alone
    field = QQ if p is None else PrimeField(p)
    ran = _kernel_degrees(monkeypatch)
    for (ring, rel), bound, dims, degrees in _kernel_cases(field):
        ran.clear()
        assert tor3_resolution(ring, rel, bound).dims == dims
        assert ran == degrees
    # its unit columns at m = 5 run the kernel that refuses it
    ran.clear()
    ring, rel = _ring_of(field, 3, COMM + ["x*x*x*x*y - x*x*x*y*x"], XYZ)
    with pytest.raises(NotMinimalRelations):
        tor3_resolution(ring, rel, 5)
    assert ran == [3, 5]


@pytest.mark.parametrize("p", [None, 7])
def test_d2_rows_built_only_where_read(p, monkeypatch):
    # a slice builds a d2 row on its first read: a kernel slice builds all
    # of them, any other only the columns of A^1 K2^{m-1}'s echelon rows
    # that is_cycle reads; each nonzero built row is one I^m membership
    # test, and no unbuilt row is tested
    field = QQ if p is None else PrimeField(p)
    made, tests = [], []
    init, cycle = ResolutionSlice.__init__, ResolutionSlice.is_cycle
    kernel, contains = ResolutionSlice.kernel_of_d2, RowSpace.contains

    def counted_init(sl, ring, rel, m):
        init(sl, ring, rel, m)
        made.append([sl, set(), False])

    def read_cycle(sl, v):
        made[-1][1].update(v)
        return cycle(sl, v)

    def read_kernel(sl):
        made[-1][2] = True
        return kernel(sl)

    def counted_contains(sp, vec):
        tests.append(sp)
        return contains(sp, vec)
    for name, spy in [("__init__", counted_init), ("is_cycle", read_cycle),
                      ("kernel_of_d2", read_kernel)]:
        monkeypatch.setattr(ResolutionSlice, name, spy)
    monkeypatch.setattr(RowSpace, "contains", counted_contains)
    for (ring, rel), bound, dims, degrees in _kernel_cases(field):
        made.clear()
        tests.clear()
        assert tor3_resolution(ring, rel, bound).dims == dims
        assert [sl.m for sl, _, ran in made if ran] == degrees
        for sl, read, ran in made:
            assert set(sl._rows) == (set(range(sl.size)) if ran else read), sl.m
        assert tests == [sl._ideal for sl, _, _ in made
                         for r, _ in sl._rows.values() if r]


def test_forged_hilbert_value_breaks_exactness(monkeypatch, capsys):
    # below the bound, a false h(m) meets a kernel of another size; at the
    # bound no kernel runs and dims[bound] is false, which the bar route,
    # reading h only up to bound - 1, contradicts: tor exits 14
    ring, rel = setup(3, ["x*y - y*x", "x*z - z*x", "y*z - z*y"], XYZ)
    real = ring.hilbert_value
    monkeypatch.setattr(ring, "hilbert_value", lambda n: real(n) + (n == 3))
    with pytest.raises(InvariantViolation, match="dim K2\\^3 = 1, not 2 by exactness"):
        tor3_resolution(ring, rel, 8)
    real_value = PresentedRing.hilbert_value
    monkeypatch.setattr(PresentedRing, "hilbert_value",
                        lambda ring, n: real_value(ring, n) + (n == 5))
    assert cli.main(["tor", str(gallery_path("sl2.pbw")), "--upto", "5"]) == 14
    out = capsys.readouterr().out
    assert "verdict: TOR_MISMATCH" in out and "Tor_3 dims: {'3': 1, '5': 1}" in out


def test_remainder_outside_the_basis_raises(monkeypatch):
    # a reduction whose remainder holds a pivot column is a broken
    # elimination, not a normal form: nf_word refuses it
    ring, rel = setup(2, ["x*y - y*x"], XY)
    real = RowSpace.reduce_full

    def forged(sp, vec, integers=False):
        out = real(sp, vec, integers)
        if integers and sp.rows:
            red, d = out
            return {**red, min(sp.rows): 1}, d
        return out
    monkeypatch.setattr(RowSpace, "reduce_full", forged)
    assert ring.nf_word(2, 0) == ({0: 1}, 1)     # xx is a basis word
    with pytest.raises(InvariantViolation, match="outside the basis"):
        ring.nf_word(2, min(ring.ideal_component(2).rows))


def test_tor_bar_leaves_no_reference_cycle():
    # the kept rows and product tables of tor_bar go when it returns, not
    # when the cyclic collector next runs
    ring, rel = setup(3, ["x*y - y*x", "x*z - z*x", "y*z - z*y"], XYZ)
    gc.collect()
    gc.disable()
    try:
        assert tor_bar(ring, 3, 5).dims == {3: 1}
        assert gc.collect() == 0
    finally:
        gc.enable()
