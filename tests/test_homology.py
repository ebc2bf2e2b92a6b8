import gc
from fractions import Fraction
from itertools import product

import pytest

from pbwkit import homology
from pbwkit.errors import InvariantViolation, NotMinimalRelations, ResourceExceeded
from pbwkit.freealg import Element, multiply, parse_element
from pbwkit.gradedring import GradedSubspace, PresentedRing, minimal_complement
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
            comp = minimal_complement(rel)
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
        from pbwkit.gradedring import minimal_complement
        for _ in range(6):
            g = rng.choice([1, 2])
            elems = [random_homogeneous(rng, g, d, 2) for d in (2, 3)]
            elems = [e for e in elems if not e.is_zero()]
            if not elems:
                continue
            raw = GradedSubspace.from_elements(g, elems)
            rel = minimal_complement(raw)
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
    """Wrap ``homology.integer_rank``.  Each rank's rows are recorded as
    dicts in the list returned: every (lead, builder) pair is built, and
    must lead at lead.  The rank itself gets builders that count their
    calls in the list's ``built`` attribute."""

    class Ranks(list):
        built = 0
    ranks = Ranks()
    real_rank = homology.integer_rank

    def counted(build):
        def counting():
            ranks.built += 1
            return build()
        return counting

    def spy(field, rows):
        rows, out = list(rows), []
        for lead, build in rows:
            row = build()
            assert min(row) == lead
            out.append(row)
        ranks.append(out)
        return real_rank(field, [(lead, counted(build)) for lead, build in rows])
    monkeypatch.setattr(homology, "integer_rank", spy)
    return ranks


def test_bar_spans_read_the_letter_rows(monkeypatch):
    # each rank of tor_bar reads the rows of the chains l|x, l a
    # letter: h(1) cnt(s-1, m-1) of them, for d_3 and d_4 in every degree
    # m, first chain first (their order is pinned by
    # test_bar_letter_rows_lead_at_their_merged_chain); every row leads
    # at the lead it is handed with.  A zero row is not handed over, and
    # k[x, y, z] has none: nf(l x_1) is never zero there
    ring, rel = setup(3, ["x*y - y*x", "x*z - z*x", "y*z - z*y"], XYZ)
    ranks = _spy_ranks(monkeypatch)
    assert tor_bar(ring, 3, 6).dims == {3: 1}
    sizes = [len(rows) for rows in ranks]
    assert sizes == [ring.g * len(naive_strand(ring, s - 1, m - 1))
                     for m in range(3, 7) for s in (3, 4)]


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


@pytest.mark.parametrize("p", [None, 7])
def test_bar_letter_rows_lead_at_their_merged_chain(p, monkeypatch):
    # the chain at position q of a strand is column -q, so a letter row
    # d(l|x) = mu(l, x_1)|x' - l|d(x) leads at its largest chain: past
    # every chain l|y, the merged chain at the top basis word of nf(l x_1).
    # The rows come first chain first.  Where l x_1 is a normal word that
    # chain determines l, x_1 and x', so those rows lead at distinct
    # columns; a row whose l x_1 reduces may have taken the column before
    # (x|y|x' leads where y|x|x' does in k[x, y, z], nf(xy) = yx)
    field = QQ if p is None else PrimeField(p)
    comm = GradedSubspace.from_elements(
        3, [parse_element(t, XYZ, field) for t in ("x*y - y*x", "x*z - z*x", "y*z - z*y")],
        field)
    kxyz = PresentedRing(3, comm, field)
    # the Jordan plane: nf(xy) = yx + y^2 has two words, the sampled
    # rings' letter rows have at most one merged word
    jordan = PresentedRing(2, GradedSubspace.from_elements(
        2, [parse_element("x*y - y*x - y*y", XY, field)], field), field)
    ranks = _spy_ranks(monkeypatch)

    def monic(row):
        if not row:
            return row
        lead = row[min(row)]
        return {c: s / lead for c, s in row.items()}
    for ring in [ring for ring, _ in sampler_rings(field, 20)] + [kxyz, jordan]:
        key = _chain_key(ring)
        ranks.clear()
        assert tor_bar(ring, 3, 5).dims == naive_tor_bar(ring, 3, 5)
        got = iter(ranks)
        for m in range(3, 6):
            for s in (3, 4):
                below = sorted(naive_strand(ring, s - 1, m), key=key)
                index = {c: q for q, c in enumerate(below)}
                dom = sorted((c for c in naive_strand(ring, s, m) if len(c[0]) == 1), key=key)
                # the nonzero rows, in chain order: a zero row is not handed over
                nonzero = [(chain, want) for chain, want in
                           zip(dom, naive_bar_rows(ring, dom, below)) if want]
                rows = next(got)
                assert len(rows) == len(nonzero)
                normal_leads = set()
                for (chain, want), row in zip(nonzero, rows):
                    assert monic({c: field.from_int(x) for c, x in row.items()}) == \
                        monic({-q: x for q, x in want.items()}), chain
                    merged = chain[0] + chain[1]
                    nf = naive_nf(ring, merged)
                    if nf:
                        top = max(nf, key=lambda w: key((w,)))
                        assert min(row) == -index[(top,) + chain[2:]], chain
                    if merged in basis_words(ring, len(merged)):
                        assert min(row) not in normal_leads, chain
                        normal_leads.add(min(row))
    # the rows of k[x, y, z] at bound 8 whose leading column is already a
    # pivot when they come, the count of BENCH_bar_pivots.json, and the
    # rows the ranks build of those handed over (BENCH_bar_rows.json counts
    # the unbuilt ones)
    ranks.clear()
    ranks.built = 0
    assert tor_bar(kxyz, 3, 8).dims == {3: 1}
    colliding = 0
    for rows in ranks:
        sp = RowSpace(field)
        for row in rows:
            colliding += sp.is_pivot(min(row))
            sp.insert(row)
    assert colliding == 10703
    # of the 24 384 rows handed over, a reduction reads or meets 19 866:
    # 17 955 of the 22 113 letter rows no strand reads (strand 4, and
    # strand 3 at the bound), and 1 911 of the 2 271 kept rows of strand 3
    assert ranks.built == 19866


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
    # positional rows agree with the field-scalar rows there too
    field = QQ if p is None else PrimeField(p)
    rings = [(ring, rel) for ring, rel in sampler_rings(field, 30) if ring.g <= 2]
    assert len(rings) >= 10
    for ring, rel in rings:
        assert tor3_resolution(ring, rel, 8).dims == naive_tor3_resolution(ring, rel, 8)


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
