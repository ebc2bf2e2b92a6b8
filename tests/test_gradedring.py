import random
from fractions import Fraction
from itertools import product

import pytest

from pbwkit.errors import NotHomogeneous, ResourceExceeded, ValidationError
from pbwkit.freealg import Element, parse_element
from pbwkit.deformation import minimize_relations
from pbwkit.gradedring import GradedSubspace, PresentedRing, ideal_chain
from pbwkit.linalg import QQ, PrimeField

from conftest import (DenseEchelon, basis_words, brute_ideal_dim, lex_columns,
                      random_homogeneous, sampler_rings)

X, XY = ["x"], ["x", "y"]


def ring_of(g, texts, gens):
    rel = GradedSubspace.from_elements(g, [parse_element(t, gens) for t in texts])
    return PresentedRing(g, rel)


class TestIdealComponent:
    def test_principal_monomial(self):
        ring = ring_of(1, ["x*x"], X)
        assert ring.ideal_component(2).rank == 1
        assert ring.ideal_component(3).rank == 1
        assert ring.hilbert_value(2) == 0

    def test_commutator_degree3(self):
        # [DERIVED] brute-force enumeration of F^i G F^k inside the 8-dim F^3
        ring = ring_of(2, ["x*y - y*x"], XY)
        oracle = brute_ideal_dim(2, [parse_element("x*y - y*x", XY)], 3)
        assert ring.ideal_component(3).rank == oracle == 4
        assert ring.hilbert_value(3) == 4

    def test_no_relations(self):
        ring = PresentedRing(2, GradedSubspace(2, QQ))
        for n in range(4):
            assert ring.ideal_component(n).rank == 0

    def test_recursion_matches_brute_force_randomized(self, rng):
        for _ in range(12):
            g = rng.choice([1, 2])
            degs = sorted(rng.sample([2, 2, 3], rng.randint(1, 2)))
            elems = []
            for d in degs:
                e = random_homogeneous(rng, g, d, rng.randint(1, 2))
                if not e.is_zero():
                    elems.append(e)
            if not elems:
                continue
            rel = GradedSubspace.from_elements(g, elems)
            ring = PresentedRing(g, rel)
            for n in range(5):
                assert ring.ideal_component(n).rank == brute_ideal_dim(g, elems, n)


class TestNormalForm:
    def test_x2_dies(self):
        ring = ring_of(1, ["x*x"], X)
        assert ring.normal_form(parse_element("x*x", X)).is_zero()

    def test_commutator_straightening(self):
        # [DERIVED] xy - yx lies in I^2, so the two words share one normal
        # form, a single basis word
        ring = ring_of(2, ["x*y - y*x"], XY)
        nf_yx = ring.normal_form(parse_element("y*x", XY))
        nf_xy = ring.normal_form(parse_element("x*y", XY))
        assert nf_yx == nf_xy and not nf_yx.is_zero()
        assert len(nf_yx.terms) == 1
        assert set(nf_yx.terms) <= set(basis_words(ring, 2))

    def test_identity_when_no_relations(self):
        ring = PresentedRing(2, GradedSubspace(2, QQ))
        e = parse_element("x*y + 2*y*x", XY)
        assert ring.normal_form(e) == e

    def test_rejects_inhomogeneous(self):
        ring = ring_of(1, ["x*x"], X)
        with pytest.raises(NotHomogeneous):
            ring.normal_form(parse_element("x*x + x", X))

    def test_zero_iff_in_ideal(self):
        ring = ring_of(2, ["x*y - y*x"], XY)
        assert ring.normal_form(parse_element("x*y*x - y*x*x", XY)).is_zero()
        assert not ring.normal_form(parse_element("x*y*x", XY)).is_zero()


class TestGradedColumns:
    """T^n has the g^n lex columns of the first block of WordBasis(g, n),
    and the guard counts those, not the F(n) columns of T^{<=n}."""

    def test_relation_guard_counts_g_to_the_n(self, monkeypatch):
        # one degree-3 relation over two letters: 2^3 = 8 columns
        rel = [parse_element("x*y*x - y*x*y", XY)]
        monkeypatch.setenv("PBWKIT_MAX_COLUMNS", "8")
        assert GradedSubspace.from_elements(2, rel).dim(3) == 1
        monkeypatch.setenv("PBWKIT_MAX_COLUMNS", "7")
        with pytest.raises(ResourceExceeded, match=r"T\^3 over 2 generators needs 8 columns"):
            GradedSubspace.from_elements(2, rel)

    def test_normal_form_guard_before_any_component(self, monkeypatch):
        ring = ring_of(2, ["x*y - y*x"], XY)
        e = parse_element("x*y*x", XY)
        monkeypatch.setenv("PBWKIT_MAX_COLUMNS", "7")
        with pytest.raises(ResourceExceeded):
            ring.normal_form(e)
        assert sorted(ring._ideal) == [0, 1]
        monkeypatch.setenv("PBWKIT_MAX_COLUMNS", "8")
        assert not ring.normal_form(e).is_zero()

    def test_vec_of_refuses_another_degree(self):
        # x*y sits at lex column 1 of T^2 and y at lex column 1 of T^1: kept
        # together they would share a column
        sub = GradedSubspace(2)
        e = parse_element("x*y + y", XY)
        for take in (sub.vec_of, sub.insert_element):
            with pytest.raises(ValidationError, match="word degree mismatch"):
                take(e)
        assert sub.degrees() == []


class TestHilbert:
    def test_x2(self):
        hd = ring_of(1, ["x*x"], X).hilbert(5)
        assert hd.values == [1, 1, 0, 0, 0, 0]
        assert hd.finite_dim and hd.c_a == 0

    def test_x3_koszul_family_value(self):
        # the n-Koszul family k[X]/(X^n) has c_A = n - 2; here n = 3
        hd = ring_of(1, ["x*x*x"], X).hilbert(5)
        assert hd.values == [1, 1, 1, 0, 0, 0]
        assert hd.finite_dim and hd.c_a == 1

    def test_polynomial_counts(self):
        # [DERIVED] h(n) = n + 1 for the plane, cross-checked by brute force
        ring = ring_of(2, ["x*y - y*x"], XY)
        hd = ring.hilbert(6)
        assert hd.values == [n + 1 for n in range(7)]
        assert not hd.finite_dim
        for n in range(5):
            assert 2 ** n - brute_ideal_dim(2, [parse_element("x*y - y*x", XY)], n) \
                == hd.values[n]

    def test_dimension_pairing(self, rng):
        for _ in range(8):
            g = rng.choice([1, 2])
            e = random_homogeneous(rng, g, 2, 2)
            if e.is_zero():
                continue
            ring = PresentedRing(g, GradedSubspace.from_elements(g, [e]))
            for n in range(5):
                assert ring.ideal_component(n).rank + ring.hilbert_value(n) == g ** n

    def test_strong_grading_propagation(self):
        hd = ring_of(2, ["x*x", "x*y", "y*x", "y*y"], XY).hilbert(6)
        assert hd.values == [1, 2, 0, 0, 0, 0, 0]

    def test_walk_stops_past_first_zero(self):
        # components 0..3 only: degree 3 is one past the first zero and
        # checks the strong grading; the other values are zeros unbuilt
        ring = ring_of(1, ["x*x"], X)
        hd = ring.hilbert(100000)
        assert hd.values == [1, 1] + [0] * 99999
        assert hd.finite_dim and hd.c_a == 0
        assert len(ring._ideal) <= 4

    def test_degree_cap(self):
        ring = ring_of(1, ["x*x"], X)
        with pytest.raises(ResourceExceeded):
            ring.ideal_component(ring.max_degree + 1)

    def test_relations_below_degree_2_rejected(self):
        rel = GradedSubspace.from_elements(1, [parse_element("x", X)])
        with pytest.raises(ValidationError):
            PresentedRing(1, rel)


class TestMinimalComplement:
    def test_strips_consequence(self):
        rel = GradedSubspace.from_elements(
            1, [parse_element("x*x", X), parse_element("x*x*x", X)])
        out = minimize_relations(rel)
        assert out.degrees() == [2] and out.dim(2) == 1
        assert out.dim(3) < rel.dim(3)

    def test_fixed_point(self):
        rel = GradedSubspace.from_elements(2, [parse_element("x*y - y*x", XY)])
        out = minimize_relations(rel)
        assert out.equals(rel)
        assert [out.dim(n) for n in rel.degrees()] == [rel.dim(n) for n in rel.degrees()]

    def test_same_ideal(self, rng):
        for _ in range(8):
            g = rng.choice([1, 2])
            elems = [random_homogeneous(rng, g, d, 2) for d in (2, 3)]
            elems = [e for e in elems if not e.is_zero()]
            if not elems:
                continue
            rel = GradedSubspace.from_elements(g, elems)
            out = minimize_relations(rel)
            d = rel.max_degree()
            ca, cb = ideal_chain(rel, d), ideal_chain(out, d)
            for n in range(d + 1):
                assert ca[n].rank == cb[n].rank
                assert ca[n].contains_space(cb[n])


# ---------------------------------------------------------------------------
# The degree step against a dense echelon of all F^i G F^k products.

ORACLE_COEFFS = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]


def random_ideal_case(rng, g):
    """1-3 random relations in degrees 2-4 plus 0-2 redundant ones (a
    multiple, or a relation times a generator on one side)."""
    rels = []
    for _ in range(rng.randint(1, 3)):
        d = rng.randint(2, 4)
        rels.append({tuple(rng.randrange(g) for _ in range(d)): rng.choice(ORACLE_COEFFS)
                     for _ in range(rng.randint(1, 3))})
    for _ in range(rng.randint(0, 2)):
        base = rng.choice(rels)
        d = len(next(iter(base)))
        i = rng.randrange(g)
        kind = rng.choice(["multiple", "left", "right"] if d < 4 else ["multiple"])
        if kind == "multiple":
            rels.append({w: -2 * c for w, c in base.items()})
        elif kind == "left":
            rels.append({(i,) + w: c for w, c in base.items()})
        else:
            rels.append({w + (i,): c for w, c in base.items()})
    return rels


@pytest.mark.parametrize("p", [None, 7])
@pytest.mark.parametrize("g", [1, 2, 3])
def test_ideal_components_match_dense_products(p, g):
    field = QQ if p is None else PrimeField(p)
    top = 5 if g <= 2 else 4
    rng = random.Random(1000 * g + (p or 0))

    def value(x):
        x = Fraction(x)
        return x if p is None else x.numerator * pow(x.denominator, -1, p) % p

    def dense(vec, n):
        out = [value(0)] * g ** n
        for c, s in vec.items():
            out[c] = s if p is None else s.v
        return out

    for _ in range(8):
        elements = []
        for r in random_ideal_case(rng, g):
            e = Element(field, {w: field.from_fraction(Fraction(c)) for w, c in r.items()})
            if not e.is_zero():
                elements.append(e)
        ring = PresentedRing(g, GradedSubspace.from_elements(g, elements, field), field)
        chain = ideal_chain(ring.relations, top)
        for n in range(top + 1):
            cols = lex_columns(g, n)
            oracle = DenseEchelon(g ** n, p)
            for e in elements:
                j = e.degree()
                for a in range(n - j + 1):
                    for u in product(range(g), repeat=a):
                        for v in product(range(g), repeat=n - j - a):
                            oracle.insert(dense({cols[u + w + v]: s
                                                 for w, s in e.terms.items()}, n))
            sp = ring.ideal_component(n)
            assert sorted(sp.rows) == sorted(oracle.rows)
            assert sorted(chain[n].rows) == sorted(oracle.rows)
            assert ring.hilbert_value(n) == g ** n - len(oracle.rows)
            for _ in range(2):
                vec = {c: field.from_int(rng.choice([1, -1, 3]))
                       for c in range(g ** n) if rng.random() < 0.5}
                got = dense(ring.normal_form_vec(n, vec), n)
                assert got == oracle.reduce_full(dense(vec, n))
            if n >= 1:
                # closure: I^{n-1} x_i and x_i I^{n-1} lie in I^n
                for row in ring.ideal_component(n - 1).basis():
                    for i in range(g):
                        assert sp.contains({c * g + i: s for c, s in row.items()})
                        assert sp.contains({i * g ** (n - 1) + c: s
                                            for c, s in row.items()})


def test_shifted_rows_are_built_on_lookup():
    # I^10 holds F¹I^9 as its pivot mask, not as copies of I^9's rows:
    # after hilbert(10) it has its full rank (the rank an eager copy gives)
    # while it holds only the rows it inserted and the few left products
    # its reductions read
    ring = next(ring for ring, rel in sampler_rings(QQ, 10)
                if ring.g == 3 and rel.degrees() == [2, 3])
    assert ring.hilbert(10).values[10] == 596
    sp = ring.ideal_component(10)
    assert sp.rank == 3 ** 10 - 596 == sum(1 for _ in sp.rows)
    assert len(sp._rows) < 0.05 * sp.rank     # the rows held as dicts
