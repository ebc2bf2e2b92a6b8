from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from pbwkit.errors import ParseError, ResourceExceeded, ValidationError
from pbwkit.freealg import (Element, WordBasis, filtration_size, format_element,
                            graded_size, guard_reach, multiply,
                            lex_pos, lex_word, parse_element, project, word_key)
from pbwkit.linalg import QQ

from conftest import (eval_z, homogenize, leading_homogeneous, lex_columns, lex_words,
                      suffix_start, zcolumns, zword_at)

X, Y = ["x"], ["x", "y"]


def el(text, gens=Y):
    return parse_element(text, gens)


class TestMultiply:
    def test_concat(self):
        assert multiply(el("x"), el("y")) == el("x*y")

    def test_difference_of_squares(self):
        assert multiply(el("x + 1", X), el("x - 1", X)) == el("x*x - 1", X)

    def test_zero_absorbs(self):
        assert multiply(Element(QQ), el("x*y + y*x")).is_zero()

    def test_noncommutative(self):
        assert multiply(el("x"), el("y")) != multiply(el("y"), el("x"))


class TestProject:
    def test_component(self):
        assert project(el("x*x + x + 1", X), 2) == el("x*x", X)

    def test_degree_zero(self):
        assert project(el("x*x + 3", X), 0) == el("3", X)

    def test_beyond_degree(self):
        assert project(el("x*x", X), 5).is_zero()

    def test_components_sum_back(self):
        e = el("x*y - y*x - 1/2*x + 3")
        total = Element(QQ)
        for n in range(e.degree() + 1):
            total = total + project(e, n)
        assert total == e


class TestLeadingHomogeneous:
    def test_commutator_minus_one(self):
        assert leading_homogeneous(el("x*y - y*x - 1")) == el("x*y - y*x")

    def test_lh_zero_is_zero(self):
        # forced by the definition: LH(0) = 0
        assert leading_homogeneous(Element(QQ)).is_zero()

    def test_power(self):
        assert leading_homogeneous(el("x*x + x", X)) == el("x*x", X)


class TestHomogenize:
    """The tests' homogenization (conftest), the oracle for the T[z]
    engine's generator rows."""

    def test_x2_plus_1(self):
        h = homogenize(el("x*x + 1", X))
        assert h == {((0, 0), 0): QQ.one, ((), 2): QQ.one}

    def test_homogeneous_untouched(self):
        h = homogenize(el("x*y - y*x"))
        assert all(k == 0 for (_, k) in h)

    def test_ev_identities(self):
        # ev_1(e*) = e and ev_0(e*) = LH(e)
        e = el("x*y - y*x - x")
        h = homogenize(e)
        assert eval_z(h, QQ.one, QQ) == e
        assert eval_z(h, QQ.zero, QQ) == leading_homogeneous(e)


words = st.lists(st.integers(0, 1), min_size=0, max_size=3).map(tuple)
scalars = st.integers(-3, 3).filter(bool).map(QQ.from_int)
elements = st.dictionaries(words, scalars, max_size=4).map(
    lambda d: Element(QQ, d))


@settings(max_examples=80, deadline=None)
@given(elements, elements, elements)
def test_multiply_associative(a, b, c):
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


@settings(max_examples=40, deadline=None)
@given(elements)
def test_multiply_unital(a):
    one = Element(QQ, {(): QQ.one})
    assert multiply(one, a) == a == multiply(a, one)


@settings(max_examples=40, deadline=None)
@given(elements, st.integers(0, 4), st.integers(0, 4))
def test_projections_orthogonal_idempotent(a, n, m):
    pn = project(a, n)
    assert project(pn, n) == pn
    if n != m:
        assert project(pn, m).is_zero()


@settings(max_examples=40, deadline=None)
@given(elements)
def test_ev_identities_random(e):
    if e.is_zero():
        return
    h = homogenize(e)
    assert eval_z(h, QQ.one, QQ) == e
    assert eval_z(h, QQ.zero, QQ) == leading_homogeneous(e)


class TestWordOrder:
    def test_degree_then_lex(self):
        ws = [(), (1,), (0,), (0, 1), (1, 0), (0, 0)]
        ordered = sorted(ws, key=word_key)
        assert ordered == [(0, 0), (0, 1), (1, 0), (0,), (1,), ()]

    def test_basis_positions_follow_order(self):
        basis = WordBasis(2, 2)
        ws = [(0, 0), (0, 1), (1, 0), (1, 1), (0,), (1,), ()]
        assert [basis.pos(w) for w in ws] == list(range(7))
        assert [basis.word_at(p) for p in range(7)] == ws

    def test_suffix_is_filtration(self):
        basis = WordBasis(2, 3)
        start = suffix_start(2, 3, 1)
        assert {basis.word_at(p) for p in range(start, basis.size)} == {(), (0,), (1,)}


    def test_filtration_size_counts_the_words(self):
        # the closed form is dim T^{<=n}, the size of WordBasis(g, n)
        for g in range(1, 5):
            assert filtration_size(g, -1) == 0
            for n in range(8):
                assert filtration_size(g, n) == sum(g ** i for i in range(n + 1)) \
                    == WordBasis(g, n).size


class TestWordBasis:
    """The one column layout of T^{<=n}, T[z]^n and T^n, against the
    tests' own indices: ``zword_at``/``zcolumns`` and ``itertools.product``."""

    def test_columns_match_the_oracle_index(self):
        for g in (1, 2, 3):
            for n in range(6):
                basis, col = WordBasis(g, n), zcolumns(g, n)
                assert basis.size == len(col)
                for p in range(basis.size):
                    w = zword_at(g, n, p)
                    assert basis.word_at(p) == w
                    assert basis.pos(w) == col[w] == p
                    assert basis.block(p) == (len(w), col[(0,) * len(w)])

    def test_first_block_is_product_order(self):
        # T^n is the first block, in itertools.product order
        for g in (1, 2, 3):
            for n in range(6):
                basis, flat = WordBasis(g, n), list(product(range(g), repeat=n))
                assert [basis.word_at(p) for p in range(g ** n)] == flat
                assert list(lex_words(g, n)) == flat
                assert [lex_word(p, g, n) for p in range(g ** n)] == flat
                assert [lex_pos(w, g) for w in flat] == list(range(g ** n))
                assert all(lex_columns(g, n)[w] == basis.pos(w) for w in flat)

    def test_out_of_range(self):
        basis = WordBasis(2, 2)
        with pytest.raises(ValidationError):
            basis.pos((0, 1, 0))
        for p in (-1, 7):
            with pytest.raises(ValidationError):
                basis.word_at(p)

    def test_guard_counts_every_column(self, monkeypatch):
        # T^{<=3} over two letters has 1 + 2 + 4 + 8 = 15 columns
        monkeypatch.setenv("PBWKIT_MAX_COLUMNS", "15")
        assert WordBasis(2, 3).size == 15
        monkeypatch.setenv("PBWKIT_MAX_COLUMNS", "14")
        with pytest.raises(ResourceExceeded,
                           match=r"T\[z\]\^3 over 2 generators needs 15 columns"):
            WordBasis(2, 3)
        assert WordBasis(2, 3, guard=15).size == 15


@pytest.mark.parametrize("g", [1, 2, 3])
def test_guard_reach_is_where_the_refusals_start(g, monkeypatch):
    # for guards one below, at and one above each degree's count, the last
    # degree guard_reach allows is the last one whose count (summed here
    # from g^i) fits the guard, and the last at which graded_size (T^n)
    # or WordBasis (T^{<=n}, T[z]^n) does not raise
    upto = 6
    cases = [(pow, graded_size, lambda n: g ** n),
             (filtration_size, WordBasis, lambda n: sum(g ** i for i in range(n + 1)))]

    def allowed(make, n):
        try:
            make(g, n)
        except ResourceExceeded:
            return False
        return True

    for size, make, count in cases:
        for n in range(upto + 1):
            for guard in {count(n) - 1, count(n), count(n) + 1} - {0}:
                monkeypatch.setenv("PBWKIT_MAX_COLUMNS", str(guard))
                want = max(m for m in range(upto + 1) if count(m) <= guard)
                assert guard_reach(g, upto, guard, size) == want
                assert [allowed(make, m) for m in range(upto + 1)] == \
                    [m <= want for m in range(upto + 1)]


def _walk_down(g, upto, guard, size):
    """The last reached degree by a walk down from upto, one size a step."""
    n = upto
    while n > 0 and size(g, n) > guard:
        n -= 1
    return n


def test_guard_reach_matches_the_walk_down():
    guards = [*range(1, 60), 100, 1000, 2 * 10 ** 6]
    for size in (pow, filtration_size):
        for g in range(1, 6):
            for upto in range(40):
                for guard in guards:
                    assert guard_reach(g, upto, guard, size) == _walk_down(g, upto, guard, size)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_guard_reach_reads_few_sizes(g):
    # upto = 10^6 < 2^20: doubling and bisection read at most 2 * 20 sizes,
    # none above twice the degree reached, so no g^(10^6) is ever built
    upto = 10 ** 6
    for size in (pow, filtration_size):
        for guard in (1, 300, 2 * 10 ** 6):
            calls = []

            def counted(g, n):
                calls.append(n)
                return size(g, n)
            n = guard_reach(g, upto, guard, counted)
            if g == 1:      # 1^n = 1 column, and n + 1 of them up to degree n
                want = upto if size is pow else min(guard - 1, upto)
            else:
                want = 0
                while want < upto and size(g, want + 1) <= guard:
                    want += 1
            assert n == want
            assert len(calls) <= 40 and max(calls) <= max(1, 2 * n)


class TestElementSyntax:
    def test_round_trip(self):
        for text in ["x*y - y*x - 1/2*x", "x*x + 1", "2*x*y + 3/4*y", "1", "-x + y"]:
            e = parse_element(text, Y)
            again = parse_element(format_element(e, Y), Y)
            assert again == e

    def test_coefficients(self):
        e = el("1/2*x*y - 2*y")
        assert e.terms[(0, 1)] == QQ.from_fraction(__import__("fractions").Fraction(1, 2))
        assert e.terms[(1,)] == QQ.from_int(-2)

    def test_unknown_generator(self):
        with pytest.raises(ParseError) as exc:
            parse_element("x*q", Y)
        assert "q" in str(exc.value)

    def test_bad_syntax_position(self):
        with pytest.raises(ParseError) as exc:
            parse_element("x + * y", Y)
        assert exc.value.line == 1

    def test_cancellation(self):
        assert el("x - x").is_zero()
