"""Shared oracles and generators.

The dense routines here are deliberately independent of pbwkit.linalg:
they use plain Fractions and naive Gaussian elimination so that engine
results are checked against a second arithmetic path.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest

from pbwkit.extension import ExtensionEngine, ZMonomials
from pbwkit.freealg import Element, WordBasis, filtration_size, multiply, project
from pbwkit.linalg import QQ, RowSpace


# ---------------------------------------------------------------------------
# Dense rational elimination (the independent oracle path).

def dense_rank(rows):
    """Rank by naive Gaussian elimination over Fraction lists."""
    rows = [list(map(Fraction, r)) for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while rows and col < ncols:
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        inv = Fraction(1) / pr[col]
        rows[rank] = [x * inv for x in pr]
        pr = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], pr)]
        rank += 1
        col += 1
    return rank


class DenseEchelon:
    """Dense incremental echelon form over Q (p=None, Fraction entries) or
    F_p (int residues): the oracle for ``RowSpace``.

    Rows are inserted one at a time, reduced along their leading chain
    and made monic, which defines the same REF rows ``RowSpace`` must
    reproduce up to scale; ``reduced()`` is their Gauss-Jordan
    back-substitution."""

    def __init__(self, ncols, p=None):
        self.ncols = ncols
        self.p = p
        self.rows = {}          # pivot column -> dense monic row

    def _norm(self, x):
        return Fraction(x) if self.p is None else x % self.p

    def _inv(self, x):
        return 1 / x if self.p is None else pow(x, -1, self.p)

    def _axpy(self, v, f, row):
        return [self._norm(a - f * b) for a, b in zip(v, row)]

    def reduce_leading(self, v):
        v = [self._norm(x) for x in v]
        while any(v):
            lead = next(i for i, x in enumerate(v) if x)
            row = self.rows.get(lead)
            if row is None:
                break
            v = self._axpy(v, v[lead], row)
        return v

    def insert(self, v):
        v = self.reduce_leading(v)
        if not any(v):
            return None
        lead = next(i for i, x in enumerate(v) if x)
        inv = self._inv(v[lead])
        self.rows[lead] = [self._norm(x * inv) for x in v]
        return lead

    def reduced(self):
        """RREF rows by pivot column."""
        out = {c: list(r) for c, r in self.rows.items()}
        for c in sorted(out, reverse=True):
            for d in out:
                if d < c and out[d][c]:
                    out[d] = self._axpy(out[d], out[d][c], out[c])
        return out

    def reduce_full(self, v):
        v = [self._norm(x) for x in v]
        for c, row in sorted(self.reduced().items()):
            if v[c]:
                v = self._axpy(v, v[c], row)
        return v


def words_upto(g, d):
    out = []
    for n in range(d + 1):
        out.extend(product(range(g), repeat=n))
    return out


def elements_to_dense(elements, g, d):
    index = {w: i for i, w in enumerate(words_upto(g, d))}
    rows = []
    for e in elements:
        row = [Fraction(0)] * len(index)
        for w, s in e.terms.items():
            row[index[w]] = Fraction(s.numerator, s.denominator)
        rows.append(row)
    return rows


def dense_span_dim(elements, g, d):
    rows = elements_to_dense(elements, g, d)
    return dense_rank(rows) if rows else 0


def dense_filtered_basis(elements, g, d):
    """Echelon basis of span(elements) with columns ordered degree
    descending (then lex), as Elements; rows whose top degree is <= j then
    span the honest intersection P ∩ T^{<=j}."""
    words = sorted(words_upto(g, d), key=lambda w: (-len(w), w))
    index = {w: i for i, w in enumerate(words)}
    rows = []
    for e in elements:
        row = [Fraction(0)] * len(words)
        for w, s in e.terms.items():
            row[index[w]] = Fraction(s.numerator, s.denominator)
        rows.append(row)
    # naive RREF
    rank = 0
    for col in range(len(words)):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    out = []
    for r in rows[:rank]:
        terms = {words[i]: QQ.from_fraction(v) for i, v in enumerate(r) if v}
        out.append(Element(QQ, terms))
    return out


def brute_pn_spans(g, elements, upto):
    """P_0..P_{upto+1} as raw spanning lists of Elements, by the recursion
    P_{k+1} = T^1 P_k + P_k T^1 + P^{<=k+1} seeded at P_0 = P ∩ T^0 = 0.

    P^{<=j} is the honest subspace intersection, taken from an adapted
    dense echelon basis of the span."""
    gens = [Element.generator(i, QQ) for i in range(g)]
    d = max((e.degree() for e in elements if not e.is_zero()), default=0)
    adapted = dense_filtered_basis([e for e in elements if not e.is_zero()], g, d)
    spans = [[]]
    for k in range(upto + 1):
        nxt = list(spans[k])
        for e in spans[k]:
            for x in gens:
                nxt.append(multiply(x, e))
                nxt.append(multiply(e, x))
        for e in adapted:
            if e.degree() is not None and e.degree() <= k + 1:
                nxt.append(e)
        spans.append(nxt)
    return spans


def brute_jacobi(g, elements, upto):
    """(J_k) verdicts for k <= upto by pure dimension counting:
    P_k ⊆ P_{k+1} ∩ T^{<=k} always, so (J_k) holds iff
    dim P_{k+1} - dim p^{k+1}(P_{k+1}) = dim P_k."""
    spans = brute_pn_spans(g, elements, upto)
    verdicts = {}
    for k in range(1, upto + 1):
        pk = dense_span_dim(spans[k], g, k) if spans[k] else 0
        pk1 = dense_span_dim(spans[k + 1], g, k + 1) if spans[k + 1] else 0
        top = [project(e, k + 1) for e in spans[k + 1]]
        top = [e for e in top if not e.is_zero()]
        ptop = dense_span_dim(top, g, k + 1) if top else 0
        verdicts[k] = (pk1 - ptop == pk)
    return verdicts


def brute_ideal_dim(g, gen_elements, n):
    """dim <G>^n by enumerating F^i · G^j · F^k products densely."""
    span = []
    for e in gen_elements:
        j = e.degree()
        if j is None or j > n:
            continue
        for left in words_upto(g, n - j):
            for right in words_upto(g, n - j - len(left)):
                if len(left) + j + len(right) == n:
                    span.append(multiply(Element.from_word(left, QQ),
                                         multiply(e, Element.from_word(right, QQ))))
    if not span:
        return 0
    return dense_span_dim(span, g, n)


# ---------------------------------------------------------------------------
# Naive closures: every row of the previous space times every generator,
# then insert.  The oracles for the semi-naive ladder and engine steps.

def naive_ladder(P, upto):
    """(spaces, witness) of the Jacobi ladder P_0..P_{upto+1} built by
    P_{k+1} = P_k + V·P_k + P_k·V + P^{<=k+1}, inserting the products of
    every row of P_k, then P's rows.  Stops at the first P_k = T^{<=k}.
    The witness is the monic row of the least pivot of P_{k+1} ∩ T^{<=k}
    outside P_k, for the least failing k >= 1."""
    g = P.g
    big = WordBasis(g, upto + 1)
    shift = P.basis.shift_into(big)
    prows = [(P.basis.degree_of_pos(min(r)), {c + shift: s for c, s in r.items()})
             for r in P.space.raw_basis()]
    spaces = [RowSpace(P.field)]
    witness = None
    for k in range(upto + 1):
        prev = spaces[k]
        nxt = prev.copy()
        for row in prev.raw_basis():
            for i in range(g):
                nxt.insert(big.mult_left_vec(i, row))
                nxt.insert(big.mult_right_vec(row, i))
        for deg, row in prows:
            if deg <= k + 1:
                nxt.insert(dict(row))
        spaces.append(nxt)
        if witness is None and k >= 1:
            start = big.suffix_start(k)
            for c in sorted(c for c in nxt.rows if c >= start):
                if not prev.contains(nxt.rows[c]):
                    witness = big.vec_to_element(nxt.pivots[c], P.field)
                    break
        if nxt.rank == filtration_size(g, k + 1):
            break
    return spaces, witness


class NaiveEngine(ExtensionEngine):
    """The T[z] engine with the naive closure step: z·r, x_i·r and r·x_i
    inserted for every row r of <P_z>^{m-1}, then the degree-m part of
    P_z.  Saturated degrees are left to the engine's own branch."""

    def _step(self, m):
        if self.saturated_at is not None and m > self.saturated_at:
            return super()._step(m)
        g = self.g
        prev = self._ideal[m - 1]
        mono_prev, mono = ZMonomials(g, m - 1), ZMonomials(g, m)
        sp = RowSpace(self.field)
        for row in prev.raw_basis():
            sp.insert({c + g ** m: s for c, s in row.items()})
            words = [(mono_prev.word_at(c), s) for c, s in row.items()]
            for i in range(g):
                sp.insert({mono.pos_of_word((i,) + w): s for w, s in words})
                sp.insert({mono.pos_of_word(w + (i,)): s for w, s in words})
        for vec in self._pz_by_degree.get(m, []):
            sp.insert(dict(vec))
        if sp.rank == mono.size and self.saturated_at is None:
            self.saturated_at = m
        self._dbasis[m] = [c for c in range(mono.size) if c not in sp.rows]
        return sp


# ---------------------------------------------------------------------------
# Random presentations.

COEFFS = [-2, -1, -1, 1, 1, 2, Fraction(1, 2), Fraction(-1, 2)]


def random_homogeneous(rng, g, degree, terms):
    e = Element(QQ)
    for _ in range(terms):
        w = tuple(rng.randrange(g) for _ in range(degree))
        c = rng.choice(COEFFS)
        e = e + Element(QQ, {w: QQ.from_fraction(Fraction(c))})
    return e


def random_deformation_element(rng, g, top_degree, allow_low_top=False):
    """Inhomogeneous element with a nonzero top of the given degree and a
    sparse lower tail (possibly with a constant term)."""
    while True:
        top = random_homogeneous(rng, g, top_degree, rng.randint(1, 2))
        if not top.is_zero():
            break
    e = top
    for d in range(0, top_degree):
        if rng.random() < 0.4:
            e = e + random_homogeneous(rng, g, d, 1)
    return e


def random_presentation(rng, max_g=3, max_elems=4, max_degree=3,
                        tops_at_least_2=True):
    """Random deformation spanning set within the acceptance envelope:
    <= 3 generators, <= 4 elements of degree <= 3, Q coefficients."""
    g = rng.choice([1, 2, 2, 3])
    g = min(g, max_g)
    count = rng.randint(1, max_elems)
    low = 2 if tops_at_least_2 else 1
    elems = [random_deformation_element(rng, g, rng.randint(low, max_degree))
             for _ in range(count)]
    return g, elems


@pytest.fixture
def rng():
    return random.Random(20260810)
