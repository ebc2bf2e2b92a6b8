"""Shared oracles and generators.

The dense routines here are deliberately independent of pbwkit.linalg:
they use plain Fractions and naive Gaussian elimination so that engine
results are checked against a second arithmetic path.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from pbwkit.closure import Component
from pbwkit.deformation import FilteredSubspace, apply_alpha, minimize_relations, rp_of
from pbwkit.errors import InvalidPresentation
from pbwkit.extension import ExtensionEngine, engine_for
from pbwkit.freealg import Element, filtration_size, multiply, project
from pbwkit.gradedring import DEFAULT_MAX_DEGREE, GradedSubspace, PresentedRing
from pbwkit.linalg import QQ, RowSpace, left_kernel_basis, span


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
    gens = [Element(QQ, {(i,): QQ.one}) for i in range(g)]
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
                    span.append(multiply(Element(QQ, {left: QQ.one}),
                                         multiply(e, Element(QQ, {right: QQ.one}))))
    if not span:
        return 0
    return dense_span_dim(span, g, n)


# ---------------------------------------------------------------------------
# Thin views over pbwkit objects that only the tests read.

def scale(e, c):
    """c·e for a scalar c."""
    if not c:
        return Element(e.field)
    return Element(e.field, {w: c * s for w, s in e.terms.items()})


def leading_homogeneous(e):
    """LH(e) = p^{deg e}(e); LH(0) = 0."""
    d = e.degree()
    if d is None:
        return Element(e.field)
    return project(e, d)


# ---------------------------------------------------------------------------
# The Rees identity, read off D against A directly.

def rees_identity(a, d):
    """Check dim D^n = dim A^n + dim D^{n-1} on the tables a[n] = dim A^n
    and d[n] = dim D^n, n = 0, 1, ...

    Under regularity this follows from the exact sequences
    0 -> D^{n-1} --z--> D^n -> A^n -> 0; the first failing degree is a
    regularity witness.  Returns (holds, per_degree, first_failure).
    ``pbwkit rees`` reads its list off ann(z) instead."""
    per = [dn == an + prev for an, dn, prev in zip(a, d, [0] + d)]
    first_bad = per.index(False) if False in per else None
    return first_bad is None, per, first_bad


def rees_identity_check(engine, upto):
    """``rees_identity`` on the engine's tables for n <= upto."""
    return rees_identity(engine.a_dims(upto), [engine.dim_d(n) for n in range(upto + 1)])


def row_elements(P):
    """The reduced rows of a FilteredSubspace as Elements (``zelement``)."""
    return [zelement(P.g, P.max_degree, r, P.field) for r in P.space.reduced_basis()]


def image_elements(P, n):
    """alpha's images of R_P's degree-n reduced rows, in pivot order, as
    Elements: ``P.images[n]`` read through ``zelement``."""
    return [zelement(P.g, n, row, P.field) for row in P.images[n]]


def zword_at(g, n, pos):
    """The word w of the monomial w z^(n-|w|) at position ``pos`` of
    T[z]^n, where the word-degree blocks run from n down to 0, lex inside
    a block."""
    d = n
    while pos >= g ** d:
        pos -= g ** d
        d -= 1
    letters = []
    for _ in range(d):
        pos, letter = divmod(pos, g)
        letters.append(letter)
    return tuple(reversed(letters))


@functools.cache
def zcolumns(g, n):
    """word -> position of its monomial in T[z]^n, the inverse of
    ``zword_at``: the oracles' own column index of T[z]^n and T^{<=n},
    apart from pbwkit's ``WordBasis``."""
    return {zword_at(g, n, p): p for p in range(filtration_size(g, n))}


def homogenize(e):
    """The external homogenization e* in T[z] of a nonzero element of
    degree d, as {(w, k): s}: the term s·w gets z^k, k = d - |w|."""
    d = e.degree()
    return {(w, d - len(w)): s for w, s in e.terms.items()}


def eval_z(terms, value, field):
    """The T[z] element {(w, k): s} with z := value (a field scalar), as an
    Element of T: ev_1 recovers the inhomogeneous element, ev_0 its top
    part."""
    out = Element(field)
    for (w, k), s in terms.items():
        for _ in range(k):
            s = s * value
        out = out + Element(field, {w: s})
    return out


def pz_rows(P):
    """alpha_z as rows over T[z]^n, grouped by total degree n: the oracle
    for the engine's generator rows, rebuilt from P's span and not from
    its ``images``.  P's rows are brought to reduced echelon form by
    ``DenseEchelon`` over T^{<=d}, whose columns ``zword_at`` names; then
    the image alpha(r) of each R_P row r is the reduced row with top r
    (pivot order by degree, then lex), which is homogenized, and the
    monomial w z^k is placed at its column of T[z]^(|w|+k)
    (``zcolumns``)."""
    g, d, field = P.g, P.max_degree, P.field
    p = getattr(field, "p", None)
    dense = DenseEchelon(filtration_size(g, d), p)
    for row in P.space.basis():
        vec = [0] * dense.ncols
        for c, s in row.items():
            vec[c] = s if p is None else s.v
        dense.insert(vec)
    scalar = field.from_fraction if p is None else field.from_int
    out = {}
    for _, row in sorted(dense.reduced().items()):
        img = Element(field, {zword_at(g, d, c): scalar(s) for c, s in enumerate(row) if s})
        terms = homogenize(img)
        vec = {zcolumns(g, len(w) + k)[w]: s for (w, k), s in terms.items()}
        out.setdefault(img.degree(), []).append(vec)
    return out


def zterms(g, n, vec):
    """A row over T[z]^n read back as {(w, k): s}, the monomial at column c
    being w z^(n-|w|), w = ``zword_at(g, n, c)``."""
    words = ((zword_at(g, n, c), s) for c, s in vec.items())
    return {(w, n - len(w)): s for w, s in words}


def zelement(g, n, vec, field):
    """A vector over the columns of T^{<=n} as an Element, through
    ``zword_at``."""
    return Element(field, {zword_at(g, n, c): s for c, s in vec.items()})


@functools.cache
def lex_words(g, n):
    """The words of length n in lex order, from ``itertools.product``:
    the oracles' own index of the columns of T^n."""
    return tuple(product(range(g), repeat=n))


@functools.cache
def lex_columns(g, n):
    """word -> column in T^n, the inverse of ``lex_words``."""
    return {w: p for p, w in enumerate(lex_words(g, n))}


def quotient_positions(eng, n):
    """The positions of the D^n basis monomials: the non-pivots of
    <P_z>^n, ascending."""
    comp = eng.ideal_component(n)
    return [p for p in range(filtration_size(eng.g, n)) if p not in comp.rows]


def z_images(eng, n):
    """The images under multiplication by z of the engine's D^n basis
    monomials, each reduced in full modulo <P_z>^{n+1}: vectors over the
    T[z]^{n+1} positions of the D^{n+1} basis.  The oracle for
    ``annihilator_dim``: dim ann(z)^n is the number of images less their
    rank."""
    positions = quotient_positions(eng, n)
    nxt = eng.ideal_component(n + 1)
    zshift = eng.g ** (n + 1)
    # z * (w z^k) keeps the word part: the position moves by one block
    return [nxt.reduce_full({p + zshift: eng.field.one}) for p in positions]


def annihilator_basis(eng, n):
    """Basis of ann(z)^n in D^n, each vector a list of ((word, z-power),
    scalar) over the engine's quotient basis: the left kernel of its
    z-images."""
    images = z_images(eng, n)
    combos = left_kernel_basis(eng.field, images, filtration_size(eng.g, n + 1))
    positions = quotient_positions(eng, n)
    out = []
    for combo in combos:
        words = [(zword_at(eng.g, n, positions[k]), s) for k, s in sorted(combo.items())]
        out.append([((w, n - len(w)), s) for w, s in words])
    return out


def certified_cut_dim(eng, n):
    """dim(<P> ∩ T^{<=n}) as the union of the engine's cuts P_m ∩ T^{<=n},
    m >= n, run to m = n + dim T^{<=n}: an increasing chain in a space of
    that dimension makes at most that many strict steps."""
    width = filtration_size(eng.g, n)
    cut = 0
    if eng._pz_by_degree:
        for m in range(n, n + width + 1):
            cut = eng.cut_dim(m, n)
            if cut == width:
                break
    return cut


# ---------------------------------------------------------------------------
# Naive closures: every row of the previous space times every generator,
# then insert.  The oracles for the semi-naive ladder and engine steps.

def inserted(space):
    """The rows ``space`` inserted (not the left products it holds),
    sorted by pivot column: the rows N a closure step multiplies."""
    return [space.rows[c] for c in sorted(space._inserted)]


def representatives(space):
    """The representatives ``Component`` kept in ``space``, as (row, c,
    n), in the order the step stored them: the row is congruent to g·β
    modulo the left and central products, β a word of length n and c the
    column of lead(g)·β (``Closure.named`` in test_closure reads g and β
    off them).  A representative the step keeps by its pivot is read as
    the row ``space`` holds there."""
    if not isinstance(space, Component):
        return []
    return [(space.rows[rep] if type(rep) is int else rep, c, n) for rep, c, n in space.reps]


def copied(space):
    """An eager copy of ``space``: a new space that holds its stored rows
    as its own, inserted in pivot order.  They are echelon and normalised,
    so no insert reduces them; growing the copy leaves ``space`` as it is."""
    out = RowSpace(space.field)
    for row in space.raw_basis():
        out.insert(dict(row))
    return out


def mult_left_vec(g, n, i, vec):
    """x_i * vec over the columns of T^{<=n}, through the words at the
    columns (``zword_at``, ``zcolumns``)."""
    col = zcolumns(g, n)
    return {col[(i,) + zword_at(g, n, c)]: s for c, s in vec.items()}


def mult_right_vec(g, n, vec, i):
    """vec * x_i over the columns of T^{<=n}, through the words at the
    columns (``zword_at``, ``zcolumns``)."""
    col = zcolumns(g, n)
    return {col[zword_at(g, n, c) + (i,)]: s for c, s in vec.items()}


def suffix_start(g, n, d):
    """First column of the T^{<=d} suffix of the columns of T^{<=n}, d <=
    n: the number of words of degree d + 1..n."""
    return sum(g ** k for k in range(d + 1, n + 1))


def naive_ladder(P, upto):
    """(spaces, verdicts, witness) of the Jacobi ladder P_0..P_{upto+1}
    built by P_{k+1} = P_k + V·P_k + P_k·V + P^{<=k+1}, inserting the
    products of every row of P_k, then P's rows.  Stops at the first
    P_k = T^{<=k}.  (J_k) holds iff each row of P_{k+1} with a pivot in
    T^{<=k} lies in P_k.  For the least failing k >= 1 the witness is the
    first row of the reduced echelon form of (P_{k+1} ∩ T^{<=k}) modulo
    P_k: those rows, each reduced fully modulo P_k."""
    g, top, d = P.g, upto + 1, P.max_degree
    shift = suffix_start(g, top, d)     # P's columns are the last ones
    prows = [(len(zword_at(g, d, min(r))), {c + shift: s for c, s in r.items()})
             for r in P.space.raw_basis()]
    spaces = [RowSpace(P.field)]
    verdicts = {}
    witness = None
    for k in range(upto + 1):
        prev = spaces[k]
        nxt = copied(prev)
        for row in prev.raw_basis():
            for i in range(g):
                nxt.insert(mult_left_vec(g, top, i, row))
                nxt.insert(mult_right_vec(g, top, row, i))
        for deg, row in prows:
            if deg <= k + 1:
                nxt.insert(dict(row))
        spaces.append(nxt)
        if k >= 1:
            start = suffix_start(g, top, k)
            cut = [nxt.rows[c] for c in nxt.rows if c >= start]
            verdicts[k] = all(prev.contains(r) for r in cut)
            if witness is None and not verdicts[k]:
                rest = span(P.field, [prev.reduce_full(r) for r in cut])
                witness = zelement(g, top, rest.reduced_basis()[0], P.field)
        if nxt.rank == filtration_size(g, k + 1):
            break
    # a full P_k = T^{<=k} makes every later (J_k) hold
    verdicts.update(dict.fromkeys(range(len(spaces) - 1, upto + 1), True))
    return spaces, verdicts, witness


class NaiveEngine(ExtensionEngine):
    """The T[z] engine with the naive closure step: z·r, x_i·r and r·x_i
    inserted for every row r of <P_z>^{m-1}, then the degree-m part of
    P_z.  Products are moved through the words at their columns
    (``zcolumns``), and the cuts and dim D^n are counted on the rows of
    each component.  Its generator rows are the tests' own
    (``pz_rows``)."""

    def __init__(self, P):
        super().__init__(P)
        self.gens = pz_rows(P)

    def _step(self, m):
        g = self.g
        prev = self._ideal[m - 1]
        col = zcolumns(g, m)
        sp = RowSpace(self.field)
        for row in prev.raw_basis():
            words = [(zword_at(g, m - 1, c), s) for c, s in row.items()]
            # z·(w z^k) = w z^(k+1): the same word, one degree up
            sp.insert({col[w]: s for w, s in words})
            for i in range(g):
                sp.insert({col[(i,) + w]: s for w, s in words})
                sp.insert({col[w + (i,)]: s for w, s in words})
        for vec in self.gens.get(m, []):
            sp.insert(dict(vec))
        if sp.rank == len(col) and self.saturated_at is None:
            self.saturated_at = m
        return sp

    def cut_dim(self, m, n):
        width = filtration_size(self.g, n)
        if self._full(m):
            return width
        start = filtration_size(self.g, m) - width
        return sum(1 for c in self._ideal[m].rows if c >= start)

    def dim_d(self, n):
        return 0 if self._full(n) else filtration_size(self.g, n) - self._ideal[n].rank


# ---------------------------------------------------------------------------
# The pure-relations route: the (J'_0)..(J'_N) conditions of Braverman-
# Gaitsgory and Berger-Ginzburg, evaluated by formula with no ideal
# closure, an oracle for the (J_k) that ``check`` reads from the engine.

class NotPure(Exception):
    """The relations of the pure route lie in more than one degree."""


def intersection(field, a_rows, b_rows, offset):
    """Zassenhaus: vectors spanning span(a_rows) ∩ span(b_rows), a basis
    when ``b_rows`` are independent.  ``offset`` must exceed every column
    used.  The rows [a | a] are inserted first; a row [b | 0] whose left
    half then reduces to zero leaves an intersection vector in the tags
    (``RowSpace.relate``)."""
    sp = RowSpace(field)
    for r in a_rows:
        aug = dict(r)
        aug.update({c + offset: s for c, s in r.items()})
        sp.insert(aug)
    out = []
    for r in b_rows:
        x = sp.relate(r, offset)
        if x:
            out.append(x)
    return out


def overlap(rel_rows, g, n, field):
    """A basis of the overlap space X = (R (x) V) ∩ (V (x) R) in T^{n+1}
    for independent rows of R ⊆ T^n: r (x) x_i has the columns p*g + i,
    x_i (x) r the columns i*g^n + p, for the columns p of r."""
    rv = [{p * g + i: s for p, s in row.items()} for row in rel_rows for i in range(g)]
    vr = [{i * g ** n + p: s for p, s in row.items()} for row in rel_rows for i in range(g)]
    return intersection(field, rv, vr, g ** (n + 1))


def overlap_dimension(rel, g):
    """dim of (rel (x) V) ∩ (V (x) rel) in degree N+1 for N-pure rel."""
    degs = rel.degrees()
    if len(degs) != 1:
        raise NotPure("overlap needs a pure relation space")
    n = degs[0]
    return len(overlap(rel.blocks[n].basis(), g, n, rel.field))


def pure_jacobi_check(P):
    """The (J'_0)..(J'_N) conditions for P's alpha on an N-pure R_P (the
    Berger–Ginzburg and Cassidy–Shelton setting), plus the containment
    form (V P + P V)^{<=N} ⊆ P, P = alpha(rel), they are equivalent to.

    The conditions are evaluated on the overlap space X = (R⊗V) ∩ (V⊗R)
    with no solving: with r_k the reduced rows of R and π_k their pivots,
    the rows r_k⊗x_j and x_j⊗r_k are reduced echelon in T^{N+1}, with
    pivots π_k·g + j and j·g^N + π_k, so the coordinates of x in X are its
    entries at those columns; alpha_i(r_k) is p^{N-i} of r_k's image
    (``image_elements``).

    The containment is the Jacobi ladder's (J_N): for N-pure P the ladder
    has P_k = 0 for k < N and P_N = P, so P_{N+1} ∩ T^{<=N} ⊆ P_N says
    exactly (V P + P V)^{<=N} ⊆ P, and every (J_k) with k < N holds.  It
    is read from the T[z] engine of P as ann(z)^N = 0.

    Returns {"conditions": {i: bool}, "containment": bool, "equivalent": bool,
    "N": N}.
    """
    rel = rp_of(P)
    degs = rel.degrees()
    if len(degs) != 1:
        raise NotPure("pure route needs relations concentrated in one degree")
    N = degs[0]
    g = P.g
    field = P.field
    rows, images = rel.blocks[N].basis(), image_elements(P, N)
    pivots = [min(r) for r in rows]
    shift = g ** N                          # x_j (x) w sits at j·g^N + pos(w)

    @functools.cache
    def comp(k, i):
        """alpha_i(r_k)."""
        return project(images[k], N - i).terms

    def mixed(x_vec, i):
        """(V (x) alpha_i - alpha_i (x) V)(x) as an Element of degree N+1-i."""
        out = Element(field)
        for k, pk in enumerate(pivots):
            term = comp(k, i)
            for j in range(g):
                c = x_vec.get(j * shift + pk)           # x = ... + c·x_j r_k
                if c:
                    out = out + Element(field, {(j,) + w: c * s for w, s in term.items()})
                c = x_vec.get(pk * g + j)               # x = ... + c·r_k x_j
                if c:
                    out = out - Element(field, {w + (j,): c * s for w, s in term.items()})
        return out

    rel_space = rel.blocks[N]
    conditions = {i: True for i in range(N + 1)}
    for x_vec in overlap(rows, g, N, field):
        t1 = mixed(x_vec, 1)
        in_rel = t1.is_zero() or (t1.degree() == N and
                                  rel_space.contains(rel.vec_of(t1)))
        if not in_rel:
            conditions[0] = False
            continue
        # alpha(t1), whose p^{N-i} is alpha_i(t1)
        image = (zelement(g, N, P.apply(N, rel.vec_of(t1)), field)
                 if not t1.is_zero() else Element(field))
        for i in range(1, N + 1):
            lhs = project(image, N - i)
            rhs = -mixed(x_vec, i + 1) if i < N else Element(field)
            if lhs != rhs:
                conditions[i] = False

    # containment form: (V P + P V)^{<=N} ⊆ P is the ladder's (J_N)
    containment = engine_for(apply_alpha(P, rel)).annihilator_dim(N) == 0
    return {
        "N": N,
        "conditions": conditions,
        "containment": containment,
        "equivalent": all(conditions.values()) == containment,
    }


# ---------------------------------------------------------------------------
# Tor_3 rows over field scalars: the row builders of the resolution and the
# bar complex written with field arithmetic, the oracle for homology's
# integer rows.

def basis_words(ring, n):
    """The basis words of A^n as tuples, in position order: a thin view of
    ``PresentedRing.basis`` over ``lex_words``."""
    words = lex_words(ring.g, n)
    return [words[p] for p in ring.basis(n)[0]]


def naive_nf(ring, w):
    """Normal form of a word as {word: field scalar}."""
    words = lex_words(ring.g, len(w))
    red = ring.normal_form_vec(len(w), {lex_columns(ring.g, len(w))[w]: ring.field.one})
    return {words[p]: s for p, s in red.items()}


def _accumulate(out, col, s):
    c = out.get(col)
    c = s if c is None else c + s
    if c:
        out[col] = c
    else:
        out.pop(col, None)


def naive_strand(ring, n, m):
    """The chains of (A+)^(x)n in internal degree m as tuples of basis
    words, one for each composition of m into n positive degrees."""
    if n == 0:
        return [()] if m == 0 else []
    out = []
    for cuts in combinations(range(1, m), n - 1):
        degs = [b - a for a, b in zip((0,) + cuts, cuts + (m,))]
        out.extend(product(*[basis_words(ring, d) for d in degs]))
    return out


def naive_bar_rows(ring, dom, below):
    """The bar differential d(a_1|...|a_k) = sum (-1)^(i-1) (merge at i)
    of each tuple chain of ``dom``, as rows with field scalars over the
    positions of the chains ``below``."""
    index = {t: j for j, t in enumerate(below)}
    nfs = {}
    rows = []
    for chain in dom:
        out = {}
        for i in range(len(chain) - 1):
            sign = 1 if i % 2 == 0 else -1
            w = chain[i] + chain[i + 1]
            if w not in nfs:
                nfs[w] = naive_nf(ring, w)
            for e, beta in nfs[w].items():
                key = chain[:i] + (e,) + chain[i + 2:]
                _accumulate(out, index[key], beta if sign == 1 else -beta)
        rows.append(out)
    return rows


def naive_tor_bar(ring, n, bound):
    """dim Tor_{n,m}, m <= bound, from bar rows built with field scalars
    over tuple chains."""
    dims = {}
    for m in range(n, bound + 1):
        strands = [naive_strand(ring, k, m) for k in (n - 1, n, n + 1)]
        ranks = [span(ring.field, naive_bar_rows(ring, dom, below)).rank
                 for below, dom in (strands[:2], strands[1:])]
        d = len(strands[1]) - sum(ranks)
        if d:
            dims[m] = d
    return dims


def naive_d2_row(ring, rel_row, a_word, codomain_index):
    """d2(a (x) r) over the (b_word, letter) codomain, with field scalars,
    for a relation r given as {word: scalar}."""
    out = {}
    for w, s in rel_row.items():
        for e, beta in naive_nf(ring, a_word + w[:-1]).items():
            _accumulate(out, codomain_index[(e, w[-1])], s * beta)
    return out


def naive_tor3_resolution(ring, rel, bound):
    """dim Tor_{3,m} = dim K2^m - dim A^1 K2^{m-1}, m <= bound, from d2
    rows built with field scalars and monic relation rows."""
    dims = {}
    prev = None
    for m in range(3, bound + 1):
        codomain = {(b, i): k for k, (b, i) in enumerate(
            (b, i) for b in basis_words(ring, m - 1) for i in range(ring.g))}
        domain, rel_rows = [], {}
        for j in rel.degrees():
            if j > m:
                continue
            words = lex_words(ring.g, j)
            for ridx, row in enumerate(rel.blocks[j].basis()):
                rel_rows[(j, ridx)] = {words[p]: s for p, s in row.items()}
                domain.extend((a, (j, ridx)) for a in basis_words(ring, m - j))
        rows = [naive_d2_row(ring, rel_rows[rk], a, codomain) for a, rk in domain]
        ker = left_kernel_basis(ring.field, rows, len(codomain))
        moved = RowSpace(ring.field)
        if prev is not None:
            prev_domain, prev_ker = prev
            dom_index = {key: k for k, key in enumerate(domain)}
            for v in prev_ker:
                for i in range(ring.g):
                    out = {}
                    for col, s in v.items():
                        a, rk = prev_domain[col]
                        for e, beta in naive_nf(ring, (i,) + a).items():
                            _accumulate(out, dom_index[(e, rk)], s * beta)
                    if out:
                        moved.insert(out)
        if len(ker) - moved.rank:
            dims[m] = len(ker) - moved.rank
        prev = (domain, ker)
    return dims


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


def to_field(field, elems):
    """Elements over Q converted to ``field``."""
    return [Element(field, {w: field.from_fraction(s) for w, s in e.terms.items()})
            for e in elems]


def acceptance_sample(rng, tops_at_least_2=True):
    """(g, elements, P): the next presentation of the acceptance sampler
    with P != 0 and, by default, R_P in degrees >= 2."""
    while True:
        g, elems = random_presentation(rng, tops_at_least_2=tops_at_least_2)
        try:
            P = FilteredSubspace(g, elems)
        except InvalidPresentation:
            continue
        if P.dim == 0:
            continue
        if tops_at_least_2:
            rp = rp_of(P)
            if rp.degrees() and rp.degrees()[0] < 2:
                continue
        return g, elems, P


def sampled(rng, field):
    """A sampler presentation converted to ``field``, as a filtered
    subspace; spans that are zero or contain a constant there are
    skipped."""
    while True:
        g, elems = random_presentation(rng, tops_at_least_2=rng.random() < 0.7)
        elems = to_field(field, elems)
        try:
            P = FilteredSubspace(g, elems, field)
        except InvalidPresentation:
            continue
        if P.dim:
            return P


def sampler_rings(field, count, seed=20260810 + 2):
    """The first ``count`` rings A = T/<R> of the seeded acceptance sampler
    whose minimized relations R are nonzero, over ``field``."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g, elems = random_presentation(rng)
        elems = to_field(field, elems)
        try:
            P = FilteredSubspace(g, elems, field)
        except InvalidPresentation:
            continue
        rp = rp_of(P)
        if P.dim == 0 or (rp.degrees() and rp.degrees()[0] < 2):
            continue
        rel = minimize_relations(rp)
        if rel.degrees():
            out.append((PresentedRing(g, rel, field), rel))
    return out


def ambient_sample(rng, field):
    """(g, ambient, deformation) over ``field``: a random presentation over
    a quotient F/<K0>, g in {2, 3}, with one to three nonzero ambient
    relations of degree 2 or 3 and one to three deformation elements of
    top degree 2 or 3."""
    g = rng.choice([2, 3])
    ambient = []
    while not ambient:
        ambient = [e for e in (random_homogeneous(rng, g, rng.choice([2, 3]), 2)
                               for _ in range(rng.randint(1, 3))) if not e.is_zero()]
    deformation = [random_deformation_element(rng, g, rng.choice([2, 3]))
                   for _ in range(rng.randint(1, 3))]
    return g, to_field(field, ambient), to_field(field, deformation)


def lift_rp_oracle(g, ambient, deformation, field):
    """R_P of the lift of a presentation over F/<K0>, from two spaces: the
    R_P of a FilteredSubspace of sigma(P), with the rows of the minimized
    K0 inserted after it.  ``lift_presentation`` reads R_P off the one
    lifted P instead, which is exact only because sigma(P) lies on normal
    words."""
    k0 = minimize_relations(GradedSubspace.from_elements(g, ambient, field))
    ring = PresentedRing(g, k0, field, max([DEFAULT_MAX_DEGREE] + [
        e.degree() for e in deformation if not e.is_zero()]))
    sigma = []
    for e in deformation:
        total = Element(field)
        for n in range(e.degree() + 1 if not e.is_zero() else 0):
            total = total + ring.normal_form(project(e, n))
        if not total.is_zero():
            sigma.append(total)
    rel = rp_of(FilteredSubspace(g, sigma, field)) if sigma else GradedSubspace(g, field)
    for e in k0.elements():
        rel.insert_element(e)
    return rel


@pytest.fixture
def rng():
    return random.Random(20260810)
