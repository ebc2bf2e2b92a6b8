"""Per-degree engine for a presented connected graded ring F/<G>.

All computations are degree-local.  The graded ideal component I^n comes
from the two below it by the recursion

    I^n = F¹I^{n-1} + N F¹ + G^n,

where N is the set of rows the step for I^{n-1} inserted, i.e. the rows
of I^{n-1} that are not in F¹I^{n-2}.  It is exact for any echelon bases:
F¹I^{n-2} is stored in I^{n-1} as it is, so it and span(N) have disjoint
leading columns and together span I^{n-1}; and F¹I^{n-2}F¹ ⊆ F¹I^{n-1},
so of I^{n-1}F¹ only N F¹ is new.  Left multiplication by x_i moves
column c to i g^{n-1} + c, which keeps columns distinct and in order, so
F¹I^{n-1} is stored shifted (``RowSpace.store_shifted``: recorded, and a
moved row is built only when a reduction first reads it); only N F¹ and
G^n are reduced.  The degree-n basis of the quotient is the set of
non-pivot words of I^n (the pivot-greedy complement), so normal forms are
canonical full reductions and quotient multiplication is word
concatenation followed by a normal form.
"""

from __future__ import annotations

from .errors import (InvariantViolation, NotHomogeneous, ResourceExceeded,
                     ValidationError)
from .freealg import DegreeBasis, Element, column_guard
from .linalg import QQ, RowSpace

DEFAULT_MAX_DEGREE = 10


class GradedSubspace:
    """Graded subspace of the free algebra: one echelon block per degree.

    Blocks are RowSpaces over the lex word basis of each homogeneous
    component; absent degrees are zero.
    """

    def __init__(self, g, field=QQ):
        self.g = g
        self.field = field
        self.blocks = {}

    @classmethod
    def from_elements(cls, g, elements, field=QQ):
        sub = cls(g, field)
        for e in elements:
            if e.is_zero():
                continue
            if not e.is_homogeneous():
                raise NotHomogeneous(f"not homogeneous: {e!r}")
            sub.insert_element(e)
        return sub

    def insert_element(self, e):
        n = e.degree()
        self.block(n).insert(self.vec_of(e))

    def block(self, n):
        sp = self.blocks.get(n)
        if sp is None:
            sp = RowSpace(self.field)
            self.blocks[n] = sp
        return sp

    def vec_of(self, e):
        n = e.degree()
        basis = DegreeBasis(self.g, n)
        return {basis.pos(w): s for w, s in e.terms.items()}

    def element_of(self, n, vec):
        basis = DegreeBasis(self.g, n)
        return Element(self.field, {basis.word_at(p): s for p, s in vec.items()})

    def dim(self, n):
        sp = self.blocks.get(n)
        return sp.rank if sp else 0

    def degrees(self):
        return sorted(n for n, sp in self.blocks.items() if sp.rank)

    def max_degree(self):
        degs = self.degrees()
        return degs[-1] if degs else -1

    def elements(self):
        out = []
        for n in self.degrees():
            for row in self.blocks[n].basis():
                out.append(self.element_of(n, row))
        return out

    def equals(self, other):
        if self.degrees() != other.degrees():
            return False
        for n in self.degrees():
            a, b = self.blocks[n], other.blocks[n]
            if a.rank != b.rank or not a.contains_space(b):
                return False
        return True


def _shift_right(vec, i, g):
    return {p * g + i: s for p, s in vec.items()}


def graded_ideal_step(chain, gens_block, g, n1, field):
    """Echelon basis of I^{n1} = F¹I^{n1-1} + N F¹ + G^{n1} (see the module
    docstring); ``chain[m]`` is the echelon basis of I^m for m < n1 and
    ``gens_block`` the degree-n1 generator block, or None."""
    if g ** n1 > column_guard():
        raise ResourceExceeded(f"degree {n1} needs {g ** n1} columns")
    sp = RowSpace(field)
    prev = chain[n1 - 1]
    for i in range(g):
        sp.store_shifted(prev, i * g ** (n1 - 1))
    # right-multiply only N, the rows the previous step inserted
    for row in prev.inserted():
        for i in range(g):
            sp.insert(_shift_right(row, i, g))
    if gens_block is not None:
        for row in gens_block.raw_basis():
            sp.insert(row)
    return sp


class PresentedRing:
    """Connected graded ring F/<G>, F free on g generators, G homogeneous
    in degrees >= 2.  Caches ideal components, quotient bases (built on
    first request) and normal forms; the cache is append-only and owned by
    this instance."""

    def __init__(self, g, relations, field=QQ, max_degree=DEFAULT_MAX_DEGREE):
        if g < 1:
            raise ValidationError("need at least one generator")
        for n in relations.degrees() if relations else []:
            if n < 2:
                raise ValidationError("ring relations must have degree >= 2")
        self.g = g
        self.field = field
        self.relations = relations if relations is not None else GradedSubspace(g, field)
        self.max_degree = max_degree
        self._ideal = {0: RowSpace(field), 1: RowSpace(field)}
        self._top = 1
        self._basis_words = {}
        self._nf_cache = {}

    def ideal_component(self, n):
        """Echelon basis of <G>^n; dim I^n + h(n) = g^n."""
        if n < 0:
            raise ValidationError("negative degree")
        if n > self.max_degree:
            raise ResourceExceeded(
                f"degree {n} above hard cap {self.max_degree} for this ring")
        for m in range(self._top + 1, n + 1):
            sp = graded_ideal_step(self._ideal, self.relations.blocks.get(m),
                                   self.g, m, self.field)
            self._ideal[m] = sp
            self._top = m
            if sp.rank < self.g ** m and self._ideal[m - 1].rank == self.g ** (m - 1):
                # strong grading: once a component dies it stays dead
                raise InvariantViolation(f"strong grading violated in degree {m}")
        return self._ideal[n]

    def hilbert_value(self, n):
        return self.g ** n - self.ideal_component(n).rank

    def basis_words(self, n):
        """Words spanning the degree-n complement B^n (non-pivot words)."""
        words = self._basis_words.get(n)
        if words is None:
            pivots = set(self.ideal_component(n).rows)
            basis = DegreeBasis(self.g, n)
            words = [basis.word_at(p) for p in range(basis.size) if p not in pivots]
            self._basis_words[n] = words
        return words

    def normal_form_vec(self, n, vec):
        """Canonical representative of vec + I^n on the non-pivot words."""
        return self.ideal_component(n).reduce_full(vec)

    def normal_form(self, e):
        """Coordinates of e + I^n in the complement basis B^n, as an Element
        supported on basis words; zero iff e lies in the ideal."""
        if e.is_zero():
            return e
        if not e.is_homogeneous():
            raise NotHomogeneous("normal_form needs a homogeneous element")
        n = e.degree()
        basis = DegreeBasis(self.g, n)
        vec = {basis.pos(w): s for w, s in e.terms.items()}
        red = self.normal_form_vec(n, vec)
        return Element(self.field, {basis.word_at(p): s for p, s in red.items()})

    def nf_word(self, w):
        """Normal form of a single word as (integer {word: n}, d) with
        d > 0: the normal form is the dict divided by d.  Over F_p the
        integers are residues and d = 1."""
        cached = self._nf_cache.get(w)
        if cached is None:
            n = len(w)
            basis = DegreeBasis(self.g, n)
            red, d = self.ideal_component(n).reduce_full({basis.pos(w): 1}, integers=True)
            cached = ({basis.word_at(p): s for p, s in red.items()}, d)
            self._nf_cache[w] = cached
        return cached

    def hilbert(self, upto):
        """Hilbert values h(0..upto) plus the finite-dimension flag and the
        top-degree complexity c_A = sup{n-1 : A^n != 0}.

        When some h(n) = 0 the strong grading kills all later degrees, so
        finite_dim and c_A are certified; otherwise c_A is only known to be
        >= upto - 1.  No component is built past the degree after the first
        zero (which still checks the strong grading); later values are 0.
        """
        values = []
        for n in range(upto + 1):
            values.append(self.hilbert_value(n))
            if n and values[-2] == 0:
                break
        values += [0] * (upto + 1 - len(values))
        finite = any(v == 0 for v in values)
        if finite:
            last_nonzero = max(n for n, v in enumerate(values) if v) if any(values) else None
            c_a = last_nonzero - 1 if last_nonzero is not None else -1
            return HilbertData(values, True, c_a, certified=True)
        return HilbertData(values, False, upto - 1, certified=False)


class HilbertData:
    def __init__(self, values, finite_dim, c_a, certified):
        self.values = values
        self.finite_dim = finite_dim
        self.c_a = c_a
        self.certified = certified

    def __repr__(self):
        tail = f"c_A={self.c_a}" if self.certified else f"c_A>={self.c_a} (unbounded-unknown)"
        return f"HilbertData({self.values}, finite_dim={self.finite_dim}, {tail})"


def ideal_chain(rel, upto):
    """Echelon bases of <rel>^n for n = 0..upto, by the degree recursion."""
    chain = [RowSpace(rel.field)]
    for n in range(1, upto + 1):
        chain.append(graded_ideal_step(chain, rel.blocks.get(n), rel.g, n, rel.field))
    return chain


def tilde_block(chain, g, n, field):
    """F^1 I^{n-1} + I^{n-1} F^1 from the echelon bases chain[m] of I^m,
    m < n."""
    return graded_ideal_step(chain, None, g, n, field)


def minimal_complement(rel):
    """A graded complement of (rel ∩ Ĩ) inside rel, where Ĩ = F¹I + IF¹ and
    I = <rel>: a bimodule of relations generating the same ideal.  Rows are
    picked greedily from rel's reduced bases in pivot order, so the result
    is deterministic."""
    d = rel.max_degree()
    if d < 0:
        return GradedSubspace(rel.g, rel.field)
    chain = ideal_chain(rel, d)
    out = GradedSubspace(rel.g, rel.field)
    for n in rel.degrees():
        acc = tilde_block(chain, rel.g, n, rel.field)
        keep = out.block(n)
        for row in rel.blocks[n].reduced_basis():
            if acc.insert(dict(row)) is not None:
                keep.insert(dict(row))
    return out


def is_minimal_relations(rel):
    """True iff rel ∩ (F¹<rel> + <rel>F¹) = 0 degree-wise."""
    comp = minimal_complement(rel)
    return all(comp.dim(n) == rel.dim(n) for n in rel.degrees())
