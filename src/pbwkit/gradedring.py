"""Per-degree engine for a presented connected graded ring F/<G>.

All computations are degree-local.  The graded ideal component I^n comes
from the one below it by the recursion

    I^n = F¹I^{n-1} + span{ĉ(g, β)},

where g runs over the relations G and β over the words of length
n - deg g that are not a pivot of I^{|β|} (the standard words), ĉ(g, β)
being congruent to g·β modulo F¹I^{n-1}.  It is the T[z] engine's
recursion with no z, exact by the same proof (``closure.Component``).
Left multiplication by x_i moves column c to i g^{n-1} + c and right
multiplication moves it to c g + i; both keep columns distinct and in
order.  One degree is one ``closure.Component`` over the g^n columns,
which moves left and right products itself, holds F¹I^{n-1} as pivot
bytes and inserts only the ĉ(g, β) and G^n.  The degree-n basis of the
quotient is the set of non-pivot words of I^n (the pivot-greedy
complement), so normal forms are canonical full reductions and quotient
multiplication is word concatenation followed by a normal form.

Basis words are served as positions: ``basis(n)`` gives the ascending
positions of the non-pivot words of I^n and the rank of each, and
``nf_word(n, p)`` the integer normal form of the word at position p over
those ranks.  Both Tor routes read this one cache, so a row is built by
position arithmetic (u·v sits at pos(u) g^|v| + pos(v)) and rank lookups,
never from word tuples.
"""

from __future__ import annotations

from itertools import compress

from .errors import (InvariantViolation, NotHomogeneous, ResourceExceeded,
                     ValidationError)
from .freealg import Element, graded_size, lex_pos, lex_word
from .closure import Component
from .linalg import QQ, RowSpace

DEFAULT_MAX_DEGREE = 10


class GradedSubspace:
    """Graded subspace of the free algebra: one echelon block per degree.

    Blocks are RowSpaces over the lex word basis of each homogeneous
    component T^n, the first block of ``freealg.WordBasis(g, n)``; absent
    degrees are zero.
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
        """e over the g^n lex columns of T^n, n = deg e; a word of another
        degree would take another word's column, so it is refused."""
        graded_size(self.g, e.degree())
        if not e.is_homogeneous():
            raise ValidationError("word degree mismatch")
        return {lex_pos(w, self.g): s for w, s in e.terms.items()}

    def element_of(self, n, vec):
        return Element(self.field, {lex_word(p, self.g, n): s for p, s in vec.items()})

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
        return all(self.blocks[n].equals_space(other.blocks[n])
                   for n in self.degrees())


def graded_ideal_step(chain, gens_block, g, n1, field):
    """Echelon basis of I^{n1} = F¹I^{n1-1} + span{ĉ(g, β)} (see the
    module docstring); ``chain[m]`` is the echelon basis of I^m for m < n1
    and ``gens_block`` the degree-n1 generator block, or None (then the
    result is F¹I^{n1-1} + I^{n1-1}F¹).  The word of length n with lex
    index i is at position i of I^n."""
    return Component(field, chain[n1 - 1], g, n1, graded_size(g, n1),
                     gens_block.raw_basis() if gens_block is not None else (), chain)


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
        self._basis = {}        # n -> (positions, {position: rank})
        self._nf = {}           # n -> {reduced position: (integer {rank: c}, d)}

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

    def basis(self, n):
        """The basis of A^n: the ascending positions of the non-pivot words
        of I^n, and {position: rank} over them."""
        got = self._basis.get(n)
        if got is None:
            keep = bytearray(b"\1") * self.g ** n
            for p in self.ideal_component(n).rows:
                keep[p] = 0
            positions = list(compress(range(self.g ** n), keep))
            got = positions, {p: k for k, p in enumerate(positions)}
            self._basis[n] = got
        return got

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
        # vec_of refuses g^n columns above the guard before any component
        red = self.normal_form_vec(n, self.relations.vec_of(e))
        return self.relations.element_of(n, red)

    def nf_word(self, n, p):
        """Normal form of the word at position p of degree n as (integer
        {rank: c}, d) with d > 0 over the ranks of ``basis(n)``: the normal
        form is the dict divided by d.  Over F_p the integers are residues
        and d = 1.  A basis word is its own normal form, with no reduction
        and no cache entry: the cache holds only the words it reduced.  A
        remainder column outside the basis raises InvariantViolation."""
        cache = self._nf.get(n)
        if cache is None:
            cache = self._nf[n] = {}
        got = cache.get(p)
        if got is None:
            rank = self.basis(n)[1]
            k = rank.get(p)
            if k is not None:
                return {k: 1}, 1
            red, d = self.ideal_component(n).reduce_full({p: 1}, integers=True)
            nf = {}
            for c, s in red.items():
                k = rank.get(c)
                if k is None:
                    raise InvariantViolation(f"normal form of word {p} of degree {n} "
                                             f"has column {c} outside the basis")
                nf[k] = s
            got = cache[p] = nf, d
        return got

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
            return HilbertData(values, True, c_a)
        return HilbertData(values, False, upto - 1)


class HilbertData:
    def __init__(self, values, finite_dim, c_a):
        self.values = values
        self.finite_dim = finite_dim
        self.c_a = c_a

    def __repr__(self):
        tail = f"c_A={self.c_a}" if self.finite_dim else f"c_A>={self.c_a} (unbounded-unknown)"
        return f"HilbertData({self.values}, finite_dim={self.finite_dim}, {tail})"


def ideal_chain(rel, upto):
    """Echelon bases of <rel>^n for n = 0..upto, by the degree recursion."""
    chain = [RowSpace(rel.field)]
    for n in range(1, upto + 1):
        chain.append(graded_ideal_step(chain, rel.blocks.get(n), rel.g, n, rel.field))
    return chain

