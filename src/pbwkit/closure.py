"""Graded ideal closures, one component at a time (``Component``).

A component I^m holds the left products V·I^{m-1} without copying
them: x_i· keeps columns distinct and in order, so the products stay
echelon and normalised and are not reduced.  It keeps its pivots as one
byte per column, the blocks of I^{m-1}'s bytes repeated g times
(``_Layout``), and its hook ``RowSpace._source`` builds a product row
from the row below it the first time a reduction or a reader needs it;
the row is kept.  It holds every other product whose leading column is
free when it comes the same way, as the row or pivot it moves and the
move, built normalised as ``RowSpace._put`` stores rows.  The graded
ideal recursions read few of those rows (under 5% on the
``random-homology`` benchmark workload).  An empty I^0 is a plain
``RowSpace``.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Mapping
from functools import cache
from itertools import accumulate, compress, count
from operator import itemgetter

from .errors import InvariantViolation
from .linalg import RowSpace


class _Layout:
    """The blocks of the columns of I^m that left products fill, by word
    degree from m down: T[z]^m (``size`` F(m) = g·F(m-1) + 1, blocks of
    degree m..1 and the z^m column after them) or T^m (``size`` g^m, one
    block).  x_i· sends the block of I^{m-1} at start/g, of width w, to
    columns start + i·w .. start + (i+1)·w - 1 of the block at start, in
    order; the source of a column drops its word's first letter."""

    __slots__ = ("g", "starts", "subs", "units", "offs")

    def __init__(self, g, m, size):
        # the blocks of I^{m-1} that move: their widths and starts
        self.g, self.units = g, [g ** (m - 1 - k) for k in range(m if size > g ** m else 1)]
        self.subs = list(accumulate(self.units[:-1], initial=0))
        self.starts, self.offs = [g * t for t in self.subs], {}

    def mask(self, below, size):
        """The pivot bytes of x_0·I^{m-1} + ... + x_{g-1}·I^{m-1} over the
        ``size`` columns of I^m, from those of I^{m-1} (``below``)."""
        out = bytearray().join([below[t:t + u] * self.g for t, u in zip(self.subs, self.units)])
        out.extend(bytes(size - len(out)))
        return out

    def source(self, c):
        """(i, c') with column c of I^m = x_i · column c' of I^{m-1}."""
        k = bisect_right(self.starts, c) - 1
        i, p = divmod(c - self.starts[k], self.units[k])
        return i, self.subs[k] + p

    def move(self, row, i):
        """x_i·row for a row of I^{m-1}."""
        subs, offs = self.subs, self.offs.get(i)
        if offs is None:    # offs[k + 1] moves block k, k + 1 = bisect_right(subs, c)
            offs = self.offs[i] = [None] + [(self.g - 1) * t + i * u
                                            for t, u in zip(subs, self.units)]
        return {c + offs[bisect_right(subs, c)]: s for c, s in row.items()}


_layout = cache(_Layout)     # one per (g, m, size), shared by the steps of every closure


class _AllRows(Mapping):
    """Read-only view of a component: pivot column -> stored integer row.
    Membership and iteration read the pivot bytes without building the
    products it holds; a lookup builds the row once and keeps it."""

    __slots__ = ("_space",)

    def __init__(self, space):
        self._space = space

    def __getitem__(self, c):
        row = self._space.row(c)
        if row is None:
            raise KeyError(c)
        return row

    def __contains__(self, c):
        return self._space.is_pivot(c)

    def __iter__(self):
        return compress(count(), self._space.mask)

    def __len__(self):
        return self._space.rank


class Component(RowSpace):
    """One degree of a graded ideal closure, by standard words:

        I^m = V·I^{m-1} + z·N + span{ĉ(g, β)},

    where ``prev`` is I^{m-1} (a component, or empty), N the rows
    ``prev`` inserted, g runs over the generators and β over the
    standard words of length m - deg g: the words that are not a pivot
    of the finished component I^{|β|} = ``comps[|β|]``, the word of
    length n with lex index i being at column i of I^n.  ĉ(g, β) is any
    element congruent to g·β modulo V·I^{m-1} + z·I^{m-1}.  The columns
    of I^m are those of T[z]^m, ``size`` = |T[z]^m|, or, with no z, those
    of T^m, ``size`` = g^m (``_Layout``, over g letters).  z· moves a
    column by the g^m columns of word degree m, and ·x moves column c to
    g·c + x in both layouts (|T[z]^n| = g·|T[z]^{n-1}| + 1).  ``gens``
    are the rows of the generators of degree m, which lead at distinct
    columns of word degree m.

    A product g·β·z^k of degree m has the signature (column of
    lead(g)·β·z^k, |β|), which names it; left, right and z multiplication
    keep the order of signatures strict (·x: c -> g·c + x; z·: c -> c +
    g^m).  The left products of ``prev`` are held as they are.  Then the
    central products z·r go in, r in N standing for the product σ' its
    step stored it for, and then the candidates: ĉ(g, β')·x for each
    representative ĉ(g, β') that ``prev`` keeps and each letter x with
    β'x standard, and the generators, ĉ(g, ∅) = g.  Each part goes in
    strictly descending signature, the central ones all larger (columns
    >= g^m).  A central product (g, β₀ω, k) is skipped when (g, β₀, k₀),
    k₀ <= k, reduced to zero in a lower degree; only one whose leading
    column is a pivot is tested, as a skipped product would reduce to
    zero.  A candidate stays a ĉ(g, β) along its leading chain until it
    meets a pivot that another candidate inserted, and is kept there as
    the representative for the next degree; one that reduces to zero
    keeps none, so none of its multiples is made.

    This is exact.  Let Z(σ) be V·I^{m-1} plus the span of the products
    of degree m of larger signature; the space built before σ lies in
    Z(σ).  Each σ lies in Z(σ) or has a row that is a nonzero multiple of
    it modulo Z(σ):

    (a) I^m = V·I^{m-1} + span{g·β·z^k}, z being central.
    (b) If β = ω·lead(h)·ω' for a monic h in I, g·β = g·ω·h·ω' -
        g·ω·(h - lead h)·ω' lies in V·I^{m-1} + z·I^{m-1} plus products
        of larger signature.
    (c) I^{m-1} = V·I^{m-2} + span(N) and z·V = V·z, so z·I^{m-1} ⊆
        V·I^{m-1} + z·N.  z·r is a nonzero multiple of z·σ' modulo
        Z(z·σ'), and z·σ' lies in z·Z(σ') ⊆ Z(z·σ') when σ' has no row.
        So before the candidates the space is V·I^{m-1} + z·I^{m-1},
        which lies in Z(σ) for every candidate σ.
    (d) A standard (g, β) whose candidate reduced to zero or was never
        made lies in V·I^{m-1} + z·I^{m-1} plus products of larger
        signature: one never made is (g, β₀x) with (g, β₀) such a pair
        in the degree below, and right multiplication by x carries the
        relation up.
    (e) A central product of degree d that reduced to zero lies in Z of
        its signature; right multiplication by ω·z^(k-k₀) maps V·I^{d-1}
        into V·I^{m-1} and keeps signatures strictly ordered, so a
        skipped product lies in Z of its signature too.

    The product of largest signature outside the component would have Z
    of its signature inside it, and so itself: the component is I^m.

    One kernel reduction serves the stored row and the representative
    (``RowSpace._reduce`` with ``stop``).  Every product is a move of a
    row or representative with a leading column known from its source,
    and goes through ``take``, which holds it unbuilt when that column
    is no pivot.  ``check`` takes 55 elimination steps on U(gl2) to
    degree 8 and 1 038 on U(gl3) to degree 6.

    ``mask`` holds the pivot bytes, which only the next step reads as
    they are.  A left product of a row of ``below`` (I^{m-1}) is held by
    its byte alone, any other product on a free column as (src, a, b) in
    ``held``: the row src, or the row of ``below`` with pivot src, moved
    by column k -> a·k + b.  ``reps``: the representatives (ĉ(g, β), c,
    |β|) in descending signature, ĉ(g, β) a row read partway or the pivot
    of the stored row.  ``sigs`` (None over T^m): (k, c, |β|, pivot) for
    each inserted row, the product g·β·z^k it stands for, c the column of
    lead(g)·β in the words of its length.  ``zeros``: (deg g, |β|, c) ->
    the least k of a central g·β·z^k that reduced to zero, one map for
    the steps of a closure."""

    __slots__ = ("mask", "_shifted", "below", "layout", "held", "reps", "sigs", "zeros")

    def __init__(self, field, prev, g, m, size, gens, comps):
        super().__init__(field)
        layout = self.layout = _layout(g, m, size)
        if isinstance(prev, Component):
            below, zeros, sigs_below, reps_below = prev.mask, prev.zeros, prev.sigs, prev.reps
        else:       # an empty I^0 keeps nothing
            below, zeros, sigs_below, reps_below = bytearray(sum(layout.units)), {}, (), ()
        mask = self.mask = layout.mask(below, size)
        self._shifted, self.below, self.held, self.reps = g * prev.rank, prev, {}, []
        z, self.zeros = g ** m, zeros
        sigs = self.sigs = [] if size > z else None        # None: no z, no central products
        take = self.take
        for k, c, n, src in sorted(sigs_below, reverse=True) if sigs is not None else ():
            lead, d = src + z, m - 1 - k - n
            if mask[lead] and zeros and any(zeros.get((d, n - j, c // g ** j), m) <= k + 1
                                            for j in range(n + 1)):
                continue
            lead = take(lead, src, 1, z, ())[0]
            if lead is None:
                zeros.setdefault((d, n, c), k + 1)
            else:
                sigs.append((k + 1, c, n, lead))
        # (c, |β|, the row or pivot to move by x, its leading column, a, b)
        cands = [(min(v), 0, v, min(v), 1, 0) for v in (self._ints(vec)[0] for vec in gens)]
        for src, c, n in reps_below:
            lead, std, i = src if type(src) is int else min(src), comps[n + 1], (c % g ** n) * g
            cands += [(g * c + x, n + 1, src, g * lead + x, g, x)
                      for x in range(g) if not std.is_pivot(i + x)]
        cands.sort(key=itemgetter(0, 1), reverse=True)
        made = set()              # the pivots the candidates inserted
        reps = self.reps
        for c, n, src, lead, a, b in cands:
            lead, rep = take(lead, src, a, b, made)
            if lead is not None:
                made.add(lead)
                reps.append((lead if rep is None else rep, c, n))
                if sigs is not None:
                    sigs.append((0, c, n, lead))

    @property
    def rank(self):
        return self._shifted + len(self._inserted)

    @property
    def rows(self):
        return _AllRows(self)

    def is_pivot(self, c):
        mask = self.mask
        return c < len(mask) and mask[c] == 1

    def _put(self, vec, lead):
        """Store a row as ``RowSpace._put`` does, and set its pivot byte."""
        self._rows[lead] = self._normal(vec, lead)
        self._inserted.append(lead)
        self.mask[lead] = 1

    def _from_below(self, src, c):
        row = self.below.row(src)
        if row is None:
            raise InvariantViolation(f"pivot {c} has no row {src} below it")
        return row

    def _source(self, c):
        """The unbuilt row with pivot c, or None when c is no pivot; a move
        of a row of ``below`` is normalised already."""
        held = self.held.pop(c, None)
        if held is not None:
            src, a, b = held
            if type(src) is dict:
                return self._normal({a * k + b: s for k, s in src.items()}, c)
            return {a * k + b: s for k, s in self._from_below(src, c).items()}
        mask = self.mask
        if c >= len(mask) or not mask[c]:
            return None
        i, src = self.layout.source(c)
        return self.layout.move(self._from_below(src, c), i)

    def take(self, lead, src, a, b, stop):
        """Store the product src moved by k -> a·k + b (src as in
        ``held``), which leads at ``lead``, as ``_reduce`` with ``store``
        and ``stop`` would: when lead is no pivot, hold it unbuilt."""
        mask = self.mask
        if mask[lead]:
            row = src if type(src) is dict else self._from_below(src, lead)
            return self._reduce({a * k + b: s for k, s in row.items()}, store=True, stop=stop)
        self.held[lead] = src, a, b
        mask[lead] = 1
        self._inserted.append(lead)
        return lead, None
