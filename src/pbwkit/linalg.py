"""Exact scalar fields and sparse row-echelon linear algebra.

Field scalars are ``fractions.Fraction`` over Q and ``ModInt`` residues
over F_p.  Both support ``+ - * /`` and are falsy exactly at zero, so code
working on ``Element``s is field-agnostic.

Vectors are dicts ``{column: nonzero scalar}``.  ``RowSpace`` is the
incremental echelon accumulator every higher module reduces to.  It keeps
its rows as plain Python ints: over Q each row is a primitive integer
vector (content 1) with a positive pivot entry, and elimination is
fraction-free, v <- a*v - b*r with gcd(a, b) cancelled and v's content
divided out after every scaled step (cf. Bareiss, Math. Comp. 22, 1968);
over F_p each row holds residues in [0, p) with pivot entry 1.  One loop
(``RowSpace._reduce``) does every elimination, along the leading chain or
at every pivot column; for ``insert`` it stores the remainder, normalised,
where the chain stops.  Scalars cross the boundary once: an incoming Q
vector is scaled to integers by the lcm of its denominators, ``ModInt``s
are unwrapped to their residues.
What comes out is field-valued again: ``pivots``, ``basis()`` and
``reduced_basis()`` give monic rows (the stored rows up to a scalar,
normalised on first read and cached), and ``reduce_full`` and
``relate`` track the scale so their remainders are exact.

Rows are immutable once stored, and a stored row may be inserted
elsewhere as it is (``raw_basis``): insertion does not depend on the
scale of its input.  A component I^m of a graded ideal closure
(``closure_step``) holds the left products V·I^{m-1} without copying
them: x_i· keeps columns distinct and in order, so the products stay
echelon and normalised and are not reduced.  The component keeps its
pivots as one byte per column, the blocks of I^{m-1}'s bytes repeated g
times, and builds a product row from the row below it the first time a
reduction or a reader needs it, and keeps it.  The graded ideal
recursions read few of those rows (under 5% on the ``random-homology``
benchmark workload).  ``reduce_full(vec, integers=True)`` gives a
remainder as integers over one denominator, for callers that go on in
integer arithmetic.

A row is built on first read in one way.  A space may hold pivots
whose rows are not built yet; its one hook, ``RowSpace._source``, maps a
column to the unbuilt row with that pivot (or None), and
``RowSpace._find`` builds it when a reduction or a reader first looks
the pivot up, checks that it leads there and keeps it.  A closure
component's hook makes the left product from the row below.
``integer_rank`` keeps a space of its own that the caller never sees,
takes rows as (lead, builder) pairs, and its hook calls the builder of
a pair whose lead was free when it came: such a row is built only when
a reduction reads its pivot, and kept as built, unnormalised over Q
(the fraction-free step takes any nonzero pivot entry).

Tagged rows carry tag columns at and above an offset that record how they
were made.  ``RowSpace.relate`` reduces such a vector and, when its
untagged part reduces to zero, reports the tags instead of storing it:
``left_kernel_basis`` (unit tags, or a row's scale) uses it.  Coordinates
need no tags where the rows are reduced echelon: they are the entries at
the pivots, which is how the filtered map alpha reads them.

Measured on a 2-core x86-64 host under CPython 3.11.7, against rows of
Fractions: the seeded 200-instance fixture of the acceptance tests takes
54-59 s instead of 378 s.  Dividing out the content matters: without it the
engine on that suite's slowest instance (618-bit rows at degree 7) took
194 s instead of 41 s.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Mapping
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import accumulate, compress, count
from math import gcd, lcm
from operator import itemgetter

from .errors import InvariantViolation, ValidationError


class ModInt:
    """Residue in F_p, normalized to [0, p)."""

    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v % p
        self.p = p

    def __add__(self, other):
        return ModInt(self.v + other.v, self.p)

    def __sub__(self, other):
        return ModInt(self.v - other.v, self.p)

    def __mul__(self, other):
        return ModInt(self.v * other.v, self.p)

    def __truediv__(self, other):
        return ModInt(self.v * pow(other.v, -1, self.p), self.p)

    def __neg__(self):
        return ModInt(-self.v, self.p)

    def __bool__(self):
        return self.v != 0

    def __eq__(self, other):
        if isinstance(other, ModInt):
            return self.v == other.v and self.p == other.p
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.v, self.p))

    def __repr__(self):
        return f"{self.v} (mod {self.p})"


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class RationalField:
    """The field Q; scalars are Fractions (reduced, positive denominator)."""

    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def from_int(n):
        return Fraction(n)

    @staticmethod
    def from_fraction(q):
        return Fraction(q.numerator, q.denominator)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField:
    """The field F_p for a prime p; scalars are ModInt."""

    def __init__(self, p):
        if not _is_prime(p):
            raise ValidationError(f"{p} is not prime")
        self.p = p
        self.name = f"Fp({p})"
        self.zero = ModInt(0, p)
        self.one = ModInt(1, p)

    def from_int(self, n):
        return ModInt(n, self.p)

    def from_fraction(self, q):
        q = Fraction(q)
        if q.denominator % self.p == 0:
            raise ValidationError(f"denominator {q.denominator} not invertible mod {self.p}")
        return ModInt(q.numerator * pow(q.denominator, -1, self.p), self.p)

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


QQ = RationalField()


# ---------------------------------------------------------------------------
# Integer row kernels.  Q rows are primitive with a positive pivot entry;
# F_p rows hold residues in [0, p) with pivot entry 1.

_INT = frozenset({int})


def _q_ints(vec):
    """A Q vector (int or Fraction entries) as (integer vector, scale):
    the nonzero entries times the lcm of their denominators."""
    vals = vec.values()
    if set(map(type, vals)) <= _INT:
        # the hot path: stored rows and products of them
        return ({c: s for c, s in vec.items() if s} if 0 in vals else dict(vec)), 1
    den = lcm(*[s.denominator for s in vals])
    if den == 1:
        return {c: s.numerator for c, s in vec.items() if s}, 1
    return {c: s.numerator * (den // s.denominator) for c, s in vec.items() if s}, den


def _p_ints(vec, p):
    """An F_p vector (ModInt or int entries) as residues in [0, p)."""
    out = {}
    for c, s in vec.items():
        s = s.v if type(s) is ModInt else s % p
        if s:
            out[c] = s
    return out


class _MonicRows(Mapping):
    """Read-only view of a RowSpace: pivot column -> monic row with field
    scalars, built from the stored row on first access."""

    __slots__ = ("_space",)

    def __init__(self, space):
        self._space = space

    def __getitem__(self, c):
        return self._space._monic_row(c)

    def __contains__(self, c):
        return c in self._space.rows

    def __iter__(self):
        return iter(self._space.rows)

    def __len__(self):
        return self._space.rank


class _AllRows(Mapping):
    """Read-only view of a closure component: pivot column -> stored
    integer row.  Membership and iteration read the pivot bytes without
    building the left products; a lookup builds the row once and keeps
    it."""

    __slots__ = ("_space",)

    def __init__(self, space):
        self._space = space

    def __getitem__(self, c):
        row = self._space._row(c)
        if row is None:
            raise KeyError(c)
        return row

    def __contains__(self, c):
        return self._space.is_pivot(c)

    def __iter__(self):
        return compress(count(), self._space._mask)

    def __len__(self):
        return self._space.rank


class RowSpace:
    """Row space accumulator in row-echelon form (REF, not fully reduced).

    ``rows`` maps a pivot column to its stored integer row (read-only for
    callers); ``pivots`` is the same map with monic field-valued rows.
    Stored rows are never mutated.

    A closure component (``closure_step``) has a pivot byte per column
    and holds the left products of the component below it without
    copying them: the kernels build a product row on the first lookup of
    a pivot that is not one of this space's own rows (``_find``) and keep
    it.  ``rows``, ``pivots``, ``rank`` and the bases see the whole space.
    """

    __slots__ = ("field", "_rows", "_inserted", "_reps", "_p", "_monic",
                 "_mask", "_shifted", "_source")

    def __init__(self, field):
        self.field = field
        self._rows = {}            # pivot -> row: inserted, or a left product built
        self._inserted = []        # pivots of the inserted rows
        self._reps = ()            # closure_step's representatives of the g·β
        self._p = getattr(field, "p", None)
        self._monic = {}
        self._mask = None          # closure components: one pivot byte per column
        self._shifted = 0          # the number of left products
        self._source = None        # c -> the unbuilt row with pivot c, or None

    @property
    def rank(self):
        return self._shifted + len(self._inserted)

    @property
    def rows(self):
        return self._rows if self._mask is None else _AllRows(self)

    @property
    def pivots(self):
        return _MonicRows(self)

    @property
    def inserted(self):
        return self._inserted      # pivots of the rows that are no left product

    def is_pivot(self, c):
        mask = self._mask
        return c in self._rows if mask is None else c < len(mask) and mask[c] == 1

    def _find(self, c):
        """The row with pivot c, for a c not among the held rows, from the
        hook ``_source``: built, kept and returned; None when c is no
        pivot.  This is the one place where a row is built on lookup: a
        closure component's left product, or a row ``integer_rank`` was
        handed unbuilt.  A row that does not lead at c is a fault, and
        raises: ``_reduce`` would loop on such a row forever.
        (``is_pivot``, ``rows`` and the bases of an ``integer_rank`` space
        do not see its unbuilt rows; it reads none of them.)"""
        row = self._source(c)
        if row is None:
            return None
        lead = min(row) if row else None
        if lead != c:
            raise InvariantViolation(f"row built for pivot {c} leads at {lead}")
        self._rows[c] = row
        return row

    def _row(self, c):
        row = self._rows.get(c)
        if row is None and self._source is not None:
            row = self._find(c)
        return row

    # -- integer kernels ---------------------------------------------------

    def _ints(self, vec):
        """(integer vector, scale) of a field-valued or integer vector."""
        p = self._p
        if p is None:
            return _q_ints(vec)
        return _p_ints(vec, p), 1

    def _reduce(self, vec, full=False, store=False, stop=None):
        """Reduce an owned integer vector along its leading chain, or with
        ``full`` at every pivot column of its support.  Returns (remainder,
        scale factor, divisor), the remainder being factor/divisor times
        the exact one.

        With ``store`` (leading chain only) the scale is not kept: the
        remainder is stored when it is nonzero (``_put``) and the result is
        its pivot, or None when it is zero.  With ``stop`` as well, a set
        of pivots, the result is a pair: that pivot or None, and a copy of
        the vector as it was when the chain first met a pivot in ``stop``,
        or None when it met none."""
        rows = self._rows
        find = None if self._source is None else self._find
        p = self._p
        num = den = 1
        seen = None
        stops = () if stop is None else stop
        if full:
            heap = list(vec)
            heapify(heap)
        while vec:
            if full:
                if not heap:
                    break
                c = heappop(heap)
                if c not in vec:
                    continue
            else:
                c = min(vec)
                if c in stops:
                    seen = dict(vec)
                    stops = ()
            row = rows.get(c)
            if row is None and (find is None or (row := find(c)) is None):
                if full:
                    continue
                if store:
                    self._put(vec, c)
                    return c if stop is None else (c, seen)
                break
            if full:
                for k in row:
                    if k not in vec:
                        heappush(heap, k)
            if p is None:
                # vec <- a*vec - b*row with b/a = vec[c]/row[c] in lowest
                # terms; a scaled vec has its content divided out
                d = gcd(vec[c], row[c])
                a = row[c] // d
                b = vec[c] // d
                if a != 1:
                    vec = {k: a * s for k, s in vec.items()}
                for k, s in row.items():
                    t = vec.get(k)
                    if t is None:
                        vec[k] = -b * s
                    else:
                        t -= b * s
                        if t:
                            vec[k] = t
                        else:
                            del vec[k]
                if a != 1 and vec:
                    content = gcd(*vec.values())
                    if content != 1:
                        vec = {k: s // content for k, s in vec.items()}
                    if not store:
                        num *= a
                        den *= content
            else:
                # vec <- vec - vec[c]*row, the row being monic
                f = p - vec[c]
                for k, s in row.items():
                    t = vec.get(k)
                    if t is None:
                        vec[k] = f * s % p
                    else:
                        t = (t + f * s) % p
                        if t:
                            vec[k] = t
                        else:
                            del vec[k]
        if store:
            return None if stop is None else (None, seen)
        return vec, num, den

    def _exact(self, vec, num, den):
        """Field-valued vector vec * den / num."""
        p = self._p
        if p is not None:
            return {c: ModInt(s, p) for c, s in vec.items()}
        if num == den:
            return {c: Fraction(s) for c, s in vec.items()}
        return {c: Fraction(s * den, num) for c, s in vec.items()}

    def _put(self, vec, lead, normal=False):
        """Store a nonzero integer vector with leading column ``lead``,
        normalised (primitive with positive pivot over Q, monic over F_p)
        unless ``normal`` says it is."""
        p = self._p
        if not normal and p is None:
            content = gcd(*vec.values())
            if vec[lead] < 0:
                content = -content
            if content != 1:
                vec = {c: s // content for c, s in vec.items()}
        elif not normal:
            inv = pow(vec[lead], -1, p)
            if inv != 1:
                vec = {c: s * inv % p for c, s in vec.items()}
        self._rows[lead] = vec
        self._inserted.append(lead)
        if self._mask is not None:
            self._mask[lead] = 1

    def _store(self, vec, lead, stop, normal=False):
        """Store a product with leading column ``lead`` as ``_reduce`` with
        ``store`` and ``stop`` would: when lead is no pivot, the vector as it
        is if ``normal`` says it is normalised, else through ``_put``.  A
        vector said to be normalised whose pivot entry is not 1 over F_p,
        or not positive over Q, raises: ``_reduce`` clears an F_p column
        only against a monic row, and would loop forever."""
        if self.is_pivot(lead):
            return self._reduce(vec, store=True, stop=stop)
        if normal and ((vec[lead] < 1) if self._p is None else (vec[lead] != 1)):
            raise InvariantViolation(f"row with pivot {lead} is not normalised")
        self._put(vec, lead, normal)
        return lead, None

    def _monic_row(self, c):
        row = self._monic.get(c)
        if row is None:
            raw = self._row(c)
            if raw is None:
                raise KeyError(c)
            p = self._p
            if p is not None:
                row = {k: ModInt(s, p) for k, s in raw.items()}
            elif raw[c] == 1:
                row = {k: Fraction(s) for k, s in raw.items()}
            else:
                row = {k: Fraction(s, raw[c]) for k, s in raw.items()}
            self._monic[c] = row
        return row

    # -- public contract ---------------------------------------------------

    def reduce_full(self, vec, integers=False):
        """Eliminate every pivot column from the support.  The result is
        the canonical representative of vec modulo the row space (supported
        on non-pivot columns only), even though storage is only REF.

        With ``integers`` it comes as (integer vector, d) with d > 0, the
        remainder being the vector divided by d; over F_p the vector holds
        residues and d = 1, and a zero remainder is ({}, 1)."""
        ints, scale = self._ints(vec)
        red, num, den = self._reduce(ints, full=True)
        num *= scale
        if not integers:
            return self._exact(red, num, den)
        if num == den or not red:
            return red, 1
        k = gcd(num, den)
        if k != den:
            red = {c: s * (den // k) for c, s in red.items()}
        return red, num // k

    def insert(self, vec):
        """Insert a vector; returns the new pivot column, or None if the
        vector was already in the span."""
        return self._reduce(self._ints(vec)[0], store=True)

    def relate(self, vec, offset):
        """Tagged reduction, for vectors whose columns >= ``offset`` are
        tags that record how the vector was made.  Reduces vec along its
        leading chain.  If the remainder leads below ``offset`` it is stored
        and None is returned; otherwise (the untagged part reduced to zero)
        its tag part is returned, columns moved down by ``offset``, with a
        zero remainder giving {}."""
        ints, scale = self._ints(vec)
        red, num, den = self._reduce(ints)
        if red and min(red) < offset:
            self._put(red, min(red))
            return None
        return {c - offset: s for c, s in self._exact(red, num * scale, den).items()}

    def contains(self, vec):
        return not self._reduce(self._ints(vec)[0])[0]

    def contains_space(self, other):
        return all(self.contains(r) for r in other.rows.values())

    def equals_space(self, other):
        return self.rank == other.rank and self.contains_space(other)

    def raw_basis(self):
        """Stored integer rows sorted by pivot column.  They span the same
        space as basis() and may be inserted elsewhere as they are."""
        return [self._row(c) for c in sorted(self.rows)]

    def basis(self):
        """Monic rows sorted by pivot column."""
        return [self._monic_row(c) for c in sorted(self.rows)]

    def reduced_basis(self):
        """Fully back-substituted (RREF) monic rows, sorted by pivot column."""
        done = RowSpace(self.field)
        for c in sorted(self.rows, reverse=True):
            # rows with larger pivots never touch column c
            done._put(done._reduce(dict(self._row(c)), full=True)[0], c)
        return done.basis()


def integer_vector(field, vec):
    """A multiple of vec with integer entries: times the lcm of its
    denominators over Q, its residues over F_p."""
    p = getattr(field, "p", None)
    return _q_ints(vec)[0] if p is None else _p_ints(vec, p)


def span(field, vectors):
    sp = RowSpace(field)
    for v in vectors:
        sp.insert(v)
    return sp


def integer_rank(field, rows):
    """Rank of the span of nonzero integer rows, each handed over as a
    pair (lead, build): build() returns a fresh dict row with no zero
    entry and leading (least) column lead, nonzero mod p there over F_p.
    The rank may keep that dict or change it.

    A pair on a free leading column costs nothing when it comes: the
    rank's own space keeps its builder, and its hook (``RowSpace._source``)
    builds the row the first time a reduction reads that pivot, kept as
    it is over Q, as the fraction-free step takes any nonzero pivot
    entry, and made monic over F_p.  A pair that meets a pivot is built
    and reduced at once.  A row built on lookup that does not lead at
    its lead raises InvariantViolation (``RowSpace._find``), where a
    reduction on it would not end."""
    sp = RowSpace(field)
    unbuilt, p = {}, sp._p

    def source(c):
        build = unbuilt.pop(c, None)
        if build is None:
            return None
        if p is None:
            return build()
        row = _p_ints(build(), p)
        inv = pow(row.get(c) or 1, -1, p)      # a row without c is _find's to refuse
        return row if inv == 1 else {k: s * inv % p for k, s in row.items()}
    sp._source = source
    held, inserted, reduce = sp._rows, sp._inserted, sp._reduce
    for lead, build in rows:
        if lead in held or lead in unbuilt:
            reduce(build() if p is None else _p_ints(build(), p), store=True)
        else:
            unbuilt[lead] = build
            inserted.append(lead)
    return sp.rank


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


def closure_step(field, prev, g, m, size, gens, comps):
    """One degree of a graded ideal closure, by standard words:

        I^m = V·I^{m-1} + z·N + span{ĉ(g, β)},

    where ``prev`` is I^{m-1} (built by this step, or empty), N the rows
    ``prev``'s own step inserted, g
    runs over the generators and β over the standard words of length
    m - deg g: the words that are not a pivot of the finished component
    I^{|β|} = ``comps[|β|]``, the word of length n with lex index i being
    at column i of I^n.  ĉ(g, β) is any element congruent to g·β modulo
    V·I^{m-1} + z·I^{m-1}.  The columns of I^m are those of T[z]^m,
    ``size`` = |T[z]^m|, or, with no z, those of T^m, ``size`` = g^m
    (``_Layout``, over g letters).  z· moves a column by the g^m columns
    of word degree m, and ·x moves column c to g·c + x in both layouts
    (|T[z]^n| = g·|T[z]^{n-1}| + 1).  ``gens`` are the rows of the
    generators of degree m.

    This is exact.  I^m is spanned by V·I^{m-1}, z·I^{m-1} and the g·β.
    If β = ω·lead(h)·ω' for a monic h in I, then g·β = g·ω·h·ω' -
    g·ω·(h - lead h)·ω': the first term lies in V·I^{m-1} + z·I^{m-1},
    and the rest are multiples g·β'' with β'' after β, as left, right and
    z multiplication keep the column order; so by induction on the
    columns g·β is not needed.  As I^{m-1} = V·I^{m-2} + span(N), the z
    being central, z·I^{m-1} ⊆ V·I^{m-1} + z·N.

    Every left product of ``prev`` is held as it is, then z·N is
    inserted, last pivot first, and then the candidates, in strictly
    descending signature: ĉ(g, β')·x for each representative ĉ(g, β')
    that ``prev`` keeps and each letter x with β'x standard, and the
    generators, ĉ(g, ∅) = g.  The signature of (g, β) is the pair
    (c, |β|), c = lead(g)·g^|β| + lex(β) being the column of lead(g)·β;
    it names (g, β), the generators of one degree having distinct leading
    columns.  Up to the candidates the space holds exactly V·I^{m-1} +
    z·I^{m-1}, so a candidate stays a ĉ(g, β) along its leading chain
    until the chain first meets a pivot that another candidate inserted.
    A candidate that is stored is kept there as the representative for
    the next degree (the stored row when the chain meets no such pivot);
    one that reduces to zero keeps none, so none of its multiples
    ĉ(g, β)·x is made at the next degree.

    That is exact too.  Call (g, β), β standard, idle when its candidate
    reduced to zero or was never made.  An idle g·β lies in V·I^{m-1} +
    z·I^{m-1} plus the span of products g'·β' of larger signature.  A
    candidate that reduced to zero lies in V·I^{m-1} + z·I^{m-1} plus the
    span of the candidates processed before it, each a ĉ(g', β') of
    larger signature.  One never made is (g, β₀x) with (g, β₀) idle in
    the degree below; right multiplication by x maps V·I^{m-2} +
    z·I^{m-2} into V·I^{m-1} + z·I^{m-1} and keeps the order of
    signatures strict (c moves to g·c + x), so by induction on m g·β₀·x
    is of that form too.  The standard-word argument above also moves
    only to larger signatures (β'' after β, the same g).  Now take, in
    some degree, the g·β of largest signature, β standard, outside the
    component built.  Every product of larger signature lies in the
    component, by that choice and the standard-word argument, so g·β
    does too: through its stored ĉ(g, β), or as an idle g·β.  So no such
    g·β exists, and the component is I^m.

    One kernel reduction serves the stored row and the representative
    (``RowSpace._reduce`` with ``stop``).  Every product is a fresh move
    of a stored row or representative, with a leading column known from
    its source, and goes through ``RowSpace._store``: one whose leading
    column is no pivot skips the kernel, stored as it is when it moves a
    row ``prev`` holds (normalised), else normalised, the row the kernel
    would store.  ``check`` takes 55 elimination steps on U(gl2) to
    degree 8 and 1 038 on U(gl3) to degree 6, where the representatives
    taken last leading column first, with those of zeros kept, took
    22 759 and 349 414."""
    sp = RowSpace(field)
    layout = _Layout(g, m, size)
    below = prev._mask or bytearray(sum(layout.units))     # an empty I^0
    mask = sp._mask = layout.mask(below, size)
    sp._shifted = g * prev.rank

    def product(c):
        """x_i·(the row of I^{m-1} below c), or None when c is no pivot."""
        if c >= len(mask) or not mask[c]:
            return None
        i, source = layout.source(c)
        row = prev._row(source)
        if row is None:
            raise InvariantViolation(f"pivot {c} has no row {source} below it")
        return layout.move(row, i)
    sp._source = product
    put, rows, z = sp._store, prev._rows, g ** m
    if size > z:
        for c in sorted(prev._inserted, reverse=True):
            put({k + z: s for k, s in rows[c].items()}, c + z, (), normal=True)
    # (c, |β|, row to move by x, its leading column, whether it is stored, x)
    cands = [(min(v), 0, v, min(v), False, None) for v in (sp._ints(vec)[0] for vec in gens)]
    for row, c, n in prev._reps:
        lead, std, i = min(row), comps[n + 1], (c % g ** n) * g
        cands += [(g * c + x, n + 1, row, g * lead + x, rows.get(lead) is row, x)
                  for x in range(g) if not std.is_pivot(i + x)]
    cands.sort(key=itemgetter(0, 1), reverse=True)
    made = set()              # the pivots the candidates inserted
    reps = sp._reps = []      # (ĉ(g, β), c, |β|), in descending signature
    for c, n, row, lead, normal, x in cands:
        vec = row if x is None else {g * k + x: s for k, s in row.items()}
        lead, rep = put(vec, lead, made, normal)
        if lead is not None:
            made.add(lead)
            reps.append((sp._rows[lead] if rep is None else rep, c, n))
    return sp


def left_kernel_basis(field, rows, tag_offset, tags=None):
    """Basis of {c : sum_i c_i * rows_i = 0} for dict-vector ``rows``.

    ``tag_offset`` must exceed every column index used by ``rows``; the
    standard [M | I] augmentation tracks the coefficients in tag columns.
    A row given scaled by L stands for rows_i = row / L when ``tags[i]``
    is L: it carries the tag L in place of 1.
    """
    sp = RowSpace(field)
    out = []
    for i, r in enumerate(rows):
        aug = dict(r)
        aug[tag_offset + i] = field.one if tags is None else tags[i]
        combo = sp.relate(aug, tag_offset)
        if combo is not None:
            out.append(combo)
    return out
