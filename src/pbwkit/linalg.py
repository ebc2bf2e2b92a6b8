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
reduction or a reader needs it, and keeps it.  It holds every other
product whose leading column is free when it comes the same way, as
the row or pivot it moves and the move.  The graded ideal recursions
read few of those rows (under 5% on the ``random-homology`` benchmark
workload).  ``reduce_full(vec, integers=True)`` gives a
remainder as integers over one denominator, for callers that go on in
integer arithmetic.

A row is built on first read in one way.  A space may hold pivots
whose rows are not built yet; its one hook, ``RowSpace._source``, maps a
column to the unbuilt row with that pivot (or None), and
``RowSpace._find`` builds it when a reduction or a reader first looks
the pivot up, checks that it leads there and keeps it.  A closure
component's hook (``_Products``) makes a left product from the row
below, and any other product it holds from the row or representative
it moves, normalised as ``RowSpace._put`` stores rows.
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
from functools import cache
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


# Miller-Rabin on the first 13 prime bases is exact for every p below
# this bound (Sorenson and Webster, Math. Comp. 86, 2017).
PRIME_TEST_BOUND = 3317044064679887385961981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(p):
    """Whether p is prime, for p < PRIME_TEST_BOUND: trial division by the
    bases, then Miller-Rabin to each of them."""
    if p < 2:
        return False
    for a in _PRIME_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
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
        if p >= PRIME_TEST_BOUND:
            raise ValidationError(f"{p} is not below {PRIME_TEST_BOUND}, the bound of the "
                                  "exact primality test")
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


def _normal(vec, lead, p):
    """A nonzero integer vector with leading column ``lead``, normalised as
    the kernel stores rows: primitive with a positive pivot entry over Q
    (p None), residues made monic over F_p."""
    if p is None:
        content = gcd(*vec.values())
        if vec[lead] < 0:
            content = -content
        return vec if content == 1 else {c: s // content for c, s in vec.items()}
    inv = pow(vec[lead], -1, p)
    return vec if inv == 1 else {c: s * inv % p for c, s in vec.items()}


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
    building the products it holds; a lookup builds the row once and
    keeps it."""

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
    and holds the left products of the component below it, and every
    other product whose leading column was free, without building them:
    the kernels build a product row on the first lookup of a pivot that
    is not one of this space's own rows (``_find``) and keep it.
    ``rows``, ``pivots``, ``rank`` and the bases see the whole space.
    """

    __slots__ = ("field", "_rows", "_inserted", "_p", "_monic",
                 "_mask", "_shifted", "_source")

    def __init__(self, field):
        self.field = field
        self._rows = {}            # pivot -> row: inserted, or a product built
        self._inserted = []        # pivots of the inserted rows
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
        product a closure component holds, or a row ``integer_rank`` was
        handed unbuilt.  A row that does not lead at c, or an F_p row whose
        entry there is not 1, is a fault, and raises: ``_reduce`` would
        loop on such a row forever.  (``is_pivot``, ``rows`` and the bases
        of an ``integer_rank`` space do not see its unbuilt rows; it reads
        none of them.)"""
        row = self._source(c)
        if row is None:
            return None
        lead = min(row) if row else None
        if lead != c:
            raise InvariantViolation(f"row built for pivot {c} leads at {lead}")
        if self._p is not None and row[c] != 1:
            raise InvariantViolation(f"row built for pivot {c} is not monic")
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

    def _put(self, vec, lead):
        """Store a nonzero integer vector with leading column ``lead``,
        normalised (``_normal``)."""
        vec = _normal(vec, lead, self._p)
        self._rows[lead] = vec
        self._inserted.append(lead)
        if self._mask is not None:
            self._mask[lead] = 1

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
        return _normal(row, c, p) if c in row else row    # a row without c: _find refuses it
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


_layout = cache(_Layout)     # one per (g, m, size), shared by the steps of every closure


class _Products:
    """The hook ``RowSpace._source`` of a closure component I^m, and what
    the next step reads from it.

    A left product x_i·r of a row r of I^{m-1} (``below``) is held by its
    pivot byte alone; any other product whose leading column was free
    (``take``) is held as (src, a, b) in ``held``: the row src, or the row
    of I^{m-1} with pivot src, moved by column k -> a·k + b.  The hook
    builds either on first lookup as ``RowSpace._put`` would store it (a
    move of a row of I^{m-1} is normalised already).

    ``reps``: the representatives (ĉ(g, β), c, |β|) in descending
    signature, ĉ(g, β) a row read partway or the pivot of the stored row.
    ``sigs`` (over T[z]): (k, c, |β|, pivot) for each inserted row, the
    product g·β·z^k it stands for, c the column of lead(g)·β in the words
    of its length.  ``zeros``: (deg g, |β|, c) -> the least k of a central
    g·β·z^k that reduced to zero, one map for the steps of a closure."""

    __slots__ = ("below", "layout", "mask", "p", "held", "reps", "sigs", "zeros")

    def __init__(self, below, layout, mask, p, sigs, zeros):
        self.below, self.layout, self.mask, self.p = below, layout, mask, p
        self.held, self.reps, self.sigs, self.zeros = {}, [], sigs, zeros

    def _from_below(self, src, c):
        row = self.below._row(src)
        if row is None:
            raise InvariantViolation(f"pivot {c} has no row {src} below it")
        return row

    def __call__(self, c):
        """The unbuilt row with pivot c, or None when c is no pivot."""
        held = self.held.pop(c, None)
        if held is not None:
            src, a, b = held
            if type(src) is dict:
                return _normal({a * k + b: s for k, s in src.items()}, c, self.p)
            return {a * k + b: s for k, s in self._from_below(src, c).items()}
        mask = self.mask
        if c >= len(mask) or not mask[c]:
            return None
        i, src = self.layout.source(c)
        return self.layout.move(self._from_below(src, c), i)

    def take(self, sp, lead, src, a, b, stop):
        """Store in sp the product src moved by k -> a·k + b (src as in
        ``held``), which leads at ``lead``, as ``sp._reduce`` with ``store``
        and ``stop`` would: when lead is no pivot, hold it unbuilt."""
        mask = self.mask
        if mask[lead]:
            row = src if type(src) is dict else self._from_below(src, lead)
            return sp._reduce({a * k + b: s for k, s in row.items()}, store=True, stop=stop)
        self.held[lead] = src, a, b
        mask[lead] = 1
        sp._inserted.append(lead)
        return lead, None


def closure_step(field, prev, g, m, size, gens, comps):
    """One degree of a graded ideal closure, by standard words:

        I^m = V·I^{m-1} + z·N + span{ĉ(g, β)},

    where ``prev`` is I^{m-1} (built by this step, or empty), N the rows
    ``prev``'s own step inserted, g runs over the generators and β over
    the standard words of length m - deg g: the words that are not a
    pivot of the finished component I^{|β|} = ``comps[|β|]``, the word of
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
    and goes through ``_Products.take``, which holds it unbuilt when that
    column is no pivot.  ``check`` takes 55 elimination steps on U(gl2)
    to degree 8 and 1 038 on U(gl3) to degree 6, where the
    representatives taken last leading column first, with those of zeros
    kept, took 22 759 and 349 414."""
    sp = RowSpace(field)
    layout = _layout(g, m, size)
    below = prev._mask or bytearray(sum(layout.units))     # an empty I^0
    mask = sp._mask = layout.mask(below, size)
    sp._shifted = g * prev.rank
    last = None if prev._mask is None else prev._source    # what prev's step kept
    z, zeros = g ** m, {} if last is None else last.zeros
    sigs = [] if size > z else None                        # None: no z, no central products
    step = sp._source = _Products(prev, layout, mask, sp._p, sigs, zeros)
    take = step.take
    for k, c, n, src in sorted(last.sigs, reverse=True) if last and sigs is not None else ():
        lead, d = src + z, m - 1 - k - n
        if mask[lead] and zeros and any(zeros.get((d, n - j, c // g ** j), m) <= k + 1
                                        for j in range(n + 1)):
            continue
        lead = take(sp, lead, src, 1, z, ())[0]
        if lead is None:
            zeros.setdefault((d, n, c), k + 1)
        else:
            sigs.append((k + 1, c, n, lead))
    # (c, |β|, the row or pivot to move by x, its leading column, a, b)
    cands = [(min(v), 0, v, min(v), 1, 0) for v in (sp._ints(vec)[0] for vec in gens)]
    for src, c, n in () if last is None else last.reps:
        lead, std, i = src if type(src) is int else min(src), comps[n + 1], (c % g ** n) * g
        cands += [(g * c + x, n + 1, src, g * lead + x, g, x)
                  for x in range(g) if not std.is_pivot(i + x)]
    cands.sort(key=itemgetter(0, 1), reverse=True)
    made = set()              # the pivots the candidates inserted
    reps = step.reps
    for c, n, src, lead, a, b in cands:
        lead, rep = take(sp, lead, src, a, b, made)
        if lead is not None:
            made.add(lead)
            reps.append((lead if rep is None else rep, c, n))
            if sigs is not None:
                sigs.append((0, c, n, lead))
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
