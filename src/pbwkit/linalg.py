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
built when read), and ``reduce_full`` and ``relate`` track the scale so
their remainders are exact.

Rows are immutable once stored, and a stored row may be inserted
elsewhere as it is (``raw_basis``): insertion does not depend on the
scale of its input.  ``reduce_full(vec, integers=True)`` gives a
remainder as integers over one denominator, for callers that go on in
integer arithmetic.

A row is built on first read in one way, by the closure components of
``closure`` alone.  They hold pivots whose rows are not built yet, and
define the one hook, ``RowSpace._source``, which maps a column to the
unbuilt row with that pivot (or None); ``RowSpace._find`` builds it when
a reduction or a reader (``RowSpace.row``) first looks the pivot up,
checks that it leads there and keeps it.  A plain ``RowSpace`` holds
every row built; ``integer_rank`` inserts plain integer rows into one.

Tagged rows carry tag columns at and above an offset that record how they
were made.  ``RowSpace.relate`` reduces such a vector and, when its
untagged part reduces to zero, reports the tags instead of storing it:
``left_kernel_basis`` (unit tags, or a row's scale) uses it.  Coordinates
need no tags where the rows are reduced echelon: they are the entries at
the pivots, which is how the filtered map alpha reads them.

Dividing out the content after every scaled step bounds the growth of
the coefficients: without it they grow with every elimination step.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

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


class RowSpace:
    """Row space accumulator in row-echelon form (REF, not fully reduced).

    ``rows`` maps a pivot column to its stored integer row (read-only for
    callers); ``pivots`` is the same map with monic field-valued rows,
    built when read, in column order.  Stored rows are never mutated.
    """

    __slots__ = ("field", "_rows", "_inserted", "_p")
    _source = None     # closure.Component's hook: c -> the unbuilt row with pivot c, or None

    def __init__(self, field):
        self.field = field
        self._rows = {}            # pivot -> row: inserted, or built on lookup
        self._inserted = []        # pivots of the inserted rows
        self._p = getattr(field, "p", None)

    @property
    def rank(self):
        return len(self._inserted)

    @property
    def rows(self):
        return self._rows

    @property
    def pivots(self):
        return {c: self._monic_row(c) for c in sorted(self.rows)}

    @property
    def inserted(self):
        return self._inserted      # pivots of the rows that are no left product

    def is_pivot(self, c):
        return c in self._rows

    def _find(self, c):
        """The row with pivot c, for a c not among the held rows, from the
        hook ``_source``: built, kept and returned; None when c is no
        pivot.  This is the one place where a row is built on lookup, a
        product a closure component holds.  A row that does not lead at c,
        or an F_p row whose entry there is not 1, is a fault, and raises:
        ``_reduce`` would loop on such a row forever."""
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

    def row(self, c):
        """The stored integer row with pivot c, built if the space holds it
        unbuilt; None when c is no pivot."""
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

    def _normal(self, vec, lead):
        """A nonzero integer vector with leading column ``lead``, normalised
        as the kernel stores rows: primitive with a positive pivot entry
        over Q, residues made monic over F_p."""
        p = self._p
        if p is None:
            content = gcd(*vec.values())
            if vec[lead] < 0:
                content = -content
            return vec if content == 1 else {c: s // content for c, s in vec.items()}
        inv = pow(vec[lead], -1, p)
        return vec if inv == 1 else {c: s * inv % p for c, s in vec.items()}

    def _put(self, vec, lead):
        """Store a nonzero integer vector with leading column ``lead``,
        normalised (``_normal``)."""
        self._rows[lead] = self._normal(vec, lead)
        self._inserted.append(lead)

    def _monic_row(self, c):
        raw = self.row(c)
        p = self._p
        if p is not None:
            return {k: ModInt(s, p) for k, s in raw.items()}
        if raw[c] == 1:
            return {k: Fraction(s) for k, s in raw.items()}
        return {k: Fraction(s, raw[c]) for k, s in raw.items()}

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
        return [self.row(c) for c in sorted(self.rows)]

    def basis(self):
        """Monic rows sorted by pivot column."""
        return list(self.pivots.values())

    def reduced_basis(self):
        """Fully back-substituted (RREF) monic rows, sorted by pivot column."""
        done = RowSpace(self.field)
        for c in sorted(self.rows, reverse=True):
            # rows with larger pivots never touch column c
            done._put(done._reduce(dict(self.row(c)), full=True)[0], c)
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
    """Rank of the span of integer rows: fresh dicts with no zero entry,
    which the rank may keep or change, read mod p over F_p.  An empty row,
    or one that vanishes mod p, adds nothing."""
    sp = RowSpace(field)
    reduce, p = sp._reduce, sp._p
    for row in rows:
        reduce(row if p is None else _p_ints(row, p), store=True)
    return sp.rank


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
