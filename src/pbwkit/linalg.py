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
over F_p each row holds residues in [0, p) with pivot entry 1.  Scalars
cross the boundary once: an incoming Q vector is scaled to integers by the
lcm of its denominators, ``ModInt``s are unwrapped to their residues.
What comes out is field-valued again: ``pivots``, ``basis()`` and
``reduced_basis()`` give monic rows (the stored rows up to a scalar,
normalised on first read and cached), and ``reduce_leading`` /
``reduce_full`` track the scale so their remainders are exact.

Rows are immutable once stored, so a copied space can be extended without
touching the original, and a stored row may be inserted elsewhere as it is
(``raw_basis``): insertion does not depend on the scale of its input.  A
whole space may be stored under a column offset or any other map that
keeps columns distinct and in order (``store_shifted``): such a map keeps
its rows echelon and normalised, so they are not reduced.  The space is
recorded with its map and its moved pivots, not copied; a moved row is
built the first time a reduction or a reader needs it, and kept.  The
graded ideal recursions store most of each component this way and read
few of those rows (under 5% on the ``random-homology`` benchmark
workload).  ``reduce_full(vec, integers=True)`` gives a remainder as
integers over one denominator, for callers that go on in integer
arithmetic.

Tagged rows carry tag columns at and above an offset that record how they
were made.  ``RowSpace.relate`` reduces such a vector and, when its
untagged part reduces to zero, reports the tags instead of storing it:
``left_kernel_basis`` (unit tags) and ``intersection`` (Zassenhaus: the
tags repeat the row) use it.  ``coordinate_solver`` gives rows unit tags
once and then only reduces (``reduce_leading``), storing nothing; the
filtered maps and the pure-relations route solve through it.

Measured on a 2-core x86-64 host under CPython 3.11.7, against rows of
Fractions: the seeded 200-instance fixture of the acceptance tests takes
54-59 s instead of 378 s.  Dividing out the content matters: without it the
engine on that suite's slowest instance (618-bit rows at degree 7) took
194 s instead of 41 s.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd, lcm

from .errors import ValidationError


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


def _step_q(vec, row, c):
    """Clear column c of vec with row: vec <- a*vec - b*row where
    b/a = vec[c]/row[c] in lowest terms, then divide out vec's content if
    it was scaled.  Returns (vec, a, content)."""
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
    content = 1
    if a != 1 and vec:
        content = gcd(*vec.values())
        if content != 1:
            vec = {k: s // content for k, s in vec.items()}
    return vec, a, content


def _step_p(vec, row, c, p):
    """Clear column c of vec with the monic row: vec <- vec - vec[c]*row."""
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
    """Read-only view of a RowSpace that holds shifted spaces: pivot column
    -> stored integer row.  Membership and iteration read the pivots of the
    shifted spaces without building their rows; a lookup builds the row
    once and keeps it."""

    __slots__ = ("_space",)

    def __init__(self, space):
        self._space = space

    def __getitem__(self, c):
        row = self._space._row(c)
        if row is None:
            raise KeyError(c)
        return row

    def __contains__(self, c):
        sp = self._space
        return c in sp._rows or c in sp._keys

    def __iter__(self):
        sp = self._space
        return chain(sp._keys, sp._inserted)

    def __len__(self):
        return self._space.rank


class RowSpace:
    """Row space accumulator in row-echelon form (REF, not fully reduced).

    ``rows`` maps a pivot column to its stored integer row (read-only for
    callers); ``pivots`` is the same map with monic field-valued rows.
    Stored rows are never mutated, so ``copy()`` shares them and the copy
    may be extended independently of the original.

    A space stored here by ``store_shifted`` is recorded as (space, map),
    not copied: the kernels look a pivot up among the shifted spaces only
    when it is not one of this space's own rows, and build the moved row
    on that first lookup and keep it.  ``rows``, ``pivots``, ``rank`` and
    the bases see the whole space; ``inserted()`` gives the rows stored
    here by ``insert``, ``store`` and ``relate``.
    """

    __slots__ = ("field", "_rows", "_inserted", "_p", "_monic", "_shifts",
                 "_keys")

    def __init__(self, field):
        self.field = field
        self._rows = {}            # pivot -> row: inserted, or shifted and built
        self._inserted = []        # pivots of the inserted rows
        self._p = getattr(field, "p", None)
        self._monic = {}
        self._shifts = []          # (space, int offset or list map)
        self._keys = {}            # pivot of a shifted space -> its shift

    @property
    def rank(self):
        return len(self._inserted) + len(self._keys)

    @property
    def rows(self):
        return _AllRows(self) if self._shifts else self._rows

    @property
    def pivots(self):
        return _MonicRows(self)

    @property
    def stored_rows(self):
        """How many rows this space holds as dicts: the inserted ones and
        the shifted ones built so far."""
        return len(self._rows)

    def copy(self):
        other = RowSpace(self.field)
        other._rows = dict(self._rows)
        other._inserted = list(self._inserted)
        other._monic = dict(self._monic)
        other._shifts = list(self._shifts)
        other._keys = dict(self._keys)
        return other

    def inserted(self):
        """The rows stored by ``insert``, ``store`` and ``relate``, i.e.
        not by ``store_shifted``, sorted by pivot column."""
        rows = self._rows
        return [rows[c] for c in sorted(self._inserted)]

    # -- shifted spaces ----------------------------------------------------

    def _find(self, c):
        """The shifted row with pivot c, for a c not among the held rows:
        built, kept and returned; None when c is no pivot."""
        i = self._keys.get(c)
        if i is None:
            return None
        other, cols = self._shifts[i]
        if type(cols) is int:
            row = other._row(c - cols)
            row = {j + cols: s for j, s in row.items()}
        else:
            row = other._row(bisect_left(cols, c))
            row = {cols[j]: s for j, s in row.items()}
        self._rows[c] = row
        return row

    def _row(self, c):
        row = self._rows.get(c)
        if row is None and self._shifts:
            row = self._find(c)
        return row

    # -- integer kernels ---------------------------------------------------

    def _ints(self, vec):
        """(integer vector, scale) of a field-valued or integer vector."""
        p = self._p
        if p is None:
            return _q_ints(vec)
        return _p_ints(vec, p), 1

    def _lead(self, vec):
        """Leading-chain reduction of an owned integer vector; returns
        (remainder, scale factor, divisor) with the remainder equal to
        factor/divisor times the exact one."""
        rows = self._rows
        find = self._find if self._shifts else None
        p = self._p
        num = den = 1
        while vec:
            lead = min(vec)
            row = rows.get(lead)
            if row is None:
                if find is None:
                    break
                row = find(lead)
                if row is None:
                    break
            if p is None:
                vec, a, content = _step_q(vec, row, lead)
                num *= a
                den *= content
            else:
                _step_p(vec, row, lead, p)
        return vec, num, den

    def _full(self, vec):
        """Full reduction of an owned integer vector (see _lead)."""
        rows = self._rows
        find = self._find if self._shifts else None
        p = self._p
        num = den = 1
        heap = list(vec)
        heapify(heap)
        while heap:
            c = heappop(heap)
            if c not in vec:
                continue
            row = rows.get(c)
            if row is None:
                if find is None:
                    continue
                row = find(c)
                if row is None:
                    continue
            for k in row:
                if k not in vec:
                    heappush(heap, k)
            if p is None:
                vec, a, content = _step_q(vec, row, c)
                num *= a
                den *= content
            else:
                _step_p(vec, row, c, p)
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
        normalised: primitive with positive pivot over Q, monic over F_p."""
        p = self._p
        if p is None:
            content = gcd(*vec.values())
            if vec[lead] < 0:
                content = -content
            if content != 1:
                vec = {c: s // content for c, s in vec.items()}
        else:
            inv = pow(vec[lead], -1, p)
            if inv != 1:
                vec = {c: s * inv % p for c, s in vec.items()}
        self._rows[lead] = vec
        self._inserted.append(lead)

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

    def reduce_leading(self, vec):
        """Leading-chain reduction (returns a new dict).  The result is
        zero iff vec lies in the span; otherwise its leading column is not
        a pivot."""
        ints, scale = self._ints(vec)
        red, num, den = self._lead(ints)
        return self._exact(red, num * scale, den)

    def reduce_full(self, vec, integers=False):
        """Eliminate every pivot column from the support.  The result is
        the canonical representative of vec modulo the row space (supported
        on non-pivot columns only), even though storage is only REF.

        With ``integers`` it comes as (integer vector, d) with d > 0, the
        remainder being the vector divided by d; over F_p the vector holds
        residues and d = 1."""
        ints, scale = self._ints(vec)
        red, num, den = self._full(ints)
        num *= scale
        if not integers:
            return self._exact(red, num, den)
        if num == den:
            return red, 1
        k = gcd(num, den)
        if k != den:
            red = {c: s * (den // k) for c, s in red.items()}
        return red, num // k

    def insert(self, vec):
        """Insert a vector; returns the new pivot column, or None if the
        vector was already in the span."""
        red = self._lead(self._ints(vec)[0])[0]
        if not red:
            return None
        lead = min(red)
        self._put(red, lead)
        return lead

    def store(self, vec):
        """Store an already reduced vector as a new row; its leading column
        must not be a pivot yet.  Returns that column."""
        ints = self._ints(vec)[0]
        if not ints:
            raise ValidationError("cannot store a zero row")
        lead = min(ints)
        if lead in self._rows or lead in self._keys:
            raise ValidationError(f"column {lead} is already a pivot")
        self._put(ints, lead)
        return lead

    def relate(self, vec, offset):
        """Tagged reduction, for vectors whose columns >= ``offset`` are
        tags that record how the vector was made.  Reduces vec along its
        leading chain.  If the remainder leads below ``offset`` it is stored
        and None is returned; otherwise (the untagged part reduced to zero)
        its tag part is returned, columns moved down by ``offset``, with a
        zero remainder giving {}."""
        ints, scale = self._ints(vec)
        red, num, den = self._lead(ints)
        if red and min(red) < offset:
            self._put(red, min(red))
            return None
        return {c - offset: s for c, s in self._exact(red, num * scale, den).items()}

    def store_shifted(self, other, cols):
        """Store the rows of ``other`` with each column c moved to
        ``cols[c]``, or to c + ``cols`` when ``cols`` is an int offset.
        The map must keep columns distinct and in order; then the moved
        rows stay echelon and normalised and are stored as they are,
        unreduced.  None of their pivots may be a pivot here yet.

        ``other`` is recorded with the map and its moved pivots, not
        copied: a moved row is built when a lookup first needs it (the row
        a copy would hold).  Rows are never changed and the pivots are
        taken now, so rows ``other`` gains later do not show here."""
        if other._p != self._p:
            raise ValidationError("rows over a different field")
        if not other.rank:
            return
        moved = dict.fromkeys(map(cols.__add__ if type(cols) is int else cols.__getitem__,
                                  other.rows), len(self._shifts))
        taken = moved.keys() & self._keys.keys() or moved.keys() & self._inserted
        if taken:
            raise ValidationError(f"column {min(taken)} is already a pivot")
        self._shifts.append((other, cols))
        self._keys.update(moved)

    def contains(self, vec):
        return not self._lead(self._ints(vec)[0])[0]

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
            done._put(done._full(dict(self._row(c)))[0], c)
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


def intersection(field, a_rows, b_rows, offset):
    """Zassenhaus: vectors spanning span(a_rows) ∩ span(b_rows), a basis
    when ``b_rows`` are independent.  ``offset`` must exceed every column
    used.  The rows [a | a] are inserted first; a row [b | 0] whose left
    half then reduces to zero leaves an intersection vector in the tags."""
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


def coordinate_solver(field, rows, offset):
    """coords(vec): a {k: c_k} with vec = sum_k c_k rows[k], or None when
    vec lies outside their span; ``offset`` must exceed every column used.
    Row k carries the unit tag offset + k, so reducing vec clears its
    untagged part exactly when vec lies in the span, and leaves -c in the
    tags."""
    sp = span(field, [{**r, offset + k: field.one} for k, r in enumerate(rows)])

    def coords(vec):
        red = sp.reduce_leading(vec)
        if red and min(red) < offset:
            return None
        return {c - offset: -s for c, s in red.items()}
    return coords
