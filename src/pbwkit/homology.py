"""Tor_3 internal-degree tables, two independent ways, and the homological
complexity they bound.

Resolution route: with a bimodule of relations R for A, the start of a
projective resolution is A (x) R --d2--> A (x) A^1 --d1--> A -> k -> 0 with
d2(a (x) r) = sum nf(a u) (x) v over the splittings r = sum u (x) v of each
word into (all letters but the last, last letter).  Writing K2 = ker(d2),
dim Tor_{3,m} = dim K2^m - dim(A^1 K2^{m-1}).  The sequence is exact at
A (x) A^1 (Polishchuk–Positselski, Quadratic Algebras, ch. 1): dim K2^m
= sum_j dim R^j h(m-j) - g h(m-1) + h(m), so a kernel is eliminated
only where its vectors are read (``tor3_resolution``), and a d2 row is
built only where a kernel or the check d2(v) = 0 reads it.

The rows are in the normal-word coordinates of Anick's resolution (Trans.
AMS 296, 1986), built by position and rank with no word tuples.  A basis
word of A^n is a position of T^n with a rank in ``PresentedRing.basis(n)``;
x_i a sits at i g^|a| + pos(a) and a u at pos(a) g^|u| + pos(u).  The domain
(A (x) R)^m is one block per stored relation row r of degree j, the column
of a (x) r being the block's offset plus rank(a); the codomain
(A (x) A^1)^m has b (x) x_i at rank(b) g + i.  The blocks come in the
order of R's degrees, so a block keeps its index from one degree to the
next, and the unit columns 1 (x) r are the offsets of the blocks with
j = m.  The kernel decides minimality: R^m meets F¹I + IF¹ iff a vector
of K2^m has a unit column (``ResolutionSlice.kernel_of_d2``).

Bar route: the normalized bar complex has n-chains (A+)^(x)n with
differential sum (-1)^(i-1) (merge at i); the internal-degree-m strand is
finite and Tor_{n,m} is its homology.  Quarantined as the desk-scale
oracle; it grows combinatorially.  A chain is never built as a tuple: it
is a position, found by arithmetic from the Hilbert values h(d).  With
cnt(s, r) the size of the (s, r) strand, the chain a|x whose first factor
a is the i-th basis word of degree d sits at start(s, r, d) +
i * cnt(s-1, r-d) + (position of x), where start(s, r, d) =
sum_{d' < d} h(d') cnt(s-1, r-d').  Rows come by recursion on the first
factor, d(a|x) = mu(a, x_1)|x' - a|d(x): the row of x one strand down,
moved by an int offset and negated, plus the terms of the structure
constant mu(a, x_1) = nf(a x_1), read once per pair of degrees.  Rows are
built per block, the chains a|x of one first factor a, the first time a
rank or a block one strand up reads it, and kept: a block of strand s
reads every block of the strand below that holds its x.

Letter-first rows: each rank of d_s reads only the rows of the chains
l|x whose first factor l is a letter.  The other rows lie in their span.
Take a basis word u of degree d - 1 and a letter l; d_s d_{s+1}(u|l|x) = 0
gives d_s(mu(u, l)|x) = d_s(u|d_s(l|x)), a combination of rows whose
first factor is u.  Relations have degree >= 2 (``PresentedRing``
refuses others), so A^d = A^{d-1} A^1 and, rows being linear in the first
factor, induction on d puts the row of every a|x in the span of the rows
l|y (Priddy, Trans. AMS 152, 1970, for the complex).  The argument uses
only d d = 0 and generation in degree 1, neither the relations nor the
resolution, so the two routes stay independent.

Counted rows: the letter rows of the chains l|w|x' whose product l w is a
basis word are the matched cells of an algebraic Morse matching on the
bar complex (Jöllenbeck–Welker, Mem. AMS 197, 2009; Sköldberg, Trans.
AMS 358, 2006).  Pivots are lex-least words and u f v leads at
u lead(f) v, so normal words are closed under subwords: each basis word
e of degree 1 + d1 is l w, w a basis word of degree d1.  The row of
l|w|x' has the unit merged part e|x', on a chain whose first factor has
degree >= 2, where every other letter row has only its merged part.  So
these rows are independent, and stay so beside the other letter rows
once those have their merged parts cleared by them: they are counted,
and only those residual rows go to a rank (``tor_bar``), as plain integer
rows that ``linalg.integer_rank`` reads mod p over F_p.

Second step: a residual pair (l, w) with d1 >= 2 whose prefix l w[:-1]
is no basis word adds nothing to a rank, so its rows are never built.
Write w = w'u, u a letter, and order the pairs of one strand by
(deg w ascending, l w descending in lex).  As w'u = w is a basis word,
d d(l|w'|u|x') = 0 gives

    d(l|w|x') = d(mu(l, w')|u|x') + d(l|w'|d(u|x')),

and the second part is letter rows whose second factor is shorter.  A
normal form's terms lie lex above its word, as pivots are lex-least: each
term e = l'' t' of nf(l w'), t' a basis word, has e > l w', and
d d(l''|t'|u|x') = 0 gives

    d(e|u|x') = d(l''|nf(t'u)|x') - d(l''|t'|d(u|x')),

letter rows l''|t|x' with l'' t >= e u > l w and letter rows with a
shorter second factor.  Induction puts the row of l|w|x', and so its
residual row, in the span of the counted rows and the residual rows of
the kept pairs.  The skip reads only d d = 0, subword-closed normal words
and lex-least pivots, not R, so the bar stays the R-free oracle.  For
Tor_3 of k[x, y, z] (the A of ``sl2``) at bound 8 the ranks take 2 520
residual rows of the 24 384 letter rows, in 1 571 steps, over Q and
F_32003 alike, and build 3 112 kept rows; on the 16 rings of the
``random-homology`` benchmark at bound 6 they take 2 451 of 36 517, 255
of them empty, in 234 steps, from 3 589 kept rows.

Both routes read one cache, the integer normal forms of
``PresentedRing.nf_word`` by degree and position over the ranks of the
basis; it holds only the words that were reduced, a basis word being its
own normal form, and a remainder column outside the basis raises there.
Each row is scaled to integers by the lcm L of its normal forms'
denominators.  The bar rows and A^1 K2 only feed ranks and d2, which no
scale changes; a d2 row enters the left kernel with the tag L in place
of 1, so the kernel vectors stay exact.

Complexity: certified when a Hilbert scan finds A finite dimensional.
Before the scan, the support quotient T/J is tried, J the monomial ideal
generated by the words in the support of the relations: A maps onto T/J,
so a degree that T/J reaches is nonzero in A, and when T/J reaches the
scan's top degree the scan would find no zero and is skipped.  Whether
T/J reaches a degree is decided over the last L - 1 letters of the words
that avoid J, L the longest support word (the word counting of
Ufnarovski, Math. Notes 31, 1982), so no ideal is built.
"""

from __future__ import annotations

from bisect import bisect_right
from math import comb, lcm

from .errors import (InvariantViolation, NotMinimalRelations, ResourceExceeded,
                     ValidationError)
from .freealg import lex_pos, lex_word
from .linalg import RowSpace, integer_rank, integer_vector, left_kernel_basis

BAR_STRAND_GUARD = 200000
TOR_BOUND = 8           # the top internal degree of a Tor_3 scan unless one is given


class TorTable:
    """dim Tor_{h,m} for m <= bound at one homological degree h."""

    def __init__(self, hom_degree, bound, dims):
        self.hom_degree = hom_degree
        self.bound = bound
        self.dims = {m: d for m, d in dims.items() if d}

    def dim(self, m):
        return self.dims.get(m, 0)

    def top_degree(self):
        return max(self.dims) if self.dims else None

    def purity(self):
        """'zero', ('pure', m) when concentrated in one internal degree,
        else 'impure'."""
        if not self.dims:
            return "zero"
        degs = sorted(self.dims)
        if len(degs) == 1:
            return ("pure", degs[0])
        return "impure"

    def __repr__(self):
        return f"TorTable(h={self.hom_degree}, <= {self.bound}, {self.dims})"


def _nf_row(ring, terms, mul=1):
    """The row of sum_t s_t * nf(word at position p_t of degree n_t) for
    integer s_t, the basis word of rank k going to column k * mul + a_t;
    scaled to integers: (row, L) with the exact row equal to row / L, L the
    lcm of the normal forms' denominators.  ``terms`` holds (s, n, p, a).
    Over F_p the entries are integers congruent to the exact ones (L = 1),
    not reduced mod p."""
    merged = [(s, ring.nf_word(n, p), a) for s, n, p, a in terms]
    den = lcm(*[d for _, (_, d), _ in merged])
    out = {}
    for s, (nf, d), a in merged:
        f = s * (den // d)
        for k, beta in nf.items():
            col = k * mul + a
            c = out.get(col, 0) + f * beta
            if c:
                out[col] = c
            else:
                del out[col]
    return out, den


class ResolutionSlice:
    """Degree-m matrices d1, d2 of the special resolution, with kernels, in
    the coordinates of the module docstring.  Rows are integer vectors (see
    ``_nf_row``); a relation is a stored integer row of R's block.

    ``row(c)`` builds the d2 row of domain column c on its first read and
    checks it for d1 d2 = 0: the sum of its entries times the words b x_i
    must lie in I^m = ker d1, one leading-chain reduction and no normal
    form of degree m.  ``is_cycle`` reads the rows of its vector's
    columns, ``kernel_of_d2`` every row.  A wrong normal form shows there
    when the words of a built row leave I^m; one that no built row reads
    changes no output.  A fault that only scales whole rows, as doubling
    the normal form of every word a row reads, stays in I^m and every
    rank: ``is_cycle`` finds A^1 K2^{m-1} outside K2^m one degree up."""

    def __init__(self, ring, rel, m):
        self.ring = ring
        self.m = m
        # (j, {position in T^j: integer}, offset): one domain block per row
        self.blocks = []
        size = 0
        for j in rel.degrees():
            if j > m:
                break
            h = len(ring.basis(m - j)[0])
            for row in rel.blocks[j].raw_basis():
                self.blocks.append((j, row, size))
                size += h
        self.offsets = [off for _, _, off in self.blocks]
        self.size = size                # dim (A (x) R)^m
        # b (x) x_i at column rank(b) g + i is the word at pos(b) g + i of
        # T^m; ``contains`` reads the integer entries mod p over F_p
        self._below, self._ideal = ring.basis(m - 1)[0], ring.ideal_component(m)
        self.width = ring.g * len(self._below)      # dim (A (x) A^1)^m
        self._rows = {}                 # domain column -> checked (row, L)

    def row(self, c):
        """The image (row, L) of domain column c = offset + rank(a) of a
        block a (x) r, built and checked on first read: the word a w[:-1]
        of each word w of r sits at pos(a) g^(j-1) + pos(w) // g, and its
        letter is pos(w) % g."""
        out = self._rows.get(c)
        if out is None:
            ring, g, m = self.ring, self.ring.g, self.m
            j, rel_row, off = self.blocks[bisect_right(self.offsets, c) - 1]
            base = ring.basis(m - j)[0][c - off] * g ** (j - 1)
            out = _nf_row(ring, [(s, m - 1, base + p // g, p % g)
                                 for p, s in rel_row.items()], g)
            r, below = out[0], self._below
            if r and not self._ideal.contains(
                    {below[col // g] * g + col % g: s for col, s in r.items()}):
                raise InvariantViolation("d1 ∘ d2 != 0: resolution slice is broken")
            self._rows[c] = out
        return out

    def d2_rows(self):
        """Every d2 row (row, L), in domain column order."""
        return [self.row(c) for c in range(self.size)]

    def kernel_of_d2(self):
        """Basis of K2^m as coefficient vectors over the domain columns.
        Also checks that R^m ∩ Ĩ^m = 0, Ĩ = F¹I + IF¹: a unit column in
        the kernel raises NotMinimalRelations.

        A sum of a (x) r lies in K2 iff its lift sum a r in T lies in IF¹
        (d2 reads off the last letter), so a kernel vector with unit part r
        gives r ∈ IF¹ + F¹I.  Conversely, R generating I, r ∈ R^m ∩ Ĩ^m is
        sum x_i f_i + e, e ∈ IF¹, f_i = lift(κ_i) mod IF¹, κ_i ∈ (A (x)
        R)^(m-1), and 1 (x) r - sum x_i κ_i ∈ K2^m has unit part r."""
        m, rows = self.m, self.d2_rows()
        # row k stands for rows[k][0] / L_k, so it carries the tag L_k
        ker = left_kernel_basis(self.ring.field, [r for r, _ in rows], self.width,
                                tags=[den for _, den in rows])
        unit_cols = {off for j, _, off in self.blocks if j == m}
        for v in ker:
            if any(c in unit_cols for c in v):
                raise NotMinimalRelations(f"relations of degree {m} meet F¹I + IF¹: "
                                          "not a bimodule of relations")
        return ker

    def is_cycle(self, v):
        """d2(v) = 0, v an integer vector over the domain columns."""
        rows = [(s, *self.row(c)) for c, s in v.items()]
        den = lcm(*[d for _, _, d in rows])
        out = {}
        for s, r, d in rows:
            for col, t in r.items():
                out[col] = out.get(col, 0) + s * (den // d) * t
        return not integer_vector(self.ring.field, out)

    def left_letter_rows(self, below, kernel):
        """The rows x_i v, i < g, of each vector v of ``kernel`` ⊆ K2^(m-1)
        on the domain columns of this slice, unscaled; ``below`` is the
        slice of degree m - 1.  Column off + rank(a) of block b there goes
        to offsets[b] + rank(nf(x_i a)) here."""
        ring, g, m = self.ring, self.ring.g, self.m
        out = []
        for v in kernel:
            terms = []
            for col, s in v.items():
                b = bisect_right(below.offsets, col) - 1
                j, _, off = below.blocks[b]
                n = m - j
                terms.append((s, n, g ** (n - 1), ring.basis(n - 1)[0][col - off],
                              self.offsets[b]))
            for i in range(g):
                row = _nf_row(ring, [(s, n, i * step + pa, a)
                                     for s, n, step, pa, a in terms])[0]
                if row:
                    out.append(row)
        return out


def tor3_resolution(ring, rel, bound):
    """dim Tor_{3,m} for m <= bound via K2, rel being a bimodule of
    relations for the ring up to the bound, as each slice checks
    (NOT_MINIMAL_RELATIONS otherwise); Ĩ^m = K2^m = 0 for m <= 2.

    dim K2^m needs no kernel: d1 maps onto A^m for m >= 1 and R
    generates I, so rank d2^m = g h(m-1) - h(m), h(m) the rank of the
    ``ring.ideal_component(m)`` the membership check reads and slice m + 1
    reads as ``basis(m)``.  d2(v) = 0 on its echelon rows puts
    A^1 K2^{m-1} in K2^m; of equal dimension, it is K2^m, and its rows
    are the basis slice m + 1 multiplies.  So the kernel runs only where
    a new syzygy is read (m < bound) or R^m has unit columns, and its
    size must be dim K2^m."""
    dims = {}
    if rel.max_degree() < 0:
        return TorTable(3, bound, {})
    prev_slice, basis = None, []
    for m in range(3, bound + 1):
        sl = ResolutionSlice(ring, rel, m)
        moved = RowSpace(ring.field)
        for row in sl.left_letter_rows(prev_slice, basis):
            moved.insert(row)
        dim = sl.size - sl.width + ring.hilbert_value(m)
        basis = moved.raw_basis()
        if moved.rank > dim:
            raise InvariantViolation(f"rank A^1 K2^{m - 1} > dim K2^{m} = {dim}")
        if not all(map(sl.is_cycle, basis)):
            raise InvariantViolation("A^1 K2^{m-1} escapes K2^m")
        if rel.dim(m) or (m < bound and dim > moved.rank):
            ker = sl.kernel_of_d2()
            if len(ker) != dim:
                raise InvariantViolation(f"dim K2^{m} = {len(ker)}, not {dim} by exactness")
            basis = [integer_vector(ring.field, v) for v in ker]
        dims[m] = dim - moved.rank
        prev_slice = sl
    return TorTable(3, bound, dims)


# ---------------------------------------------------------------------------
# Normalized bar complex (the oracle).

def _bar_row(rx, off, cols, q2, fx, fm):
    """The integer row fm·mu(a, x_1)|x' - fx·a|d(x) of a chain a|x, on
    columns -position: x's row ``rx`` moved by a's offset ``off``, and the
    merged terms ``cols`` (column, integer) moved by the position q2 of x'.
    Plain loops, not comprehensions: the rows are short (under three
    entries on average on k[x, y, z]), and under CPython 3.11 each
    comprehension is a call."""
    row = {}
    if fx == 1:
        for col, c in rx.items():
            row[col - off] = -c
    else:
        for col, c in rx.items():
            row[col - off] = -fx * c
    for col, c in cols:
        row[col - q2] = fm * c
    return row


def _strand_starts(h, top, bound):
    """Chain positions of the strands (A+)^(x)s, s <= top, in internal
    degree r <= bound, from h[d] = dim A^d (d >= 1; h[0] unused).

    ``start[s][r][d]`` is the position of the first chain whose first
    factor has degree d, and ``start[s][r][-1]`` the strand's size; strand
    0 is k in degree 0.  Chains are ordered by the degree of the first
    factor, then its basis word, then the rest of the chain; so the chain
    a|x, a the i-th basis word of degree d, sits at start[s][r][d] +
    i * size(s-1, r-d) + (position of x).  A strand is listed up to the
    degree its h values reach: up to len(h) - 2 + s."""
    start = [[[0, 1]] + [[0, 0]] * bound]
    for s in range(1, top + 1):
        below = start[-1]
        row = []
        for r in range(min(bound, len(h) - 2 + s) + 1):
            st = [0, 0]
            for d in range(1, r - s + 2):
                st.append(st[-1] + h[d] * below[r - d][-1])
            row.append(st)
        start.append(row)
    return start


def tor_bar(ring, hom_degree, bound):
    """Tor_{hom_degree, m} dims for m <= bound from the normalized bar
    complex; hom_degree <= 4.  Chains are positions (``_strand_starts``)
    and rows come by recursion on the first factor (see the module
    docstring); each row is scaled to integers by the lcm of its normal
    forms' denominators, as the rows only feed ranks.

    The rank of d_s on the (s, r) strand is that of its letter rows
    l|w|x', w of degree d1: the sum_d1 h(1 + d1) cnt(s-2, r-1-d1) counted
    rows (module docstring), those whose l w is the k-th basis word
    e_k = l_{a_k} w_{b_k} of degree 1 + d1, read off e_k's position, plus
    the rank of the residual rows.  Each other pair (l_i, w_j), with
    nf(l_i w_j) = sum c_k e_k, gives per x' the residual row

        -l_i|d(w_j|x') + sum c_k l_{a_k}|d(w_{b_k}|x'),

    its letter row minus the c_k-combination of counted rows, whose merged
    part is zero.  Only the pairs whose prefix l_i w_j[:-1] is a basis word
    give a row, the second step of the module docstring: the rows of the
    others lie in the span of these and the counted rows.  A residual row
    is built from the kept blocks of w_j and the w_{b_k} one strand down,
    each built on its first read, and scaled to integers; no elimination
    of the product table is needed.

    A basis word of degree 1 + d1 with its suffix of degree d1 outside the
    basis, or a count of residual pairs other than h(1) h(d1) - h(1 + d1),
    raises InvariantViolation: the basis and the normal forms disagree.
    ``BAR_STRAND_GUARD`` bounds the chains of the whole strands n - 1, n
    and n + 1, checked before any row is built."""
    if not 1 <= hom_degree <= 4:
        raise ValidationError("tor_bar supports homological degrees 1..4")
    n = hom_degree
    if bound < n:
        return TorTable(n, bound, {})
    # strands n-1..n+1 in degrees <= bound read h up to bound - max(n-1, 1) + 1
    words = [None] + [ring.basis(d)[0] for d in range(1, bound - max(n - 1, 1) + 2)]
    h = [0] + [len(ws) for ws in words[1:]]
    start = _strand_starts(h, n + 1, bound)
    for s in (n - 1, n, n + 1):
        for m in range(n, bound + 1):
            size = start[s][m][-1]
            if size > BAR_STRAND_GUARD:
                raise ResourceExceeded(f"bar strand (n={s}, m={m}) has {size} chains")
    g, field = ring.g, ring.field
    # splits[d1][k] = (a, b): the k-th basis word of degree 1 + d1 is l_a w_b,
    # read off its position before any normal form is read
    splits = [None]
    for d1 in range(1, len(h) - 1):
        shift, rank = g ** d1, ring.basis(d1)[1]
        split = []
        for pos in words[1 + d1]:
            a, b = divmod(pos, shift)
            if b not in rank:
                raise InvariantViolation(f"basis word {pos} of degree {1 + d1} has a "
                                         "suffix outside the basis")
            split.append((a, rank[b]))
        splits.append(split)

    mults = {}

    def mult(d1, d2):
        """[i][j] -> ({k: c}, den): nf(w_i w_j) = sum c e_k / den over the
        ranks of the degree d1 + d2 basis; w_i w_j sits at
        pos(w_i) g^d2 + pos(w_j)."""
        table = mults.get((d1, d2))
        if table is None:
            shift = g ** d2
            table = [[ring.nf_word(d1 + d2, u * shift + v) for v in words[d2]]
                     for u in words[d1]]
            mults[(d1, d2)] = table
        return table

    residuals = {}

    def residual(d1):
        """(i, j, [(a_k, b_k, c_k)], dm) for each pair whose product l_i w_j
        is not the basis word e_k = l_{a_k} w_{b_k} of ``splits`` at its
        position, nf(l_i w_j) = sum c_k e_k / dm, and whose prefix
        l_i w_j[:-1] is a basis word; the pairs with any other prefix add
        nothing to a rank (module docstring).  l_i w_j[:-1] sits at
        i g^(d1-1) + pos(w_j) // g, a letter l_i when d1 = 1."""
        out = residuals.get(d1)
        if out is None:
            split, rank = splits[d1], ring.basis(d1)[1]
            home = {pair: k for k, pair in enumerate(split)}
            shift = g ** (d1 - 1)
            out = residuals[d1] = []
            count = 0
            for i, line in enumerate(mult(1, d1)):
                for j, (terms, dm) in enumerate(line):
                    k = home.get((i, j))
                    if k is None or dm != 1 or terms != {k: 1}:
                        count += 1
                        if i * shift + words[d1][j] // g in rank:
                            out.append((i, j, [(*split[e], c) for e, c in terms.items()],
                                        dm))
            if count != g * h[d1] - h[1 + d1]:
                raise InvariantViolation(f"{count} residual pairs in degree {1 + d1}, "
                                         f"not h(1) h({d1}) - h({1 + d1})")
        return out

    kept = {}
    zero = [({}, 1)]

    def block(s, r, d, i):
        """Rows (row, L) of d_s on the chains a_i|x of the (s, r) strand, a_i
        the i-th basis word of degree d, in the order of x, the exact row
        being row / L on columns -p; built on first read and kept.  The
        one chain a_i of strand 1 has the row 0."""
        out = kept.get((s, r, d, i))
        if out is not None:
            return out
        if s == 1:
            return zero         # d_1 = 0
        out = kept[s, r, d, i] = []
        here, there = start[s - 1][r], start[s - 2]
        off = here[d] + i * there[r - d][-1]
        for d1 in range(1, r - d - s + 3):
            n2 = there[r - d - d1][-1]
            if not h[d1] or not n2:
                continue
            base = here[d + d1]
            line = mult(d, d1)[i]
            for j in range(h[d1]):
                terms, dm = line[j]
                cols = [(-base - k * n2, c) for k, c in terms.items()]
                xrows = block(s - 1, r - d, d1, j)
                for q2 in range(n2):
                    rx, lx = xrows[q2]
                    if lx == dm:
                        out.append((_bar_row(rx, off, cols, q2, 1, 1), dm))
                    else:
                        den = lcm(dm, lx)
                        out.append((_bar_row(rx, off, cols, q2, den // lx, den // dm),
                                    den))
        return out

    def residual_rows(s, r):
        """Each residual row of d_s on the (s, r) strand, per pair of
        ``residual`` and per x', as a fresh integer dict with no zero
        entry: the row times dm and the lcm of its parts' scales, from the
        kept blocks of the (s - 1, r - 1) strand; l_a|y sits at
        a cnt(s-2, r-1) + pos(y), the letter chains coming first."""
        below = start[s - 2]
        ny = below[r - 1][-1]
        for d1 in range(1, r - s + 2):
            nx = below[r - 1 - d1][-1]
            if not nx:
                continue
            for i, j, terms, dm in residual(d1):
                parts = [(i * ny, block(s - 1, r - 1, d1, j), -dm)]
                parts += [(a * ny, block(s - 1, r - 1, d1, b), c) for a, b, c in terms]
                for q2 in range(nx):
                    den = 1
                    for _, xrows, _ in parts:
                        lx = xrows[q2][1]
                        if lx != 1:
                            den = lcm(den, lx)
                    row = {}
                    for off, xrows, f in parts:
                        rx, lx = xrows[q2]
                        if lx != den:
                            f *= den // lx
                        for col, c in rx.items():
                            col -= off
                            t = row.get(col)
                            if t is None:
                                row[col] = f * c
                            else:
                                t += f * c
                                if t:
                                    row[col] = t
                                else:
                                    del row[col]
                    yield row

    def letter_rank(s, r):
        """Rank of the letter rows of d_s on the (s, r) strand: the count
        of the rows with a normal product plus the rank of the rest."""
        if s == 1:
            return 0        # d_1 = 0
        below = start[s - 2]
        count = sum(h[1 + d1] * below[r - 1 - d1][-1] for d1 in range(1, r - s + 2))
        return count + integer_rank(field, residual_rows(s, r))

    dims = {}
    for m in range(n, bound + 1):
        d = start[n][m][-1] - letter_rank(n, m) - letter_rank(n + 1, m)
        if d:
            dims[m] = d
    # block refers to itself: unbinding it breaks the cycle, so the kept
    # rows and the product tables go when tor_bar returns
    block = None
    return TorTable(n, bound, dims)


# ---------------------------------------------------------------------------
# Homological complexity.

def is_commutator_relations(rel, g):
    """True iff rel is exactly the span of all x_i x_j - x_j x_i: the
    quotient is then the polynomial ring, which is Koszul, so Tor_3 is
    concentrated in internal degree 3."""
    if rel.degrees() != [2]:
        return False
    want = g * (g - 1) // 2
    if want == 0 or rel.dim(2) != want:
        return False
    block = rel.blocks[2]
    one = rel.field.one
    for i in range(g):
        for j in range(i + 1, g):
            vec = {lex_pos((i, j), g): one, lex_pos((j, i), g): -one}
            if not block.contains(vec):
                return False
    return True


def support_reach(rel, upto):
    """The largest n <= upto such that some word of degree n avoids J, the
    monomial ideal generated by the words in the support of rel (the same
    set for every basis of rel).  rel lies in J, so T/<rel> maps onto T/J
    and every degree that T/J reaches is nonzero in T/<rel>.

    Words that avoid J are followed by their suffixes (Ufnarovski): a word
    w avoids J iff w minus its last letter does and no suffix of w of
    length at most L, the longest support word, lies in the support; so
    the last L - 1 letters of an avoiding word decide its extensions, and
    a degree is reached iff the set of those suffixes is nonempty there.
    """
    g, lens = rel.g, rel.degrees()
    support = set()
    for j in lens:
        support.update(lex_word(p, g, j) for p in set().union(*rel.blocks[j].rows.values()))
    keep = max(lens, default=1) - 1
    states = {()}
    for n in range(1, upto + 1):
        nxt = set()
        for s in states:
            for i in range(g):
                w = s + (i,)
                if not any(w[-k:] in support for k in lens):
                    # s holds at most keep letters: keep the last keep of w
                    nxt.add(w[1:] if len(w) > keep else w)
        if not nxt:
            return n - 1
        states = nxt
    return upto


class ComplexityResult:
    def __init__(self, c, certified, table=None, note=""):
        self.c = c
        self.certified = certified
        self.table = table
        self.note = note

    def __repr__(self):
        flag = "certified" if self.certified else "bounded-degree"
        return f"ComplexityResult(c={self.c}, {flag})"


def complexity(ring, rel, bound_hint=TOR_BOUND):
    """c(A) = sup{m-1 : Tor_{3,m} != 0} with a certification flag.

    Certified routes: A finite-dimensional (scan m <= c_A + 3, enough since
    c(A) <= c_A + 2), or rel recognized as the full commutator space.  Then
    A is the polynomial ring k[x_1..x_g], whose Koszul complex resolves k
    over any field: Tor_3 is Λ³V, in internal degree 3 only, of dimension
    C(g, 3), so c = 2 (or -1 when g < 3) with no scan.  Anything else
    scans m <= bound_hint and is reported uncertified.

    Finite dimension is read from the Hilbert values up to
    min(max_degree, bound_hint + 3), unless the support quotient reaches
    that degree (``support_reach``): then A is nonzero there, the values
    would hold no zero, and the uncertified scan follows at once.  Where
    the values hold a zero, T/J dies before it (h_{T/J} <= h_A), so the
    Hilbert scan still runs.
    """
    if rel.max_degree() < 0:
        return ComplexityResult(-1, True, TorTable(3, bound_hint, {}),
                                note="free: no relations")
    if is_commutator_relations(rel, ring.g):
        d3 = comb(ring.g, 3)
        table = TorTable(3, max(bound_hint, 3), {3: d3} if d3 else {})
        c = 2 if d3 else -1
        return ComplexityResult(c, True, table, note="polynomial ring (Koszul, 3-pure)")
    upto = min(ring.max_degree, bound_hint + 3)
    if support_reach(rel, upto) < upto:
        hil = ring.hilbert(upto)
        if hil.finite_dim:
            bound = hil.c_a + 3
            table = tor3_resolution(ring, rel, bound)
            top = table.top_degree()
            c = top - 1 if top is not None else -1
            if c > hil.c_a + 2:
                raise InvariantViolation(f"upper bound c(A) <= c_A + 2 violated: "
                                         f"c = {c}, c_A = {hil.c_a}")
            return ComplexityResult(c, True, table, note="finite-dimensional scan")
    table = tor3_resolution(ring, rel, bound_hint)
    top = table.top_degree()
    c = top - 1 if top is not None else -1
    return ComplexityResult(c, False, table, note=f"scan bounded by {bound_hint}")
