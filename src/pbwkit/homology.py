"""Tor_3 internal-degree tables, two independent ways, and the homological
complexity they bound.

Resolution route: with a bimodule of relations R for A, the start of a
projective resolution is A (x) R --d2--> A (x) A^1 --d1--> A -> k -> 0 with
d2(a (x) r) = sum a*nf(u) (x) v over the splittings r = sum u (x) v of each
word into (all letters but the last, last letter).  Writing K2 = ker(d2),
dim Tor_{3,m} = dim K2^m - dim(A^1 K2^{m-1}).

Bar route: the normalized bar complex has n-chains (A+)^(x)n with
differential sum (-1)^(i-1) (merge at i); the internal-degree-m strand is
finite and Tor_{n,m} is its homology.  Quarantined as the desk-scale
oracle; it grows combinatorially.

Both routes build their rows from the integer normal forms of
``PresentedRing.nf_word``: each row is scaled to integers by the lcm L of
its normal forms' denominators.  The bar rows and A^1 K2 only feed ranks
and containment, which no scale changes; a d2 row enters the left kernel
with the tag L in place of 1, so the kernel vectors stay exact.
"""

from __future__ import annotations

from math import lcm

from .errors import (InvariantViolation, NotMinimalRelations, ResourceExceeded,
                     ValidationError)
from .freealg import DegreeBasis
from .gradedring import is_minimal_relations
from .linalg import RowSpace, integer_vector, intersection, left_kernel_basis, span

BAR_STRAND_GUARD = 200000


class TorTable:
    """dim Tor_{h,m} for m <= bound at one homological degree h."""

    def __init__(self, hom_degree, bound, dims, certified_complete=False):
        self.hom_degree = hom_degree
        self.bound = bound
        self.dims = {m: d for m, d in dims.items() if d}
        self.certified_complete = certified_complete

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


def purity_classify(table, N):
    """True iff every nonzero entry sits at internal degree N+1."""
    return all(m == N + 1 for m in table.dims)


def _place(out, index, f, nf, pre, post):
    """out += f * (pre (x) nf (x) post) over the columns
    ``index[pre + (e,) + post]``; a word missing from the index is a bug."""
    for e, beta in nf.items():
        col = index.get(pre + (e,) + post)
        if col is None:
            raise InvariantViolation(f"normal form term {e} outside the basis")
        c = out.get(col, 0) + f * beta
        if c:
            out[col] = c
        else:
            del out[col]


def _nf_row(ring, index, terms):
    """The row of sum_t s_t * (pre_t (x) nf(w_t) (x) post_t) for integer
    s_t, scaled to integers: (row, L) with the exact row equal to row / L,
    L the lcm of the normal forms' denominators.  Over F_p the entries are
    integers congruent to the exact ones (L = 1), not reduced mod p."""
    merged = [(s, ring.nf_word(w), pre, post) for s, w, pre, post in terms]
    den = lcm(*[d for _, (_, d), _, _ in merged])
    out = {}
    for s, (nf, d), pre, post in merged:
        if nf:
            _place(out, index, s * (den // d), nf, pre, post)
    return out, den


class ResolutionSlice:
    """Degree-m matrices d1, d2 of the special resolution, with kernels.
    Rows are integer vectors (see ``_nf_row``); a relation is a stored
    integer row of R's block, so the domain basis is a ⊗ (that row)."""

    def __init__(self, ring, rel, m):
        self.ring = ring
        self.rel = rel
        self.m = m
        self.domain = []        # (a_word, (j, ridx)) indexing (A (x) R)^m
        self.rel_rows = {}      # (j, ridx) -> {word: integer}
        self.codomain_index = {}
        self.codomain = []      # (b_word, letter) indexing (A (x) A^1)^m
        self.target_index = None  # (a_word,) -> position over A^m, on first d1
        self._build()

    def _build(self):
        ring, rel, m = self.ring, self.rel, self.m
        for b in ring.basis_words(m - 1) if m >= 1 else []:
            for i in range(ring.g):
                self.codomain_index[(b, i)] = len(self.codomain)
                self.codomain.append((b, i))
        for j in rel.degrees():
            if j > m:
                continue
            basis = DegreeBasis(ring.g, j)
            for ridx, row in enumerate(rel.blocks[j].raw_basis()):
                self.rel_rows[(j, ridx)] = {basis.word_at(p): s for p, s in row.items()}
                for a in ring.basis_words(m - j):
                    self.domain.append((a, (j, ridx)))

    def d2_row(self, a_word, rkey):
        """Image of a (x) r in (A (x) A^1)^m coordinates, as (row, L)."""
        return _nf_row(self.ring, self.codomain_index,
                       [(s, a_word + w[:-1], (), w[-1:])
                        for w, s in self.rel_rows[rkey].items()])

    def d1_of_codomain_vec(self, vec):
        """d1(b (x) x_i) = nf(b x_i), applied to an integer codomain vector,
        as (row, L) over the basis words of A^m."""
        if self.target_index is None:
            self.target_index = {(e,): k for k, e in enumerate(self.ring.basis_words(self.m))}
        terms = []
        for col, s in vec.items():
            b, i = self.codomain[col]
            terms.append((s, b + (i,), (), ()))
        return _nf_row(self.ring, self.target_index, terms)

    def kernel_of_d2(self):
        """Basis of K2^m as coefficient vectors over the domain index.
        Also checks d1 d2 = 0 and K2 ⊆ A+ (x) R on this slice."""
        field = self.ring.field
        p = getattr(field, "p", None)
        rows = [self.d2_row(a, rk) for a, rk in self.domain]
        for r, _ in rows:
            # over F_p the entries are congruent to the exact ones
            image = self.d1_of_codomain_vec(r)[0].values() if r else ()
            if any(image) if p is None else any(c % p for c in image):
                raise InvariantViolation("d1 ∘ d2 != 0: resolution slice is broken")
        # row k stands for rows[k][0] / L_k, so it carries the tag L_k
        ker = left_kernel_basis(field, [r for r, _ in rows], len(self.codomain),
                                tags=[den for _, den in rows])
        unit_cols = {k for k, (a, rk) in enumerate(self.domain) if a == ()}
        for v in ker:
            if any(c in unit_cols for c in v):
                raise InvariantViolation("kernel escapes A+ (x) R: relations not minimal?")
        return ker


def tor3_resolution(ring, rel, bound):
    """dim Tor_{3,m} for m <= bound via K2, requiring rel to be a bimodule
    of relations for the ring (checked; NOT_MINIMAL_RELATIONS otherwise)."""
    if rel.max_degree() >= 0 and not is_minimal_relations(rel):
        raise NotMinimalRelations("relations are not a bimodule of relations")
    dims = {}
    if rel.max_degree() < 0:
        return TorTable(3, bound, {}, certified_complete=True)
    prev_slice = None
    prev_kernel = []
    for m in range(0, bound + 1):
        if m < 3:
            # V_n^i = 0 for i <= 1 and K2 lives inside A+ (x) R with R in
            # degrees >= 2, so Tor_{3,m} vanishes for m <= 2
            prev_slice, prev_kernel = None, []
            continue
        sl = ResolutionSlice(ring, rel, m)
        ker = sl.kernel_of_d2()
        moved = RowSpace(ring.field)
        if prev_slice is not None:
            # A^1 K2^{m-1} only feeds a rank and a containment, so its rows
            # are built from the kernel scaled to integers
            dom_index = {key: k for k, key in enumerate(sl.domain)}
            for v in prev_kernel:
                terms = [(s, *prev_slice.domain[col]) for col, s in v.items()]
                for i in range(ring.g):
                    out = _nf_row(ring, dom_index,
                                  [(s, (i,) + a, (), (rk,)) for s, a, rk in terms])[0]
                    if out:
                        moved.insert(out)
        if prev_slice is not None and moved.rank:
            ksp = span(ring.field, ker)
            for row in moved.raw_basis():
                if not ksp.contains(row):
                    raise InvariantViolation("A^1 K2^{m-1} escapes K2^m")
        dims[m] = len(ker) - moved.rank
        prev_slice = sl
        prev_kernel = [integer_vector(ring.field, v) for v in ker]
    return TorTable(3, bound, dims)


# ---------------------------------------------------------------------------
# Normalized bar complex (the oracle).

def _strand_basis(ring, n, m):
    """Basis tuples of (A+)^(x)n in internal degree m."""
    if n == 0:
        return [()] if m == 0 else []
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            for w in ring.basis_words(remaining):
                out.append(prefix + (w,))
            return
        for d in range(1, remaining - slots + 2):
            ws = ring.basis_words(d)
            if not ws:
                continue
            for w in ws:
                rec(prefix + (w,), remaining - d, slots - 1)

    if m >= n:
        rec((), m, n)
    if len(out) > BAR_STRAND_GUARD:
        raise ResourceExceeded(f"bar strand (n={n}, m={m}) has {len(out)} chains")
    return out


def _bar_differential_rows(ring, n, m, domain, codomain_index):
    """Rows of d_n on the (n, m) strand: sum_i (-1)^(i-1) merge at i, each
    scaled to integers by the lcm of its normal forms' denominators (the
    rows only feed ranks)."""
    nf_word = ring.nf_word
    rows = []
    for chain in domain:
        merged = [nf_word(chain[i] + chain[i + 1]) for i in range(n - 1)]
        den = lcm(*[d for _, d in merged])
        out = {}
        for i, (nf, d) in enumerate(merged):
            if nf:
                f = den // d
                _place(out, codomain_index, -f if i % 2 else f, nf,
                       chain[:i], chain[i + 2:])
        rows.append(out)
    return rows


def tor_bar(ring, hom_degree, bound):
    """Tor_{hom_degree, m} dims for m <= bound from the normalized bar
    complex; hom_degree <= 4."""
    if not 1 <= hom_degree <= 4:
        raise ValidationError("tor_bar supports homological degrees 1..4")
    n = hom_degree
    dims = {}
    for m in range(0, bound + 1):
        if n > m:
            continue  # no chains: Tor_{n,m} = 0 structurally
        dom = _strand_basis(ring, n, m)
        below = _strand_basis(ring, n - 1, m)
        below_index = {t: k for k, t in enumerate(below)}
        rank_dn = span(ring.field,
                       _bar_differential_rows(ring, n, m, dom, below_index)).rank
        above = _strand_basis(ring, n + 1, m)
        dom_index = {t: k for k, t in enumerate(dom)}
        rank_dn1 = span(ring.field,
                        _bar_differential_rows(ring, n + 1, m, above, dom_index)).rank
        d = len(dom) - rank_dn - rank_dn1
        if d:
            dims[m] = d
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
    basis = DegreeBasis(g, 2)
    one = rel.field.one
    for i in range(g):
        for j in range(i + 1, g):
            vec = {basis.pos((i, j)): one, basis.pos((j, i)): -one}
            if not block.contains(vec):
                return False
    return True


def overlap(rel_rows, g, n, field):
    """The overlap space X = (R (x) V) ∩ (V (x) R) in T^{n+1} for
    independent rows of R ⊆ T^n.  Returns (rv, vr, X basis): row
    k = r*g + i of rv is rel_rows[r] (x) x_i, of vr it is x_i (x) rel_rows[r]."""
    rv = [{p * g + i: s for p, s in row.items()} for row in rel_rows for i in range(g)]
    vr = [{i * g ** n + p: s for p, s in row.items()} for row in rel_rows for i in range(g)]
    return rv, vr, intersection(field, rv, vr, g ** (n + 1))


def overlap_dimension(rel, g):
    """dim of (rel (x) V) ∩ (V (x) rel) in degree N+1 for N-pure rel."""
    degs = rel.degrees()
    if len(degs) != 1:
        raise ValidationError("overlap needs a pure relation space")
    n = degs[0]
    return len(overlap(rel.blocks[n].basis(), g, n, rel.field)[2])


class ComplexityResult:
    def __init__(self, c, certified, table=None, note=""):
        self.c = c
        self.certified = certified
        self.table = table
        self.note = note

    def __repr__(self):
        flag = "certified" if self.certified else "bounded-degree"
        return f"ComplexityResult(c={self.c}, {flag})"


def complexity(ring, rel, bound_hint=8):
    """c(A) = sup{m-1 : Tor_{3,m} != 0} with a certification flag.

    Certified routes: A finite-dimensional (scan m <= c_A + 3, enough since
    c(A) <= c_A + 2), or rel recognized as the full commutator space (the
    polynomial ring is Koszul, so the table is 3-pure and the single entry
    is the overlap dimension).  Anything else scans m <= bound_hint and is
    reported uncertified.
    """
    if rel.max_degree() < 0:
        return ComplexityResult(-1, True, TorTable(3, bound_hint, {}, True),
                                note="free: no relations")
    if is_commutator_relations(rel, ring.g):
        d3 = overlap_dimension(rel, ring.g)
        table = TorTable(3, max(bound_hint, 3), {3: d3} if d3 else {}, True)
        c = 2 if d3 else -1
        return ComplexityResult(c, True, table, note="polynomial ring (Koszul, 3-pure)")
    hil = ring.hilbert(upto=min(ring.max_degree, bound_hint + 3))
    if hil.finite_dim:
        bound = hil.c_a + 3
        table = tor3_resolution(ring, rel, bound)
        table.certified_complete = True
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
