"""The central extension D(P) = T[z]/<P*>, built degree by degree.

This is the independent check against the Jacobi ladder: (J_n) holds iff
the degree-n annihilator of z in D(P) vanishes, so the two modules must
agree on every instance.  To keep the cross-check honest the engine uses
its own monomial representation (word (x) z-power, ordered by descending
word degree, i.e. ascending z-exponent) and its own ideal recursion in
T[z]; nothing is shared with the ladder beyond the generic row-space code
and the count dim T^{<=n}.

P_z is always built through alpha_z (never by homogenizing a raw spanning
set), which is what guarantees <P*> = <P_z>.

The ideal I = <P_z> is built by the recursion

    I^m = z·I^{m-1} + V·N + N·V + P_z^m,

where V = T^1 and N is the set of echelon rows of I^{m-1} whose pivot is
not a pivot of z·I^{m-2}.  Multiplication by z moves every column of
T[z]^{m-1} by the g^m columns of word degree m, so z·I^{m-1} is stored
shifted, unreduced, and its pivots are those of I^{m-1} moved by g^m.  The
recursion is exact: z·I^{m-2} is stored as is inside I^{m-1}, so it and
span(N) have disjoint leading columns and together span I^{m-1}; and z is
central, so V·z·I^{m-2} = z·V·I^{m-2} ⊆ z·I^{m-1} (and likewise on the
right), which leaves V·N and N·V as the only new products.
"""

from __future__ import annotations

from .errors import ResourceExceeded, ValidationError
from .freealg import column_guard, filtration_size, homogenize
from .gradedring import ideal_chain
from .linalg import RowSpace, left_kernel_basis, span

ENGINE_DEGREE_CAP = 24


def build_pz(alpha, rel):
    """alpha_z(r) = sum alpha_i(r) z^i for each basis element r of rel.

    Since alpha_0 is the inclusion these are exactly the external
    homogenizations of the alpha images, homogeneous of total degree
    deg(r); evaluating z := 1 recovers alpha(r) and z := 0 recovers r.
    """
    out = []
    for n in rel.degrees():
        for row in rel.blocks[n].basis():
            image = alpha.apply_vec(n, row)
            out.append(homogenize(image))
    return out


class ZMonomials:
    """Position indexing for T[z]^n: monomial w z^(n-|w|) for every word w
    of degree <= n, ordered by word degree descending (z-power ascending),
    lex inside a degree.  High-degree pivots keep the echelon rows sparse;
    multiplication by z into degree n+1 is a constant position shift."""

    def __init__(self, g, n):
        self.g = g
        self.n = n
        self.size = filtration_size(g, n)
        if self.size > column_guard():
            raise ResourceExceeded(
                f"T[z]^{n} over {g} generators needs {self.size} columns")
        # first position of the word-degree-d block
        self._block_start = [self.size - filtration_size(g, d) for d in range(n + 1)]

    def pos_of_word(self, w):
        p = 0
        for letter in w:
            p = p * self.g + letter
        return self._block_start[len(w)] + p

    def word_at(self, pos):
        starts = self._block_start
        d = self.n
        while d and starts[d - 1] <= pos:
            d -= 1
        rem = pos - starts[d]
        letters = []
        for _ in range(d):
            letters.append(rem % self.g)
            rem //= self.g
        return tuple(reversed(letters))

    def monomial_at(self, pos):
        w = self.word_at(pos)
        return (w, self.n - len(w))


class ExtensionEngine:
    """Caches, per degree n: the ideal component <P_z>^n, the quotient
    basis of D^n, the multiplication-by-z matrix D^n -> D^{n+1}, and the
    annihilator dimension.  Single-writer; completed degrees are frozen."""

    def __init__(self, g, alpha, rel, field, degree_cap=ENGINE_DEGREE_CAP):
        self.g = g
        self.field = field
        self.rel = rel
        self.alpha = alpha
        self.degree_cap = degree_cap
        self.pz = build_pz(alpha, rel)
        # group alpha_z generators by total degree, as position vectors
        self._pz_by_degree = {}
        for h in self.pz:
            n = h.total_degree
            mono = ZMonomials(g, n)
            vec = {mono.pos_of_word(w): s for (w, k), s in h.terms.items()}
            self._pz_by_degree.setdefault(n, []).append(vec)
        self._ideal = {0: RowSpace(field)}
        self._dbasis = {0: [0]}        # positions of quotient basis monomials
        self._zimage = {}              # n -> list of reduced image vecs (D^n basis order)
        self._zrank = {}
        self._ann = {}
        self.saturated_at = None

    # -- ideal components -------------------------------------------------

    def ideal_component(self, n):
        if n < 0:
            raise ValidationError("negative degree")
        if n > self.degree_cap:
            raise ResourceExceeded(f"extension degree {n} above cap {self.degree_cap}")
        known = self._ideal.get(n)
        if known is not None:
            return known
        top = max(self._ideal)
        for m in range(top + 1, n + 1):
            self._ideal[m] = self._step(m)
        return self._ideal[n]

    def _step(self, m):
        """I^m = z·I^{m-1} + V·N + N·V + P_z^m for I = <P_z> (see the
        module docstring).  N is the set of rows of I^{m-1} whose pivot c
        is no pivot of z·I^{m-2}: c < g^{m-1} (a word of degree m-1, no z)
        or c - g^{m-1} is no pivot of I^{m-2}.  This step stored z·I^{m-2}
        in I^{m-1} as it is, so those rows and N span I^{m-1}; z is
        central, so V·z·I^{m-2} ⊆ z·I^{m-1}, and likewise on the right.
        Only V·N, N·V and P_z^m are reduced."""
        if self.saturated_at is not None and m > self.saturated_at:
            # once <P_z>^m = T[z]^m, strong grading keeps every later
            # degree full
            sp = RowSpace(self.field)
            mono = ZMonomials(self.g, m)
            for p in range(mono.size):
                sp.store({p: self.field.one})
            self._dbasis[m] = []
            return sp
        prev = self._ideal[m - 1]
        mono_prev = ZMonomials(self.g, m - 1)
        mono = ZMonomials(self.g, m)
        sp = RowSpace(self.field)
        g = self.g
        # z * I^{m-1}: same word parts, one more z power each, i.e. every
        # column moves by the g^m columns of word degree m; stored as is
        sp.store_shifted(prev, g ** m)
        # x_i * row and row * x_i for the rows of N only
        below = self._ideal[m - 2].rows if m >= 2 else {}
        zprev = g ** (m - 1)
        for c in sorted(prev.rows):
            if c >= zprev and c - zprev in below:
                continue
            words = [(mono_prev.word_at(p), s) for p, s in prev.rows[c].items()]
            for i in range(g):
                sp.insert({mono.pos_of_word((i,) + w): s for w, s in words})
                sp.insert({mono.pos_of_word(w + (i,)): s for w, s in words})
        for vec in self._pz_by_degree.get(m, []):
            sp.insert(dict(vec))
        if sp.rank == mono.size and self.saturated_at is None:
            self.saturated_at = m
        self._dbasis[m] = [p for p in range(mono.size) if p not in sp.rows]
        return sp

    # -- quotient data -----------------------------------------------------

    def extension_degree(self, n):
        """Quotient basis of D^n as (word, z-power) monomials."""
        self.ideal_component(n)
        mono = ZMonomials(self.g, n)
        return [mono.monomial_at(p) for p in self._dbasis[n]]

    def dim_d(self, n):
        self.ideal_component(n)
        return len(self._dbasis[n])

    def _z_images(self, n):
        """Reduced images of the D^n basis under multiplication by z, as
        vectors over T[z]^{n+1} positions (supported on D^{n+1} basis)."""
        cached = self._zimage.get(n)
        if cached is not None:
            return cached
        self.ideal_component(n)
        nxt = self.ideal_component(n + 1)
        zshift = self.g ** (n + 1)
        images = []
        for p in self._dbasis[n]:
            # z * (w z^k) keeps the word part: position shifts by one block
            images.append(nxt.reduce_full({p + zshift: self.field.one}))
        self._zimage[n] = images
        return images

    def annihilator_dim(self, n):
        """dim ker(z . (-) : D^n -> D^{n+1}); z is n-regular iff this
        vanishes for all degrees <= n."""
        cached = self._ann.get(n)
        if cached is not None:
            return cached
        images = self._z_images(n)
        rank = span(self.field, [dict(v) for v in images]).rank
        self._zrank[n] = rank
        out = len(images) - rank
        self._ann[n] = out
        return out

    def annihilator_basis(self, n):
        """Basis of ann(z)^n as elements of D^n (lists of (monomial, scalar))."""
        images = self._z_images(n)
        mono = ZMonomials(self.g, n)
        size_next = filtration_size(self.g, n + 1)
        combos = left_kernel_basis(self.field, [dict(v) for v in images], size_next)
        basis_positions = self._dbasis[n]
        out = []
        for combo in combos:
            out.append([(mono.monomial_at(basis_positions[k]), s)
                        for k, s in sorted(combo.items())])
        return out

    def z_image_rank(self, n):
        self.annihilator_dim(n)
        return self._zrank[n]

    def is_regular_up_to(self, n):
        return all(self.annihilator_dim(k) == 0 for k in range(n + 1))

    # -- the quotient by z: dims of A -------------------------------------

    def a_dims(self, upto):
        """dim A^n for A = T/<rel>, by the graded recursion on rel."""
        chain = ideal_chain(self.rel, upto)
        return [self.g ** n - chain[n].rank for n in range(upto + 1)]


def rees_identity_check(engine, upto):
    """Check dim D^n = dim A^n + dim D^{n-1} for n <= upto.

    Under regularity this follows from the exact sequences
    0 -> D^{n-1} --z--> D^n -> A^n -> 0; the first failing degree is a
    regularity witness.  Returns (holds, per_degree, first_failure)."""
    a = engine.a_dims(upto)
    per = []
    first_bad = None
    prev = 0
    for n in range(upto + 1):
        dn = engine.dim_d(n)
        ok = (dn == a[n] + prev)
        per.append(ok)
        if not ok and first_bad is None:
            first_bad = n
        prev = dn
    return first_bad is None, per, first_bad


def engine_for(P, degree_cap=ENGINE_DEGREE_CAP):
    """Engine for D(P) built from the deformation's own alpha and R_P."""
    from .deformation import extract_alpha, rp_of
    rel = rp_of(P)
    alpha = extract_alpha(P)
    return ExtensionEngine(P.g, alpha, rel, P.field, degree_cap)
