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

    I^m = V·I^{m-1} + z·N + N·V + P_z^m,

where V = T^1 and N is the set of rows the step for I^{m-1} inserted,
i.e. the rows of I^{m-1} that are not in V·I^{m-2}.  Left multiplication
by x_i keeps the order of the monomials (the word degree goes up by one
for every term and lex order inside a degree is kept), so
lead(x_i·r) = x_i·lead(r): the products V·I^{m-1} have distinct pivots,
stay echelon and are stored as they are, unreduced
(``RowSpace.store_shifted`` records them and builds a moved row when a
reduction first reads it).  The recursion is exact: V·I^{m-2} is stored
as is inside I^{m-1}, so it and span(N) have disjoint leading columns and
together span I^{m-1}; z is central, so z·V·I^{m-2} = V·z·I^{m-2} lies in
V·I^{m-1}, and V·I^{m-2}·V = V·(I^{m-2}·V) does too.  That leaves z·N and
N·V as the only new products.

Setting z = 1 maps <P_z>^m bijectively onto the ladder space P_m, and a
monomial w z^k to the word w; the elements of P_m in T^{<=n} are the images
of those supported on word degrees <= n, the last columns.  So
dim(P_m ∩ T^{<=n}) is the number of pivots of <P_z>^m of word degree
<= n (``cut_dim``), and the gr U(P) tables are read from the engine.
"""

from __future__ import annotations

from .errors import ResourceExceeded, ValidationError
from .freealg import column_guard, filtration_size, homogenize
from .gradedring import ideal_chain
from .linalg import RowSpace, left_kernel_basis, span

ENGINE_DEGREE_CAP = 24
GR_TABLE_COLUMN_CAP = 12000


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

    def left_maps(self):
        """One list per letter x_i: entry p is the position in T[z]^{n+1}
        of x_i times the monomial at position p, (x_i w) z^k for w z^k.
        Each map keeps positions in order."""
        g = self.g
        top = filtration_size(g, self.n + 1)
        maps = []
        for i in range(g):
            cols = []
            for d in range(self.n, -1, -1):     # block order: degree descending
                start = top - filtration_size(g, d + 1) + i * g ** d
                cols.extend(range(start, start + g ** d))
            maps.append(cols)
        return maps


class ExtensionEngine:
    """Caches, per degree n: the ideal component <P_z>^n, the quotient
    basis of D^n, the multiplication-by-z matrix D^n -> D^{n+1}, and the
    annihilator dimension.  Single-writer; completed degrees are frozen."""

    def __init__(self, g, alpha, rel, field):
        self.g = g
        self.field = field
        self.rel = rel
        self.alpha = alpha
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
        if n > ENGINE_DEGREE_CAP:
            raise ResourceExceeded(f"extension degree {n} above cap {ENGINE_DEGREE_CAP}")
        known = self._ideal.get(n)
        if known is not None:
            return known
        top = max(self._ideal)
        for m in range(top + 1, n + 1):
            self._ideal[m] = self._step(m)
        return self._ideal[n]

    def _step(self, m):
        """I^m = V·I^{m-1} + z·N + N·V + P_z^m for I = <P_z> (see the
        module docstring).  The left products x_i·I^{m-1} go in as they
        are through order-keeping column maps.  N is the set of rows the
        step one degree down inserted; its other rows are left products,
        and z·V·I^{m-2} and V·I^{m-2}·V lie in V·I^{m-1}.  Only z·N, N·V
        and P_z^m are reduced."""
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
        for cols in mono_prev.left_maps():
            sp.store_shifted(prev, cols)
        n_rows = prev.inserted()
        # z·(w z^k) = w z^(k+1): every column moves by the g^m columns of
        # word degree m.  All of z·N goes in before N·V, which then reduces
        # against it: on U(gl2) to degree 8 that halves the time of
        # interleaving the two.
        zshift = g ** m
        for row in n_rows:
            sp.insert({p + zshift: s for p, s in row.items()})
        for row in n_rows:
            words = [(mono_prev.word_at(p), s) for p, s in row.items()]
            for i in range(g):
                sp.insert({mono.pos_of_word(w + (i,)): s for w, s in words})
        for vec in self._pz_by_degree.get(m, []):
            sp.insert(dict(vec))
        if sp.rank == mono.size and self.saturated_at is None:
            self.saturated_at = m
        pivots = set(sp.rows)
        self._dbasis[m] = [p for p in range(mono.size) if p not in pivots]
        return sp

    # -- quotient data -----------------------------------------------------

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

    # -- gr U(P): the cuts P_m ∩ T^{<=n} -----------------------------------

    def cut_dim(self, m, n):
        """dim(P_m ∩ T^{<=n}): the number of pivots of <P_z>^m of word
        degree <= n, i.e. in the last dim T^{<=n} columns."""
        if self.saturated_at is not None and self.saturated_at <= m:
            return filtration_size(self.g, min(m, n))
        sp = self.ideal_component(m)
        start = filtration_size(self.g, m) - filtration_size(self.g, n)
        return sum(1 for p in sp.rows if p >= start)

    def ideal_cut_dim(self, n, certified=False):
        """dim(<P> ∩ T^{<=n}) as the stabilized union of the cuts
        P_m ∩ T^{<=n}, m >= n, each the engine's pivots of <P_z>^m of word
        degree <= n.

        Heuristic mode stops once two consecutive cuts agree; certified mode
        runs m up to n + dim T^{<=n} (an increasing chain in a space of that
        dimension makes at most that many strict steps).  Certified mode can
        be resource-heavy by design; the guards will object first.
        """
        if not self.pz:
            return 0
        bound_dim = filtration_size(self.g, n)
        m = n
        prev = None
        while True:
            cut = self.cut_dim(m, n)
            stop = m >= n + bound_dim if certified else cut == prev
            if stop or cut == bound_dim:
                return cut
            prev = cut
            m += 1

    def gr_table(self, upto, certified=False):
        """dim gr^n U(P) for n = 0..upto, or None when not computable cheaply.

        A cut dim(<P> ∩ T^{<=n}) is read as the engine's pivots of <P_z>^m
        of word degree <= n.  For PBW-certified P, <P> ∩ T^{<=n} = P_n
        exactly, so m = n.  Otherwise the cuts come from the two-step
        stabilization heuristic, extended only while T[z]^m stays under a
        column cap; if some degree has not stabilized by then the whole
        table is withheld rather than reported wrong."""
        g = self.g
        if not self.pz:
            return [g ** n for n in range(upto + 1)]
        top = self.rel.max_degree()
        if certified:
            depth = max(upto, top)
            if depth + 1 > ENGINE_DEGREE_CAP:
                # the cap and message of pn_ladder(P, depth), whose spaces
                # P_n these cuts count
                raise ResourceExceeded(f"ladder depth {depth} above cap {ENGINE_DEGREE_CAP}")
            cuts = [self.cut_dim(n, n) for n in range(upto + 1)]
        else:
            cuts = None
            m = max(upto + 1, top) + 1
            while filtration_size(g, m) <= GR_TABLE_COLUMN_CAP and m <= ENGINE_DEGREE_CAP:
                now = [self.cut_dim(m, n) for n in range(upto + 1)]
                full = self.saturated_at is not None and self.saturated_at <= m
                if full or now == [self.cut_dim(m - 1, n) for n in range(upto + 1)]:
                    cuts = now
                    break
                m += 1
            if cuts is None:
                return None
        out = []
        for n in range(upto + 1):
            u_n = filtration_size(g, n) - cuts[n]
            u_n1 = filtration_size(g, n - 1) - cuts[n - 1] if n else 0
            out.append(u_n - u_n1)
        return out


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


def engine_for(P):
    """Engine for D(P) built from the deformation's own alpha and R_P."""
    from .deformation import extract_alpha, rp_of
    rel = rp_of(P)
    alpha = extract_alpha(P)
    return ExtensionEngine(P.g, alpha, rel, P.field)
