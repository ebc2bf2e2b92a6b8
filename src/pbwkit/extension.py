"""The central extension D(P) = T[z]/<P*>, built degree by degree.

(J_n) holds iff the degree-n annihilator of z in D(P) vanishes, and this
engine is the one route to (J_n): ``deformation.pn_ladder`` reads the
ladder's dims, verdicts and witness from it.  The monomial w z^(n-|w|) of
T[z]^n sits at the column of w in ``freealg.WordBasis(g, n)``: word
degree descending, i.e. z-exponent ascending, lex inside a degree.  The
independent oracles are the naive closures in the tests
(``naive_ladder`` and ``NaiveEngine``), which multiply every row, insert
every product and index the columns on their own (``zword_at``).

P_z is always built through alpha_z (never by homogenizing a raw spanning
set), which is what guarantees <P*> = <P_z>.  R_P and alpha are read off
P's reduced rows, and alpha's degree-n images are already rows over the
columns of ``WordBasis(g, n)``, the word w standing for w z^(n-|w|)
(``deformation.FilteredSubspace``): they are P_z's rows as they are.

The ideal I = <P_z> is built by the recursion

    I^m = V·I^{m-1} + z·N + span{ĉ(g, β)},

where V = T^1, N is the set of rows the step for I^{m-1} inserted, i.e.
the rows of I^{m-1} that are not in V·I^{m-2}, g runs over the generators
P_z and β over the words of length m - deg g that are not a pivot of the
finished component I^{|β|} (the standard words), and ĉ(g, β) is any
element congruent to g·β modulo V·I^{m-1} + z·I^{m-1}.  Left
multiplication by x_i keeps the order of the monomials (the word degree
goes up by one for every term and lex order inside a degree is kept), so
lead(x_i·r) = x_i·lead(r): the products V·I^{m-1} have distinct pivots,
stay echelon and are held as they are, unreduced (I^m's pivot bytes
repeat I^{m-1}'s, and a product row is built when a reduction first
reads it).  The recursion is exact:

- I^m is spanned by V·I^{m-1}, z·I^{m-1} and the products g·β: a
  product a·g·b of monomials lies in V·I^{m-1} or z·I^{m-1} unless a = 1
  and b is a word.
- If β = ω·lead(h)·ω' for a monic h in I, then g·β = g·ω·h·ω' -
  g·ω·(h - lead h)·ω'.  The first term lies in V·I^{m-1} + z·I^{m-1},
  every term of g starting with a letter or with z, and the rest are
  multiples g·β'' with β'' after β, as left, right and z multiplication
  keep the column order.  Induction on the columns drops g·β.
- z·I^{m-1} ⊆ V·I^{m-1} + z·N: V·I^{m-2} is stored as is inside I^{m-1},
  so I^{m-1} = V·I^{m-2} + span(N), and z·V·I^{m-2} = V·z·I^{m-2} lies
  in V·I^{m-1}, z being central.

A word β'x is standard only if β' is, and ĉ(g, β'x) is ĉ(g, β')·x
reduced by the step's kernel, read before it meets a pivot that another
candidate of the step inserted.  Every product g·β·z^k has a signature
(the column of lead(g)·β·z^k, then |β|), and a step takes z·N and then
the candidates in descending signature.  A candidate that reduces to
zero keeps no representative, and a central product (g, β₀ω, k) is
skipped once (g, β₀, k₀), k₀ <= k, reduced to zero in a lower degree, as
in signature-based Gröbner bases (``linalg.closure_step`` has the
proof).  Every product whose leading column is free is held unbuilt and
built when a reduction first reads it.  So the components, their pivots
and every count below are those of the full recursion.  One degree is one ``linalg.closure_step`` over the
|T[z]^m| columns: x_i· sends the word-degree-d block of T[z]^{m-1} to the
i-th run of g^d columns of the block of degree d + 1, z· moves a column
by the g^m columns of word degree m, and ·x moves column c to g·c + x,
all computed by the step.  The word β of length n with lex index i is
the monomial β z^0 at position i of T[z]^n, the first block.  Once a
component is all of T[z]^m, so is every later one (z·T[z]^m and
V·T[z]^m cover T[z]^{m+1}), and no count reads a component past the
first full one (``saturated_at``).

Setting z = 1 maps <P_z>^m bijectively onto the ladder space P_m =
T^1 P_{m-1} + P_{m-1} T^1 + P^{<=m}, and the monomial w z^(m-|w|) to the
word w, in column order: both have the columns of ``WordBasis(g, m)``.
The elements of P_m in T^{<=n} are the images of those supported on word
degrees <= n, the last columns.  So dim(P_m ∩ T^{<=n}) is the number of
pivots of <P_z>^m of word degree <= n (``cut_dim``), and the gr U(P)
tables are read from the engine.

The annihilator of z is read from the same pivots, with no reduction:
z maps T[z]^n onto the monomials of T[z]^{n+1} of z-exponent >= 1, the
last dim T^{<=n} columns, and in echelon form the rows of <P_z>^{n+1}
with a pivot there span its part in them, so rank(z: D^n -> D^{n+1}) =
dim T^{<=n} - cut_dim(n+1, n).  As dim D^n = dim T^{<=n} - dim P_n,
ann(z)^n ≅ (P_{n+1} ∩ T^{<=n}) / P_n has dimension cut_dim(n+1, n) -
dim P_n, which vanishes exactly when (J_n) holds.  Each of those rows is
z·u, u in T[z]^n, so the u taken modulo <P_z>^n span that quotient: the
witness of a failing (J_n).
"""

from __future__ import annotations

from bisect import bisect_left
from .errors import ResourceExceeded, ValidationError
from .freealg import WordBasis, column_guard, filtration_size, guard_reach
from .gradedring import ideal_chain
from .linalg import RowSpace, closure_step

ENGINE_DEGREE_CAP = 24
GR_TABLE_COLUMN_CAP = 12000


def check_depth(depth):
    """Refuse a ladder P_0..P_{depth+1}: its top component would be engine
    degree depth + 1, above the cap."""
    if depth + 1 > ENGINE_DEGREE_CAP:
        raise ResourceExceeded(f"ladder depth {depth} above cap {ENGINE_DEGREE_CAP}")


class ExtensionEngine:
    """Caches, per degree n, the ideal component <P_z>^n and its cuts
    (``cut_dim``), which give dim D^n and the annihilator dimension of z.
    ``rel`` is P's R_P.  The column guard is read once, here.
    Single-writer; completed degrees are frozen.

    The generators of degree n are alpha_z(r) = sum alpha_i(r) z^i for the
    reduced rows r of R_P of degree n, in pivot order.  As alpha_0 is the
    inclusion, they are the external homogenizations of the images
    alpha(r), which P keeps over ``WordBasis(g, n)``: the column of a word
    w there is that of w z^(n-|w|) in T[z]^n."""

    def __init__(self, P):
        self.g = P.g
        self.field = P.field
        self.rel = P.rel
        self._guard = column_guard()
        self._pz_by_degree = P.images
        self._ideal = {0: RowSpace(P.field)}
        self._cuts = {0: [0]}          # m -> [cut_dim(m, n) for n <= m]
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
        """I^m = V·I^{m-1} + z·N + span{ĉ(g, β)} for I = <P_z> (see the
        module docstring); z·(w z^k) = w z^(k+1) moves every column by
        the g^m columns of word degree m.  Of its pivots of word degree
        <= n, g·cut_dim(m-1, n-1) are left images (x_i· adds one to the
        word degree) and the rest are bisected on the sorted new ones."""
        g, ideal = self.g, self._ideal
        cols = WordBasis(g, m, self._guard)
        # the word of length n with lex index i is w z^0, at position i
        sp = closure_step(self.field, ideal[m - 1], g, m, cols.size,
                          self._pz_by_degree.get(m, ()), ideal)
        if sp.rank == cols.size and self.saturated_at is None:
            self.saturated_at = m
        new, below = sorted(sp.inserted), [0] + self._cuts[m - 1]
        self._cuts[m] = [g * below[n] + len(new) - bisect_left(new, cols.start(n))
                         for n in range(m + 1)]
        return sp

    def _full(self, n):
        """Whether <P_z>^n = T[z]^n, building the components through degree
        n but none past the first full one (``saturated_at``)."""
        while self.saturated_at is None and max(self._ideal) < n:
            self.ideal_component(max(self._ideal) + 1)
        return self.saturated_at is not None and self.saturated_at <= n

    # -- quotient data -----------------------------------------------------

    def dim_d(self, n):
        return 0 if self._full(n) else filtration_size(self.g, n) - self._cuts[n][n]

    def annihilator_dim(self, n):
        """dim ker(z . (-) : D^n -> D^{n+1}) = dim(P_{n+1} ∩ T^{<=n}) -
        dim P_n (see the module docstring); z is n-regular iff this
        vanishes for all degrees <= n."""
        return self.cut_dim(n + 1, n) - self.cut_dim(n, n)

    # -- the quotient by z: dims of A -------------------------------------

    def a_dims(self, upto):
        """dim A^n for A = T/<rel>, by the graded recursion on rel."""
        chain = ideal_chain(self.rel, upto)
        return [self.g ** n - chain[n].rank for n in range(upto + 1)]

    # -- gr U(P): the cuts P_m ∩ T^{<=n} -----------------------------------

    def cut_dim(self, m, n):
        """dim(P_m ∩ T^{<=n}) for n <= m, which every caller keeps: the
        number of pivots of <P_z>^m of word degree <= n, i.e. in the last
        dim T^{<=n} columns, counted when the component was built."""
        if self._full(m):
            return filtration_size(self.g, n)
        return self._cuts[m][n]

    def gr_table(self, upto, certified=False):
        """dim gr^n U(P) for n = 0..upto, or None when not computable cheaply.

        A cut dim(<P> ∩ T^{<=n}) is read as the engine's pivots of <P_z>^m
        of word degree <= n.  For PBW-certified P, <P> ∩ T^{<=n} = P_n
        exactly, so m = n.  Otherwise the cuts come from the two-step
        stabilization heuristic, extended only while T[z]^m stays under a
        column cap and the column guard; if some degree has not stabilized
        by then the whole table is withheld rather than reported wrong."""
        g = self.g
        if not self._pz_by_degree:
            return [g ** n for n in range(upto + 1)]
        top = self.rel.max_degree()
        if certified:
            check_depth(max(upto, top))    # the ladder whose P_n these cuts count
            cuts = [self.cut_dim(n, n) for n in range(upto + 1)]
        else:
            cuts = None
            m = max(upto + 1, top) + 1
            last = guard_reach(g, ENGINE_DEGREE_CAP, min(GR_TABLE_COLUMN_CAP, self._guard))
            while m <= last:
                now = [self.cut_dim(m, n) for n in range(upto + 1)]
                if self._full(m) or now == [self.cut_dim(m - 1, n) for n in range(upto + 1)]:
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
    """Engine for D(P), its generators read off P's reduced rows."""
    return ExtensionEngine(P)
