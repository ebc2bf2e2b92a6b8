"""The PBW decision core.

A deformation P is a filtered subspace of the free algebra; its echelon
basis under the degree-descending word order is simultaneously adapted to
every T^{<=n}, which makes the top-part extraction R_P, the filtered map
alpha, and the ladder P_{k+1} = T^1 P_k + P_k T^1 + P^{<=k+1} all plain
row-space operations.  Condition (J_k) asks that P_{k+1} brings nothing
new below degree k+1; the first failing row is kept as a witness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field

from .errors import (DomainMismatch, InvalidPresentation, InvariantViolation,
                     NotPure, ResourceExceeded, ValidationError)
from .extension import ExtensionEngine, engine_for
from .freealg import (DegreeBasis, Element, WordBasis, filtration_size,
                      project)
from .gradedring import (GradedSubspace, PresentedRing, ideal_chain,
                         minimal_complement, tilde_block)
from .homology import complexity, overlap
from .linalg import QQ, RowSpace, coordinate_solver

LADDER_DEPTH_CAP = 24
MIN_TOP_DEGREE = 1      # FilteredSubspace rows live in T^{<=1} at least


class FilteredSubspace:
    """Echelon basis of an inhomogeneous subspace P with P ∩ T^0 = 0.

    Rows are stored over WordBasis(g, d) where d is the top degree of the
    spanning set; with the degree-descending column order, the rows whose
    pivot has degree <= n are an echelon basis of P ∩ T^{<=n}.
    """

    def __init__(self, g, elements, field=QQ):
        self.g = g
        self.field = field
        nonzero = [e for e in elements if not e.is_zero()]
        d = max((e.degree() for e in nonzero), default=MIN_TOP_DEGREE)
        self.max_degree = max(d, MIN_TOP_DEGREE)
        self.basis = WordBasis(g, self.max_degree)
        self.space = RowSpace(field)
        for e in nonzero:
            self.space.insert(self.basis.element_to_vec(e))
        unit_pos = self.basis.pos(())
        if unit_pos in self.space.pivots:
            raise InvalidPresentation("P ∩ T^0 != 0: the span contains a constant")

    @property
    def dim(self):
        return self.space.rank

    def is_graded(self):
        """True iff every reduced row is homogeneous (then P = R_P)."""
        for row in self.space.reduced_basis():
            degs = {self.basis.degree_of_pos(p) for p in row}
            if len(degs) > 1:
                return False
        return True

    def reduced_rows(self):
        return self.space.reduced_basis()

    def row_elements(self):
        return [self.basis.vec_to_element(r, self.field) for r in self.reduced_rows()]

    def equals(self, other):
        if self.g != other.g or self.dim != other.dim:
            return False
        mine = RowSpace(self.field)
        d = max(self.max_degree, other.max_degree)
        big = WordBasis(self.g, d)
        shift_a = self.basis.shift_into(big)
        shift_b = other.basis.shift_into(big)
        for r in self.space.basis():
            mine.insert({p + shift_a: s for p, s in r.items()})
        return all(mine.contains({p + shift_b: s for p, s in r.items()})
                   for r in other.space.basis())


def rp_of(P):
    """R_P: per degree n, the projections p^n of the rows of P ∩ T^{<=n}
    whose top degree is exactly n."""
    out = GradedSubspace(P.g, P.field)
    for row in P.space.basis():
        n = P.basis.degree_of_pos(min(row))
        off = P.basis.offsets[n]
        top = {p - off: s for p, s in row.items() if P.basis.degree_of_pos(p) == n}
        out.block(n).insert(top)
    return out


class FilteredMap:
    """A filtered map alpha on a graded domain with alpha_0 = inclusion.

    Stored per degree as parallel lists (reduced domain row, image element);
    images satisfy LH(image) = domain row.  alpha is applied to arbitrary
    domain vectors by coordinate solving against the reduced rows, with one
    solver per degree built on first use.
    """

    def __init__(self, g, field):
        self.g = g
        self.field = field
        self.graded_rows = {}   # n -> list of {local pos: scalar}, RREF
        self.images = {}        # n -> list of Element
        self._solvers = {}      # n -> coordinate solver over graded_rows[n]

    def domain(self):
        dom = GradedSubspace(self.g, self.field)
        for n, rows in self.graded_rows.items():
            for r in rows:
                dom.block(n).insert(dict(r))
        return dom

    def apply_vec(self, n, vec):
        """alpha on a degree-n domain vector; DomainMismatch if outside."""
        if n not in self._solvers:
            self._solvers[n] = coordinate_solver(
                self.field, self.graded_rows.get(n, []), self.g ** n)
        cs = self._solvers[n](vec)
        if cs is None:
            raise DomainMismatch(f"vector of degree {n} outside the map's domain")
        out = Element(self.field)
        for k, c in sorted(cs.items()):
            out = out + self.images[n][k].scale(c)
        return out

    def apply_element(self, e):
        if e.is_zero():
            return e
        if not e.is_homogeneous():
            raise DomainMismatch("alpha acts on homogeneous domain elements")
        n = e.degree()
        basis = DegreeBasis(self.g, n)
        return self.apply_vec(n, {basis.pos(w): s for w, s in e.terms.items()})

    def component(self, i, e):
        """alpha_i(e) = p^{n-i}(alpha(e)) for homogeneous e of degree n."""
        n = e.degree()
        return project(self.apply_element(e), n - i)


def extract_alpha(P):
    """The canonical filtered map with alpha(R_P) = P: each reduced row v
    of P has LH(v) a basis vector of R_P; alpha(LH(v)) := v.  Over a field
    this always exists, and the reduced basis makes it reproducible."""
    alpha = FilteredMap(P.g, P.field)
    by_degree = {}
    for row in P.reduced_rows():
        n = P.basis.degree_of_pos(min(row))
        by_degree.setdefault(n, []).append(row)
    for n, rows in sorted(by_degree.items()):
        off = P.basis.offsets[n]
        dom = []
        imgs = []
        for row in rows:
            top = {p - off: s for p, s in row.items() if P.basis.degree_of_pos(p) == n}
            dom.append(top)
            imgs.append(P.basis.vec_to_element(row, P.field))
        order = sorted(range(len(dom)), key=lambda k: min(dom[k]))
        alpha.graded_rows[n] = [dom[k] for k in order]
        alpha.images[n] = [imgs[k] for k in order]
    return alpha


def apply_alpha(alpha, rel):
    """P = span alpha(rel); asserts the round trip rp_of(P) = rel."""
    spanning = []
    for n in rel.degrees():
        for row in rel.blocks[n].basis():
            spanning.append(alpha.apply_vec(n, row))
    P = FilteredSubspace(alpha.g, spanning, alpha.field)
    back = rp_of(P)
    if not back.equals(rel):
        raise ValidationError("alpha image does not recover the domain tops")
    return P


def alpha_is_inclusion(alpha):
    return all(img.is_homogeneous() for imgs in alpha.images.values() for img in imgs)


# ---------------------------------------------------------------------------
# The ladder.

@dataclass
class JacobiLadder:
    g: int
    upto: int
    basis: WordBasis
    spaces: list            # index k: RowSpace for P_k (None once saturated)
    dims: list              # dim P_k
    verdicts: dict          # k -> bool for 1 <= k <= upto
    first_failure: int | None
    witness: Element | None
    full_from: int | None   # least k with P_k = T^{<=k}, if reached

    def contains_filtered(self, m, P_other):
        """True iff P_other (a FilteredSubspace) lies inside P_m."""
        if self.full_from is not None and m >= self.full_from:
            return P_other.max_degree <= m
        sp = self.spaces[m]
        shift = P_other.basis.shift_into(self.basis)
        return all(sp.contains({p + shift: s for p, s in row.items()})
                   for row in P_other.space.basis())


def pn_ladder(P, upto):
    """P_0..P_{upto+1} plus the (J_k) verdicts for k <= upto.

    (J_k) holds iff every reduced row of P_{k+1} with pivot degree <= k
    already lies in P_k; the first counterexample row is the witness.

    The step is semi-naive: P_{k+1} starts as a copy of P_k and only the
    rows P_k added to P_{k-1} (those whose pivot is no pivot of P_{k-1})
    are multiplied by each x_i on both sides.  This is exact and leaves
    every stored row unchanged: P_k keeps P_{k-1}'s rows as they are and
    already contains V·P_{k-1} + P_{k-1}·V, so the skipped products
    reduced to zero without storing anything.
    """
    if upto + 1 > LADDER_DEPTH_CAP:
        raise ResourceExceeded(f"ladder depth {upto} above cap {LADDER_DEPTH_CAP}")
    big = WordBasis(P.g, upto + 1)
    shift = P.basis.shift_into(big)
    g = P.g
    field = P.field
    prows = []
    for row in P.space.raw_basis():
        prows.append((P.basis.degree_of_pos(min(row)),
                      {p + shift: s for p, s in row.items()}))
    spaces = [RowSpace(field)]       # P_0 = P ∩ T^0 = 0
    dims = [0]
    verdicts = {}
    first_failure = None
    witness = None
    full_from = None
    sizes = [filtration_size(g, n) for n in range(upto + 2)]
    for k in range(upto + 1):
        prev = spaces[k]
        if full_from is not None:
            spaces.append(None)
            dims.append(sizes[k + 1])
            if k >= 1:
                verdicts[k] = True
            continue
        # semi-naive: multiply only the rows P_k added to P_{k-1}
        nxt = prev.copy()
        older = spaces[k - 1].rows if k else {}
        for c in sorted(prev.rows):
            if c in older:
                continue
            row = prev.rows[c]
            for i in range(g):
                nxt.insert(big.mult_left_vec(i, row))
                nxt.insert(big.mult_right_vec(row, i))
        for deg, row in prows:
            if deg == k + 1 or (k == 0 and deg <= 1):
                nxt.insert(dict(row))
        spaces.append(nxt)
        dims.append(nxt.rank)
        if k >= 1:
            start = big.suffix_start(k)
            ok = True
            for piv in sorted(p for p in nxt.rows if p >= start):
                if not prev.contains(nxt.rows[piv]):
                    ok = False
                    if first_failure is None:
                        first_failure = k
                        witness = big.vec_to_element(nxt.pivots[piv], field)
                    break
            verdicts[k] = ok
        if nxt.rank == sizes[k + 1]:
            full_from = k + 1
    return JacobiLadder(g, upto, big, spaces, dims, verdicts,
                        first_failure, witness, full_from)


@dataclass
class JacobiVerdicts:
    """(J_1)..(J_upto) that all hold, as ``jacobi_verdicts`` reads them
    from the engine: the fields of a JacobiLadder that a verdict reports."""
    verdicts: dict          # k -> True for 1 <= k <= upto
    first_failure: None = None
    witness: None = None


def jacobi_verdicts(P, engine, upto):
    """The (J_1)..(J_upto) of ``pn_ladder(P, upto)``, read from the T[z]
    engine of P (``engine_for(P)``).

    Setting z = 1 maps <P_z>^m onto the ladder space P_m, and P_k lies in
    P_{k+1} ∩ T^{<=k}, so (J_k) holds iff the cut dim(P_{k+1} ∩ T^{<=k})
    (the engine's pivots of <P_z>^{k+1} of word degree <= k) equals dim
    P_k.  The engine stores its left products unreduced, which makes this
    cheaper than the ladder, and ``check`` reads its tables from the same
    engine.  When some (J_k) fails the ladder runs for its witness and must
    give the same verdicts.
    """
    if upto + 1 > LADDER_DEPTH_CAP:
        raise ResourceExceeded(f"ladder depth {upto} above cap {LADDER_DEPTH_CAP}")
    verdicts = {k: engine.cut_dim(k + 1, k) == engine.ideal_component(k).rank
                for k in range(1, upto + 1)}
    if all(verdicts.values()):
        return JacobiVerdicts(verdicts)
    ladder = pn_ladder(P, upto)
    if ladder.verdicts != verdicts:
        raise InvariantViolation("the T[z] engine and the Jacobi ladder "
                                 "disagree on (J_k)")
    return ladder


def ideal_cut_dim(P, n, certified=False):
    """dim(<P> ∩ T^{<=n}), read from the T[z] engine: a cut P_m ∩ T^{<=n}
    is the engine's pivots of <P_z>^m of word degree <= n (see
    ``ExtensionEngine.ideal_cut_dim`` for the two modes)."""
    return engine_for(P).ideal_cut_dim(n, certified)


def gr_dimension(P, n, certified=False):
    """dim gr^n U(P) = dim U^{<=n} - dim U^{<=n-1}."""
    eng = engine_for(P)
    dim_n = filtration_size(P.g, n) - eng.ideal_cut_dim(n, certified)
    if n == 0:
        return dim_n
    dim_n1 = filtration_size(P.g, n - 1) - eng.ideal_cut_dim(n - 1, certified)
    return dim_n - dim_n1


def gr_table(P, upto, pbw_certified=False):
    """dim gr^n U(P) for n = 0..upto, or None when not computable cheaply;
    each cut dim(<P> ∩ T^{<=n}) is the T[z] engine's pivots of word degree
    <= n (see ``ExtensionEngine.gr_table``)."""
    return engine_for(P).gr_table(upto, pbw_certified)


def minimize_relations(rel):
    """A bimodule of relations extracted from rel: the deterministic graded
    complement of rel ∩ (F¹I + IF¹) inside rel, I = <rel>.  The equality of
    ideals <result> = <rel> is certified degree-wise up to the top degree d
    of rel; both ideals are generated in degrees <= d, so agreement up to d
    propagates through the recursion I^{n+1} = F¹Iⁿ + IⁿF¹ for n >= d."""
    out = minimal_complement(rel)
    d = rel.max_degree()
    if d >= 0:
        chain_a = ideal_chain(rel, d)
        chain_b = ideal_chain(out, d)
        for n in range(d + 1):
            if chain_a[n].rank != chain_b[n].rank or \
                    not chain_a[n].contains_space(chain_b[n]):
                raise ValidationError("minimization changed the ideal")
    return out


# ---------------------------------------------------------------------------
# Pure-relations route.

def pure_jacobi_check(alpha):
    """The (J'_0)..(J'_N) conditions for alpha on an N-pure domain, plus
    the containment form (V P + P V)^{<=N} ⊆ P they are equivalent to.

    Returns {"conditions": {i: bool}, "containment": bool, "equivalent": bool,
    "N": N}.
    """
    rel = alpha.domain()
    degs = rel.degrees()
    if len(degs) != 1:
        raise NotPure("pure route needs relations concentrated in one degree")
    N = degs[0]
    g = alpha.g
    field = alpha.field
    # X = (R (x) V) ∩ (V (x) R) from the reduced rows, R (x) V tagged first
    size = g ** (N + 1)
    rel_rows = rel.blocks[N].reduced_basis()
    rv_rows, vr_rows, x_basis = overlap(rel_rows, g, N, field)

    coords_v = coordinate_solver(field, vr_rows, size)
    coords_r = coordinate_solver(field, rv_rows, size)

    def alpha_comp_on_rel_row(ridx, i):
        """alpha_i applied to the ridx-th relation row."""
        e = rel.element_of(N, rel_rows[ridx])
        return alpha.component(i, e)

    comp_cache = {}

    def comp(ridx, i):
        key = (ridx, i)
        if key not in comp_cache:
            comp_cache[key] = alpha_comp_on_rel_row(ridx, i)
        return comp_cache[key]

    def mixed(x_vec, i):
        """(V (x) alpha_i - alpha_i (x) V)(x) as an Element of degree N+1-i."""
        cv, cr = coords_v(x_vec), coords_r(x_vec)
        if cv is None or cr is None:
            raise ValidationError("vector outside span")
        out = Element(field)
        for k, c in cv.items():                  # x = sum c * x_j . r
            ridx, j = divmod(k, g)
            term = comp(ridx, i)
            out = out + Element(field, {(j,) + w: c * s for w, s in term.terms.items()})
        for k, c in cr.items():                  # x = sum c * r . x_j
            ridx, j = divmod(k, g)
            term = comp(ridx, i)
            out = out - Element(field, {w + (j,): c * s for w, s in term.terms.items()})
        return out

    rel_space = rel.blocks[N]
    conditions = {i: True for i in range(N + 1)}
    for x_vec in x_basis:
        t1 = mixed(x_vec, 1)
        in_rel = t1.is_zero() or (t1.degree() == N and
                                  rel_space.contains(rel.vec_of(t1)))
        if not in_rel:
            conditions[0] = False
            continue
        for i in range(1, N + 1):
            lhs = alpha.component(i, t1) if not t1.is_zero() else Element(field)
            rhs = -mixed(x_vec, i + 1) if i < N else Element(field)
            if lhs != rhs:
                conditions[i] = False

    # containment form: (V P + P V)^{<=N} ⊆ P
    P = apply_alpha(alpha, rel)
    big = WordBasis(g, N + 1)
    shift = P.basis.shift_into(big)
    prod = RowSpace(field)
    prows = [{p + shift: s for p, s in r.items()} for r in P.space.raw_basis()]
    for row in prows:
        for i in range(g):
            prod.insert(big.mult_left_vec(i, row))
            prod.insert(big.mult_right_vec(row, i))
    pspace = RowSpace(field)
    for row in prows:
        pspace.insert(dict(row))
    start = big.suffix_start(N)
    containment = all(pspace.contains(row)
                      for p, row in prod.rows.items() if p >= start)
    all_conditions = all(conditions.values())
    return {
        "N": N,
        "conditions": conditions,
        "containment": containment,
        "equivalent": all_conditions == containment,
    }


# ---------------------------------------------------------------------------
# Presentation lifting (quotient ambient ring -> free algebra).

@dataclass
class LiftResult:
    spanning: list                  # elements over the free algebra
    ambient_relations: list         # minimized ambient relation elements
    minimal_ok: bool = True
    note: str = ""
    identity: bool = False


def lift_presentation(g, ambient_elements, deformation_elements, field=QQ):
    """Replace a presentation over T = F/<K0> by one over the free algebra:
    the deformation becomes sigma(P) together with (a minimized) K0, where
    sigma is the normal-form linear section of F -> T.

    The side condition K0 ∩ (F¹I + IF¹) = 0, I = <sigma(R_P) + K0>, is
    checked; when it fails the lift is still returned (the PBW-type
    question transfers regardless) but flagged LIFT_NOT_MINIMAL so positive
    verdicts get degraded to bounded-degree claims.
    """
    if not ambient_elements:
        return LiftResult(list(deformation_elements), [], True, "", identity=True)
    raw = GradedSubspace.from_elements(g, ambient_elements, field)
    for n in raw.degrees():
        if n < 2:
            raise ValidationError("ambient relations must be homogeneous of degree >= 2")
    k0 = minimal_complement(raw)
    ambient_ring = PresentedRing(g, k0, field)
    reduced = []
    for e in deformation_elements:
        total = Element(field)
        for n in range(e.degree() + 1 if not e.is_zero() else 0):
            part = project(e, n)
            if not part.is_zero():
                total = total + ambient_ring.normal_form(part)
        if not total.is_zero():
            reduced.append(total)
    spanning = reduced + k0.elements()
    # side condition: K0 ∩ I~ = 0 with I = <R_lift> and R_lift = R_P + K0
    P_sigma = FilteredSubspace(g, reduced, field) if reduced else None
    r_lift = rp_of(P_sigma) if P_sigma is not None else GradedSubspace(g, field)
    for el in k0.elements():
        r_lift.insert_element(el)
    top = k0.max_degree()
    chain = ideal_chain(r_lift, top)
    minimal_ok = True
    for n in k0.degrees():
        tilde = tilde_block(chain, g, n, field)
        for row in k0.blocks[n].basis():
            if tilde.contains(row):
                minimal_ok = False
                break
        if not minimal_ok:
            break
    note = "" if minimal_ok else (
        "LIFT_NOT_MINIMAL: ambient relations meet F¹I + IF¹; "
        "positive verdicts are degraded to bounded-degree claims")
    return LiftResult(spanning, k0.elements(), minimal_ok, note)


# ---------------------------------------------------------------------------
# The full decision pipeline.  Each stage is written once and shared with
# the CLI commands; its name is its key in ``timings``: lift, extract,
# minimize, complexity, hilbert, ladder (and the CLI's tables).

def timed(timings, stage, fn, *args, **kwargs):
    """fn(*args, **kwargs), adding its wall time to timings[stage]."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    timings[stage] = timings.get(stage, 0.0) + time.perf_counter() - t0
    return out


def lifted(g, deformation, ambient, field):
    """(P, LiftResult): the deformation lifted to the free algebra (see
    ``lift_presentation``), as a filtered subspace P."""
    lift = lift_presentation(g, list(ambient), list(deformation), field)
    return FilteredSubspace(g, lift.spanning, field), lift


def minimized_ring(rp, max_degree):
    """(R, A): R_P minimized to a bimodule of relations R, and A = T/<R>
    with its degree cap max(10, max_degree + 1).  The homological stages
    need R_P in degrees >= 2."""
    if rp.degrees() and rp.degrees()[0] <= 1:
        raise ValidationError(
            "top components of degree <= 1: homological commands need "
            "relations in degrees >= 2")
    rmin = minimize_relations(rp)
    return rmin, PresentedRing(rp.g, rmin, rp.field,
                               max_degree=max(10, max_degree + 1))


@dataclass
class CheckResult:
    verdict: str                     # PBW_CERTIFIED | NOT_PBW | PBW_UP_TO_DEGREE
    checked_upto: int
    c: int | None
    c_certified: bool
    jacobi: dict
    first_failure: int | None
    witness: Element | None
    notes: list
    P: FilteredSubspace | None = None
    alpha: FilteredMap | None = None
    top_relations: GradedSubspace | None = None
    min_relations: GradedSubspace | None = None
    ring: PresentedRing | None = None
    hilbert: object = None
    tor3: object = None
    engine: ExtensionEngine | None = None   # T[z] engine of P
    lift: LiftResult | None = None
    timings: dict = dc_field(default_factory=dict)   # stage -> seconds

    @property
    def exit_code(self):
        return {"PBW_CERTIFIED": 0, "NOT_PBW": 1, "PBW_UP_TO_DEGREE": 2}[self.verdict]


def pbw_check(g, deformation, ambient=(), field=QQ, max_degree=8, tor_bound=None):
    """Decide whether U(P) = T/<P> is a PBW-deformation of A = T/<R_P>.

    The positive certificate follows the homological route: minimize R_P to
    a bimodule of relations R, certify <R> = <R_P>, compute c(A), and check
    (J_1)..(J_c) on the alpha-associated subspace P' = alpha(R); when
    P' != P the generation <P'> = <P> is certified through P'_d membership.
    A failing (J_k) on P itself is always a definitive NOT_PBW.  The
    (J_k) on P are read from its T[z] engine (``jacobi_verdicts``), which
    the result keeps for ``check``'s tables.  The result's ``timings``
    holds the wall time of every stage that ran.
    """
    notes = []
    timings = {}
    P, lift = timed(timings, "lift", lifted, g, deformation, ambient, field)
    if not lift.identity:
        notes.append("quotient-ambient input lifted to the free algebra; "
                     "all reported values are isomorphism-invariant, so they "
                     "hold verbatim for the original presentation")
        if not lift.minimal_ok:
            notes.append(lift.note)
    rational = field == QQ
    if not rational:
        notes.append(f"field {field.name}: certified verdicts require Q; "
                     "positive results are reported as bounded-degree claims")

    found = {"P": P, "lift": lift}   # fields of every result from here on

    def result(verdict, checked, c, c_cert, jacobi, ladder):
        """A CheckResult with the fields found so far; the first failure
        and its witness are the ladder's."""
        return CheckResult(verdict, checked, c, c_cert, jacobi,
                           ladder.first_failure if ladder else None,
                           ladder.witness if ladder else None, notes,
                           timings=timings, **found)

    if P.dim == 0:
        found["ring"] = PresentedRing(g, GradedSubspace(g, field), field)
        notes.append("empty deformation: U(P) is the free algebra")
        return result("PBW_CERTIFIED", 0, -1, True, {}, None)

    rp = timed(timings, "extract", rp_of, P)
    alpha = timed(timings, "extract", extract_alpha, P)
    # the T[z] engine of P: the (J_k) on P are read from it, and check's
    # tables from the same engine
    engine = timed(timings, "extract", ExtensionEngine, g, alpha, rp, field)
    found.update(alpha=alpha, top_relations=rp, engine=engine)
    d = P.max_degree
    depth_bound = max(d, 2, min(max_degree, LADDER_DEPTH_CAP - 1))
    low = rp.degrees()[0] <= 1

    if not low:
        rmin, ring = timed(timings, "minimize", minimized_ring, rp, max_degree)
        cres = timed(timings, "complexity", complexity, ring, rmin,
                     bound_hint=tor_bound or 8)
        hilbert = timed(timings, "hilbert", ring.hilbert,
                        min(ring.max_degree, max(max_degree, d)))
        found.update(min_relations=rmin, ring=ring, tor3=cres.table, hilbert=hilbert)

    if alpha_is_inclusion(alpha):
        # P graded: P_m ∩ T^{<=n} = P_{min(m,n)}, so every (J_k) holds and
        # P is of PBW-type outright.
        c_val, c_cert = (None, False) if low else (cres.c, cres.certified)
        jac = {}
        checked = 0
        if c_val is not None and c_val >= 1:
            checked = min(c_val, LADDER_DEPTH_CAP - 1)
            ladder = timed(timings, "ladder", jacobi_verdicts, P, engine, checked)
            jac = ladder.verdicts
            if ladder.first_failure is not None:
                raise InvariantViolation("graded deformation failed "
                                         f"(J_{ladder.first_failure})")
        verdict = "PBW_CERTIFIED" if rational else "PBW_UP_TO_DEGREE"
        notes.append("homogeneous deformation: graded, hence of PBW type")
        return result(verdict, checked, c_val, c_cert and rational, jac, None)

    if low:
        # top components in degree <= 1: the homological certificate assumes
        # relations in degrees >= 2, so only a bounded claim is offered
        ladder = timed(timings, "ladder", jacobi_verdicts, P, engine, depth_bound)
        notes.append("deformation has top components of degree <= 1; "
                     "certification falls back to the bounded Jacobi scan")
        verdict = "PBW_UP_TO_DEGREE" if ladder.first_failure is None else "NOT_PBW"
        return result(verdict, depth_bound, None, False, ladder.verdicts, ladder)

    certified_c = cres.certified and rational and lift.minimal_ok
    same = all(rmin.dim(n) == rp.dim(n) for n in rp.degrees())

    if cres.certified and cres.c >= -1:
        K = max(cres.c, 1) if same else max(cres.c, d, 1)
        K = min(K, LADDER_DEPTH_CAP - 1)
    else:
        K = depth_bound

    if same:
        ladder = timed(timings, "ladder", jacobi_verdicts, P, engine, K)
        if ladder.first_failure is not None:
            return result("NOT_PBW", K, cres.c, cres.certified, ladder.verdicts, ladder)
        if certified_c:
            return result("PBW_CERTIFIED", K, cres.c, True, ladder.verdicts, ladder)
        if not cres.certified:
            notes.append(cres.note)
        return result("PBW_UP_TO_DEGREE", K, cres.c, cres.certified and rational,
                      ladder.verdicts, ladder)

    # R_P is not minimal: check the alpha-associated P' = alpha(R) first
    Pp = apply_alpha(alpha, rmin)
    notes.append("R_P is not a bimodule of relations; Jacobi certificate runs "
                 "on the minimized alpha-image P'")
    ladder_p = timed(timings, "ladder", pn_ladder, Pp, K)
    if ladder_p.first_failure is None and certified_c:
        if ladder_p.contains_filtered(d, P):
            # P' is of PBW type and generates <P>, hence <P'> = <P> and the
            # verdict transfers to P
            notes.append("generation of <P> by P' certified")
            return result("PBW_CERTIFIED", K, cres.c, True, ladder_p.verdicts, ladder_p)
        notes.append("minimized P' is of PBW type but does not generate <P>; "
                     "only a bounded claim is possible for P")
    ladder = timed(timings, "ladder", jacobi_verdicts, P, engine, K)
    if ladder.first_failure is not None:
        return result("NOT_PBW", K, cres.c, cres.certified, ladder.verdicts, ladder)
    if ladder_p.first_failure is not None:
        notes.append(f"P' fails (J_{ladder_p.first_failure}) although P passes "
                     f"up to {K}; no certificate either way")
    return result("PBW_UP_TO_DEGREE", K, cres.c, cres.certified and rational,
                  ladder.verdicts, ladder)
