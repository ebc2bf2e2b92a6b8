"""The PBW decision core.

A deformation P is a filtered subspace of the free algebra; its echelon
basis under the degree-descending word order is simultaneously adapted to
every T^{<=n}.  So P is the graph of a filtered map alpha on R_P, and both
are read off P's reduced rows (``FilteredSubspace.rel`` and ``images``),
and the ladder P_{k+1} = T^1 P_k + P_k T^1 + P^{<=k+1} is a plain
row-space operation.  Condition (J_k) asks that P_{k+1} brings nothing
new below degree k+1.

The ladder is read from the T[z] engine of P (``extension``), the one
route to (J_k): setting z = 1 maps <P_z>^m onto P_m, so dim P_k is the
engine's cut_dim(k, k) and (J_k) holds iff z has no annihilator in D^k.
The witness of a failing (J_k) is canonical: the first row of the
reduced echelon form of (P_{k+1} ∩ T^{<=k}) modulo P_k, whatever basis
the engine stored.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field
from functools import cached_property

from .errors import DomainMismatch, InvalidPresentation, InvariantViolation, ValidationError
from .extension import ENGINE_DEGREE_CAP, ExtensionEngine, check_depth, engine_for
from .freealg import Element, WordBasis, column_guard, guard_reach, project
from .gradedring import (DEFAULT_MAX_DEGREE, GradedSubspace, PresentedRing,
                         graded_ideal_step, ideal_chain)
from .homology import TOR_BOUND, complexity
from .linalg import QQ, RowSpace, span
from .presentations import MAX_DEGREE

MIN_TOP_DEGREE = 1      # FilteredSubspace rows live in T^{<=1} at least


class FilteredSubspace:
    """Echelon basis of an inhomogeneous subspace P with P ∩ T^0 = 0, and
    the R_P and alpha it is the graph of.

    Rows are stored over WordBasis(g, d) where d is the top degree of the
    spanning set; with the degree-descending column order, the rows whose
    pivot has degree <= n are an echelon basis of P ∩ T^{<=n}.

    R_P and alpha are a reading of P's reduced rows v.  The rows with a
    pivot in degree n vanish at each other's pivots, and so do their tops
    LH(v), so the tops are the reduced rows of R_P's degree-n block, and
    alpha(LH(v)) := v is the canonical filtered map with alpha(R_P) = P
    and alpha_0 the inclusion.  A word of degree <= n sits start(n) =
    F(d) - F(n) columns later in WordBasis(g, d) than in WordBasis(g, n),
    so such a v moved back by start(n) is a row over WordBasis(g, n), the
    columns of T[z]^n, whose top is its entries below column g^n: the
    row of alpha_z(LH(v)), the word w standing for w z^(n-|w|).  Over a
    field alpha always exists, and the reduced basis makes it
    reproducible.
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
        if self.space.is_pivot(unit_pos):
            raise InvalidPresentation("P ∩ T^0 != 0: the span contains a constant")

    @property
    def dim(self):
        return self.space.rank

    @cached_property
    def images(self):
        """n -> P's reduced rows of top degree n, in pivot order, each over
        WordBasis(g, n): the images alpha(r) of R_P's reduced rows r."""
        out = {}
        for row in self.space.reduced_basis():     # pivot order: by degree, then lex
            n, off = self.basis.block(min(row))
            out.setdefault(n, []).append({p - off: s for p, s in row.items()})
        return out

    @cached_property
    def rel(self):
        """R_P: per degree n, the tops of ``images[n]``."""
        rel = GradedSubspace(self.g, self.field)
        for n, rows in self.images.items():
            top = rel.block(n)
            for row in rows:
                top.insert({p: s for p, s in row.items() if p < self.g ** n})
        return rel

    def apply(self, n, vec):
        """alpha on a degree-n vector of R_P, as a row over WordBasis(g, n):
        sum_k vec[pivot_k]·images[n][k], read at the block's pivots;
        DomainMismatch outside R_P."""
        if not vec:
            return {}
        block = self.rel.blocks.get(n)
        if block is None or not block.contains(vec):
            raise DomainMismatch(f"vector of degree {n} outside R_P")
        out, zero = {}, self.field.zero
        for pivot, img in zip(sorted(block.rows), self.images[n]):
            c = vec.get(pivot)
            if c:
                for p, s in img.items():
                    out[p] = out.get(p, zero) + c * s
        return {p: s for p, s in out.items() if s}


def rp_of(P):
    """R_P: per degree n, the projections p^n of the rows of P ∩ T^{<=n}
    whose top degree is exactly n; P's own, so a caller that grows it
    owns P."""
    return P.rel


def apply_alpha(P, rel):
    """P' = span alpha(rel) for rel inside R_P, each row read at R_P's
    pivots (``FilteredSubspace.apply``).  A row of rel that is one of R_P's
    reduced rows, as every row of ``minimize_relations(R_P)`` is, maps to
    its image, so P' = alpha(R) is a selection of P's reduced rows.  The
    round trip rp_of(P') = rel holds whenever rel lies in R_P, so a
    failure is an InvariantViolation."""
    Pp = FilteredSubspace(P.g, [WordBasis(P.g, n).vec_to_element(P.apply(n, row), P.field)
                                for n in rel.degrees() for row in rel.blocks[n].basis()],
                          P.field)
    if not Pp.rel.equals(rel):
        raise InvariantViolation("alpha image does not recover the domain tops")
    return Pp


# ---------------------------------------------------------------------------
# The ladder.

@dataclass
class JacobiLadder:
    dims: list              # dim P_k for k <= upto + 1
    verdicts: dict          # k -> bool for 1 <= k <= upto
    first_failure: int | None
    witness: Element | None


def pn_ladder(P, upto, engine=None):
    """P_0..P_{upto+1} plus the (J_k) verdicts for k <= upto, read from
    ``engine``, the T[z] engine of P (``engine_for(P)`` when None).

    dim P_k is cut_dim(k, k), and (J_k) holds iff annihilator_dim(k)
    vanishes (see ``extension``).  Neither builds a component past the
    first full one, where the ladder reaches T^{<=k} (the engine's
    ``saturated_at``).  A depth whose T[z]^{upto+1} the column guard
    refuses is refused before anything is built.

    The witness of the first failing (J_k) is canonical: the rows of
    <P_z>^{k+1} with a pivot among the last dim T^{<=k} columns are z·u,
    u in T[z]^k, and the u reduced fully modulo <P_z>^k span (P_{k+1} ∩
    T^{<=k}) / P_k; the witness is the first row of their reduced echelon
    form, read as an element over ``WordBasis(g, k)``, the columns of
    T[z]^k.  That span must have dimension annihilator_dim(k).
    """
    check_depth(upto)
    WordBasis(P.g, upto + 1)        # the column guard on T[z]^{upto+1}, before any step
    engine = engine_for(P) if engine is None else engine
    dims = [engine.cut_dim(k, k) for k in range(upto + 2)]
    verdicts = {k: engine.annihilator_dim(k) == 0 for k in range(1, upto + 1)}
    first_failure = next((k for k, ok in verdicts.items() if not ok), None)
    witness = None
    if first_failure is not None:
        k = first_failure
        low, top = engine.ideal_component(k), engine.ideal_component(k + 1)
        shift = P.g ** (k + 1)      # z·(w z^j) lies g^(k+1) columns after w z^j
        cut = (top.rows[p] for p in top.rows if p >= shift)
        new = span(P.field, (low.reduce_full({c - shift: s for c, s in row.items()})
                             for row in cut))
        ann = engine.annihilator_dim(k)
        if new.rank != ann:
            raise InvariantViolation(f"(J_{k}): the witness space has dimension "
                                     f"{new.rank}, ann(z)^{k} has {ann}")
        witness = WordBasis(P.g, k).vec_to_element(new.reduced_basis()[0], P.field)
    return JacobiLadder(dims, verdicts, first_failure, witness)


def beyond_tilde(chain, g, n, rows):
    """The rows, in order, that add a pivot when inserted in turn into
    Ĩ^n = F¹I^{n-1} + I^{n-1}F¹, ``chain[m]`` being I^m for m < n: a
    greedy complement of their span's meet with Ĩ^n."""
    tilde = graded_ideal_step(chain, None, g, n, chain[0].field)
    return [row for row in rows if tilde.insert(row) is not None]


def minimize_relations(rel):
    """A bimodule of relations extracted from rel: the graded complement
    of rel ∩ Ĩ inside rel, Ĩ = F¹I + IF¹ and I = <rel>, picked greedily
    from rel's reduced bases in pivot order, so it is deterministic.  The
    equality of ideals <result> = <rel> is certified degree-wise up to the
    top degree d of rel; both ideals are generated in degrees <= d, so
    agreement up to d propagates through the recursion I^{n+1} = F¹Iⁿ +
    IⁿF¹ for n >= d.  The chain of <rel> is built once, for the complement
    and the check."""
    d = rel.max_degree()
    chain = ideal_chain(rel, d)
    out = GradedSubspace(rel.g, rel.field)
    for n in rel.degrees():
        keep = out.block(n)
        for row in beyond_tilde(chain, rel.g, n, rel.blocks[n].reduced_basis()):
            keep.insert(row)
    if not all(a.equals_space(b) for a, b in zip(chain, ideal_chain(out, d))):
        raise InvariantViolation("minimization changed the ideal")
    return out


# ---------------------------------------------------------------------------
# Presentation lifting (quotient ambient ring -> free algebra).

@dataclass
class LiftResult:
    spanning: list                  # elements over the free algebra
    P: FilteredSubspace             # their span
    minimal_ok: bool = True
    note: str = ""
    identity: bool = False


def lift_presentation(g, ambient_elements, deformation_elements, field=QQ):
    """Replace a presentation over T = F/<K0> by one over the free algebra:
    the deformation becomes the span P of sigma(P) and K0, K0 minimized
    by ``minimize_relations`` and sigma the normal-form linear section of
    F -> T.

    The side condition K0 ∩ (F¹I + IF¹) = 0, I = <R_P>, is checked as a
    rank test on the lifted P's own R_P.  It is R_{sigma(P)} ⊕ K0 degree
    by degree: the homogeneous parts of sigma(P) lie on normal words,
    which span a complement of <K0>, so no top of theirs cancels against
    K0.  When the test fails the lift is still returned (the PBW-type
    question transfers regardless) but flagged LIFT_NOT_MINIMAL:
    ``pbw_check`` then certifies no non-graded deformation, on R_P or on
    the alpha-image P', so their positive verdicts are bounded-degree
    claims.  A graded deformation is of PBW type whatever the lift.
    """
    if not ambient_elements:
        spanning = list(deformation_elements)
        return LiftResult(spanning, FilteredSubspace(g, spanning, field), identity=True)
    raw = GradedSubspace.from_elements(g, ambient_elements, field)
    for n in raw.degrees():
        if n < 2:
            raise ValidationError("ambient relations must be homogeneous of degree >= 2")
    k0 = minimize_relations(raw)
    ambient_ring = PresentedRing(g, k0, field, max(
        [DEFAULT_MAX_DEGREE] + [e.degree() for e in deformation_elements if not e.is_zero()]))
    spanning = []
    for e in deformation_elements:
        total = Element(field)
        for n in range(e.degree() + 1 if not e.is_zero() else 0):
            part = project(e, n)
            if not part.is_zero():
                total = total + ambient_ring.normal_form(part)
        if not total.is_zero():
            spanning.append(total)
    spanning += k0.elements()
    P = FilteredSubspace(g, spanning, field)
    # K0's rows are independent, so K0 ∩ Ĩ = 0 iff each adds a pivot to Ĩ
    chain = ideal_chain(P.rel, k0.max_degree())
    minimal_ok = all(len(beyond_tilde(chain, g, n, k0.blocks[n].raw_basis())) == k0.dim(n)
                     for n in k0.degrees())
    note = "" if minimal_ok else (
        "LIFT_NOT_MINIMAL: ambient relations meet F¹I + IF¹; a non-graded "
        "deformation gets no certificate on R_P or on the alpha-image P', so "
        "a positive verdict on it is a bounded-degree claim; a graded "
        "deformation is of PBW type regardless")
    return LiftResult(spanning, P, minimal_ok, note)


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


def minimized_ring(rp, max_degree, tor_bound=0):
    """(R, A): R_P minimized to a bimodule of relations R, and A = T/<R>
    with its degree cap max(10, max_degree + 1, tor_bound), tor_bound the
    Tor_3 bound scanned.  The homological stages need R_P in degrees >= 2."""
    if rp.degrees() and rp.degrees()[0] <= 1:
        raise ValidationError(
            "top components of degree <= 1: homological commands need "
            "relations in degrees >= 2")
    rmin = minimize_relations(rp)
    return rmin, PresentedRing(rp.g, rmin, rp.field, max_degree=max(
        DEFAULT_MAX_DEGREE, max_degree + 1, tor_bound))


def shown_hilbert(ring, upto, notes):
    """h_A through degree upto, for ``check`` and ``complexity``, which
    only display it: it stops below the first degree whose g^n columns the
    column guard would refuse, with a note in notes."""
    guard = column_guard()
    top = guard_reach(ring.g, upto, guard, pow)
    if top < upto:
        notes.append(f"h_A stops at degree {top}: degree {top + 1} needs "
                     f"{ring.g ** (top + 1)} columns, above the column guard {guard}")
    return ring.hilbert(top)


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
    hilbert: object = None
    tor3: object = None
    engine: ExtensionEngine | None = None   # T[z] engine of P
    lift: LiftResult | None = None
    timings: dict = dc_field(default_factory=dict)   # stage -> seconds

    @property
    def exit_code(self):
        return {"PBW_CERTIFIED": 0, "NOT_PBW": 1, "PBW_UP_TO_DEGREE": 2}[self.verdict]


def pbw_check(g, deformation, ambient=(), field=QQ, max_degree=MAX_DEGREE, tor_bound=None):
    """Decide whether U(P) = T/<P> is a PBW-deformation of A = T/<R_P>.

    The positive certificate follows the homological route: minimize R_P to
    a bimodule of relations R, certify <R> = <R_P>, compute c(A), and check
    (J_1)..(J_c) on the alpha-associated subspace P' = alpha(R); when
    P' != P the generation <P'> = <P> is certified through P'_d membership.
    A failing (J_k) on P itself is always a definitive NOT_PBW.  The
    (J_k) on P are read from its T[z] engine (``pn_ladder``), which the
    result keeps for ``check``'s tables.  The result's ``timings``
    holds the wall time of every stage that ran.
    """
    notes = []
    timings = {}
    lift = timed(timings, "lift", lift_presentation, g, list(ambient), list(deformation), field)
    P = lift.P
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
        notes.append("empty deformation: U(P) is the free algebra")
        return result("PBW_CERTIFIED", 0, -1, True, {}, None)

    # the T[z] engine of P: the (J_k) on P are read from it, and check's
    # tables from the same engine
    engine = timed(timings, "extract", engine_for, P)
    rp = engine.rel
    found["engine"] = engine
    d = P.max_degree
    depth_bound = max(d, 2, min(max_degree, ENGINE_DEGREE_CAP - 1))
    low = rp.degrees()[0] <= 1

    if not low:
        bound = tor_bound or TOR_BOUND
        rmin, ring = timed(timings, "minimize", minimized_ring, rp, max_degree, bound)
        cres = timed(timings, "complexity", complexity, ring, rmin, bound_hint=bound)
        hilbert = timed(timings, "hilbert", shown_hilbert, ring,
                        min(ring.max_degree, max(max_degree, d)), notes)
        found.update(tor3=cres.table, hilbert=hilbert)

    if all(max(row) < g ** n for n, rows in P.images.items() for row in rows):
        # every image lies below column g^n, the top block: alpha is the
        # inclusion and P graded, so P_m ∩ T^{<=n} = P_{min(m,n)}, every
        # (J_k) holds and P is of PBW-type outright.
        c_val, c_cert = (None, False) if low else (cres.c, cres.certified)
        jac = {}
        checked = 0
        if c_val is not None and c_val >= 1:
            checked = min(c_val, ENGINE_DEGREE_CAP - 1)
            ladder = timed(timings, "ladder", pn_ladder, P, checked, engine)
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
        ladder = timed(timings, "ladder", pn_ladder, P, depth_bound, engine)
        notes.append("deformation has top components of degree <= 1; "
                     "certification falls back to the bounded Jacobi scan")
        verdict = "PBW_UP_TO_DEGREE" if ladder.first_failure is None else "NOT_PBW"
        return result(verdict, depth_bound, None, False, ladder.verdicts, ladder)

    certified_c = cres.certified and rational and lift.minimal_ok
    same = all(rmin.dim(n) == rp.dim(n) for n in rp.degrees())

    if cres.certified:
        K = min(max(cres.c, 1 if same else d), ENGINE_DEGREE_CAP - 1)
    else:
        K = depth_bound

    if same:
        ladder = timed(timings, "ladder", pn_ladder, P, K, engine)
        if ladder.first_failure is not None:
            return result("NOT_PBW", K, cres.c, cres.certified, ladder.verdicts, ladder)
        if certified_c:
            return result("PBW_CERTIFIED", K, cres.c, True, ladder.verdicts, ladder)
        if not cres.certified:
            notes.append(cres.note)
        return result("PBW_UP_TO_DEGREE", K, cres.c, cres.certified and rational,
                      ladder.verdicts, ladder)

    # R_P is not minimal: check the alpha-associated P' = alpha(R) first
    Pp = apply_alpha(P, rmin)
    notes.append("R_P is not a bimodule of relations; Jacobi certificate runs "
                 "on the minimized alpha-image P'")
    engine_p = timed(timings, "ladder", engine_for, Pp)
    ladder_p = timed(timings, "ladder", pn_ladder, Pp, K, engine_p)
    if ladder_p.first_failure is None and certified_c:
        # P's rows lie over WordBasis(g, d), which lays out T[z]^d too
        if all(map(engine_p.ideal_component(d).contains, P.space.basis())):
            # P' is of PBW type and generates <P>, hence <P'> = <P> and the
            # verdict transfers to P
            notes.append("generation of <P> by P' certified")
            return result("PBW_CERTIFIED", K, cres.c, True, ladder_p.verdicts, ladder_p)
        notes.append("minimized P' is of PBW type but does not generate <P>; "
                     "only a bounded claim is possible for P")
    ladder = timed(timings, "ladder", pn_ladder, P, K, engine)
    if ladder.first_failure is not None:
        return result("NOT_PBW", K, cres.c, cres.certified, ladder.verdicts, ladder)
    if ladder_p.first_failure is not None:
        notes.append(f"P' fails (J_{ladder_p.first_failure}) although P passes "
                     f"up to {K}; no certificate either way")
    return result("PBW_UP_TO_DEGREE", K, cres.c, cres.certified and rational,
                  ladder.verdicts, ladder)
