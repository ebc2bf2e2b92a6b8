import random

import pytest

from pbwkit import gallery_path
from pbwkit.errors import (DomainMismatch, InvalidPresentation, InvariantViolation,
                          ResourceExceeded)
from pbwkit.freealg import format_element, parse_element, project
from pbwkit.gradedring import GradedSubspace
from pbwkit.deformation import (FilteredSubspace, apply_alpha, lift_presentation,
                                minimize_relations, pbw_check, pn_ladder, rp_of)
from pbwkit.extension import ENGINE_DEGREE_CAP, engine_for
from pbwkit.freealg import WordBasis, filtration_size
from pbwkit.linalg import QQ, PrimeField
from pbwkit.presentations import parse_presentation

from conftest import (NotPure, acceptance_sample, ambient_sample, brute_jacobi,
                      certified_cut_dim, image_elements, lex_words, lift_rp_oracle,
                      pure_jacobi_check,
                      random_deformation_element, random_presentation, sampled, scale,
                      to_field, zcolumns, zelement)

X, XY, XYC = ["x"], ["x", "y"], ["x", "y", "c"]
HEISENBERG = ["x*y - y*x - c", "x*c - c*x", "y*c - c*y"]
BRACKET = ["x*y - y*x - z", "y*z - z*y - x", "z*x - x*z + x"]
SL2 = ["e*f - f*e - h", "h*e - e*h - 2*e", "h*f - f*h + 2*f"]


def els(texts, gens):
    return [parse_element(t, gens) for t in texts]


def fs(texts, gens):
    return FilteredSubspace(len(gens), els(texts, gens))


def same_space(P, Q):
    """P = Q as subspaces of T: equal spaces have the same top degree, so
    both are stored over the same word basis."""
    return P.max_degree == Q.max_degree and P.space.equals_space(Q.space)


def certified_gr(P, n):
    """dim gr^n U(P) from the certified cuts dim(<P> ∩ T^{<=n})."""
    eng = engine_for(P)
    dims = [filtration_size(P.g, k) - certified_cut_dim(eng, k)
            for k in range(n + 1)]
    return dims[n] - dims[n - 1] if n else dims[n]


class TestFilteredSubspace:
    def test_rejects_constants_in_span(self):
        with pytest.raises(InvalidPresentation):
            fs(["x + 1", "x"], X)

    def test_adapted_rows(self):
        P = fs(["x*y - y*x - 1", "x"], XY)
        assert P.dim == 2

    def test_graded_detection(self):
        # a graded P keeps no image below its top block, g^n columns wide
        assert fs(["x*y - y*x"], XY).images == {2: [{1: QQ.one, 2: -QQ.one}]}
        assert fs(["x*x + 1"], X).images == {2: [{0: QQ.one, 2: QQ.one}]}
        graded = "homogeneous deformation: graded, hence of PBW type"
        assert graded in pbw_check(2, els(["x*y - y*x"], XY)).notes
        # x sits at column 1 = g^2 of T[z]^2, just below the top block
        assert graded not in pbw_check(1, els(["x*x + x"], X)).notes


class TestRpOf:
    def test_single_tail(self):
        rp = rp_of(fs(["x*x + 1"], X))
        assert rp.degrees() == [2]
        assert rp.elements() == [parse_element("x*x", X)]

    def test_homogeneous_fixed(self):
        P = fs(["x*y - y*x"], XY)
        assert rp_of(P).elements() == [parse_element("x*y - y*x", XY)]

    def test_mixed_degrees(self):
        # [DERIVED] p^1(P ∩ T^{<=1}) = span{x}, p^2(P) = span{xy - yx}
        rp = rp_of(fs(["x*y - y*x - 1", "x"], XY))
        assert rp.dim(1) == 1 and rp.dim(2) == 1
        assert rp.blocks[1].contains(rp.vec_of(parse_element("x", XY)))
        assert rp.blocks[2].contains(rp.vec_of(parse_element("x*y - y*x", XY)))


def oracle_image(P, n, row):
    """alpha(r) for a domain row r of degree n, by an independent route:
    r placed at its degree's columns, minus its normal form modulo P.  r
    is the top of the reduced row v = r + l of P, l on columns that are
    no pivot of P, so r - NF(r) = r + l = v."""
    g, d = P.g, P.max_degree
    cols, words = zcolumns(g, d), lex_words(g, n)
    r = {cols[words[c]]: s for c, s in row.items()}
    return (zelement(g, d, r, P.field)
            - zelement(g, d, P.space.reduce_full(r), P.field))


class TestAlpha:
    def test_single_row(self):
        P = fs(["x*x + 1"], X)
        img = zelement(1, 2, P.apply(2, P.rel.vec_of(parse_element("x*x", X))), QQ)
        assert img == parse_element("x*x + 1", X)
        # alpha_2(x*x) = p^0(alpha(x*x))
        assert project(img, 0) == parse_element("1", X)

    def test_graded_gives_inclusion(self):
        P = fs(["x*y - y*x"], XY)
        e = parse_element("x*y - y*x", XY)
        assert zelement(2, 2, P.apply(2, P.rel.vec_of(e)), QQ) == e

    def test_extract_apply_round_trip(self):
        # [DERIVED] alpha(R) = P and rp_of(alpha(R)) = R, by rank
        P = fs(["x*y - y*x - x", "x*x"], XY)
        back = apply_alpha(P, rp_of(P))
        assert same_space(back, P)

    def test_apply_alpha_domain_mismatch(self):
        P = fs(["x*x + 1"], X)
        stranger = GradedSubspace.from_elements(1, [parse_element("x*x*x", X)])
        with pytest.raises(DomainMismatch):
            apply_alpha(P, stranger)

    def test_apply_alpha_round_trip_fault(self):
        # an image whose top is not its R_P row is a program fault
        P = fs(["x*x + 1", "x*y - y*x"], XY)
        rel = P.rel
        P.images[2][0] = WordBasis(2, 2).element_to_vec(parse_element("y*y + 1", XY))
        with pytest.raises(InvariantViolation):
            apply_alpha(P, rel)

    def test_round_trip_randomized(self, rng):
        for _ in range(10):
            g, elems = random_presentation(rng)
            try:
                P = FilteredSubspace(g, elems)
            except InvalidPresentation:
                continue
            if P.dim == 0:
                continue
            assert same_space(apply_alpha(P, rp_of(P)), P)

    @pytest.mark.parametrize("p", [None, 7])
    def test_images_and_alpha_image_against_normal_forms(self, p):
        field = QQ if p is None else PrimeField(p)
        rng = random.Random(20260810 + 26)
        cases = [FilteredSubspace(3, to_field(field, els(SL2, ["e", "f", "h"])), field)]
        cases += [sampled(rng, field) for _ in range(30)]
        rows = non_minimal = 0
        for P in cases:
            rp = rp_of(P)
            for n in rp.degrees():
                domain_rows = rp.blocks[n].reduced_basis()
                images = image_elements(P, n)
                assert len(domain_rows) == len(images)
                for k, row in enumerate(domain_rows):
                    want = oracle_image(P, n, row)
                    assert images[k] == want
                    assert zelement(P.g, n, P.apply(n, row), field) == want
                    rows += 1
            rmin = minimize_relations(rp)
            if all(rmin.dim(n) == rp.dim(n) for n in rp.degrees()):
                continue
            # P' = alpha(R) is spanned by the oracle's images of R's rows
            want = FilteredSubspace(P.g, [oracle_image(P, n, row) for n in rmin.degrees()
                                          for row in rmin.blocks[n].basis()], field)
            assert same_space(apply_alpha(P, rmin), want)
            non_minimal += 1
        assert rows == 73 and non_minimal == 16


class TestLadder:
    def test_x2_plus_1_over_free_line_passes(self):
        # [DERIVED by the dense oracle] over the free algebra k<x> the
        # deformation x^2 + 1 satisfies every (J_k): U = k[x]/(x^2+1) is a
        # classical PBW deformation of k[x]/(x^2)
        P = fs(["x*x + 1"], X)
        lad = pn_ladder(P, 3)
        assert lad.first_failure is None
        assert brute_jacobi(1, els(["x*x + 1"], X), 3) == lad.verdicts

    def test_lifted_x3_fails_at_2(self):
        # the x^3-ambient counterexample, lifted: first failure exactly (J_2)
        P = fs(["x*x + 1", "x*x*x"], X)
        lad = pn_ladder(P, 3)
        assert lad.first_failure == 2
        assert format_element(lad.witness, X) == "x"
        assert brute_jacobi(1, els(["x*x + 1", "x*x*x"], X), 3) == lad.verdicts

    def test_homogeneous_always_passes(self):
        P = fs(["x*y - y*x", "x*x"], XY)
        lad = pn_ladder(P, 4)
        assert lad.first_failure is None and all(lad.verdicts.values())

    def test_heisenberg_holds(self):
        P = fs(HEISENBERG, XYC)
        lad = pn_ladder(P, 2)
        assert lad.verdicts == {1: True, 2: True}

    def test_depth_cap_is_inclusive(self):
        # the deepest ladder reads T[z]^24, the engine's cap; one more
        # degree is refused by check_depth before anything is built
        P = fs(["x*x - x"], X)
        assert len(pn_ladder(P, ENGINE_DEGREE_CAP - 1).dims) == ENGINE_DEGREE_CAP + 1
        with pytest.raises(ResourceExceeded, match="ladder depth 24 above cap 24"):
            pn_ladder(P, ENGINE_DEGREE_CAP)

    def test_verdicts_match_dense_oracle_randomized(self, rng):
        for _ in range(10):
            g, elems = random_presentation(rng, max_g=2)
            try:
                P = FilteredSubspace(g, elems)
            except InvalidPresentation:
                continue
            lad = pn_ladder(P, 3)
            assert brute_jacobi(g, elems, 3) == lad.verdicts

    def test_spanning_set_invariance(self, rng):
        base = els(HEISENBERG, XYC)
        lad0 = pn_ladder(FilteredSubspace(3, base), 3)
        for _ in range(3):
            mixed = []
            for i, e in enumerate(base):
                f = e
                for j, other in enumerate(base):
                    if rng.random() < 0.5 and j != i:
                        f = f + scale(other, QQ.from_int(rng.randint(-2, 2)))
                mixed.append(f)
            lad = pn_ladder(FilteredSubspace(3, mixed), 3)
            assert lad.verdicts == lad0.verdicts


class TestMinimizeRelations:
    def test_strips_x3(self):
        rel = GradedSubspace.from_elements(1, els(["x*x", "x*x*x"], X))
        out = minimize_relations(rel)
        assert out.degrees() == [2]

    def test_already_minimal(self):
        rel = GradedSubspace.from_elements(2, els(["x*y - y*x"], XY))
        assert minimize_relations(rel).equals(rel)

    def test_pure_is_untouched(self):
        # pure relation spaces are bimodules of relations as they stand
        rel = GradedSubspace.from_elements(2, els(["x*x*y", "y*x*x"], XY))
        assert minimize_relations(rel).equals(rel)


class TestGrDimension:
    def test_free(self):
        P = FilteredSubspace(2, [])
        assert engine_for(P).gr_table(3) == [1, 2, 4, 8]

    def test_heisenberg_degree2(self):
        # [DERIVED] equals the symmetric-algebra count C(4, 2) = 6
        P = fs(HEISENBERG, XYC)
        assert engine_for(P).gr_table(2)[2] == 6

    def test_x2_plus_1(self):
        # [DERIVED] <x^2+1> ∩ T^{<=1} = 0, so dim U^{<=1} = 2, gr^1 = 1
        P = fs(["x*x + 1"], X)
        assert engine_for(P).gr_table(1)[1] == 1
        assert certified_gr(P, 1) == 1

    def test_certified_matches_heuristic_small(self, rng):
        for _ in range(6):
            elems = [random_deformation_element(rng, 1, rng.randint(2, 3))]
            try:
                P = FilteredSubspace(1, elems)
            except InvalidPresentation:
                continue
            assert engine_for(P).gr_table(2) == [certified_gr(P, n) for n in range(3)]


class TestPbwCheck:
    def test_heisenberg_certified(self):
        res = pbw_check(3, els(HEISENBERG, XYC))
        assert res.verdict == "PBW_CERTIFIED"
        assert res.c == 2 and res.c_certified
        assert res.jacobi == {1: True, 2: True}

    def test_empty_deformation(self):
        res = pbw_check(2, [])
        assert res.verdict == "PBW_CERTIFIED" and res.c == -1

    def test_x3_ambient_counterexample(self):
        res = pbw_check(1, els(["x*x + 1"], X), ambient=els(["x*x*x"], X))
        assert res.verdict == "NOT_PBW"
        assert res.first_failure == 2
        assert res.witness.degree() <= 2
        assert res.lift is not None and not res.lift.minimal_ok

    def test_non_jacobi_bracket(self):
        gens = ["x", "y", "z"]
        res = pbw_check(3, els(BRACKET, gens))
        assert res.verdict == "NOT_PBW" and res.first_failure == 2
        assert res.witness.degree() <= 2

    def test_certified_implies_gr_matches_hilbert(self):
        res = pbw_check(3, els(HEISENBERG, XYC), max_degree=4)
        assert res.engine.gr_table(4) == res.hilbert.values[:5]

    def test_certified_implies_pm_cut_stable(self):
        # Theorem-level invariant: P_m ∩ T^{<=n} = P_n for computed m > n
        res = pbw_check(3, els(HEISENBERG, XYC))
        eng = engine_for(res.P)
        for n in range(4):
            for m in range(n, 6):
                assert eng.cut_dim(m, n) == eng.cut_dim(n, n)

    def test_degree_one_tops_fall_back(self):
        res = pbw_check(2, els(["x*y - y*x - 1", "x"], XY))
        assert res.verdict in ("PBW_UP_TO_DEGREE", "NOT_PBW")
        assert res.c is None

    def test_degree_one_tops_scan_at_least_to_j2(self):
        # the bounded scan of degree-one tops runs to max(d, 2, max_degree)
        res = pbw_check(2, els(["x + 1"], XY), max_degree=1)
        assert res.checked_upto == 2 and sorted(res.jacobi) == [1, 2]

    @pytest.mark.parametrize("p", [None, 32003])
    def test_minimized_alpha_image_route(self, p):
        # x*x*y - x*y*x - x = x*(x*y - y*x - 1): R_P is not minimal, so the
        # Jacobi certificate runs on P' = alpha(R); over Q it transfers to
        # P through <P'> = <P>, over F_p the claim stays bounded
        field = QQ if p is None else PrimeField(p)
        res = pbw_check(2, [parse_element(t, XY, field)
                            for t in ["x*y - y*x - 1", "x*x*y - x*y*x - x"]],
                        field=field)
        assert ("R_P is not a bimodule of relations; Jacobi certificate runs "
                "on the minimized alpha-image P'") in res.notes
        assert res.jacobi == {1: True, 2: True, 3: True}
        if p is None:
            assert res.verdict == "PBW_CERTIFIED" and res.c_certified
            assert "generation of <P> by P' certified" in res.notes
        else:
            assert res.verdict == "PBW_UP_TO_DEGREE"
            assert "generation of <P> by P' certified" not in res.notes

    def test_certified_randoms_have_stable_cuts(self, rng):
        # P_m ∩ T^{<=n} = P_n for every computed m > n on certified
        # instances (theorem-level invariant, asserted directly)
        found = 0
        while found < 3:
            g, elems = random_presentation(rng, max_g=2)
            try:
                res = pbw_check(g, elems, max_degree=4, tor_bound=4)
            except InvalidPresentation:
                continue
            if res.verdict != "PBW_CERTIFIED" or res.P is None:
                continue
            eng = engine_for(res.P)
            for n in range(4):
                for m in range(n, 6):
                    assert eng.cut_dim(m, n) == eng.cut_dim(n, n)
            found += 1


class TestPureRoute:
    def test_inclusion_trivial(self):
        P = fs(["x*y - y*x", "x*x"], XY)
        out = pure_jacobi_check(P)
        assert all(out["conditions"].values()) and out["containment"]
        assert out["equivalent"]

    def test_lie_bracket_jacobi(self):
        out = pure_jacobi_check(fs(HEISENBERG, XYC))
        assert all(out["conditions"].values()) and out["equivalent"]

    def test_bracket_fails_j1(self):
        out = pure_jacobi_check(fs(BRACKET, ["x", "y", "z"]))
        assert out["conditions"][1] is False
        assert out["containment"] is False and out["equivalent"]

    def test_clifford_any_symmetric_form(self, rng):
        def minus(base, v):
            if not v:
                return base
            return f"{base} - {v}" if v > 0 else f"{base} + {-v}"

        for _ in range(4):
            a = rng.randint(-3, 3)
            b = rng.randint(-3, 3)
            c = rng.randint(-3, 3)
            texts = [minus("x*x", a), minus("y*y", b),
                     minus("x*y + y*x", 2 * c)]
            P = fs(texts, XY)
            out = pure_jacobi_check(P)
            res = pbw_check(2, els(texts, XY))
            assert all(out["conditions"].values()) == (res.verdict == "PBW_CERTIFIED")
            assert out["equivalent"]

    @pytest.mark.parametrize("p", [None, 7])
    def test_acceptance_sample(self, p):
        # every N-pure instance among the first 200 acceptance-sampler
        # presentations, cubic relations among them
        field = QQ if p is None else PrimeField(p)
        rng = random.Random(20260810)
        degrees = []
        for _ in range(200):
            g, elems, _ = acceptance_sample(rng)
            try:
                P = FilteredSubspace(g, to_field(field, elems), field)
            except InvalidPresentation:
                continue
            if len(rp_of(P).degrees()) != 1:
                continue
            out = pure_jacobi_check(P)
            assert out["equivalent"], elems
            degrees.append(out["N"])
        assert len(degrees) == 95 and 3 in degrees

    def test_not_pure_rejected(self):
        with pytest.raises(NotPure):
            pure_jacobi_check(fs(["x*x", "x*x*y + 1"], XY))

    def test_agrees_with_ladder_on_pure_instances(self, rng):
        for _ in range(8):
            g = rng.choice([1, 2])
            elems = [random_deformation_element(rng, g, 2) for _ in range(rng.randint(1, 2))]
            try:
                P = FilteredSubspace(g, elems)
            except InvalidPresentation:
                continue
            rp = rp_of(P)
            if rp.degrees() != [2]:
                continue
            out = pure_jacobi_check(P)
            lad = pn_ladder(P, 2)
            assert all(out["conditions"].values()) == (lad.first_failure is None)


class TestLift:
    def test_identity_without_ambient(self):
        lift = lift_presentation(2, [], els(["x*x + 1"], XY))
        assert lift.identity and lift.minimal_ok

    def test_polynomial_ambient_section(self):
        lift = lift_presentation(2, els(["x*y - y*x"], XY),
                                 els(["x*x + y*y - 1"], XY))
        assert lift.minimal_ok
        spans = {format_element(e, XY) for e in lift.spanning}
        assert spans == {"x*x + y*y - 1", "x*y - y*x"}

    def test_x3_ambient_flagged(self):
        lift = lift_presentation(1, els(["x*x*x"], X), els(["x*x + 1"], X))
        assert not lift.minimal_ok
        spans = {format_element(e, X) for e in lift.spanning}
        assert spans == {"x*x + 1", "x*x*x"}

    def test_k0_combination_in_tilde_flagged(self):
        # neither ambient relation lies in F¹I + IF¹, I = <x*y - y*x + K0>,
        # but their difference x*x*y - x*y*x = x*(x*y - y*x) does
        lift = lift_presentation(2, els(["x*x*y + y*y*y", "x*y*x + y*y*y"], XY),
                                 els(["x*y - y*x"], XY))
        assert not lift.minimal_ok
        assert lift.note.startswith("LIFT_NOT_MINIMAL")

    @pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "Fp7"])
    def test_lifted_rp_is_sigma_rp_plus_k0(self, field):
        # R_P = R_{sigma(P)} ⊕ K0 degree by degree: the side condition read
        # off the one lifted P agrees with the two-space construction
        cases = []
        for name in ("polynomial-ambient.pbw", "x3-counterexample.pbw"):
            with open(gallery_path(name), encoding="utf-8") as fh:
                pres = parse_presentation(fh.read())
            cases.append((len(pres.generators), to_field(field, pres.parsed_ambient()),
                          to_field(field, pres.parsed_deformation())))
        rng = random.Random(20261021)
        cases += [ambient_sample(rng, field) for _ in range(200)]
        lifted = 0
        for g, ambient, deformation in cases:
            try:
                lift = lift_presentation(g, ambient, deformation, field)
            except InvalidPresentation:
                continue
            lifted += 1
            assert lift.P.rel.equals(lift_rp_oracle(g, ambient, deformation, field))
        assert lifted > 180

    def test_lift_agrees_with_hand_lift(self):
        # quotient-ambient route vs the hand-written free presentation
        via_lift = pbw_check(2, els(["x*x + y*y - 1"], XY),
                             ambient=els(["x*y - y*x"], XY))
        by_hand = pbw_check(2, els(["x*x + y*y - 1", "x*y - y*x"], XY))
        assert via_lift.verdict == by_hand.verdict
        assert via_lift.jacobi == by_hand.jacobi
