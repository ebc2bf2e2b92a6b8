"""Acceptance suite: one test per criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The randomized suites are seeded, so the run is reproducible.
"""

import random

import pytest

import pbwkit
from pbwkit.deformation import (FilteredSubspace, minimize_relations,
                                pbw_check, pn_ladder, rp_of)
from pbwkit.errors import InvalidPresentation
from pbwkit.extension import engine_for
from pbwkit.freealg import format_element, parse_element
from pbwkit.gradedring import GradedSubspace, PresentedRing
from pbwkit.homology import complexity, tor3_resolution, tor_bar
from pbwkit.linalg import QQ

from conftest import acceptance_sample as _sample   # bench/test_bench.py imports it
from conftest import (annihilator_basis, brute_jacobi, naive_ladder, pure_jacobi_check,
                      rees_identity_check)

SEED = 20260810
SUITE_SIZE = 200
EXTRA_DEGREE_ONE = 20
NAIVE_UPTO = 5

X, XY, XYC, XYZ = ["x"], ["x", "y"], ["x", "y", "c"], ["x", "y", "z"]
HEISENBERG = ["x*y - y*x - c", "x*c - c*x", "y*c - c*y"]
SL2 = ["e*f - f*e - h", "h*e - e*h - 2*e", "h*f - f*h + 2*f"]
BRACKET = ["x*y - y*x - z", "y*z - z*y - x", "z*x - x*z + x"]
BINOMIALS = [1, 3, 6, 10, 15, 21, 28]


def els(texts, gens):
    return [parse_element(t, gens) for t in texts]


@pytest.fixture(scope="module")
def suite1():
    """The shared randomized suite: per instance, the Jacobi ladder to
    (J_6) and the central-extension engine through degree 7."""
    rng = random.Random(SEED)
    out = []
    for _ in range(SUITE_SIZE):
        g, elems, P = _sample(rng)
        ladder = pn_ladder(P, 6)
        engine = engine_for(P)
        anns = {n: engine.annihilator_dim(n) for n in range(7)}
        out.append({"g": g, "elems": elems, "P": P, "ladder": ladder,
                    "engine": engine, "anns": anns})
    return out


def test_criterion_1_jacobi_iff_annihilator(suite1):
    """Theorem-level cross-check on >= 200 randomized presentations."""
    disagreements = 0
    rng = random.Random(SEED + 1)
    checked = 0
    for inst in suite1:
        lad, anns = inst["ladder"], inst["anns"]
        assert anns[0] == 0  # (J_0) always holds once P ∩ T^0 = 0
        for n in range(1, 7):
            checked += 1
            if lad.verdicts[n] != (anns[n] == 0):
                disagreements += 1
    # extra cohort: degree-1 tops allowed (the equivalence is unconditional)
    for _ in range(EXTRA_DEGREE_ONE):
        g, elems, P = _sample(rng, tops_at_least_2=False)
        lad = pn_ladder(P, 6)
        eng = engine_for(P)
        for n in range(1, 7):
            checked += 1
            if lad.verdicts[n] != (eng.annihilator_dim(n) == 0):
                disagreements += 1
    assert disagreements == 0
    # the ladder and the engine run one recursion, so the naive ladder,
    # which multiplies every row and tests containment, is the oracle
    for inst in suite1:
        P = inst["P"]
        lad = pn_ladder(P, NAIVE_UPTO)
        spaces, verdicts, witness = naive_ladder(P, NAIVE_UPTO)
        assert lad.dims[:len(spaces)] == [sp.rank for sp in spaces], inst["elems"]
        assert lad.verdicts == verdicts, inst["elems"]
        assert (lad.witness is None) == (witness is None)
        if witness is not None:
            assert lad.witness.terms == witness.terms, inst["elems"]
    print(f"\nACCEPTANCE 1: PASS - (J_n) <=> ann^n = 0 on "
          f"{len(suite1) + EXTRA_DEGREE_ONE} presentations, {checked} "
          f"degree checks, 0 disagreements; ladder = naive ladder to "
          f"(J_{NAIVE_UPTO}) on {len(suite1)}")


def test_criterion_2_x3_counterexample():
    res = pbw_check(1, els(["x*x + 1"], X), ambient=els(["x*x*x"], X))
    assert res.verdict == "NOT_PBW"
    assert res.lift is not None and not res.lift.minimal_ok  # LIFT_NOT_MINIMAL
    # free-algebra route: first failure at (J_2)
    P = FilteredSubspace(1, els(["x*x + 1", "x*x*x"], X))
    lad = pn_ladder(P, 3)
    assert lad.first_failure == 2
    eng = engine_for(P)
    assert eng.annihilator_dim(2) >= 1
    # the witness is the class of x z, consistent with x z^2 = -x^3 = 0
    assert [(((0,), 1), QQ.one)] in annihilator_basis(eng, 2)
    # exact D dims, frozen from the commutative-quotient oracle in
    # tests/test_extension.py (sympy): k[x,z]/(x^3, x^2+z^2)
    assert [eng.dim_d(n) for n in range(4)] == [1, 2, 2, 1]
    print("\nACCEPTANCE 2: PASS - x^3 counterexample: NOT_PBW, "
          "LIFT_NOT_MINIMAL, (J_2) fails, ann^2 contains x z, dims D = 1,2,2,1")


def test_criterion_3_classical_pbw():
    for name, texts, gens in (("heisenberg", HEISENBERG, XYC), ("sl2", SL2, ["e", "f", "h"])):
        res = pbw_check(3, els(texts, gens), max_degree=6)
        assert res.verdict == "PBW_CERTIFIED", name
        grs = res.engine.gr_table(6, certified=True)
        assert grs == BINOMIALS, name
        # independent count: the symmetric algebra via graded-ring on the
        # commutator ideal
        comm = GradedSubspace.from_elements(
            3, els(["x*y - y*x", "x*c - c*x", "y*c - c*y"], XYC))
        ring = PresentedRing(3, comm)
        assert [ring.hilbert_value(n) for n in range(7)] == BINOMIALS
        assert [(n + 2) * (n + 1) // 2 for n in range(7)] == BINOMIALS
    print("\nACCEPTANCE 3: PASS - Heisenberg and sl2 PBW_CERTIFIED with "
          "dim gr^n U = C(n+2,2) for n <= 6, matching the symmetric algebra")


def test_criterion_4_jacobi_identity_failure():
    res = pbw_check(3, els(BRACKET, XYZ))
    assert res.verdict == "NOT_PBW"
    assert res.first_failure == 2
    assert res.witness.degree() <= 2
    # brute-force degree-<=3 span oracle agrees
    oracle = brute_jacobi(3, els(BRACKET, XYZ), 2)
    assert oracle == {1: True, 2: False}
    print("\nACCEPTANCE 4: PASS - non-Jacobi bracket NOT_PBW with first "
          f"failure (J_2), witness {format_element(res.witness, XYZ)!r} of "
          "degree <= 2, confirmed by the dense span oracle")


def test_criterion_5_n_koszul_complexity():
    for n in (2, 3, 4):
        rel = GradedSubspace.from_elements(1, els(["*".join(["x"] * n)], X))
        ring = PresentedRing(1, rel)
        res = complexity(ring, rel)
        assert res.c == n and res.certified, n
        hd = ring.hilbert(n + 1)
        assert hd.c_a + 2 == n  # the upper bound c(A) <= c_A + 2 is attained
    print("\nACCEPTANCE 5: PASS - complexity of k<x>/<x^n> is exactly n "
          "(certified) for n = 2, 3, 4, attaining c_A + 2")


def test_criterion_6_tor_oracle_equivalence(suite1):
    gallery_cases = [
        (1, ["x*x"], X),
        (1, ["x*x*x"], X),
        (1, ["x*x*x*x"], X),
        (2, ["x*y - y*x"], XY),
        (2, ["x*x", "y*y", "x*y + y*x"], XY),
        (2, ["x*x + y*y", "x*y - y*x"], XY),
        (3, ["x*y - y*x", "x*c - c*x", "y*c - c*y"], XYC),
    ]
    disagreements = 0
    compared = 0
    for g, texts, gens in gallery_cases:
        rel = GradedSubspace.from_elements(g, els(texts, gens))
        ring = PresentedRing(g, rel)
        if tor3_resolution(ring, rel, 6).dims != tor_bar(ring, 3, 6).dims:
            disagreements += 1
        compared += 1
    rng = random.Random(SEED + 2)
    made = 0
    while made < 50:
        g, elems, P = _sample(rng)
        rel = minimize_relations(rp_of(P))
        if not rel.degrees():
            continue
        ring = PresentedRing(g, rel)
        if tor3_resolution(ring, rel, 6).dims != tor_bar(ring, 3, 6).dims:
            disagreements += 1
        made += 1
        compared += 1
    assert disagreements == 0
    print(f"\nACCEPTANCE 6: PASS - resolution and bar Tor_3 tables agree on "
          f"{compared} algebras (gallery + 50 random), degrees <= 6")


def test_criterion_7_rees_identity(suite1):
    # gallery instances that certify
    certified = 0
    for name in ("heisenberg.pbw", "sl2.pbw", "clifford-diag11.pbw",
                 "symmetric-algebra.pbw", "kx-mod-x2.pbw", "kx-mod-x3.pbw"):
        with open(pbwkit.gallery_path(name), encoding="utf-8") as fh:
            pres = pbwkit.parse_presentation(fh.read())
        res = pbw_check(len(pres.generators), pres.parsed_deformation(),
                        ambient=pres.parsed_ambient(), max_degree=6)
        assert res.verdict == "PBW_CERTIFIED", name
        eng = engine_for(res.P)
        holds, per, bad = rees_identity_check(eng, 6)
        assert holds, name
        certified += 1
    # every regular suite-1 instance satisfies the identity through 6;
    # instances that additionally certify are counted
    regular = [inst for inst in suite1
               if all(inst["anns"][n] == 0 for n in range(6))]
    for inst in regular:
        holds, per, bad = rees_identity_check(inst["engine"], 6)
        assert holds, inst["elems"]
        res = pbw_check(inst["g"], inst["elems"], max_degree=6, tor_bound=4)
        if res.verdict == "PBW_CERTIFIED":
            certified += 1
    # the counterexample: identity fails exactly where regularity breaks
    eng = engine_for(FilteredSubspace(1, els(["x*x + 1", "x*x*x"], X)))
    holds, per, bad = rees_identity_check(eng, 4)
    first_irregular = next(n for n in range(5) if eng.annihilator_dim(n))
    assert not holds and bad == first_irregular + 1 == 3
    print(f"\nACCEPTANCE 7: PASS - dim D^n = dim A^n + dim D^(n-1) on "
          f"{certified} certified instances and {len(regular)} regular "
          "random instances (n <= 6); the x^3 case fails first at n = 3")


def test_criterion_8_pure_relations_equivalence(rng):
    # Clifford over Q with the form diag(1, 1)
    cliff = ["x*x - 1", "y*y - 1", "x*y + y*x"]
    res = pbw_check(2, els(cliff, XY))
    assert res.verdict == "PBW_CERTIFIED"
    out = pure_jacobi_check(FilteredSubspace(2, els(cliff, XY)))
    assert all(out["conditions"].values()) and out["equivalent"]
    # random symmetric bilinear forms: the (J') conjunction always matches
    # the pipeline verdict
    agreements = 0
    for _ in range(10):
        a, b, c = (rng.randint(-3, 3) for _ in range(3))
        def minus(base, v):
            return base if not v else (f"{base} - {v}" if v > 0 else f"{base} + {-v}")
        texts = [minus("x*x", a), minus("y*y", b), minus("x*y + y*x", 2 * c)]
        P = FilteredSubspace(2, els(texts, XY))
        out = pure_jacobi_check(P)
        res = pbw_check(2, els(texts, XY))
        assert out["equivalent"]
        assert all(out["conditions"].values()) == (res.verdict == "PBW_CERTIFIED")
        agreements += 1
    print(f"\nACCEPTANCE 8: PASS - (J') verdicts match pbw_check on Clifford "
          f"diag(1,1) (PBW_CERTIFIED) and {agreements} random symmetric forms")


def test_criterion_9_quotient_ambient_lift():
    via_lift = pbw_check(2, els(["x*x + y*y - 1"], XY),
                         ambient=els(["x*y - y*x"], XY), max_degree=6)
    by_hand = pbw_check(2, els(["x*x + y*y - 1", "x*y - y*x"], XY),
                        max_degree=6)
    assert via_lift.verdict == by_hand.verdict
    assert via_lift.jacobi == by_hand.jacobi
    assert via_lift.c == by_hand.c and via_lift.c_certified == by_hand.c_certified
    assert via_lift.hilbert.values == by_hand.hilbert.values
    print("\nACCEPTANCE 9: PASS - polynomial-ambient lift and hand-lifted "
          f"free presentation agree exactly (verdict {via_lift.verdict})")


def test_criterion_10_complexity_upper_bound(suite1):
    checked = 0
    violations = 0
    for inst in suite1:
        rel = minimize_relations(rp_of(inst["P"]))
        if not rel.degrees():
            continue
        ring = PresentedRing(inst["g"], rel)
        hd = ring.hilbert(min(ring.max_degree, 9))
        if not hd.finite_dim:
            continue
        res = complexity(ring, rel)
        assert res.certified
        if res.c > hd.c_a + 2:
            violations += 1
        checked += 1
    assert violations == 0
    assert checked >= 20  # the sampler produces plenty of finite cases
    print(f"\nACCEPTANCE 10: PASS - c(A) <= c_A + 2 on {checked} "
          "finite-dimensional suite-1 instances, 0 violations")
