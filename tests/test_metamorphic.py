"""Metamorphic oracles: relabelling the generators is an isomorphism, and
P does not depend on the spanning set it is given by.

Reversing, rotating or shuffling (one seeded permutation) the generator
list changes the letter order, hence every column order, pivot choice and
witness downstream.  The verdict,
c(A), its certification, the (J_k) verdicts, the dimension tables and both
routes' Tor_3 tables are isomorphism invariants and must not change.

A seeded invertible integer combination of the deformation's elements
spans the same P but changes the rows every stage inserts, in value and
order.  Everything ``check`` and ``jacobi`` report must stay the same,
the witness included: it is canonical, the first row of the reduced
echelon form of (P_{k+1} ∩ T^{<=k}) modulo P_k.

An affine change of generators φ: x_i -> sum_j M_ij x_j + b_i, M
invertible, preserves the filtration, so U(φP) ≅ U(P) as filtered
algebras, and x -> Mx + bz maps <P_z> onto <(φP)_z>.  ``check`` must
report the same for P and φP but the witness, and φ of P's witness must
be one of φP's.  It reads no engine internals and needs no second engine.
"""

import dataclasses
import json
import random

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import pbwkit
from pbwkit.cli import run_command
from pbwkit.deformation import FilteredSubspace, pbw_check
from pbwkit.errors import InvalidPresentation, PBWError
from pbwkit.extension import engine_for
from pbwkit.freealg import Element, WordBasis, format_element, multiply, parse_element
from pbwkit.linalg import QQ, span
from pbwkit.presentations import Presentation, parse_field_name, parse_presentation

from conftest import random_presentation, row_elements, sampled, scale

ORDERS = {
    "reversed": lambda items: items[::-1],
    "rotated": lambda items: items[1:] + items[:1],
    # on 3 letters this seed gives [1, 0, 2], which neither order above gives
    "shuffled": lambda items: random.Random(20261031).sample(items, len(items)),
}


def check_invariants(pres):
    report = run_command("check", pres)
    res = pbw_check(len(pres.generators), pres.parsed_deformation(),
                    ambient=pres.parsed_ambient(), field=pres.field(),
                    max_degree=pres.max_degree, tor_bound=pres.tor_bound)
    return (report.verdict, report.c, report.certified, report.jacobi,
            report.dims, report.first_failure, res.checked_upto)


@pytest.mark.parametrize("field", ["Q", "Fp(32003)"])
@pytest.mark.parametrize("name", pbwkit.gallery_names())
def test_gallery_check_invariant_under_generator_order(name, field):
    with open(pbwkit.gallery_path(name), encoding="utf-8") as fh:
        pres = dataclasses.replace(parse_presentation(fh.read()), field_name=field)
    want = check_invariants(pres)
    for order, relabel in ORDERS.items():
        moved = dataclasses.replace(pres, generators=relabel(pres.generators))
        assert check_invariants(moved) == want, (name, field, order)


def tor_invariants(pres):
    report = run_command("tor", pres)
    return (report.verdict, report.dims["tor3"], report.dims["tor3_bar"])


@pytest.mark.parametrize("field", ["Q", "Fp(32003)"])
@pytest.mark.parametrize("name", pbwkit.gallery_names())
def test_gallery_tor_invariant_under_generator_order(name, field):
    # both Tor routes: the resolution and the bar complex's letter rows
    with open(pbwkit.gallery_path(name), encoding="utf-8") as fh:
        pres = dataclasses.replace(parse_presentation(fh.read()), field_name=field)
    want = tor_invariants(pres)
    assert want[0] == "TOR_OK"
    for order, relabel in ORDERS.items():
        moved = dataclasses.replace(pres, generators=relabel(pres.generators))
        assert tor_invariants(moved) == want, (name, field, order)


def relabelled(elems, g, relabel):
    """The elements with letter i renamed to its position in the relabelled
    generator list."""
    new_index = {old: new for new, old in enumerate(relabel(list(range(g))))}
    return [Element(e.field, {tuple(new_index[a] for a in w): s
                              for w, s in e.terms.items()}) for e in elems]


def pbw_invariants(res):
    return (res.verdict, res.c, res.c_certified, res.jacobi, res.first_failure,
            res.checked_upto, res.hilbert.values if res.hilbert else None,
            res.tor3.dims if res.tor3 else None)


def test_pbw_check_invariant_under_generator_order():
    rng = random.Random(20260810)
    done = 0
    while done < 20:
        g, elems = random_presentation(rng)
        try:
            FilteredSubspace(g, elems)
        except InvalidPresentation:
            continue
        want = pbw_invariants(pbw_check(g, elems, max_degree=6, tor_bound=4))
        for order, relabel in ORDERS.items():
            res = pbw_check(g, relabelled(elems, g, relabel), max_degree=6,
                            tor_bound=4)
            assert pbw_invariants(res) == want, (done, order)
        done += 1


def recombined(elems, seed):
    """Each element times ±1 plus integer multiples of the ones before it
    (a unit triangular matrix up to signs, invertible over every field),
    in a seeded order."""
    rng = random.Random(seed)
    out = []
    for i, e in enumerate(elems):
        f = scale(e, e.field.from_int(rng.choice((1, -1))))
        for prev in elems[:i]:
            f = f + scale(prev, e.field.from_int(rng.randint(-2, 2)))
        out.append(f)
    rng.shuffle(out)
    return out


def respanned(pres, seed):
    elems = recombined(pres.parsed_deformation(), seed)
    return dataclasses.replace(pres, deformation=[format_element(e, pres.generators)
                                                  for e in elems])


def reports(pres):
    """``check --json`` and ``jacobi --json`` without timings, with the exit
    codes and notes."""
    out = []
    for cmd in ("check", "jacobi"):
        report = run_command(cmd, pres)
        payload = json.loads(report.to_json())
        del payload["timings"]
        out.append((payload, report.exit_code, report.notes))
    return out


@pytest.mark.parametrize("field", ["Q", "Fp(32003)"])
@pytest.mark.parametrize("name", pbwkit.gallery_names())
def test_gallery_invariant_under_spanning_set(name, field):
    with open(pbwkit.gallery_path(name), encoding="utf-8") as fh:
        pres = dataclasses.replace(parse_presentation(fh.read()), field_name=field)
    want = reports(pres)
    for seed in (1, 2):
        assert reports(respanned(pres, seed)) == want, (name, field, seed)


def test_sampled_invariant_under_spanning_set():
    # the 30 sampler presentations of test_closure, as presentations whose
    # deformation is the reduced rows of P
    rng = random.Random(4400)
    failed = 0
    for i in range(30):
        P = sampled(rng, QQ)
        names = [f"x{k}" for k in range(P.g)]
        pres = Presentation("Q", names, [], [format_element(e, names)
                                             for e in row_elements(P)],
                            max_degree=5, tor_bound=4)
        want = reports(pres)
        assert reports(respanned(pres, i)) == want, (i, pres.deformation)
        failed += want[1][0]["witness"] is not None
    # the sample reaches failing (J_k), whose witness is compared
    assert failed


# ---------------------------------------------------------------------------
# Affine changes of generators.

# small scalars over Q: dense images of larger ones make the uncertified
# gr U tables grow coefficients for seconds (see CHANGES.md)
AFFINE_SCALARS = {"Fp(2)": (0, 1), "Fp(3)": (0, 1, 2), "Q": (0, 1, -1)}
GRADED_NOTE = "homogeneous deformation: graded, hence of PBW type"


def affine_image(e, M, b):
    """φ(e) for φ: x_i -> sum_j M[i][j] x_j + b[i]."""
    images = [Element(e.field, {**{(j,): s for j, s in enumerate(row)}, (): c})
              for row, c in zip(M, b)]
    out = Element(e.field)
    for w, s in e.terms.items():
        term = Element(e.field, {(): s})
        for i in w:
            term = multiply(term, images[i])
        out = out + term
    return out


@st.composite
def affine_case(draw):
    """(field name, g, P's spanning elements, M, b): 1-3 elements of
    degree 1 or 2 in g <= 3 letters, and M invertible."""
    name = draw(st.sampled_from(sorted(AFFINE_SCALARS)))
    field = parse_field_name(name)
    g = draw(st.integers(1, 3))
    scalar = st.sampled_from(AFFINE_SCALARS[name]).map(
        lambda s: field.from_fraction(Fraction(s)))
    word = st.lists(st.integers(0, g - 1), max_size=2).map(tuple)
    element = st.dictionaries(word, scalar, min_size=1, max_size=4).map(
        lambda terms: Element(field, terms)).filter(lambda e: e.degree())   # no 0, no constant
    rows = st.lists(scalar, min_size=g, max_size=g)
    M = draw(st.lists(rows, min_size=g, max_size=g).filter(
        lambda M: span(field, [dict(enumerate(row)) for row in M]).rank == g))
    return name, g, draw(st.lists(element, min_size=1, max_size=3)), M, draw(rows)


def affine_report(name, g, elems):
    """(``check --json`` without timings and witness, exit code, first
    failure, whether P took the graded route) and the witness text; the
    error's name for a presentation ``check`` refuses."""
    names = [f"x{k}" for k in range(g)]
    pres = Presentation(name, names, [], [format_element(e, names) for e in elems],
                        max_degree=5, tor_bound=4)
    try:
        report = run_command("check", pres)
    except PBWError as exc:
        return type(exc).__name__, None
    payload = json.loads(report.to_json())
    del payload["timings"], payload["witness"]
    return (payload, report.exit_code, report.first_failure,
            GRADED_NOTE in report.notes), report.witness


@settings(max_examples=200, deadline=None)
@given(affine_case())
def test_check_invariant_under_affine_change_of_generators(case):
    name, g, elems, M, b = case
    moved = [affine_image(e, M, b) for e in elems]
    (want, witness), (got, _) = affine_report(name, g, elems), affine_report(name, g, moved)
    if isinstance(want, str) or isinstance(got, str) or want[3] == got[3]:
        assert got == want
    else:
        # P is graded as given and φP not, or the other way round: the
        # graded one is of PBW type outright, the other is checked through
        # its ladder, so the verdict's strength and the (J_k) listed
        # follow the route; the isomorphism invariants must not
        assert (got[0]["c"], got[0]["dims"]) == (want[0]["c"], want[0]["dims"])
        assert {want[1], got[1]} <= {0, 2} and want[2] is None and got[2] is None
    if witness is not None:
        # φ(w) lies in P'_{k+1} ∩ T^{<=k} and not in P'_k, P' = φP: z·φ(w)
        # is in <P'_z>^{k+1} and φ(w) not in <P'_z>^k, over T[z]^k's columns
        field, k = parse_field_name(name), want[2]
        vec = WordBasis(g, k).element_to_vec(
            affine_image(parse_element(witness, [f"x{i}" for i in range(g)], field), M, b))
        engine = engine_for(FilteredSubspace(g, moved, field))
        assert not engine.ideal_component(k).contains(vec)
        assert engine.ideal_component(k + 1).contains({c + g ** (k + 1): s
                                                       for c, s in vec.items()})
