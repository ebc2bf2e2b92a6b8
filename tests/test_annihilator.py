"""The engine's count of ann(z) against the dense z-image route.

``ExtensionEngine.annihilator_dim(n)`` reads dim ann(z)^n as
cut_dim(n+1, n) - dim P_n: in echelon form the image of z in D^{n+1} is
spanned by the D^{n+1} basis positions of z-exponent >= 1.  The oracle
(``conftest.z_images``) multiplies every D^n basis monomial by z, reduces
it in full modulo <P_z>^{n+1} and counts the images less their rank.
"""

import dataclasses
import random

import pytest

import pbwkit
from pbwkit.deformation import FilteredSubspace, lift_presentation
from pbwkit.extension import engine_for
from pbwkit.freealg import parse_element
from pbwkit.linalg import QQ, PrimeField, span
from pbwkit.presentations import parse_presentation

from conftest import NaiveEngine, sampled, z_images

FIELDS = {"Q": QQ, "Fp(32003)": PrimeField(32003)}
ENGINE_DEGREE = 6
INSTANCES = 30


def dense_ann(eng, n):
    imgs = z_images(eng, n)
    return len(imgs) - span(eng.field, imgs).rank


@pytest.mark.parametrize("field", FIELDS)
def test_gallery_annihilators_match_z_images(field):
    nonzero = 0
    for name in pbwkit.gallery_names():
        with open(pbwkit.gallery_path(name), encoding="utf-8") as fh:
            pres = dataclasses.replace(parse_presentation(fh.read()), field_name=field)
        P = lift_presentation(len(pres.generators), pres.parsed_ambient(),
                              pres.parsed_deformation(), pres.field()).P
        eng = engine_for(P)
        for n in range(pres.max_degree + 1):
            ann = eng.annihilator_dim(n)
            assert ann == dense_ann(eng, n), (name, n)
            nonzero += ann > 0
    # the non-PBW gallery files have annihilators
    assert nonzero


@pytest.mark.parametrize("field", FIELDS)
def test_sampled_annihilators_match_z_images(field):
    # the sample of test_closure.py, read over each field
    rng = random.Random(4400)
    nonzero = 0
    for _ in range(INSTANCES):
        eng = engine_for(sampled(rng, FIELDS[field]))
        for n in range(ENGINE_DEGREE):
            ann = eng.annihilator_dim(n)
            assert ann == dense_ann(eng, n), n
            nonzero += ann > 0
    assert nonzero


@pytest.mark.parametrize("field", FIELDS)
def test_saturating_annihilators(field):
    # x^2 = 1 and x^3 = 0 give <P> = T: <P_z> fills T[z]^4, and cut_dim
    # reads the full degrees from ``saturated_at``
    f = FIELDS[field]
    P = FilteredSubspace(1, [parse_element(t, ["x"], f) for t in ("x*x - 1", "x*x*x")], f)
    for eng in (engine_for(P), NaiveEngine(P)):
        assert [eng.dim_d(n) for n in range(7)] == [1, 2, 2, 1, 0, 0, 0]
        assert [eng.annihilator_dim(n) for n in range(6)] == [0, 0, 1, 1, 0, 0]
        assert [dense_ann(eng, n) for n in range(6)] == [0, 0, 1, 1, 0, 0]
        assert eng.saturated_at == 4
