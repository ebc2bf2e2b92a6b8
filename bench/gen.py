"""Seeded input generator for the random workloads.

A copy of the acceptance sampler (``random_presentation`` in
``tests/conftest.py`` filtered by ``_sample`` in
``tests/test_acceptance.py``), kept here so the benchmark does not import
the test tree.  ``test_bench.py`` checks that both give the same stream.
"""

from __future__ import annotations

import random
from fractions import Fraction

from pbwkit.deformation import FilteredSubspace, rp_of
from pbwkit.errors import InvalidPresentation
from pbwkit.freealg import Element
from pbwkit.linalg import QQ

COEFFS = [-2, -1, -1, 1, 1, 2, Fraction(1, 2), Fraction(-1, 2)]


def _homogeneous(rng, g, degree, terms):
    e = Element(QQ)
    for _ in range(terms):
        w = tuple(rng.randrange(g) for _ in range(degree))
        c = rng.choice(COEFFS)
        e = e + Element(QQ, {w: QQ.from_fraction(Fraction(c))})
    return e


def _deformation_element(rng, g, top_degree):
    while True:
        top = _homogeneous(rng, g, top_degree, rng.randint(1, 2))
        if not top.is_zero():
            break
    e = top
    for d in range(top_degree):
        if rng.random() < 0.4:
            e = e + _homogeneous(rng, g, d, 1)
    return e


def _presentation(rng):
    """<= 3 generators, <= 4 elements, top degrees 2..3, Q coefficients."""
    g = rng.choice([1, 2, 2, 3])
    count = rng.randint(1, 4)
    return g, [_deformation_element(rng, g, rng.randint(2, 3))
               for _ in range(count)]


def sample(rng):
    """One accepted presentation: (g, elements, P) with P != 0 and the top
    relations R_P in degrees >= 2."""
    while True:
        g, elems = _presentation(rng)
        try:
            P = FilteredSubspace(g, elems)
        except InvalidPresentation:
            continue
        if P.dim == 0:
            continue
        rp = rp_of(P)
        if rp.degrees() and rp.degrees()[0] < 2:
            continue
        return g, elems, P


def stream(seed):
    """Endless accepted presentations from ``random.Random(seed)``."""
    rng = random.Random(seed)
    while True:
        yield sample(rng)



def flip_signs(elems, signs):
    """Substitute x_i -> signs[i] * x_i (signs[i] = +-1) in every element.

    The substitution is an automorphism of the free algebra that keeps
    every answer (dims, verdicts, Tor tables, complexity) and, since it
    only scales columns by +-1, every step of the elimination; the
    sampler gives both presentations the same probability."""
    out = []
    for e in elems:
        terms = {}
        for w, s in e.terms.items():
            for letter in w:
                if signs[letter] < 0:
                    s = -s
            terms[w] = s
        out.append(Element(e.field, terms))
    return out
