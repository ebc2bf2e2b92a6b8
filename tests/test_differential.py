"""Differential oracle: the dimension tables over Q and over two large primes.

For each gallery file the ``jacobi`` P_k dims and the ``check`` D, ann and
h_A lists are ranks of the same integer matrices over Q and over F_p.  A
rank drops mod p only where p divides a minor, so they must agree over Q,
F_32003 and F_1000003.  A mismatch over both primes points at a bug in one
route; a mismatch over one prime only is a bad prime for that file.

Tor_3 has two routes in one field, the resolution and the bar complex; they
must agree over F_p as acceptance criterion 6 has them agree over Q, on the
first 50 sampler rings at seed + 2, read over F_7 and F_32003.
"""

import dataclasses

import pytest

import pbwkit
from pbwkit.cli import run_command
from pbwkit.homology import tor3_resolution, tor_bar
from pbwkit.linalg import PrimeField
from pbwkit.presentations import parse_presentation

from conftest import sampler_rings

FIELDS = ("Q", "Fp(32003)", "Fp(1000003)")


def tables(pres, field):
    pres = dataclasses.replace(pres, field_name=field)
    check = run_command("check", pres).dims
    return {"P_k": run_command("jacobi", pres).dims["P_k"],
            **{key: check[key] for key in ("D", "ann", "h_A")}}


@pytest.mark.parametrize("name", pbwkit.gallery_names())
def test_gallery_tables_agree_over_q_and_two_primes(name):
    with open(pbwkit.gallery_path(name), encoding="utf-8") as fh:
        pres = parse_presentation(fh.read())
    got = {field: tables(pres, field) for field in FIELDS}
    assert got["Q"]["D"] and got["Q"]["P_k"]
    bad = {field: sorted(key for key in got["Q"] if got[field][key] != got["Q"][key])
           for field in FIELDS[1:]}
    bad = {field: keys for field, keys in bad.items() if keys}
    verdict = "a bug" if len(bad) == len(FIELDS) - 1 else "a bad prime"
    assert not bad, f"{name}: {bad} differ from Q, {verdict}"


@pytest.mark.parametrize("p", [7, 32003])
def test_tor3_routes_agree_over_fp(p):
    for k, (ring, rel) in enumerate(sampler_rings(PrimeField(p), 50)):
        assert tor3_resolution(ring, rel, 6).dims == tor_bar(ring, 3, 6).dims, k
