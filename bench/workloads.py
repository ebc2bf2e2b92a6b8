"""The four benchmark workloads.

Each workload turns a seed into a fixed list of items (``build``), runs one
item through pbwkit's public API (``run``, the timed part) and checks its
output (``check``, untimed).  Calls go through module attributes so the
tracer's wrappers see them.

The random workloads take their presentations from the acceptance sampler
at the acceptance seed and let ``--seed`` pick a sign per generator
(``gen.flip_signs``).  Fresh samples would change the work of a pass by
several times from seed to seed, because the cost of one presentation
spans four orders of magnitude; a sign change keeps every answer and every
elimination step, so the runs of different seeds measure the same work on
different inputs, and each output is checked against the answer recorded
for the unsigned presentation.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from itertools import islice
from pathlib import Path

import pbwkit
from pbwkit import cli, deformation, extension, gradedring, homology

import gen

SEED = 20260810
REFERENCE = Path(__file__).with_name("reference.json")


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


class GalleryCheck:
    """``pbwkit check FILE --json`` on every bundled presentation, in
    process; the seed is not used."""

    field_args = ()
    ref_key = "Q"

    def __init__(self, name, nominal_pass_s):
        self.name = name
        self.nominal_pass_s = nominal_pass_s

    def build(self, seed, reference):
        ref = reference["gallery"][self.ref_key]
        items = []
        for name in pbwkit.gallery_names():
            path = str(pbwkit.gallery_path(name))
            with open(path, encoding="utf-8") as fh:
                pbwkit.parse_presentation(fh.read())
            items.append((name, path, ref[name]))
        return items

    def run(self, item):
        argv = ["check", item[1], "--json", *self.field_args]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    @staticmethod
    def observed(out):
        code, text = out
        report = json.loads(text)
        report.pop("timings", None)
        return {"exit": code, "json": report}

    def check(self, item, out):
        return self.observed(out) == item[2]


class GalleryCheckFp(GalleryCheck):
    field_args = ("--field", "Fp:32003")
    ref_key = "Fp:32003"


def signed_items(base, seed, ref):
    """(index, P, reference answer) per base presentation, with the signs
    of the generators drawn from ``seed``."""
    rng = random.Random(seed)
    items = []
    for i, (g, elems) in enumerate(base):
        signs = [rng.choice((1, -1)) for _ in range(g)]
        P = deformation.FilteredSubspace(g, gen.flip_signs(elems, signs))
        items.append((i, P, ref[i]))
    return items


class RandomCrosscheck:
    """Jacobi ladder to (J_6) against the T[z] engine to degree 7 on the
    first ``count`` presentations of the acceptance sample."""

    def __init__(self, name, nominal_pass_s, count):
        self.name = name
        self.nominal_pass_s = nominal_pass_s
        self.count = count

    def base(self):
        """(g, elements) of the unsigned presentations."""
        return [(g, elems) for g, elems, _ in islice(gen.stream(SEED), self.count)]

    def build(self, seed, reference):
        return signed_items(self.base(), seed, reference[self.name])

    def run(self, item):
        P = item[1]
        ladder = deformation.pn_ladder(P, 6)
        engine = extension.engine_for(P)
        anns = [engine.annihilator_dim(n) for n in range(7)]
        return ladder, anns

    @staticmethod
    def observed(out):
        ladder, anns = out
        return {"dims": list(ladder.dims), "ann": anns}

    def check(self, item, out):
        ladder, anns = out
        agree = anns[0] == 0 and all(
            ladder.verdicts[n] == (anns[n] == 0) for n in range(1, 7))
        return agree and self.observed(out) == item[2]


class RandomHomology:
    """Tor_3 by resolution against the bar complex through degree 6, then
    the complexity, on the first ``count`` presentations of the sample at
    seed + 2 whose minimized relations are nonzero (as in acceptance
    criterion 6)."""

    def __init__(self, name, nominal_pass_s, count):
        self.name = name
        self.nominal_pass_s = nominal_pass_s
        self.count = count

    def base(self):
        out = []
        for g, elems, P in gen.stream(SEED + 2):
            if len(out) == self.count:
                break
            rel = deformation.minimize_relations(deformation.rp_of(P))
            if rel.degrees():
                out.append((g, elems))
        return out

    def build(self, seed, reference):
        return signed_items(self.base(), seed, reference[self.name])

    def run(self, item):
        P = item[1]
        rel = deformation.minimize_relations(deformation.rp_of(P))
        ring = gradedring.PresentedRing(P.g, rel)
        resolution = homology.tor3_resolution(ring, rel, 6)
        bar = homology.tor_bar(ring, 3, 6)
        cres = homology.complexity(ring, rel)
        return ring, resolution, bar, cres

    @staticmethod
    def observed(out):
        ring, resolution, bar, cres = out
        return {"tor3": {str(m): d for m, d in sorted(resolution.dims.items())},
                "c": cres.c, "certified": cres.certified}

    def check(self, item, out):
        ring, resolution, bar, cres = out
        if resolution.dims != bar.dims:
            return False
        hd = ring.hilbert(min(ring.max_degree, 9))
        if hd.finite_dim and not (cres.certified and cres.c <= hd.c_a + 2):
            return False
        return self.observed(out) == item[2]


WORKLOADS = {w.name: w for w in (
    GalleryCheck("gallery-check", 16.0),
    RandomCrosscheck("random-crosscheck", 13.0, 40),
    RandomHomology("random-homology", 9.0, 16),
    GalleryCheckFp("gallery-check-fp", 7.0),
)}
