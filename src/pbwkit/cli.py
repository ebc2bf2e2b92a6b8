"""Command dispatch: pbwkit <check|jacobi|complexity|tor|hilbert|rees> FILE.

Exit codes: 0 = PBW_CERTIFIED (or a successful non-check command),
1 = NOT_PBW, 2 = PBW_UP_TO_DEGREE, 11 = parse error, 12 = validation,
13 = resource cap, 14 = any other failure (a broken invariant, an I/O
error, or an unexpected exception).
"""

from __future__ import annotations

import argparse
import re
import sys
import time

from .deformation import (FilteredSubspace, lift_presentation,
                          minimize_relations, pbw_check, pn_ladder, rp_of)
from .errors import (InvalidPresentation, ParseError, PBWError,
                     ResourceExceeded, ValidationError)
from .extension import ExtensionEngine, engine_for, rees_identity_check
from .freealg import format_element
from .gradedring import PresentedRing
from .homology import complexity, tor3_resolution, tor_bar
from .presentations import Report, parse_presentation

COMMANDS = ("check", "jacobi", "complexity", "tor", "hilbert", "rees")


def _empty_dims():
    return {"h_A": None, "gr_U": None, "D": None, "ann": None, "tor3": None}


def _lifted_subspace(pres):
    field = pres.field()
    lift = lift_presentation(len(pres.generators), pres.parsed_ambient(),
                             pres.parsed_deformation(), field)
    P = FilteredSubspace(len(pres.generators), lift.spanning, field)
    return P, lift


def _witness_text(pres, element):
    if element is None:
        return None
    return format_element(element, pres.generators)


def cmd_check(pres, upto=None):
    timings = {}
    t0 = time.perf_counter()
    res = pbw_check(len(pres.generators), pres.parsed_deformation(),
                    ambient=pres.parsed_ambient(), field=pres.field(),
                    max_degree=pres.max_degree, tor_bound=pres.tor_bound)
    timings["decision"] = time.perf_counter() - t0
    bound = pres.max_degree
    dims = _empty_dims()
    if res.hilbert is not None:
        dims["h_A"] = list(res.hilbert.values[:bound + 1])
    if res.P is not None and res.P.dim and res.P.max_degree <= bound:
        t0 = time.perf_counter()
        eng = ExtensionEngine(res.P.g, res.alpha, res.top_relations, res.P.field)
        dims["gr_U"] = eng.gr_table(bound, certified=res.verdict == "PBW_CERTIFIED")
        if dims["gr_U"] is None:
            res.notes.append("gr U table withheld: not stabilized within the "
                             "resource cap (use gr_dimension in certified mode)")
        dims["D"] = [eng.dim_d(n) for n in range(bound + 1)]
        dims["ann"] = [eng.annihilator_dim(n) for n in range(bound + 1)]
        timings["tables"] = time.perf_counter() - t0
    elif res.P is not None and res.P.dim == 0:
        g = res.P.g
        dims["gr_U"] = [g ** n for n in range(bound + 1)]
        dims["h_A"] = [g ** n for n in range(bound + 1)]
        dims["D"] = [sum(g ** i for i in range(n + 1)) for n in range(bound + 1)]
        dims["ann"] = [0] * (bound + 1)
    if res.tor3 is not None:
        dims["tor3"] = {str(m): d for m, d in sorted(res.tor3.dims.items())}
    return Report(res.verdict, res.c, res.c_certified, res.jacobi,
                  _witness_text(pres, res.witness), dims, timings,
                  notes=res.notes, first_failure=res.first_failure,
                  checked_upto=res.checked_upto, exit_code=res.exit_code)


def cmd_jacobi(pres, upto=None):
    upto = upto if upto is not None else pres.max_degree
    timings = {}
    t0 = time.perf_counter()
    P, lift = _lifted_subspace(pres)
    ladder = pn_ladder(P, upto)
    timings["ladder"] = time.perf_counter() - t0
    dims = _empty_dims()
    dims["P_k"] = list(ladder.dims)
    ok = ladder.first_failure is None
    verdict = f"JACOBI_OK_UP_TO({upto})" if ok else f"JACOBI_FAILS({ladder.first_failure})"
    notes = [] if lift.identity else [lift.note] if lift.note else []
    return Report(verdict, None, False, ladder.verdicts,
                  _witness_text(pres, ladder.witness), dims, timings,
                  notes=notes, first_failure=ladder.first_failure,
                  checked_upto=upto)


def _minimized_ring(pres):
    P, lift = _lifted_subspace(pres)
    rp = rp_of(P)
    if rp.degrees() and rp.degrees()[0] < 2:
        raise ValidationError(
            "top components of degree <= 1: homological commands need "
            "relations in degrees >= 2")
    rmin = minimize_relations(rp)
    ring = PresentedRing(P.g, rmin, P.field,
                         max_degree=max(10, pres.max_degree + 1))
    return P, lift, rmin, ring


def cmd_complexity(pres, upto=None):
    timings = {}
    t0 = time.perf_counter()
    P, lift, rmin, ring = _minimized_ring(pres)
    cres = complexity(ring, rmin, bound_hint=pres.tor_bound or 8)
    timings["complexity"] = time.perf_counter() - t0
    dims = _empty_dims()
    dims["tor3"] = {str(m): d for m, d in sorted(cres.table.dims.items())} \
        if cres.table else {}
    hil = ring.hilbert(upto=min(ring.max_degree, pres.max_degree))
    dims["h_A"] = hil.values
    notes = [cres.note] if cres.note else []
    if not lift.identity and lift.note:
        notes.append(lift.note)
    return Report("COMPLEXITY", cres.c, cres.certified, {}, None, dims, timings,
                  notes=notes)


def cmd_tor(pres, upto=None):
    bound = upto if upto is not None else (pres.tor_bound or 8)
    timings = {}
    t0 = time.perf_counter()
    P, lift, rmin, ring = _minimized_ring(pres)
    table = tor3_resolution(ring, rmin, bound)
    timings["resolution"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    bar = tor_bar(ring, 3, bound)
    timings["bar"] = time.perf_counter() - t0
    dims = _empty_dims()
    dims["tor3"] = {str(m): d for m, d in sorted(table.dims.items())}
    dims["tor3_bar"] = {str(m): d for m, d in sorted(bar.dims.items())}
    agree = table.dims == bar.dims
    notes = [f"resolution and bar routes {'agree' if agree else 'DISAGREE'}",
             f"purity: {table.purity()}"]
    return Report("TOR_OK" if agree else "TOR_MISMATCH", None, False, {}, None,
                  dims, timings, notes=notes)


def cmd_hilbert(pres, upto=None):
    bound = upto if upto is not None else pres.max_degree
    timings = {}
    t0 = time.perf_counter()
    P, lift = _lifted_subspace(pres)
    rp = rp_of(P)
    ring = PresentedRing(P.g, minimize_relations(rp), P.field,
                         max_degree=max(10, bound)) \
        if (not rp.degrees() or rp.degrees()[0] >= 2) else None
    if ring is None:
        raise ValidationError("hilbert needs relation degrees >= 2")
    hil = ring.hilbert(bound)
    timings["hilbert"] = time.perf_counter() - t0
    dims = _empty_dims()
    dims["h_A"] = hil.values
    dims["c_A"] = hil.c_a
    dims["finite_dim"] = hil.finite_dim
    note = (f"finite-dimensional, c_A = {hil.c_a}" if hil.finite_dim
            else f"c_A >= {hil.c_a}, unbounded-unknown")
    return Report("HILBERT", None, hil.certified, {}, None, dims, timings,
                  notes=[note])


def cmd_rees(pres, upto=None):
    bound = upto if upto is not None else pres.max_degree
    timings = {}
    t0 = time.perf_counter()
    P, lift = _lifted_subspace(pres)
    eng = engine_for(P)
    holds, per, first_bad = rees_identity_check(eng, bound)
    timings["rees"] = time.perf_counter() - t0
    dims = _empty_dims()
    dims["D"] = [eng.dim_d(n) for n in range(bound + 1)]
    dims["ann"] = [eng.annihilator_dim(n) for n in range(bound)]
    dims["h_A"] = eng.a_dims(bound)
    dims["rees"] = per
    verdict = "REES_OK" if holds else f"REES_FAILS({first_bad})"
    return Report(verdict, None, False, {}, None, dims, timings,
                  notes=[] if holds else
                  [f"identity dim D^n = dim A^n + dim D^(n-1) fails first at n = {first_bad}"])


def run_command(cmd, pres, upto=None):
    """Execute one CLI command on a parsed presentation; returns a Report."""
    handler = {
        "check": cmd_check,
        "jacobi": cmd_jacobi,
        "complexity": cmd_complexity,
        "tor": cmd_tor,
        "hilbert": cmd_hilbert,
        "rees": cmd_rees,
    }[cmd]
    return handler(pres, upto)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="pbwkit",
        description="decide PBW-deformation questions for presented graded algebras")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("file", help="presentation file")
    parser.add_argument("--upto", type=int, default=None, metavar="N")
    parser.add_argument("--json", action="store_true", dest="json_out")
    parser.add_argument("--field", default=None, metavar="Fp:PRIME",
                        help='override the file field, e.g. "Fp:7"')
    args = parser.parse_args(argv)
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
        pres = parse_presentation(text)
        if args.field:
            m = re.fullmatch(r"Fp:(\d+)", args.field)
            if m:
                pres.field_name = f"Fp({m.group(1)})"
            elif args.field == "Q":
                pres.field_name = "Q"
            else:
                raise ValidationError(f"bad --field {args.field!r}; use Q or Fp:PRIME")
            pres.field()  # validate
        report = run_command(args.command, pres, args.upto)
    except ParseError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 11
    except (ValidationError, InvalidPresentation) as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 12
    except ResourceExceeded as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 13
    except PBWError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 14
    except OSError as exc:
        print(f"error[IO]: {exc}", file=sys.stderr)
        return 14
    except Exception as exc:  # a failure must never exit 0, 1 or 2
        print(f"error[INTERNAL]: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 14
    sys.stdout.write(report.to_json() + "\n" if args.json_out else report.to_text())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
