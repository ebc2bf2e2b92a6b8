"""Command dispatch: pbwkit <check|jacobi|complexity|tor|hilbert|rees> FILE.

Exit codes: 0 = PBW_CERTIFIED (or a successful non-check command),
1 = NOT_PBW, 2 = PBW_UP_TO_DEGREE, 11 = parse error, 12 = validation
(a bad command-line argument too), 13 = resource cap, 14 = any other
failure (a broken invariant, such as ``tor``'s TOR_MISMATCH or a ``gr U``
table of a PBW_CERTIFIED ``check`` that differs from h_A, an I/O error,
or an unexpected exception).
"""

from __future__ import annotations

import argparse
import re
import sys

from .deformation import (lifted, minimized_ring, pbw_check, pn_ladder, rp_of,
                          timed)
from .errors import (InvalidPresentation, InvariantViolation, ParseError,
                     PBWError, ResourceExceeded, ValidationError)
from .extension import engine_for, rees_identity_check
from .freealg import column_guard, filtration_size, format_element, guard_reach
from .homology import TOR_BOUND, complexity, tor3_resolution, tor_bar
from .presentations import Report, parse_presentation

COMMANDS = ("check", "jacobi", "complexity", "tor", "hilbert", "rees")
UPTO_COMMANDS = ("jacobi", "tor", "hilbert", "rees")    # the readers of --upto


def _empty_dims():
    return {"h_A": None, "gr_U": None, "D": None, "ann": None, "tor3": None}


def _lift(pres, timings):
    return timed(timings, "lift", lifted, len(pres.generators),
                 pres.parsed_deformation(), pres.parsed_ambient(), pres.field())


def _ring(pres, timings, max_degree, tor_bound=0):
    """The stages every homological command starts with: lift, extract R_P,
    minimize it; returns (LiftResult, R, ring)."""
    P, lift = _lift(pres, timings)
    rp = timed(timings, "extract", rp_of, P)
    rmin, ring = timed(timings, "minimize", minimized_ring, rp, max_degree, tor_bound)
    return lift, rmin, ring


def _witness_text(pres, element):
    if element is None:
        return None
    return format_element(element, pres.generators)


def _tables(res, bound):
    """(gr_U, D, ann) through degree bound, from the T[z] engine that the
    Jacobi verdicts were read from.  ann(z)^n reads T[z]^{n+1}, so the
    lists stop below the first degree whose T[z]^{n+1} the column guard
    would refuse, with a note: the verdict is finished, and a display
    table never costs it."""
    eng = res.engine
    guard = column_guard()
    top = guard_reach(eng.g, bound + 1, guard) - 1
    if top < bound:
        res.notes.append(f"tables stop at degree {top}: degree {top + 1} needs "
                         f"T[z]^{top + 2} with {filtration_size(eng.g, top + 2)} "
                         f"columns, above the column guard {guard}")
    return (eng.gr_table(top, certified=res.verdict == "PBW_CERTIFIED"),
            [eng.dim_d(n) for n in range(top + 1)],
            [eng.annihilator_dim(n) for n in range(top + 1)])


def cmd_check(pres, upto=None):
    res = pbw_check(len(pres.generators), pres.parsed_deformation(),
                    ambient=pres.parsed_ambient(), field=pres.field(),
                    max_degree=pres.max_degree, tor_bound=pres.tor_bound)
    bound = pres.max_degree
    dims = _empty_dims()
    if res.hilbert is not None:
        dims["h_A"] = list(res.hilbert.values[:bound + 1])
    if res.P is not None and res.P.dim and res.P.max_degree <= bound:
        dims["gr_U"], dims["D"], dims["ann"] = timed(res.timings, "tables",
                                                     _tables, res, bound)
        if dims["gr_U"] is None:
            res.notes.append("gr U table withheld: not stabilized within the "
                             "resource cap")
    elif res.P is not None and res.P.dim == 0:
        g = res.P.g
        dims["gr_U"] = [g ** n for n in range(bound + 1)]
        dims["h_A"] = [g ** n for n in range(bound + 1)]
        dims["D"] = [filtration_size(g, n) for n in range(bound + 1)]
        dims["ann"] = [0] * (bound + 1)
    if (res.verdict == "PBW_CERTIFIED" and dims["gr_U"] is not None
            and dims["h_A"] is not None):
        # gr U(P) ≅ A: the engine's table and the graded ring's Hilbert
        # values are two routes to the same dimensions
        for n, (u, a) in enumerate(zip(dims["gr_U"], dims["h_A"])):
            if u != a:
                raise InvariantViolation(f"PBW_CERTIFIED but dim gr U^{n} = {u} "
                                         f"!= h_A({n}) = {a}")
    if res.tor3 is not None:
        dims["tor3"] = {str(m): d for m, d in sorted(res.tor3.dims.items())}
    return Report(res.verdict, res.c, res.c_certified, res.jacobi,
                  _witness_text(pres, res.witness), dims, res.timings,
                  notes=res.notes, first_failure=res.first_failure,
                  exit_code=res.exit_code)


def cmd_jacobi(pres, upto=None):
    upto = upto if upto is not None else pres.max_degree
    timings = {}
    P, lift = _lift(pres, timings)
    ladder = timed(timings, "ladder", pn_ladder, P, upto)
    dims = _empty_dims()
    dims["P_k"] = list(ladder.dims)
    ok = ladder.first_failure is None
    verdict = f"JACOBI_OK_UP_TO({upto})" if ok else f"JACOBI_FAILS({ladder.first_failure})"
    notes = [lift.note] if lift.note else []
    return Report(verdict, None, False, ladder.verdicts,
                  _witness_text(pres, ladder.witness), dims, timings,
                  notes=notes, first_failure=ladder.first_failure)


def cmd_complexity(pres, upto=None):
    timings = {}
    bound = pres.tor_bound or TOR_BOUND
    lift, rmin, ring = _ring(pres, timings, pres.max_degree, bound)
    cres = timed(timings, "complexity", complexity, ring, rmin, bound_hint=bound)
    dims = _empty_dims()
    dims["tor3"] = {str(m): d for m, d in sorted(cres.table.dims.items())} \
        if cres.table else {}
    hil = timed(timings, "hilbert", ring.hilbert, pres.max_degree)
    dims["h_A"] = hil.values
    notes = [cres.note] if cres.note else []
    if lift.note:
        notes.append(lift.note)
    return Report("COMPLEXITY", cres.c, cres.certified, {}, None, dims, timings,
                  notes=notes)


def cmd_tor(pres, upto=None):
    bound = upto if upto is not None else (pres.tor_bound or TOR_BOUND)
    timings = {}
    lift, rmin, ring = _ring(pres, timings, pres.max_degree, bound)
    table = timed(timings, "resolution", tor3_resolution, ring, rmin, bound)
    bar = timed(timings, "bar", tor_bar, ring, 3, bound)
    dims = _empty_dims()
    dims["tor3"] = {str(m): d for m, d in sorted(table.dims.items())}
    dims["tor3_bar"] = {str(m): d for m, d in sorted(bar.dims.items())}
    agree = table.dims == bar.dims
    notes = [f"resolution and bar routes {'agree' if agree else 'DISAGREE'}",
             f"purity: {table.purity()}"]
    # two routes to the same Tor disagreeing is a broken invariant: the
    # report with both tables is printed and the run exits 14
    return Report("TOR_OK" if agree else "TOR_MISMATCH", None, False, {}, None,
                  dims, timings, notes=notes, exit_code=0 if agree else 14)


def cmd_hilbert(pres, upto=None):
    bound = upto if upto is not None else pres.max_degree
    timings = {}
    lift, rmin, ring = _ring(pres, timings, bound)
    hil = timed(timings, "hilbert", ring.hilbert, bound)
    dims = _empty_dims()
    dims["h_A"] = hil.values
    dims["c_A"] = hil.c_a
    dims["finite_dim"] = hil.finite_dim
    note = (f"finite-dimensional, c_A = {hil.c_a}" if hil.finite_dim
            else f"c_A >= {hil.c_a}, unbounded-unknown")
    return Report("HILBERT", None, hil.finite_dim, {}, None, dims, timings,
                  notes=[note])


def cmd_rees(pres, upto=None):
    bound = upto if upto is not None else pres.max_degree
    timings = {}
    P, lift = _lift(pres, timings)
    eng = timed(timings, "extract", engine_for, P)
    holds, per, first_bad = timed(timings, "rees", rees_identity_check, eng, bound)
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
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after -h and 2 on a usage error; 2 is the exit
        # code of PBW_UP_TO_DEGREE, so a usage error is a validation error
        return 12 if exc.code else 0
    try:
        if args.upto is not None and args.upto < 0:
            raise ValidationError(f"--upto must be >= 0, got {args.upto}")
        if args.upto is not None and args.command not in UPTO_COMMANDS:
            raise ValidationError(f"{args.command} does not read --upto; "
                                  f"only {', '.join(UPTO_COMMANDS)} do")
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
