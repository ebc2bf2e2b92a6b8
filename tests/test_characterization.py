"""Characterization of the six commands on the gallery.

``data/characterization.json`` holds, for every command on every bundled
file over Q and over F_32003 (``tor`` at ``--upto 5``), the exit code, the
stderr text and the ``--json`` report minus ``timings``.  Any later
difference is a change of behaviour.  Rebuild the record only at a commit
whose outputs are trusted:

    PYTHONPATH=src python tests/test_characterization.py
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib

import pytest

import pbwkit
from pbwkit.cli import COMMANDS, main

RECORD = pathlib.Path(__file__).parent / "data" / "characterization.json"
FIELDS = {"Q": (), "Fp:32003": ("--field", "Fp:32003")}
STAGES = {"lift", "extract", "minimize", "complexity", "hilbert", "ladder",
          "tables"}


def run(cmd, name, field):
    """(exit code, stderr, --json report or None) of one command run."""
    argv = [cmd, str(pbwkit.gallery_path(name)), "--json", *FIELDS[field]]
    if cmd == "tor":
        argv += ["--upto", "5"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    report = json.loads(out.getvalue()) if out.getvalue() else None
    return code, err.getvalue(), report


def observed(code, err, report):
    if report is not None:
        report = {k: v for k, v in report.items() if k != "timings"}
    return {"exit": code, "stderr": err, "json": report}


@pytest.fixture(scope="module")
def runs():
    return {f"{cmd} {name} {field}": run(cmd, name, field)
            for cmd in COMMANDS for name in pbwkit.gallery_names()
            for field in FIELDS}


def test_record_covers_every_run(runs):
    record = json.loads(RECORD.read_text(encoding="utf-8"))
    assert set(record) == set(runs)


@pytest.mark.parametrize("cmd", COMMANDS)
@pytest.mark.parametrize("field", FIELDS)
def test_outputs_match_record(runs, cmd, field):
    record = json.loads(RECORD.read_text(encoding="utf-8"))
    bad = [key for key, out in runs.items()
           if key.startswith(f"{cmd} ") and key.endswith(f" {field}")
           and observed(*out) != record[key]]
    assert bad == []


def test_check_timings_are_stages(runs):
    for key, (code, err, report) in runs.items():
        if not key.startswith("check ") or report is None:
            continue
        timings = report["timings"]
        assert set(timings) <= STAGES, key
        assert all(isinstance(t, float) and t >= 0 for t in timings.values()), key


if __name__ == "__main__":
    RECORD.parent.mkdir(exist_ok=True)
    record = {f"{cmd} {name} {field}": observed(*run(cmd, name, field))
              for cmd in COMMANDS for name in pbwkit.gallery_names()
              for field in FIELDS}
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
