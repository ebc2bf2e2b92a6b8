"""Characterization of the six commands on the gallery.

``data/characterization.json`` holds, for every command on every bundled
file over Q and over F_32003 (``tor`` at ``--upto 5``), the exit code, the
stderr text and the ``--json`` report minus ``timings``.
``data/characterization_text.json`` holds the text report of the same
runs minus its ``timings:`` line, which pins the notes the JSON report
leaves out.  Any later difference is a change of behaviour.  Rebuild both
records only at a commit whose outputs are trusted:

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
TEXT_RECORD = RECORD.with_name("characterization_text.json")
FIELDS = {"Q": (), "Fp:32003": ("--field", "Fp:32003")}
STAGES = {"lift", "extract", "minimize", "complexity", "hilbert", "ladder",
          "tables"}


def call(cmd, name, field, *opts):
    """(exit code, stderr, stdout) of one command run."""
    argv = [cmd, str(pbwkit.gallery_path(name)), *opts, *FIELDS[field]]
    if cmd == "tor":
        argv += ["--upto", "5"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue(), out.getvalue()


def run(cmd, name, field):
    """(exit code, stderr, --json report or None) of one command run."""
    code, err, out = call(cmd, name, field, "--json")
    return code, err, json.loads(out) if out else None


def text_run(cmd, name, field):
    """The text report of one command run minus its ``timings:`` line."""
    out = call(cmd, name, field)[2]
    return "".join(line for line in out.splitlines(keepends=True)
                   if not line.startswith("timings: "))


def every(fn):
    """fn(cmd, name, field) for every recorded run, by the run's key."""
    return {f"{cmd} {name} {field}": fn(cmd, name, field)
            for cmd in COMMANDS for name in pbwkit.gallery_names()
            for field in FIELDS}


def observed(code, err, report):
    if report is not None:
        report = {k: v for k, v in report.items() if k != "timings"}
    return {"exit": code, "stderr": err, "json": report}


@pytest.fixture(scope="module")
def runs():
    return every(run)


@pytest.fixture(scope="module")
def texts():
    return every(text_run)


def test_record_covers_every_run(runs):
    record = json.loads(RECORD.read_text(encoding="utf-8"))
    assert set(record) == set(runs)
    assert set(json.loads(TEXT_RECORD.read_text(encoding="utf-8"))) == set(runs)


@pytest.mark.parametrize("cmd", COMMANDS)
@pytest.mark.parametrize("field", FIELDS)
def test_outputs_match_record(runs, cmd, field):
    record = json.loads(RECORD.read_text(encoding="utf-8"))
    bad = [key for key, out in runs.items()
           if key.startswith(f"{cmd} ") and key.endswith(f" {field}")
           and observed(*out) != record[key]]
    assert bad == []


@pytest.mark.parametrize("cmd", COMMANDS)
@pytest.mark.parametrize("field", FIELDS)
def test_text_reports_match_record(texts, cmd, field):
    record = json.loads(TEXT_RECORD.read_text(encoding="utf-8"))
    bad = [key for key, out in texts.items()
           if key.startswith(f"{cmd} ") and key.endswith(f" {field}")
           and out != record[key]]
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
    record = {key: observed(*out) for key, out in every(run).items()}
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    TEXT_RECORD.write_text(json.dumps(every(text_run), indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
