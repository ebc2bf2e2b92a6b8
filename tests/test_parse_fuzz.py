"""Parser fuzzing: whatever the input text, parsing a presentation fails
only with a ``PBWError``, and ``pbwkit check`` on such a file exits 11
(parse error) or 12 (validation error), never 14.

Inputs are the gallery files with a few random edits and strings of
random tokens.  Texts that do parse are not checked further here, since a
mutated ``max_degree`` can make a check arbitrarily long.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

import pbwkit
from pbwkit.cli import main
from pbwkit.errors import PBWError
from pbwkit.presentations import parse_presentation


def _gallery_text(name):
    with open(pbwkit.gallery_path(name), encoding="utf-8") as fh:
        return fh.read()


GALLERY = [_gallery_text(name) for name in pbwkit.gallery_names()]

TOKENS = ['field', 'generators', 'ambient_relations', 'deformation',
          'max_degree', 'tor_bound', 'unknown', '=', '[', ']', '"', ',', '*',
          '+', '-', '/', '(', ')', '#', ' ', '\n', '\t', 'x', 'y', 'e', 'Q',
          'Fp', '0', '1', '2', '7', '32003', '1/0', '-3', '"Q"', '"Fp(4)"',
          '"Fp(7)"', '"x"', '"x*x + 1"', '"x*y - y*x"', '"1"', '""', '٣',
          'é', '\\', "'", '1e9', '**', '^']

tokens = st.lists(st.sampled_from(TOKENS), max_size=40).map("".join)


@st.composite
def mutated_gallery(draw):
    """A gallery text with one to four edits: a span deleted, tokens or
    arbitrary characters inserted, a line duplicated or two lines swapped."""
    text = draw(st.sampled_from(GALLERY))
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["delete", "token", "chars", "dup", "swap"]))
        pos = draw(st.integers(0, len(text)))
        if kind == "delete":
            text = text[:pos] + text[pos + draw(st.integers(1, 8)):]
        elif kind == "token":
            text = text[:pos] + draw(tokens) + text[pos:]
        elif kind == "chars":
            text = text[:pos] + draw(st.text(max_size=4)) + text[pos:]
        else:
            lines = text.split("\n")
            a = draw(st.integers(0, len(lines) - 1))
            b = draw(st.integers(0, len(lines) - 1))
            if kind == "dup":
                lines.insert(b, lines[a])
            else:
                lines[a], lines[b] = lines[b], lines[a]
            text = "\n".join(lines)
    return text


@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.pbw"


def _parse_all(text):
    pres = parse_presentation(text)
    pres.field()
    pres.parsed_deformation()
    pres.parsed_ambient()


def _check_fails_cleanly(text, path):
    try:
        _parse_all(text)
    except PBWError:
        pass
    else:
        return
    path.write_text(text, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["check", str(path)])
    assert code in (11, 12), (code, text)


@settings(max_examples=300, deadline=None)
@given(mutated_gallery())
def test_mutated_gallery_fails_cleanly(input_file, text):
    _check_fails_cleanly(text, input_file)


@settings(max_examples=300, deadline=None)
@given(tokens)
def test_random_tokens_fail_cleanly(input_file, text):
    _check_fails_cleanly(text, input_file)
