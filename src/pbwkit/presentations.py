"""Presentation files and structured reports.

The input format is plain key-value text with quoted string lists:

    field = "Q"
    generators = ["x", "y", "c"]
    ambient_relations = []
    deformation = ["x*y - y*x - c", "x*c - c*x", "y*c - c*y"]
    max_degree = 8

Unknown keys, malformed values and algebraically invalid data are
rejected with position-annotated errors.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field as dc_field

from .errors import ParseError, ValidationError
from .freealg import parse_element
from .linalg import QQ, PrimeField

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
MAX_DEGREE = 8          # the degree a check reaches unless max_degree says otherwise

KNOWN_KEYS = ("field", "generators", "ambient_relations", "deformation",
              "max_degree", "tor_bound")
REQUIRED_KEYS = ("generators", "deformation")


@dataclass
class Presentation:
    field_name: str
    generators: list
    ambient_relations: list      # element strings
    deformation: list            # element strings
    max_degree: int = MAX_DEGREE
    tor_bound: int | None = None
    # list key -> the (line, col) in the file of each of its strings
    positions: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)
    # (name, field, ambient elements, deformation elements) of the last
    # field_name read
    _field: tuple = dc_field(default=(None,), init=False, repr=False, compare=False)

    def _parsed(self):
        """The field ``field_name`` names and the elements over it, parsed
        and validated once per name."""
        if self._field[0] != self.field_name:
            f = parse_field_name(self.field_name)
            self._field = (self.field_name, f, *self._elements(f))
        return self._field

    def _elements(self, field):
        """(ambient, deformation) elements over ``field``, each string
        parsed at its file position; one that is zero, constant or
        inhomogeneous over that field raises ValidationError."""
        def parsed(key, strings):
            spots = self.positions.get(key) or [(1, 1)] * len(strings)
            for s, (line, col) in zip(strings, spots):
                yield s, parse_element(s, self.generators, field, line, col)

        ambient, deformation = [], []
        for s, e in parsed("ambient_relations", self.ambient_relations):
            if e.is_zero():
                raise ValidationError(f"ambient relation {s!r} is zero")
            if not e.is_homogeneous() or e.degree() < 2:
                raise ValidationError(
                    f"ambient relation {s!r} must be homogeneous of degree >= 2")
            ambient.append(e)
        for s, e in parsed("deformation", self.deformation):
            if e.is_zero():
                raise ValidationError(f"deformation element {s!r} is zero")
            if e.degree() < 1:
                raise ValidationError(
                    f"deformation element {s!r} is a constant (P ∩ S must be 0)")
            deformation.append(e)
        return ambient, deformation

    def field(self):
        return self._parsed()[1]

    def parsed_ambient(self):
        return list(self._parsed()[2])

    def parsed_deformation(self):
        return list(self._parsed()[3])

    def to_text(self):
        def strlist(xs):
            return "[" + ", ".join(json.dumps(x) for x in xs) + "]"
        lines = [
            f'field = "{self.field_name}"',
            f"generators = {strlist(self.generators)}",
            f"ambient_relations = {strlist(self.ambient_relations)}",
            f"deformation = {strlist(self.deformation)}",
            f"max_degree = {self.max_degree}",
        ]
        if self.tor_bound is not None:
            lines.append(f"tor_bound = {self.tor_bound}")
        return "\n".join(lines) + "\n"


def parse_field_name(name):
    if name == "Q":
        return QQ
    m = re.fullmatch(r"Fp\((\d+)\)", name)
    if m:
        return PrimeField(int(m.group(1)))
    raise ValidationError(f"unknown field {name!r}; use \"Q\" or \"Fp(p)\"")


def _parse_value(raw, line_no, col0):
    """Parse a scalar or a list of quoted strings.  Returns (value, spots):
    for a list, spots holds the (line, col) where each string's text
    starts; for a scalar it is None."""
    s = raw.strip()
    offset = col0 + (len(raw) - len(raw.lstrip()))

    def err(msg, col=None):
        raise ParseError(line_no, col if col is not None else offset, msg)

    if not s:
        err("missing value")
    if s.startswith('"'):
        if not s.endswith('"') or len(s) < 2:
            err("unterminated string")
        return s[1:-1], None
    if s.startswith("["):
        if not s.endswith("]"):
            err("unterminated list")
        inner = s[1:-1].strip()
        if not inner:
            return [], []
        out = []
        spots = []
        pos = offset + 1 + (len(s[1:-1]) - len(s[1:-1].lstrip()))
        parts = inner.split(",")
        for part in parts:
            item = part.strip()
            if not (item.startswith('"') and item.endswith('"') and len(item) >= 2):
                err(f"list items must be quoted strings, got {item!r}", pos)
            out.append(item[1:-1])
            spots.append((line_no, pos + len(part) - len(part.lstrip()) + 1))
            pos += len(part) + 1
        return out, spots
    if re.fullmatch(r"-?\d+", s):
        return int(s), None
    err(f"cannot parse value {s!r}")


def parse_presentation(text):
    """Parse and validate a presentation file; returns a Presentation.

    Raises ParseError(line, col, message) for malformed text and
    ValidationError for well-formed but algebraically invalid data.
    """
    return validate_presentation(read_presentation(text))


def read_presentation(text):
    """A presentation file's keys as a Presentation, with no validation:
    ``validate_presentation`` follows once its field is set.  Raises
    ParseError for malformed text and ValidationError for a missing key.
    """
    seen = {}
    where = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(line_no, 1, "expected KEY = VALUE")
        key_part, _, value_part = line.partition("=")
        key = key_part.strip()
        if key not in KNOWN_KEYS:
            raise ParseError(line_no, 1 + (len(key_part) - len(key_part.lstrip())),
                             f"unknown key {key!r}")
        if key in seen:
            raise ParseError(line_no, 1, f"duplicate key {key!r}")
        seen[key], where[key] = _parse_value(value_part, line_no, len(key_part) + 2)
    for key in REQUIRED_KEYS:
        if key not in seen:
            raise ValidationError(f"missing required key {key!r}")
    pres = Presentation(
        field_name=seen.get("field", "Q"),
        generators=seen["generators"],
        ambient_relations=seen.get("ambient_relations", []),
        deformation=seen["deformation"],
        max_degree=seen.get("max_degree", MAX_DEGREE),
        tor_bound=seen.get("tor_bound"),
    )
    pres.positions = where
    return pres


def validate_presentation(pres):
    """Check a Presentation under its ``field_name``: the elements are
    parsed and checked over that field, once per field name, a parse
    error inside an element pointing into the file by ``positions``
    (default: positions within the string)."""
    if not isinstance(pres.generators, list) or not pres.generators:
        raise ValidationError("generators must be a nonempty list of names")
    for name in pres.generators:
        if not IDENT_RE.match(name):
            raise ValidationError(f"bad generator name {name!r}")
    if len(set(pres.generators)) != len(pres.generators):
        raise ValidationError("generator names must be unique")
    if not isinstance(pres.max_degree, int) or pres.max_degree < 1:
        raise ValidationError("max_degree must be a positive integer")
    if pres.tor_bound is not None and (not isinstance(pres.tor_bound, int)
                                       or pres.tor_bound < 3):
        raise ValidationError("tor_bound must be an integer >= 3")
    pres.field()
    return pres


# ---------------------------------------------------------------------------
# Reports.

@dataclass
class Report:
    verdict: str
    c: int | None
    certified: bool
    jacobi: dict                 # {k: bool}
    witness: str | None
    dims: dict                   # h_A, gr_U, D, ann, tor3
    timings: dict
    notes: list = dc_field(default_factory=list)
    first_failure: int | None = None
    exit_code: int = 0

    def to_json_dict(self):
        # stable schema: exactly these keys
        return {
            "verdict": self.verdict,
            "c": self.c,
            "certified": self.certified,
            "jacobi": {str(k): v for k, v in sorted(self.jacobi.items())},
            "dims": self.dims,
            "witness": self.witness,
            "timings": self.timings,
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def to_text(self):
        lines = [f"verdict: {self.verdict}"
                 + (f" (J_{self.first_failure} fails)" if self.first_failure else "")]
        if self.c is not None:
            lines.append(f"c(A) = {self.c} ({'certified' if self.certified else 'bounded-degree'})")
        if self.jacobi:
            shown = " ".join(f"(J_{k}):{'ok' if v else 'FAIL'}"
                             for k, v in sorted(self.jacobi.items()))
            lines.append(f"jacobi: {shown}")
        if self.witness:
            lines.append(f"witness: {self.witness}")
        for key, label in (("h_A", "h_A"), ("gr_U", "dim gr U"), ("D", "dim D"),
                           ("ann", "dim ann(z)")):
            if self.dims.get(key) is not None:
                lines.append(f"{label}: {self.dims[key]}")
        if self.dims.get("tor3") is not None:
            lines.append(f"Tor_3 dims: {self.dims['tor3']}")
        bar = self.dims.get("tor3_bar")
        if bar is not None and bar != self.dims.get("tor3"):
            # only a disagreement of the Tor routes shows the bar table
            lines.append(f"Tor_3 bar dims: {bar}")
        if self.dims.get("rees") is not None:
            lines.append(f"rees identity per degree: {self.dims['rees']}")
        for n in self.notes:
            lines.append(f"note: {n}")
        lines.append("timings: " + " ".join(f"{k}={v:.3f}s" for k, v in self.timings.items()))
        return "\n".join(lines) + "\n"
