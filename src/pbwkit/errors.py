"""Exception hierarchy with machine-readable codes.

Every error carries a short ``code`` string that the CLI maps to an exit
status > 10 and embeds in JSON reports.
"""

from __future__ import annotations


class PBWError(Exception):
    code = "ERROR"

    def __init__(self, message=""):
        super().__init__(message or self.code)


class NotHomogeneous(PBWError):
    code = "NOT_HOMOGENEOUS"


class DomainMismatch(PBWError):
    code = "DOMAIN_MISMATCH"


class NotMinimalRelations(PBWError):
    code = "NOT_MINIMAL_RELATIONS"


class InvalidPresentation(PBWError):
    code = "INVALID_PRESENTATION"


class ParseError(PBWError):
    code = "PARSE_ERROR"

    def __init__(self, line, col, message):
        self.line = line
        self.col = col
        super().__init__(f"parse error at line {line}, col {col}: {message}")


class ValidationError(PBWError):
    code = "VALIDATION_ERROR"


class ResourceExceeded(PBWError):
    code = "RESOURCE_EXCEEDED"


class InvariantViolation(PBWError):
    """A mathematical invariant of a computation failed: a bug, never a
    verdict."""
    code = "INVARIANT_VIOLATED"
