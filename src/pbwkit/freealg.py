"""Words and elements of the free algebra on g degree-1 generators.

A Word is a tuple of generator indices; the empty tuple is the unit.  The
one global monomial order is degree-descending, then lexicographic on the
letters: it drives every column order downstream, so echelon bases are
simultaneously adapted to all filtration steps T^{<=n}.

Elements are finite maps Word -> nonzero scalar over a fixed field.  The
text syntax (used by presentation files) is ``x*y - y*x - 1/2*x``:
identifiers are generators, ``*`` concatenates, ``+``/``-`` are linear,
coefficients are integers or ``a/b``, and ``1`` is the unit word.
"""

from __future__ import annotations

import os
from fractions import Fraction

from .errors import ParseError, ResourceExceeded, ValidationError
from .linalg import QQ

DEFAULT_COLUMN_GUARD = 2 * 10**6
# coefficients are ASCII: str.isdigit() also accepts e.g. "²", which int() rejects
DIGITS = frozenset("0123456789")


def column_guard():
    raw = os.environ.get("PBWKIT_MAX_COLUMNS")
    try:
        guard = int(raw) if raw else DEFAULT_COLUMN_GUARD
    except ValueError:
        raise ValidationError(f"PBWKIT_MAX_COLUMNS={raw!r} is not an integer")
    if guard < 1:
        raise ValidationError(f"PBWKIT_MAX_COLUMNS={raw!r} is below 1")
    return guard


def word_key(w):
    """Sort key for the global order: degree descending, then lex."""
    return (-len(w), w)


class Element:
    """Finite linear combination of words; zero coefficients are never stored."""

    __slots__ = ("field", "terms")

    def __init__(self, field, terms=None):
        self.field = field
        self.terms = {}
        if terms:
            for w, s in terms.items():
                if s:
                    self.terms[tuple(w)] = s

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Max word degree; None for the zero element (the -infinity sentinel)."""
        if not self.terms:
            return None
        return max(len(w) for w in self.terms)

    def is_homogeneous(self):
        degs = {len(w) for w in self.terms}
        return len(degs) <= 1

    def __add__(self, other):
        out = dict(self.terms)
        for w, s in other.terms.items():
            t = out.get(w)
            t = s if t is None else t + s
            if t:
                out[w] = t
            else:
                out.pop(w, None)
        return Element(self.field, out)

    def __neg__(self):
        return Element(self.field, {w: -s for w, s in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        return isinstance(other, Element) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda it: word_key(it[0]))

    def __repr__(self):
        return f"Element({format_element(self, None)})"


def multiply(a, b):
    """Bilinear concatenation product of the tensor ring."""
    out = {}
    for u, s in a.terms.items():
        for v, t in b.terms.items():
            w = u + v
            c = out.get(w)
            c = s * t if c is None else c + s * t
            if c:
                out[w] = c
            else:
                out.pop(w, None)
    return Element(a.field, out)


def project(e, n):
    """p^n(e): the degree-n homogeneous component."""
    return Element(e.field, {w: s for w, s in e.terms.items() if len(w) == n})


# ---------------------------------------------------------------------------
# Column indexing.
#
# One column layout serves the filtration pieces T^{<=n}, their
# homogenization T[z]^n and the graded pieces T^n.  The words of degree <= n
# are listed in blocks by word degree, from n down to 0, lex inside a block:
# the column set of T^{<=d} is a suffix for every d <= n, which is what makes
# one echelon basis adapted to the whole filtration.  Setting z := 1 sends
# the monomial w z^(n-|w|) of T[z]^n to w, in the same order, so T[z]^n has
# these columns too, and T^n is the first block, at column 0.  ``lex_pos``
# and ``lex_word`` are the one place where words are encoded and decoded as
# base-g digits.

def lex_pos(w, g):
    """Lex position of the word w among the g^|w| words of its length."""
    p = 0
    for letter in w:
        p = p * g + letter
    return p


def lex_word(p, g, n):
    """The word of length n at lex position p, the inverse of ``lex_pos``."""
    letters = []
    for _ in range(n):
        p, letter = divmod(p, g)
        letters.append(letter)
    return tuple(reversed(letters))


def filtration_size(g, n):
    """dim T^{<=n} = sum of g^i for i <= n, in closed form."""
    if n < 0:
        return 0
    if g == 1:
        return n + 1
    return (g ** (n + 1) - 1) // (g - 1)


def guard_reach(g, upto, guard, size=filtration_size):
    """The largest n <= upto whose size(g, n) columns the column guard
    allows: ``filtration_size`` counts T^{<=n} and T[z]^n, ``pow`` counts
    T^n.  Degree 0 needs one column, which every guard allows.  Every
    comparison with the guard reads it: ``graded_size`` and ``WordBasis``
    refuse a degree above it, and h_A, check's tables and the gr U
    stabilization stop at it.

    Both sizes grow with n, so the degree is found in O(log upto) sizes:
    doubling from degree 1 to the first degree above the guard (or past
    upto), then bisecting below it."""
    if upto <= 0:
        return upto
    # degree lo is reached; degree hi is not, or lies past upto
    lo, hi = 0, 1
    while hi <= upto and size(g, hi) <= guard:
        lo, hi = hi, 2 * hi
    hi = min(hi, upto + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if size(g, mid) <= guard:
            lo = mid
        else:
            hi = mid
    return lo


def graded_size(g, n):
    """dim T^n = g^n, the first block of ``WordBasis(g, n)``; refused above
    the column guard."""
    size = g ** n
    guard = column_guard()
    if guard_reach(g, n, guard, pow) < n:
        raise ResourceExceeded(
            f"T^{n} over {g} generators needs {size} columns (guard {guard})")
    return size


class WordBasis:
    """The columns of T^{<=n}, which are also those of T[z]^n (see above),
    refused above the column guard (read here unless ``guard`` is given).
    The word-degree-d block starts at column F(n) - F(d), F =
    ``filtration_size``; everything else is lex arithmetic inside a block."""

    def __init__(self, g, n, guard=None):
        if g < 1:
            raise ValidationError("need at least one generator")
        self.g = g
        self.n = n
        self.size = filtration_size(g, n)
        guard = column_guard() if guard is None else guard
        if guard_reach(g, n, guard) < n:
            raise ResourceExceeded(
                f"T[z]^{n} over {g} generators needs {self.size} columns, as "
                f"T^<={n} does (guard {guard}; set PBWKIT_MAX_COLUMNS to raise)")

    def start(self, d):
        """First column of the word-degree-d block, and of the T^{<=d}
        suffix."""
        return self.size - filtration_size(self.g, d)

    def pos(self, w):
        if len(w) > self.n:
            raise ValidationError(f"word degree {len(w)} exceeds basis bound {self.n}")
        return self.start(len(w)) + lex_pos(w, self.g)

    def block(self, pos):
        """(d, start(d)) for the column ``pos``: its word degree d and the
        first column of its block, walking the blocks of width g^d from
        the top."""
        if not 0 <= pos < self.size:
            raise ValidationError(f"position {pos} out of range")
        g, d, start = self.g, self.n, 0
        width = g ** d
        while pos >= start + width:
            start += width
            d -= 1
            width //= g
        return d, start

    def word_at(self, pos):
        d, start = self.block(pos)
        return lex_word(pos - start, self.g, d)

    def element_to_vec(self, e):
        return {self.pos(w): s for w, s in e.terms.items()}

    def vec_to_element(self, vec, field):
        return Element(field, {self.word_at(p): s for p, s in vec.items()})


# ---------------------------------------------------------------------------
# Element text syntax.

class _Tokenizer:
    def __init__(self, text, line=1, col=1):
        self.text = text
        self.i = 0
        self.line = line
        self.col = col

    def error(self, msg):
        raise ParseError(self.line, self.col, msg)

    def _advance(self, k):
        for ch in self.text[self.i:self.i + k]:
            if ch == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
        self.i += k

    def tokens(self):
        out = []
        while self.i < len(self.text):
            ch = self.text[self.i]
            if ch.isspace():
                self._advance(1)
                continue
            start = (self.line, self.col)
            if ch in "+-*/":
                out.append((ch, ch, start))
                self._advance(1)
            elif ch in DIGITS:
                j = self.i
                while j < len(self.text) and self.text[j] in DIGITS:
                    j += 1
                out.append(("int", self.text[self.i:j], start))
                self._advance(j - self.i)
            elif ch.isalpha() or ch == "_":
                j = self.i
                while j < len(self.text) and (self.text[j].isalnum() or self.text[j] == "_"):
                    j += 1
                out.append(("ident", self.text[self.i:j], start))
                self._advance(j - self.i)
            else:
                self.error(f"unexpected character {ch!r}")
        out.append(("end", "", (self.line, self.col)))
        return out


def parse_element(text, generators, field=QQ, line=1, col=1):
    """Parse the element syntax over the named generators.

    >>> e = parse_element("x*y - y*x - 1/2*x", ["x", "y"])
    >>> sorted(e.terms.items(), key=lambda t: t[0])
    [((0,), Fraction(-1, 2)), ((0, 1), Fraction(1, 1)), ((1, 0), Fraction(-1, 1))]
    """
    gen_index = {name: k for k, name in enumerate(generators)}
    toks = _Tokenizer(text, line, col).tokens()
    k = 0

    def peek():
        return toks[k]

    def take():
        nonlocal k
        t = toks[k]
        k += 1
        return t

    def fail(tok, msg):
        raise ParseError(tok[2][0], tok[2][1], msg)

    def parse_atom(coeff, word):
        tok = take()
        if tok[0] == "int":
            num = int(tok[1])
            if peek()[0] == "/":
                take()
                dtok = take()
                if dtok[0] != "int":
                    fail(dtok, "expected integer denominator")
                den = int(dtok[1])
                if den == 0:
                    fail(dtok, "zero denominator")
                coeff = coeff * field.from_fraction(Fraction(num, den))
            else:
                coeff = coeff * field.from_int(num)
        elif tok[0] == "ident":
            idx = gen_index.get(tok[1])
            if idx is None:
                fail(tok, f"unknown generator {tok[1]!r}")
            word = word + (idx,)
        else:
            fail(tok, f"expected coefficient or generator, got {tok[1]!r}")
        return coeff, word

    def parse_term(sign):
        coeff = field.from_int(sign)
        word = ()
        coeff, word = parse_atom(coeff, word)
        while peek()[0] == "*":
            take()
            coeff, word = parse_atom(coeff, word)
        return word, coeff

    result = Element(field)
    sign = 1
    if peek()[0] in ("+", "-"):
        sign = -1 if take()[0] == "-" else 1
    w, c = parse_term(sign)
    result = result + Element(field, {w: c})
    while peek()[0] != "end":
        tok = take()
        if tok[0] not in ("+", "-"):
            fail(tok, f"expected '+' or '-', got {tok[1]!r}")
        w, c = parse_term(-1 if tok[0] == "-" else 1)
        result = result + Element(field, {w: c})
    return result


def _coeff_str(s):
    if isinstance(s, Fraction):
        return str(s)
    if hasattr(s, "v"):
        return str(s.v)
    return str(s)


def format_element(e, generators):
    """Inverse of parse_element up to term order (global word order)."""
    if e.is_zero():
        return "0"
    names = generators

    def mono(w):
        if not w:
            return "1"
        if names is None:
            return "*".join(f"g{i}" for i in w)
        return "*".join(names[i] for i in w)

    bits = []
    for w, s in e.sorted_terms():
        cs = _coeff_str(s)
        neg = cs.startswith("-")
        if neg:
            cs = cs[1:]
        if w and cs == "1":
            body = mono(w)
        elif not w:
            body = cs
        else:
            body = f"{cs}*{mono(w)}"
        if not bits:
            bits.append(f"-{body}" if neg else body)
        else:
            bits.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(bits)
