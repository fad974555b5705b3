"""Text grammar for polynomials, generator lists and key=value specs.

Grammar: integer literals, variable identifiers, the operators ``+ - * ^``
and parentheses.  ``^`` binds tightest, implicit multiplication is
forbidden, whitespace is ignored.  ``a/b`` between integer literals is
additionally accepted for exact rational coefficients (a superset of the
required grammar, so printed normal forms re-parse).  Every spec is cut by
`split_top_level`; error positions count from the start of the whole text,
and an integer literal too long to convert is an error at its first digit.

The parser builds plain term dicts {exponents: coefficient} and wraps the
result in one `Polynomial` at the end.  It owns no arithmetic: `poly` holds
the one set of term functions (add, subtract, multiply, power, negate) that
the parser and `Polynomial`'s operators share.
"""
from __future__ import annotations

import re
import sys

from .poly import (Polynomial, PolyRing, add_terms, mul_terms, neg_terms, pow_terms,
                   sub_terms)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column

    @classmethod
    def at(cls, text: str, index: int, message: str) -> "ParseError":
        """The error at text[index], positioned within all of text."""
        line = text.count("\n", 0, index) + 1
        return cls(message, line, index - text.rfind("\n", 0, index))


MAX_NESTING = 100  # parentheses deeper than this are rejected, not recursed into
# after any whitespace: a decimal literal, an operator, or a word, that is a
# run of any other characters
_TOKEN = re.compile(r"\s*(?:(?P<INT>\d+)|(?P<OP>[-+*^()/,])|(?P<IDENT>[^-+*^()/,\s]+))")


def _tokenize(text: str, begin: int = 0, end: int | None = None) -> list[tuple[str, str, int]]:
    """Tokens (kind, text, offset) of text[begin:end]: kind is INT, IDENT, OP
    or END, and offset is into all of text.  A word that is not an
    identifier is refused at its first character that cannot start (or
    continue) one, such as a superscript digit."""
    end = len(text) if end is None else end
    tokens = []
    for m in _TOKEN.finditer(text, begin, end):
        kind = m.lastgroup
        word, at = m[kind], m.start(kind)
        if kind == "IDENT" and not word.isidentifier():
            bad = next(i for i, ch in enumerate(word) if not ("_" * (i > 0) + ch).isidentifier())
            raise ParseError.at(text, at + bad, f"unexpected character {word[bad]!r}")
        tokens.append((kind, word, at))
    tokens.append(("END", "", end))
    return tokens


def read_natural(text: str, index: int, digits: str) -> int:
    """The value of the decimal literal `digits` found at text[index]; one
    longer than Python converts (sys.get_int_max_str_digits()) is a
    ParseError there."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError.at(text, index, f"integer literal of {len(digits)} digits is longer "
                                         f"than {sys.get_int_max_str_digits()} digits") from None


class _Parser:
    """Recursive descent over the tokens; every rule returns a term dict
    {exponents: coefficient}, combined by the term functions of `poly`."""

    def __init__(self, text: str, tokens, ring: PolyRing):
        self.text = text
        self.tokens = tokens
        self.pos = 0
        self.fld = ring.field
        self.nvars = ring.nvars
        self.zero_exps = (0,) * ring.nvars
        self.units = ring.unit_exponents
        self.depth = 0

    def error(self, message: str):
        raise ParseError.at(self.text, self.tokens[self.pos][2], message)

    def at_op(self, names: str) -> bool:
        kind, word, _ = self.tokens[self.pos]
        return kind == "OP" and word in names

    def parse_expr(self) -> dict:
        result = self.parse_term()
        while self.at_op("+-"):
            op = self.tokens[self.pos][1]
            self.pos += 1
            rhs = self.parse_term()
            result = (add_terms if op == "+" else sub_terms)(self.fld, result, rhs)
        return result

    def parse_term(self) -> dict:
        result = self.parse_factor()
        while self.at_op("*"):
            self.pos += 1
            result = mul_terms(self.fld, result, self.parse_factor())
        kind, word, _ = self.tokens[self.pos]
        if kind in ("INT", "IDENT") or (kind == "OP" and word == "("):
            self.error("implicit multiplication is forbidden; use *")
        return result

    def parse_factor(self) -> dict:
        negative = False
        while self.at_op("+-"):
            negative ^= self.tokens[self.pos][1] == "-"
            self.pos += 1
        base = self.parse_base()
        if self.at_op("^"):
            self.pos += 1
            kind, word, at = self.tokens[self.pos]
            k = read_natural(self.text, at, word) if kind == "INT" else -1
            if k < 0:  # a family's index read in place of a name may be negative
                self.error("exponent must be a non-negative integer literal")
            self.pos += 1
            base = pow_terms(self.fld, base, k, self.nvars)
        return neg_terms(self.fld, base) if negative else base

    def parse_base(self) -> dict:
        kind, word, at = self.tokens[self.pos]
        if kind == "INT":
            self.pos += 1
            fld = self.fld
            value = fld.from_int(read_natural(self.text, at, word))
            if self.at_op("/"):
                self.pos += 1
                kind, word, at = self.tokens[self.pos]
                if kind != "INT":
                    self.error("denominator must be an integer literal")
                self.pos += 1
                den = read_natural(self.text, at, word)
                if den == 0:
                    self.error("zero denominator")
                value = fld.div(value, fld.from_int(den))
            return {self.zero_exps: value} if value else {}
        if kind == "IDENT":
            self.pos += 1
            if word not in self.units:
                raise ParseError.at(self.text, at, f"unknown variable {word!r}")
            return {self.units[word]: self.fld.one}
        if self.at_op("("):
            if self.depth == MAX_NESTING:
                self.error(f"parentheses nested deeper than {MAX_NESTING}")
            self.pos += 1
            self.depth += 1
            inner = self.parse_expr()
            if not self.at_op(")"):
                self.error("expected )")
            self.pos += 1
            self.depth -= 1
            return inner
        self.error("expected integer, variable, or (")


def parse_polynomial(text: str, ring: PolyRing, begin: int = 0,
                     end: int | None = None, values: dict | None = None) -> Polynomial:
    """Parse the polynomial text[begin:end] over the given ambient ring;
    error positions count from the start of text.  `values` maps names to
    the integers read in their place, such as a family's index n."""
    tokens = _tokenize(text, begin, end)
    if values:
        tokens = [("INT", str(values[t[1]]), t[2]) if t[0] == "IDENT" and t[1] in values else t
                  for t in tokens]
    parser = _Parser(text, tokens, ring)
    terms = parser.parse_expr()
    if parser.tokens[parser.pos][0] != "END":
        parser.error("trailing input after polynomial")
    return Polynomial.of_terms(ring, terms)


_CLOSERS = {"(": ")", "[": "]", "{": "}"}


def split_top_level(text: str, begin: int = 0, end: int | None = None,
                    sep: str | None = None) -> list[tuple[int, int]]:
    """Spans (a, b) of the whitespace-stripped parts of text[begin:end], cut
    at each sep outside every ()[]{} pair; without sep, cut at whitespace and
    with empty parts dropped.  A bracket never opened, never closed or closed
    by the wrong kind is a ParseError there, positioned within all of text."""
    end = len(text) if end is None else end
    spans, opened, start = [], [], begin
    for i in range(begin, end):
        ch = text[i]
        if ch in _CLOSERS:
            opened.append(i)
        elif ch in ")]}":
            if not opened:
                raise ParseError.at(text, i, f"unmatched {ch!r}")
            want = _CLOSERS[text[opened.pop()]]
            if ch != want:
                raise ParseError.at(text, i, f"expected {want!r}, found {ch!r}")
        elif not opened and (ch == sep if sep else ch.isspace()):
            spans.append(_strip(text, start, i))
            start = i + 1
    if opened:
        raise ParseError.at(text, opened[0], f"{text[opened[0]]!r} is never closed")
    spans.append(_strip(text, start, end))
    return spans if sep else [(a, b) for a, b in spans if a < b]


def _strip(text: str, a: int, b: int) -> tuple[int, int]:
    part = text[a:b]
    a += len(part) - len(part.lstrip())
    return a, a + len(part.strip())


def read_clauses(text: str, begin: int, end: int, keys: dict,
                 what: str) -> dict[str, tuple[int, int]]:
    """The key=value clauses of text[begin:end], split by `split_top_level`,
    as key -> span of the value, or of its inside when keys maps the key to
    a bracket pair ("" for none).  A clause without "=" is a ValueError
    naming it after `what`; an unknown or repeated key, or a value that does
    not start and end with its pair, is a ParseError there."""
    clauses = {}
    for a, b in split_top_level(text, begin, end):
        eq = text.find("=", a, b)
        if eq < 0:
            raise ValueError(f"{what} {text[a:b]!r} is not key=value")
        key = text[a:eq]
        if key not in keys:
            raise ParseError.at(text, a, f"{what} {key!r}: unknown key; expected one of "
                                         f"{', '.join(keys)}")
        if key in clauses:
            raise ParseError.at(text, a, f"{what} {key!r}: repeated key")
        pair, k = keys[key], len(keys[key]) // 2
        if pair and (b - eq < 3 or text[eq + 1] + text[b - 1] != pair):
            raise ParseError.at(text, eq + 1, f"{what} {key!r} must be {pair[0]}...{pair[1]}")
        clauses[key] = (eq + 1 + k, b - k)
    return clauses


def parse_generator_list(text: str, ring: PolyRing, begin: int = 0,
                         end: int | None = None, values: dict | None = None) -> list[Polynomial]:
    """Parse the comma-separated generator list text[begin:end], optionally
    parenthesized: "(x*y, x^2 - y^2)" or "x*y, x^2 - y^2".  Error positions
    count from the start of text; `values` is as in `parse_polynomial`."""
    spans = split_top_level(text, begin, end, ",")
    a, b = spans[0]
    if len(spans) == 1 and b - a >= 2 and text[a] + text[b - 1] == "()":
        # the outer pair wraps the list unless it closes early, as in "(x)*(y)"
        try:
            spans = split_top_level(text, a + 1, b - 1, ",")
        except ParseError:
            pass
    return [parse_polynomial(text, ring, a, b, values) for a, b in spans if a < b]


def infer_ring(texts, variables: tuple[str, ...] | None = None) -> PolyRing:
    """Build the ambient ring over Q from the identifiers in expressions."""
    if variables is not None:
        return PolyRing(tuple(v.strip() for v in variables))
    names: set[str] = set()
    for text in texts:
        for kind, word, _ in _tokenize(text):
            if kind == "IDENT":
                names.add(word)
    if not names:
        raise ValueError("no variables found; pass variables explicitly")
    if len(names) > 4:
        raise ValueError(f"more than 4 variables: {sorted(names)}")
    return PolyRing(tuple(sorted(names)))
