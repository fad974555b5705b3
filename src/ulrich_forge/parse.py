"""Text grammar for polynomials and ideal generator lists.

Grammar: integer literals, variable identifiers, the operators ``+ - * ^``
and parentheses.  ``^`` binds tightest, implicit multiplication is
forbidden, whitespace is ignored.  ``a/b`` between integer literals is
additionally accepted for exact rational coefficients (a superset of the
required grammar, so printed normal forms re-parse).
"""
from __future__ import annotations

from dataclasses import dataclass

from .fields import QQ
from .poly import Polynomial, PolyRing


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class _Token:
    kind: str  # INT, IDENT, OP, END
    text: str
    line: int
    column: int


_OPS = set("+-*^()/,")
MAX_NESTING = 100  # parentheses deeper than this are rejected, not recursed into


def _tokenize(text: str, line: int = 1, col: int = 1):
    """Tokens of text, positioned as if text began at (line, col)."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _OPS:
            tokens.append(_Token("OP", ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("END", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens, ring: PolyRing):
        self.tokens = tokens
        self.pos = 0
        self.ring = ring
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.column)

    def at_op(self, *names) -> bool:
        tok = self.peek()
        return tok.kind == "OP" and tok.text in names

    def parse_expr(self) -> Polynomial:
        result = self.parse_term()
        while self.at_op("+", "-"):
            op = self.advance().text
            rhs = self.parse_term()
            result = result + rhs if op == "+" else result - rhs
        return result

    def parse_term(self) -> Polynomial:
        result = self.parse_factor()
        while self.at_op("*"):
            self.advance()
            result = result * self.parse_factor()
        tok = self.peek()
        if tok.kind in ("INT", "IDENT") or (tok.kind == "OP" and tok.text == "("):
            self.error("implicit multiplication is forbidden; use *")
        return result

    def parse_factor(self) -> Polynomial:
        sign = 1
        while self.at_op("+", "-"):
            if self.advance().text == "-":
                sign = -sign
        base = self.parse_base()
        if self.at_op("^"):
            self.advance()
            tok = self.peek()
            if tok.kind != "INT":
                self.error("exponent must be a non-negative integer literal")
            self.advance()
            base = base ** int(tok.text)
        return base if sign > 0 else -base

    def parse_base(self) -> Polynomial:
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            fld = self.ring.field
            value = fld.from_int(int(tok.text))
            if self.at_op("/"):
                self.advance()
                den = self.peek()
                if den.kind != "INT":
                    self.error("denominator must be an integer literal")
                self.advance()
                if int(den.text) == 0:
                    self.error("zero denominator")
                value = fld.div(value, fld.from_int(int(den.text)))
            return Polynomial(self.ring, {(0,) * self.ring.nvars: value})
        if tok.kind == "IDENT":
            self.advance()
            if tok.text not in self.ring.variables:
                raise ParseError(f"unknown variable {tok.text!r}", tok.line, tok.column)
            return self.ring.var(tok.text)
        if self.at_op("("):
            if self.depth == MAX_NESTING:
                self.error(f"parentheses nested deeper than {MAX_NESTING}")
            self.advance()
            self.depth += 1
            inner = self.parse_expr()
            if not self.at_op(")"):
                self.error("expected )")
            self.advance()
            self.depth -= 1
            return inner
        self.error("expected integer, variable, or (")


def parse_polynomial(text: str, ring: PolyRing) -> Polynomial:
    """Parse a single polynomial over the given ambient ring."""
    return _parse_at(text, 0, len(text), ring)


def _parse_at(text: str, begin: int, end: int, ring: PolyRing) -> Polynomial:
    """Parse text[begin:end], reporting error positions within all of text."""
    line = text.count("\n", 0, begin) + 1
    col = begin - text.rfind("\n", 0, begin)
    parser = _Parser(_tokenize(text[begin:end], line, col), ring)
    poly = parser.parse_expr()
    if parser.peek().kind != "END":
        parser.error("trailing input after polynomial")
    return poly


def parse_generator_list(text: str, ring: PolyRing) -> list[Polynomial]:
    """Parse a comma-separated generator list, optionally parenthesized.

    Accepts e.g. "(x*y, x^2 - y^2)" or "x*y, x^2 - y^2".  Error columns count
    from the start of text.
    """
    begin, end = 0, len(text)
    while begin < end and text[begin].isspace():
        begin += 1
    while end > begin and text[end - 1].isspace():
        end -= 1
    if end - begin >= 2 and text[begin] == "(" and text[end - 1] == ")":
        # Outer parens only when they wrap the whole list.
        depth = 0
        wraps = True
        for i in range(begin, end):
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
                if depth == 0 and i != end - 1:
                    wraps = False
                    break
        if wraps:
            begin, end = begin + 1, end - 1
    spans = []
    depth = 0
    start = begin
    for i in range(begin, end):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            spans.append((start, i))
            start = i + 1
    spans.append((start, end))
    return [_parse_at(text, a, b, ring) for a, b in spans if text[a:b].strip()]


def infer_ring(texts, field=QQ, variables: tuple[str, ...] | None = None) -> PolyRing:
    """Build the ambient ring from the identifiers appearing in expressions."""
    if variables is not None:
        return PolyRing(tuple(variables), field)
    names: set[str] = set()
    for text in texts:
        for tok in _tokenize(text):
            if tok.kind == "IDENT":
                names.add(tok.text)
    if not names:
        raise ValueError("no variables found; pass variables explicitly")
    if len(names) > 4:
        raise ValueError(f"more than 4 variables: {sorted(names)}")
    return PolyRing(tuple(sorted(names)), field)
