"""Text input: polynomials and weights as the command line and the corpus give them.

Polynomial grammar (explicit `*` between factors, no juxtaposition):

    expr     := ['+'|'-'] term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' nat)?
    base     := rational | var | '(' expr ')'
    var      := 'x' nat
    rational := nat ('/' nat)?

Weights are comma-separated nonzero rationals like "1,-1,2/3".
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DegenerateInputError, ParseError
from .fields import PrimeField
from .poly import MultiPoly

_OPS = set("+-*^()/,")


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
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
        if ch in _OPS:
            tokens.append(_Token(ch, ch, line, col))
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_Token("nat", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str, nvars: int, field):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nvars = nvars
        self.field = field

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind=None) -> _Token:
        tok = self.tokens[self.pos]
        if kind is not None and tok.kind != kind:
            raise ParseError(f"expected {kind}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        self.pos += 1
        return tok

    def parse(self) -> MultiPoly:
        p = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.col)
        return p

    def expr(self) -> MultiPoly:
        negate = False
        if self.peek().kind in "+-":
            negate = self.take().kind == "-"
        p = self.term()
        if negate:
            p = -p
        while self.peek().kind in "+-":
            op = self.take().kind
            q = self.term()
            p = p - q if op == "-" else p + q
        return p

    def term(self) -> MultiPoly:
        p = self.factor()
        while self.peek().kind == "*":
            self.take()
            p = p * self.factor()
        return p

    def factor(self) -> MultiPoly:
        p = self.base()
        if self.peek().kind == "^":
            self.take()
            e = self.nat("exponent")
            p = p ** e
        nxt = self.peek()
        if nxt.kind in ("name", "nat", "("):
            raise ParseError("missing '*' between factors (juxtaposition is not allowed)",
                             nxt.line, nxt.col)
        return p

    def nat(self, what: str) -> int:
        tok = self.peek()
        if tok.kind == "-":
            raise ParseError(f"{what} must be non-negative", tok.line, tok.col)
        tok = self.take("nat")
        return int(tok.text)

    def base(self) -> MultiPoly:
        tok = self.peek()
        if tok.kind == "(":
            self.take()
            p = self.expr()
            self.take(")")
            return p
        if tok.kind == "nat":
            self.take()
            num = int(tok.text)
            den = 1
            if self.peek().kind == "/":
                self.take()
                dtok = self.peek()
                den = self.nat("denominator")
                if den == 0:
                    raise ParseError("zero denominator", dtok.line, dtok.col)
            value = Fraction(num, den)
            if isinstance(self.field, PrimeField) and value.denominator % self.field.modulus == 0:
                raise ParseError(
                    f"denominator {value.denominator} divisible by the modulus "
                    f"{self.field.modulus}", tok.line, tok.col)
            return MultiPoly.constant(self.field, self.nvars,
                                      self.field.from_fraction(value))
        if tok.kind == "name":
            self.take()
            return MultiPoly.variable(self.field, self.nvars, self.var_index(tok))
        raise ParseError(f"expected a number, variable or '(', found "
                         f"{tok.text or 'end of input'!r}", tok.line, tok.col)

    def var_index(self, tok: _Token) -> int:
        name = tok.text
        if name.startswith("x") and name[1:].isdigit():
            k = int(name[1:])
            if k < self.nvars:
                return k
        raise ParseError(f"unknown variable {name!r} (expected x0..x{self.nvars - 1})",
                         tok.line, tok.col)


def parse_poly(text: str, nvars: int, field) -> MultiPoly:
    """Parse a polynomial in x0..x{nvars-1} over field."""
    return _Parser(text, nvars, field).parse()


def parse_weights(text: str) -> tuple[Fraction, ...]:
    """Parse comma-separated exact rational weights, all nonzero."""
    pieces = text.split(",")
    weights = []
    col = 1
    for piece in pieces:
        stripped = piece.strip()
        try:
            w = Fraction(stripped)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"malformed rational {stripped!r}", 1, col) from None
        if w == 0:
            raise DegenerateInputError(
                f"zero weight at position {len(weights) + 1}: weights must be nonzero")
        weights.append(w)
        col += len(piece) + 1
    return tuple(weights)

