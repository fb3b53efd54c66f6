"""Text input: polynomials and weights as the command line and the corpus give them.

Polynomial grammar (explicit `*` between factors, no juxtaposition):

    expr     := ['+'|'-'] term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' nat)?
    base     := rational | var | '(' expr ')'
    var      := 'x' nat
    rational := nat ('/' nat)?
    nat      := decimal digits

Parentheses nest at most 200 deep.
Weights are comma-separated nonzero rationals like "1,-1,2/3".
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction

from .errors import DegenerateInputError, ParseError
from .fields import PrimeField
from .poly import MultiPoly

# One group per token kind; blanks are skipped and any other character refused.
_TOKEN = re.compile(r"(?P<nat>\d+)|(?P<name>[^\W\d]\w*)|(?P<op>[-+*^()/,])"
                    r"|(?P<newline>\n)|[^\S\n]+|(?P<bad>.)")
_MAX_DEPTH = 200    # parentheses; each level is four frames of the recursive descent

_Token = namedtuple("_Token", "kind text line col")


def _tokenize(text: str):
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, col = m.lastgroup, m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", line, col)
        elif kind:
            tokens.append(_Token(m.group() if kind == "op" else kind, m.group(), line, col))
    tokens.append(_Token("end", "", line, len(text) - line_start + 1))
    return tokens


def _int(digits: str, tok: _Token) -> int:
    try:
        return int(digits)
    except ValueError:      # more digits than sys.get_int_max_str_digits() allows
        raise ParseError(f"number too long ({len(digits)} digits)", tok.line, tok.col) from None


class _Parser:
    def __init__(self, text: str, nvars: int, field):
        self.tokens = _tokenize(text)
        self.pos = self.depth = 0
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
        sign = self.take().kind if self.peek().kind in "+-" else "+"
        p = self.term()
        if sign == "-":
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
            p = p ** self.nat("exponent")
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
        return _int(tok.text, tok)

    def base(self) -> MultiPoly:
        tok = self.peek()
        if tok.kind == "(":
            if self.depth == _MAX_DEPTH:
                raise ParseError(f"parentheses nest deeper than {_MAX_DEPTH}", tok.line, tok.col)
            self.take()
            self.depth += 1
            p = self.expr()
            self.depth -= 1
            self.take(")")
            return p
        if tok.kind == "nat":
            num, den = self.nat("number"), 1
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
        if name.startswith("x") and name[1:].isdecimal() and _int(name[1:], tok) < self.nvars:
            return int(name[1:])
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

