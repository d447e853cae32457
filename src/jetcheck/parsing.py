"""Recursive-descent parser for the one-variable expression language.

Grammar::

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?            # right-associative
    atom    := NUMBER | 'x' | FUNC '(' expr ')' | '(' expr ')'
    FUNC    := 'exp' | 'log' | 'sin' | 'cos' | 'sqrt'
    NUMBER  := INT | INT '/' INT | DECIMAL

Notes on the lexical level:

* ``p/q`` with no intervening whitespace is a single rational literal, so
  ``3/4`` is the constant three-quarters (and ``3/4^2`` is (3/4)^2), while
  ``3 / 4`` and ``x/4`` are divisions.
* Decimal literals are float-mode constants and mark the whole expression
  as float mode.
* ``^`` binds tighter than unary minus and its exponent must fold to a
  constant: integer exponents become integer powers (negative allowed),
  fractional ones become real powers.
* The only variable is ``x``; any other identifier is a parse error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exprs import (
    Apply,
    Const,
    Div,
    Expr,
    Mul,
    Neg,
    PowInt,
    PowReal,
    Sub,
    Add,
    Var,
    constant_value,
)
from .jets import ELEMENTARY_FUNCTIONS
from .numeric import Scalar


class ParseError(ValueError):
    """Malformed input, with the byte offset and what was expected there."""

    def __init__(self, offset: int, expected: str, found: str):
        self.offset = offset
        self.expected = expected
        self.found = found
        super().__init__(f"parse error at offset {offset}: expected {expected}, found {found}")


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "name" | "op" | "end"
    text: str
    offset: int
    value: Scalar | None = None


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            start = i
            while i < n and source[i].isdecimal():
                i += 1
            if i < n and source[i] == "." and i + 1 < n and source[i + 1].isdecimal():
                i += 1
                while i < n and source[i].isdecimal():
                    i += 1
                text = source[start:i]
                tokens.append(_Token("num", text, start, Scalar.inexact(float(text))))
                continue
            if i < n and source[i] == "/" and i + 1 < n and source[i + 1].isdecimal():
                num = int(source[start:i])
                den_start = i + 1
                i += 1
                while i < n and source[i].isdecimal():
                    i += 1
                den = int(source[den_start:i])
                if den == 0:
                    raise ParseError(den_start, "a nonzero denominator", "0")
                tokens.append(
                    _Token("num", source[start:i], start, Scalar(Fraction(num, den)))
                )
                continue
            text = source[start:i]
            tokens.append(_Token("num", text, start, Scalar.exact(int(text))))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            tokens.append(_Token("name", source[start:i], start))
            continue
        if ch in "+-*/^()":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        raise ParseError(i, "a number, name, or operator", f"{ch!r}")
    tokens.append(_Token("end", "end of input", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def match_op(self, *ops: str) -> _Token | None:
        tok = self.peek()
        if tok.kind == "op" and tok.text in ops:
            return self.advance()
        return None

    def expect_op(self, op: str, context: str) -> None:
        tok = self.peek()
        if tok.kind == "op" and tok.text == op:
            self.advance()
            return
        raise ParseError(tok.offset, f"'{op}' {context}", self._describe(tok))

    @staticmethod
    def _describe(tok: _Token) -> str:
        return tok.text if tok.kind == "end" else f"'{tok.text}'"

    def expr(self) -> Expr:
        node = self.term()
        while True:
            tok = self.match_op("+", "-")
            if tok is None:
                return node
            right = self.term()
            node = Add(node, right) if tok.text == "+" else Sub(node, right)

    def term(self) -> Expr:
        node = self.unary()
        while True:
            tok = self.match_op("*", "/")
            if tok is None:
                return node
            right = self.unary()
            node = Mul(node, right) if tok.text == "*" else Div(node, right)

    def unary(self) -> Expr:
        if self.match_op("-"):
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if not self.match_op("^"):
            return base
        exp_tok = self.peek()
        exponent = self.unary()
        value = constant_value(exponent)
        if value is None:
            raise ParseError(exp_tok.offset, "a constant exponent", "a non-constant expression")
        if value.is_exact and value.value.denominator == 1:
            return PowInt(base, int(value.value))
        return PowReal(base, value)

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            assert tok.value is not None
            return Const(tok.value)
        if tok.kind == "name":
            self.advance()
            if tok.text == "x":
                return Var()
            if tok.text in ELEMENTARY_FUNCTIONS:
                self.expect_op("(", f"after '{tok.text}'")
                inner = self.expr()
                self.expect_op(")", "to close the function argument")
                return Apply(tok.text, inner)
            raise ParseError(tok.offset, "'x' or a function name", f"'{tok.text}'")
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            inner = self.expr()
            self.expect_op(")", "to close the group")
            return inner
        raise ParseError(
            tok.offset, "a number, 'x', a function name, or '('", self._describe(tok)
        )


def parse(source: str) -> Expr:
    """Parse ``source`` into an expression tree, or raise :class:`ParseError`.

    The parser builds raw nodes (no simplification) except for the two
    lexical-level foldings the grammar requires: rational literals, and
    power exponents folded to a constant so they can be classified as
    integer or real.
    """
    parser = _Parser(_tokenize(source))
    node = parser.expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(tok.offset, "end of input", parser._describe(tok))
    return node
