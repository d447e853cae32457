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
* An exponent times the exponents of the integer powers nested in its base
  is bounded by ``MAX_EXPONENT`` in magnitude, exact constant powers by
  ``MAX_CONSTANT_BITS`` bits, and the nesting depth by ``MAX_NESTING``.
* An integer longer than the interpreter's int-to-str digit limit and a
  decimal beyond the float range are parse errors.  :func:`parse_number`
  reads one signed NUMBER with the same lexer, for command-line values.
"""

from __future__ import annotations

import math
import sys
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
    contains_float,
)
from .jets import ELEMENTARY_FUNCTIONS
from .numeric import Scalar

MAX_EXPONENT = 10_000
MAX_CONSTANT_BITS = 100_000
MAX_NESTING = 100


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


def _digits_end(source: str, i: int) -> int:
    n = len(source)
    while i < n and source[i].isdecimal():
        i += 1
    return i


def _integer(source: str, start: int, end: int) -> int:
    try:
        return int(source[start:end])
    except ValueError:  # more digits than the interpreter converts to an int
        raise ParseError(start, f"an integer of at most {sys.get_int_max_str_digits()} digits",
                         f"one of {end - start} digits") from None


def _number(source: str, start: int) -> tuple[int, int | Fraction | float]:
    """The NUMBER starting at ``source[start]``, a decimal digit: its end and
    its value, an int, a Fraction or a float by the literal's form."""
    i = _digits_end(source, start)
    if source[i:i + 1] == "." and source[i + 1:i + 2].isdecimal():
        i = _digits_end(source, i + 1)
        value = float(source[start:i])
        if math.isinf(value):
            raise ParseError(start, "a decimal within the float range",
                             f"one of {i - start} characters")
        return i, value
    num = _integer(source, start, i)
    if source[i:i + 1] == "/" and source[i + 1:i + 2].isdecimal():
        end = _digits_end(source, i + 1)
        den = _integer(source, i + 1, end)
        if den == 0:
            raise ParseError(i + 1, "a nonzero denominator", "0")
        return end, Fraction(num, den)
    return i, num


def parse_number(text: str) -> int | Fraction | float | None:
    """The value of ``text`` when it is one NUMBER with blanks around it and
    an optional sign directly before it, as a command-line value is written:
    an int, a Fraction or a float by the literal's form (``-0.0`` keeps its
    sign), or None when ``text`` is anything else.  A literal out of range
    raises :class:`ParseError`, as it does in an expression."""
    body = text.strip()
    sign = body[:1] if body[:1] in ("+", "-") else ""
    start = len(text) - len(text.lstrip()) + len(sign)
    if not text[start:start + 1].isdecimal():
        return None
    end, value = _number(text, start)
    if text[end:].strip():
        return None
    return -value if sign == "-" else value


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
            i, value = _number(source, start)
            tokens.append(_Token("num", source[start:i], start, Scalar(value)))
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
        self.depth = 0  # groups, function arguments, signs and exponents now open
        # id of each PowInt built -> the largest exponent product on a path down from it
        self.nesting: dict[int, int] = {}

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

    def _nested(self, tok: _Token, parse) -> Expr:
        """``parse()`` one level deeper, the level ``tok`` opens; at most MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise ParseError(tok.offset, f"at most {MAX_NESTING} levels of nesting", "one more")
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def unary(self) -> Expr:
        tok = self.match_op("-")
        return self.power() if tok is None else Neg(self._nested(tok, self.unary))

    def power(self) -> Expr:
        base = self.atom()
        tok = self.match_op("^")
        if tok is None:
            return base
        exp_tok = self.peek()
        exponent = self._nested(tok, self.unary)
        value = constant_value(exponent)
        if value is None:
            raise ParseError(exp_tok.offset, "a constant exponent", "a non-constant expression")
        if not (value.is_exact and value.value.denominator == 1):
            return PowReal(base, value)
        k, folded = int(value.value), None if contains_float(base) else constant_value(base)
        q = 1 if folded is None else folded.value
        bits = abs(k) * max(abs(q.numerator).bit_length(), q.denominator.bit_length())
        nested = abs(k) * self._nesting(base)
        if nested > MAX_EXPONENT or bits > MAX_CONSTANT_BITS:
            raise ParseError(exp_tok.offset, "exponents whose product over nested powers is at most "
                             f"{MAX_EXPONENT} in magnitude and a power of at most "
                             f"{MAX_CONSTANT_BITS} bits", "a larger one")
        node = PowInt(base, k)
        self.nesting[id(node)] = max(1, nested)
        return node

    def _nesting(self, e: Expr) -> int:
        """The largest product of integer-power exponent magnitudes on a path
        down ``e``, at least 1."""
        if isinstance(e, PowInt):
            return self.nesting[id(e)]
        if isinstance(e, (Add, Sub, Mul, Div)):
            return max(self._nesting(e.left), self._nesting(e.right))
        if isinstance(e, (Neg, Apply)):
            return self._nesting(e.arg)
        if isinstance(e, PowReal):
            return self._nesting(e.base)
        return 1

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
                inner = self._nested(tok, self.expr)
                self.expect_op(")", "to close the function argument")
                return Apply(tok.text, inner)
            raise ParseError(tok.offset, "'x' or a function name", f"'{tok.text}'")
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            inner = self._nested(tok, self.expr)
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
