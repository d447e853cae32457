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

* One regular expression reads each token after its blanks: a NUMBER, a
  word, an operator or the end.  A name is a word that starts with a letter
  or ``_``; any other word or character is a parse error at its offset.
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
* The tree is at most ``MAX_HEIGHT`` nodes high, chains such as ``x+x+...``
  included, so the recursive walks of a parsed tree fit in the interpreter's
  stack; a higher node is a parse error at the token that would build it.
* An integer longer than the interpreter's int-to-str digit limit and a
  decimal beyond the float range are parse errors.  :func:`parse_number`
  reads one signed NUMBER with the same pattern, for command-line values.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from functools import partial
from typing import NamedTuple

from .exprs import (
    MAX_HEIGHT,
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
    X,
    constant_value,
)
from .jets import ELEMENTARY_FUNCTIONS
from .numeric import Scalar

MAX_EXPONENT = 10_000
MAX_CONSTANT_BITS = 100_000
MAX_NESTING = 100

# The binary operators by level, loosest first; each level is left-associative.
_BINARY = ({"+": Add, "-": Sub}, {"*": Mul, "/": Div})


class ParseError(ValueError):
    """Malformed input, with the byte offset and what was expected there."""

    def __init__(self, offset: int, expected: str, found: str):
        self.offset = offset
        self.expected = expected
        self.found = found
        super().__init__(f"parse error at offset {offset}: expected {expected}, found {found}")


class _Token(NamedTuple):
    kind: str  # "num" | "name" | "op" | "end"
    text: str
    offset: int
    value: Scalar | None = None


# Blanks, then one token: a NUMBER, a word, an operator, the end or any other
# character.  \s, \d and \w match exactly str.isspace, str.isdecimal and
# str.isalnum() or "_"; a word's first character is checked by _tokenize.
_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:\.\d+|/\d+)?)|(?P<name>\w+)|(?P<op>[-+*/^()])"
                    r"|(?P<end>\Z)|(?P<other>.))", re.DOTALL)
_SIGN = re.compile(r"\s*([-+]?)(?=\d)")


def _integer(digits: str, offset: int) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than the interpreter converts to an int
        raise ParseError(offset, f"an integer of at most {sys.get_int_max_str_digits()} digits",
                         f"one of {len(digits)} digits") from None


def _number(text: str, offset: int) -> int | Fraction | float:
    """The value of the NUMBER ``text`` found at ``offset``: an int, a
    Fraction or a float by the literal's form."""
    if "." in text:
        value = float(text)
        if math.isinf(value):
            raise ParseError(offset, "a decimal within the float range",
                             f"one of {len(text)} characters")
        return value
    num, _, den = text.partition("/")
    p = _integer(num, offset)
    q = _integer(den, offset + len(num) + 1) if den else 1
    if q == 0:
        raise ParseError(offset + len(num) + 1, "a nonzero denominator", "0")
    return Fraction(p, q) if den else p


def parse_number(text: str) -> int | Fraction | float | None:
    """The value of ``text`` when it is one NUMBER with blanks around it and
    an optional sign directly before it, as a command-line value is written:
    an int, a Fraction or a float by the literal's form (``-0.0`` keeps its
    sign), or None when ``text`` is anything else.  A literal out of range
    raises :class:`ParseError`, as it does in an expression."""
    sign = _SIGN.match(text)
    if sign is None:
        return None
    number = _TOKEN.match(text, sign.end())
    value = _number(number["num"], sign.end())
    if _TOKEN.match(text, number.end()).lastgroup != "end":
        return None
    return -value if sign[1] == "-" else value


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        text, offset = match[kind], match.start(kind)
        if kind == "end":
            tokens.append(_Token(kind, "end of input", offset))
            break
        if kind == "other" or (kind == "name" and not (text[0].isalpha() or text[0] == "_")):
            raise ParseError(offset, "a number, name, or operator", repr(text[0]))
        tokens.append(_Token(kind, text, offset, Scalar(_number(text, offset)) if kind == "num" else None))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # groups, function arguments, signs and exponents now open
        # id of each node built above the leaves (each (1, 1), never looked up)
        # -> its height and the largest product of integer-power exponent
        # magnitudes on a path down from it, at least 1; written as the node is
        # built, so an id that a freed exponent left behind is never read stale.
        self.records: dict[int, tuple[int, int]] = {}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def match_op(self, op: str) -> _Token | None:
        tok = self.peek()
        if tok.kind == "op" and tok.text == op:
            return self.advance()
        return None

    def expect_op(self, op: str, context: str) -> None:
        if self.match_op(op) is None:
            tok = self.peek()
            raise ParseError(tok.offset, f"'{op}' {context}", self._describe(tok))

    @staticmethod
    def _describe(tok: _Token) -> str:
        return tok.text if tok.kind == "end" else f"'{tok.text}'"

    def expr(self, level: int = 0) -> Expr:
        """A sum (level 0) or a product (level 1) of the operands one level down;
        a partial, not a lambda, so that a nesting level costs no extra frame."""
        operand = partial(self.expr, level + 1) if level + 1 < len(_BINARY) else self.unary
        node = operand()
        while True:
            tok = self.peek()
            build = _BINARY[level].get(tok.text)  # only an operator's text is a key
            if build is None:
                return node
            self.advance()
            right = operand()
            node = self._record(tok, build(node, right), node, right)

    def _nested(self, tok: _Token, parse) -> Expr:
        """``parse()`` one level deeper, the level ``tok`` opens; at most MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise ParseError(tok.offset, f"at most {MAX_NESTING} levels of nesting", "one more")
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def _record(self, tok: _Token, node: Expr, *children: Expr, product: int | None = None) -> Expr:
        """``node``, which ``tok`` builds over ``children``, recorded: one level
        higher than the highest of them and at most MAX_HEIGHT, with a power's
        own exponent ``product`` or else the largest of theirs."""
        height, most = 1, 1
        for child in children:
            if not isinstance(child, (Const, Var)):
                h, p = self.records[id(child)]
                if h > height:
                    height = h
                if p > most:
                    most = p
        if height == MAX_HEIGHT:
            raise ParseError(tok.offset, f"a tree at most {MAX_HEIGHT} levels high", "one more")
        self.records[id(node)] = (height + 1, most if product is None else product)
        return node

    def unary(self) -> Expr:
        tok = self.match_op("-")
        if tok is None:
            return self.power()
        arg = self._nested(tok, self.unary)
        return self._record(tok, Neg(arg), arg)

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
            return self._record(tok, PowReal(base, value), base)
        k = int(value.value)
        try:
            folded = constant_value(base)
        except OverflowError:  # a float power beyond the float range, not an exact one
            folded = None
        nested = abs(k) * (1 if isinstance(base, (Const, Var)) else self.records[id(base)][1])
        q = folded.value if folded is not None and folded.is_exact else 1
        bits = abs(k) * max(abs(q.numerator).bit_length(), q.denominator.bit_length())
        if nested > MAX_EXPONENT or bits > MAX_CONSTANT_BITS:
            raise ParseError(exp_tok.offset, "exponents whose product over nested powers is at most "
                             f"{MAX_EXPONENT} in magnitude and a power of at most "
                             f"{MAX_CONSTANT_BITS} bits", "a larger one")
        return self._record(tok, PowInt(base, k), base, product=max(1, nested))

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            assert tok.value is not None
            return Const(tok.value)
        if tok.kind == "name":
            self.advance()
            if tok.text == "x":
                return X
            if tok.text in ELEMENTARY_FUNCTIONS:
                self.expect_op("(", f"after '{tok.text}'")
                inner = self._nested(tok, self.expr)
                self.expect_op(")", "to close the function argument")
                return self._record(tok, Apply(tok.text, inner), inner)
            raise ParseError(tok.offset, "'x' or a function name", f"'{tok.text}'")
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            inner = self._nested(tok, self.expr)
            self.expect_op(")", "to close the group")
            return inner
        raise ParseError(tok.offset, "a number, 'x', a function name, or '('", self._describe(tok))


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
