"""The expression parser that ``jetcheck.parsing`` replaced, kept verbatim as
the reference for ``tests/test_parser_differential.py``: a token tuple per
token, every expression read in full before the parse, and a method call at
every step.  From ``jetcheck.parsing`` it takes only the literal reader
``_number``, the operator table ``_BINARY``, the bounds and ``ParseError``.
The one input on which
the two may differ is a constant exponent whose fold overflows: this parser
lets the ``OverflowError`` out, the library reports a ``ParseError``.
"""

from __future__ import annotations

import re
from functools import partial
from typing import NamedTuple

from jetcheck.exprs import (
    MAX_HEIGHT,
    Apply,
    Const,
    Expr,
    Neg,
    PowInt,
    PowReal,
    Var,
    X,
    constant_value,
)
from jetcheck.jets import ELEMENTARY_FUNCTIONS
from jetcheck.numeric import Scalar
from jetcheck.parsing import (
    _BINARY,
    MAX_CONSTANT_BITS,
    MAX_EXPONENT,
    MAX_NESTING,
    ParseError,
    _number,
)


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
