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
  The first such error in the text, or the first literal out of range,
  comes before any error of the grammar.
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
  Each bound is checked in one parser method, a leaf call, so a parse still
  takes one recursion frame per level.
* An integer longer than the interpreter's int-to-str digit limit, a
  decimal beyond the float range and a constant exponent whose fold
  overflows are parse errors.  :func:`parse_number` reads one signed
  NUMBER, for command-line values.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import NoReturn

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


# Blanks, then the text of one token: a NUMBER, a word, an operator, '' at the
# end or any other character.  \s, \d and \w match exactly str.isspace,
# str.isdecimal and str.isalnum() or "_", so a token's first character tells
# its kind; a word's first character is checked by _offsets.
_LITERAL = r"\d+(?:\.\d+|/\d+)?"
_TOKEN = re.compile(rf"\s*({_LITERAL}|\w+|[-+*/^()]|\Z|.)", re.DOTALL)
# One signed NUMBER, then blanks to the end (group 3) or anything else.
_NUMBER = re.compile(rf"\s*([-+]?)({_LITERAL})(\s*\Z)?")
_HIGH = f"a tree at most {MAX_HEIGHT} levels high"
_DEEP = f"at most {MAX_NESTING} levels of nesting"


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
    match = _NUMBER.match(text)
    if match is None:
        return None
    value = _number(match[2], match.start(2))
    if match[3] is None:
        return None
    return -value if match[1] == "-" else value


def _offsets(source: str) -> list[int]:
    """The offset of each token of ``source`` up to its end; a ParseError at
    the first token that is not a number, a name or an operator, or that is
    a literal out of range."""
    offsets = []
    for match in _TOKEN.finditer(source):
        text, offset = match[1], match.start(1)
        offsets.append(offset)
        if not text:
            break
        if text[0].isdecimal():
            _number(text, offset)
        elif not (text[0].isalpha() or text[0] == "_" or text in "-+*/^()"):
            raise ParseError(offset, "a number, name, or operator", repr(text[0]))
    return offsets


class _Parser:
    """One parse of a list of token texts, ending in ''.  Each rule returns its
    node with the node's height (1 for a leaf) and the largest product of
    integer-power exponent magnitudes on a path down from it (at least 1).
    :meth:`up` checks the height bound and :meth:`enter` the nesting bound,
    each a leaf call, so a parse still takes one recursion frame per level.  A
    ParseError raised here carries a token's index as its offset."""

    __slots__ = ("texts", "pos", "depth")

    def __init__(self, texts: list[str]):
        self.texts = texts
        self.pos = 0
        self.depth = 0  # groups, function arguments, signs and exponents now open

    def fail(self, at: int, expected: str, found: str | None = None) -> NoReturn:
        text = self.texts[at]
        raise ParseError(at, expected, found or (f"'{text}'" if text else "end of input"))

    def up(self, at: int, height: int) -> int:
        """The height over a child ``height`` high of a node built at token ``at``."""
        if height == MAX_HEIGHT:
            self.fail(at, _HIGH, "one more")
        return height + 1

    def enter(self, at: int) -> None:
        """Open a level of nesting at token ``at``; the caller decrements ``depth``."""
        if self.depth == MAX_NESTING:
            self.fail(at, _DEEP, "one more")
        self.depth += 1

    def binary(self, level: int) -> tuple[Expr, int, int]:
        """A sum (level 0) or a product (level 1) of the operands one level down."""
        node, height, most = self.binary(1) if level == 0 else self.factor()
        ops, texts = _BINARY[level], self.texts
        build = ops.get(texts[self.pos])
        while build is not None:
            at = self.pos
            self.pos = at + 1
            right, h, p = self.binary(1) if level == 0 else self.factor()
            if h > height:
                height = h
            if p > most:
                most = p
            node, height = build(node, right), self.up(at, height)
            build = ops.get(texts[self.pos])
        return node, height, most

    def factor(self) -> tuple[Expr, int, int]:
        """A signed factor, or an atom with its exponent, if any: unary, power
        and atom of the grammar in one frame per level."""
        texts, at = self.texts, self.pos
        text = texts[at]
        self.pos = at + 1
        if text == "x":
            node, height, most = X, 1, 1
        elif text[:1].isdecimal():
            node, height, most = Const(Scalar(_number(text, 0))), 1, 1
        elif text == "-":
            self.enter(at)
            arg, height, most = self.factor()
            self.depth -= 1
            return Neg(arg), self.up(at, height), most
        elif text == "(" or text in ELEMENTARY_FUNCTIONS:
            if text != "(":
                if texts[self.pos] != "(":
                    self.fail(self.pos, f"'(' after '{text}'")
                self.pos += 1
            self.enter(at)
            node, height, most = self.binary(0)
            self.depth -= 1
            if texts[self.pos] != ")":
                self.fail(self.pos, f"')' to close the {'group' if text == '(' else 'function argument'}")
            self.pos += 1
            if text != "(":
                node, height = Apply(text, node), self.up(at, height)
        else:
            self.fail(at, "'x' or a function name" if text[:1].isalpha() or text[:1] == "_"
                      else "a number, 'x', a function name, or '('")
        caret = self.pos
        if texts[caret] != "^":
            return node, height, most
        self.enter(caret)
        self.pos = first = caret + 1
        exponent = self.factor()[0]
        self.depth -= 1
        if exponent.__class__ is Const:
            value = exponent.value
        else:
            try:
                value = constant_value(exponent)
            except OverflowError:  # the fold left the float range
                self.fail(first, "an exponent within the float range", "one that overflows")
            if value is None:
                self.fail(first, "a constant exponent", "a non-constant expression")
        if not (value.is_exact and value.value.denominator == 1):
            return PowReal(node, value), self.up(caret, height), most
        k = int(value.value)
        folded = None
        if node is not X:
            try:
                folded = constant_value(node)
            except OverflowError:  # a float power beyond the float range, not an exact one
                pass
        q = folded.value if folded is not None and folded.is_exact else 1
        nested = abs(k) * most
        bits = abs(k) * max(abs(q.numerator).bit_length(), q.denominator.bit_length())
        if nested > MAX_EXPONENT or bits > MAX_CONSTANT_BITS:
            self.fail(first, "exponents whose product over nested powers is at most "
                      f"{MAX_EXPONENT} in magnitude and a power of at most "
                      f"{MAX_CONSTANT_BITS} bits", "a larger one")
        return PowInt(node, k), self.up(caret, height), max(1, nested)


def parse(source: str) -> Expr:
    """Parse ``source`` into an expression tree, or raise :class:`ParseError`.

    The parser builds raw nodes (no simplification) except for the two
    lexical-level foldings the grammar requires: rational literals, and
    power exponents folded to a constant so they can be classified as
    integer or real.
    """
    parser = _Parser(_TOKEN.findall(source))
    try:
        node = parser.binary(0)[0]
        if parser.texts[parser.pos]:
            parser.fail(parser.pos, "end of input")
    except ParseError as err:
        # The first lexical error of the whole text comes first, a literal out
        # of range read by the parser included; else the error is the parser's.
        offsets = _offsets(source)
        raise ParseError(offsets[err.offset], err.expected, err.found) from None
    return node
