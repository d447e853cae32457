"""``jetcheck.parsing.parse`` against the parser it replaced, kept in
``tests/reference_parser.py``: the same tree, or the same ParseError (offset,
expected, found), on seeded random strings and on every bound case of
``tests/test_parsing.py`` and ``tests/test_tree_height.py``.  The one allowed
difference is a constant exponent whose fold overflows, where the reference
lets the OverflowError out and the library raises a ParseError."""

import random

import pytest

import reference_parser
from jetcheck.parsing import MAX_HEIGHT, MAX_NESTING, ParseError, parse
from test_tree_height import CASES, chain

# Numbers, a power beyond the float range, names, functions, operators,
# parentheses and two digits that are not ASCII: '٣' is a decimal digit, '²'
# is a digit the lexer does not read.
ATOMS = ["0", "1", "2", "3", "12", "007", "999", "2000", "3/4", "1/0", "10/5", "0/3",
         "0.5", "2.0", "10.0", "1.25", "9.5", "x", "x", "x", "y", "xx", "foo", "_a", "x2",
         "(10.0^400)", "٣", "²"]
FUNCTIONS = ["exp", "log", "sin", "cos", "sqrt"]
OPERATORS = ["+", "-", "*", "/", "^"]
BLANKS = ["", "", "", " ", "  ", "\t"]


def _expression(rng: random.Random, depth: int) -> list[str]:
    """The tokens of a random expression of the grammar, at most ``depth`` deep."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return [rng.choice(ATOMS)]
    if roll < 0.45:
        return ["-"] + _expression(rng, depth - 1)
    if roll < 0.6:  # a function call, at times without its '('
        call = [rng.choice(FUNCTIONS)] + (["("] if rng.random() < 0.9 else [])
        return call + _expression(rng, depth - 1) + [")"]
    if roll < 0.7:
        return ["("] + _expression(rng, depth - 1) + [")"]
    return _expression(rng, depth - 1) + [rng.choice(OPERATORS)] + _expression(rng, depth - 1)


def random_text(rng: random.Random) -> str:
    """Token soup, or an expression of the grammar with one token dropped,
    added or replaced at times, joined by random blanks (none, mostly, so
    that neighbouring tokens also merge)."""
    if rng.random() < 0.3:
        tokens = [rng.choice(ATOMS + FUNCTIONS + OPERATORS + ["(", ")"])
                  for _ in range(rng.randint(0, 10))]
    else:
        tokens = _expression(rng, rng.randint(1, 5))
        if rng.random() < 0.4:
            at = rng.randrange(len(tokens) + 1)
            edit = rng.choice(("drop", "add", "replace"))
            token = rng.choice(ATOMS + FUNCTIONS + OPERATORS + ["(", ")"])
            if edit == "add":
                tokens.insert(at, token)
            elif at < len(tokens):
                tokens[at:at + 1] = [] if edit == "drop" else [token]
    return rng.choice(BLANKS) + "".join(t + rng.choice(BLANKS) for t in tokens)


def outcome(parser, text: str):
    try:
        return "tree", repr(parser(text))
    except ParseError as err:
        return "error", (err.offset, err.expected, err.found)
    except OverflowError:
        return "overflow", None


def assert_same(text: str) -> str:
    """Assert that both parsers give the same outcome; returns the reference's kind."""
    expected, got = outcome(reference_parser.parse, text), outcome(parse, text)
    if expected[0] == "overflow":
        assert got[0] == "error" and got[1][1:] == (
            "an exponent within the float range", "one that overflows"), (text, got)
    else:
        assert got == expected, text
    return expected[0]


def test_random_strings_parse_as_the_reference():
    rng = random.Random(20161)
    kinds = {assert_same(random_text(rng)) for _ in range(20_000)}
    # the strings reach trees, errors and overflowing exponents alike
    assert kinds == {"tree", "error", "overflow"}


LONG_DECIMAL = "1" * 400 + ".0"
LONG_INTEGER = "1" * 5000

BOUND_CASES = [
    # tests/test_parsing.py
    "(" * 3000 + "x" + ")" * 3000, "-" * 5000 + "x", "sin(" * 3000 + "x" + ")" * 3000,
    "1^" * 3000 + "1", "-(" * 3000 + "x" + ")" * 3000,
    "(" + "+".join(["x"] * 3000) + ")^2", "x^(" + "+".join(["1"] * 3000) + ")",
    "+".join(["x"] * (2 * MAX_NESTING)),
    "((x+1)^1000)^1000", "(((x+1)^100)^100)^100", "(((x+1)^10000)^10000)^10000",
    "(x^-101)^100", "exp((x^200)^2)^30", "((x^100)^1+x)^101",
    "(x^100)^100", "(x^-100)^-100", "((x^10)^10)^100", "((x+1)^10000)^0", "(x^5000)^2.5",
    "x^10000*x^10000", "(10.0^400)^2", "x-" + LONG_DECIMAL, "x-" + LONG_INTEGER,
    "x-1/" + LONG_INTEGER, "x^(2^2^2^2^2)", "2^2^2^2^2^2^2", "((2^999)^999)^999",
    # one level short of each nesting bound, then at it
    "(" * (MAX_NESTING - 1) + "x" + ")" * (MAX_NESTING - 1),
    "(" * MAX_NESTING + "x" + ")" * MAX_NESTING,
    "-" * MAX_NESTING + "x", "-" * (MAX_NESTING + 1) + "x",
    "sin(" * MAX_NESTING + "x" + ")" * MAX_NESTING,
    # a lexical error after a grammar error, an overflow and a nesting error
    "x x $", "x^(2.0^2000) $", "(" * 3000 + "²",
    # tests/test_tree_height.py
    *[text for case in CASES.values() for text in case[:3:2]],
    chain("+", 3000),
    "(" * (MAX_NESTING - 2) + "x^(" + chain("+", term="1") + ")" + ")" * (MAX_NESTING - 2),
    "x^(" + chain("+", MAX_HEIGHT + 1, term="1") + ")",
]


@pytest.mark.parametrize("text", BOUND_CASES, ids=range(len(BOUND_CASES)))
def test_bound_cases_parse_as_the_reference(text):
    assert_same(text)
