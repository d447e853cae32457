import gc
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetcheck.exprs import (
    Add,
    Apply,
    Const,
    Div,
    Mul,
    Neg,
    PowInt,
    PowReal,
    Sub,
    Var,
    contains_float,
    to_text,
)
from jetcheck.numeric import Scalar
from jetcheck.parsing import MAX_NESTING, ParseError, parse, parse_number


def C(p, q=1):
    return Const(Scalar(Fraction(p, q)))


def test_documented_grammar_trees():
    assert parse("x^2 - 3/4*x") == Sub(PowInt(Var(), 2), Mul(C(3, 4), Var()))
    assert parse("exp(2*x)") == Apply("exp", Mul(C(2), Var()))


def test_double_caret_position():
    with pytest.raises(ParseError) as err:
        parse("x^^2")
    assert err.value.offset == 2


def test_precedence_and_associativity():
    assert parse("1+2*x") == Add(C(1), Mul(C(2), Var()))
    assert parse("-x^2") == Neg(PowInt(Var(), 2))
    assert parse("(-x)^2") == PowInt(Neg(Var()), 2)
    assert parse("1-2-3") == Sub(Sub(C(1), C(2)), C(3))
    assert parse("x*2/x") == Div(Mul(Var(), C(2)), Var())
    # the exponent is parsed as a unary expression and folded, so power
    # towers collapse right-associatively
    assert parse("x^2^3") == PowInt(Var(), 8)


def test_rational_literals_are_lexical():
    assert parse("3/4") == C(3, 4)
    assert parse("3 / 4") == Div(C(3), C(4))
    assert parse("x/4") == Div(Var(), C(4))
    assert parse("6/2/3") == Div(C(3), C(3))
    with pytest.raises(ParseError):
        parse("3/0")


def test_decimals_force_float():
    e = parse("0.5*x")
    assert e == Mul(Const(Scalar.inexact(0.5)), Var())
    assert contains_float(e)
    assert not contains_float(parse("1/2*x"))


def test_exponent_classification():
    assert parse("x^2") == PowInt(Var(), 2)
    assert parse("x^-2") == PowInt(Var(), -2)
    assert parse("x^(1+1)") == PowInt(Var(), 2)
    assert parse("x^(3/2)") == PowReal(Var(), Scalar(Fraction(3, 2)))
    assert parse("x^0.5") == PowReal(Var(), Scalar.inexact(0.5))
    with pytest.raises(ParseError) as err:
        parse("2^x")
    assert err.value.offset == 2


def test_unknown_identifiers():
    for text, offset in (("y", 0), ("xx", 0), ("2*foo", 2)):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.offset == offset


def test_function_call_syntax():
    assert parse("sqrt(x)") == Apply("sqrt", Var())
    with pytest.raises(ParseError):
        parse("sin x")
    with pytest.raises(ParseError):
        parse("sin(x")


def test_end_of_input_errors():
    for text in ("", "2*", "(1+x"):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.offset <= len(text)


def test_trailing_garbage():
    with pytest.raises(ParseError) as err:
        parse("x 1")
    assert err.value.offset == 2


def test_unknown_character():
    with pytest.raises(ParseError) as err:
        parse("x + $")
    assert err.value.offset == 4


def test_superscript_digit_is_a_parse_error():
    # '²'.isdigit() is true, but int('²') fails; the lexer reads decimal digits only
    with pytest.raises(ParseError) as err:
        parse("x^²")
    assert err.value.offset == 2


def test_non_ascii_decimal_digits_still_parse():
    assert parse("٣*x") == Mul(C(3), Var())


# Round-trip: printing a canonical tree and reparsing gives the same tree.
# Canonical means constants are non-negative (negation is an explicit node)
# and float constants have plain decimal reprs.

_nonneg_fractions = st.fractions(min_value=0, max_value=100, max_denominator=20)
_nice_floats = st.sampled_from((0.5, 0.25, 1.75, 3.125, 2.0, 0.1))


def _leaves():
    return st.one_of(
        st.just(Var()),
        _nonneg_fractions.map(lambda q: Const(Scalar(q))),
        _nice_floats.map(lambda v: Const(Scalar.inexact(v))),
    )


def _extend(children):
    return st.one_of(
        children.map(Neg),
        st.tuples(children, children).map(lambda ab: Add(*ab)),
        st.tuples(children, children).map(lambda ab: Sub(*ab)),
        st.tuples(children, children).map(lambda ab: Mul(*ab)),
        st.tuples(children, children).map(lambda ab: Div(*ab)),
        st.tuples(children, st.integers(min_value=-3, max_value=4)).map(
            lambda em: PowInt(em[0], em[1])
        ),
        st.tuples(children, st.sampled_from((Fraction(3, 2), Fraction(-1, 2), Fraction(5, 3)))).map(
            lambda ea: PowReal(ea[0], Scalar(ea[1]))
        ),
        st.tuples(st.sampled_from(("exp", "log", "sin", "cos", "sqrt")), children).map(
            lambda fe: Apply(*fe)
        ),
    )


canonical_exprs = st.recursive(_leaves(), _extend, max_leaves=12)


@settings(deadline=None, max_examples=200)
@given(canonical_exprs)
def test_roundtrip_parse_print(e):
    assert parse(to_text(e)) == e


@pytest.mark.parametrize("text, value", [
    ("7", 7), (" +7 ", 7), ("-0", 0), ("\t-3/4\n", Fraction(-3, 4)), ("+6/4", Fraction(3, 2)),
    ("2.50", 2.5), ("-1.5", -1.5), ("٣", 3),
])
def test_parse_number_reads_one_signed_literal(text, value):
    got = parse_number(text)
    assert got == value and type(got) is type(value)


def test_parse_number_keeps_the_sign_of_negative_zero():
    assert str(parse_number(" -0.0 ")) == "-0.0"


@pytest.mark.parametrize("text", [
    "", "-", "- 7", "--7", "+-7", "7 7", "3 /4", "3/ 4", "3/-4", "1/2/3", "1/2.5", "1.", ".5",
    "1e5", "1_000", "x", "²", "7,8", "(7)",
])
def test_parse_number_is_none_for_anything_else(text):
    assert parse_number(text) is None


LONG_DECIMAL = "1" * 400 + ".0"
LONG_INTEGER = "1" * 5000


@pytest.mark.parametrize("literal, offset, found", [
    (LONG_DECIMAL, 0, "402 characters"),
    (LONG_INTEGER, 0, "5000 digits"),
    ("1/" + LONG_INTEGER, 2, "5000 digits"),
])
def test_literals_out_of_range_are_parse_errors(literal, offset, found):
    with pytest.raises(ParseError) as err:
        parse("x-" + literal)
    assert err.value.offset == 2 + offset and found in err.value.found
    with pytest.raises(ParseError) as err:
        parse_number(" " + literal)
    assert err.value.offset == 1 + offset and found in err.value.found


@pytest.mark.parametrize("text", [
    "((x+1)^1000)^1000", "(((x+1)^100)^100)^100", "(((x+1)^10000)^10000)^10000",
    "(x^-101)^100", "exp((x^200)^2)^30", "((x^100)^1+x)^101",
])
def test_nested_integer_powers_are_bounded_by_their_product(text):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "at most 10000" in err.value.expected


@pytest.mark.parametrize("text", ["(x^100)^100", "(x^-100)^-100", "((x^10)^10)^100",
                                  "((x+1)^10000)^0", "(x^5000)^2.5", "x^10000*x^10000"])
def test_nested_integer_powers_within_the_bound_parse(text):
    parse(text)


@pytest.mark.parametrize("text, offset", [
    ("(" * 3000 + "x" + ")" * 3000, MAX_NESTING),
    ("-" * 5000 + "x", MAX_NESTING),
    ("sin(" * 3000 + "x" + ")" * 3000, 4 * MAX_NESTING),
    ("1^" * 3000 + "1", 2 * MAX_NESTING + 1),
    ("-(" * 3000 + "x" + ")" * 3000, MAX_NESTING),
], ids=["groups", "signs", "arguments", "exponents", "signed groups"])
def test_nesting_beyond_the_bound_is_a_parse_error(text, offset):
    # the error names the token that opens level MAX_NESTING + 1; the earlier
    # tests' garbage is collected first, so that its collection is not timed
    gc.collect()
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse(text)
    assert time.perf_counter() - start < 0.1
    assert err.value.offset == offset and f"at most {MAX_NESTING} levels" in err.value.expected


def test_a_left_deep_sum_is_not_nesting():
    terms = ["x"] * (2 * MAX_NESTING)
    assert to_text(parse("+".join(terms))) == " + ".join(terms)
