import gc
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    pick_exact_point,
    pick_float_point,
    rand_rational_closed,
    rand_transcendental,
    reference_eval_jet,
    rel_close,
)
from jetcheck import exprs
from jetcheck.exprs import (
    Add,
    Apply,
    Const,
    Div,
    Expr,
    Mul,
    Neg,
    PowInt,
    PowReal,
    Sub,
    Var,
    constant_value,
    contains_float,
    eval_jet,
    eval_scalar,
    to_text,
)
from jetcheck.numeric import DomainError, ModeError, Scalar
from jetcheck.parsing import parse
import oracles
from oracles import diff, nth_derivative


def C(p, q=1):
    return Const(Scalar(Fraction(p, q)))


def test_diff_basic_rules():
    assert diff(parse("x^3")) == Mul(C(3), PowInt(Var(), 2))
    assert diff(parse("exp(2*x)")) == Mul(C(2), Apply("exp", Mul(C(2), Var())))
    assert diff(parse("sin(x)")) == Apply("cos", Var())


def test_diff_quotient_and_sqrt():
    e = parse("1/x")
    assert eval_scalar(diff(e), Scalar.exact(2)) == Scalar.exact(-1, 4)
    e = parse("sqrt(x)")
    got = eval_scalar(diff(e), Scalar.inexact(4.0))
    assert float(got) == pytest.approx(0.25, rel=1e-15)


def test_eval_scalar_examples():
    assert eval_scalar(parse("x^5"), Scalar.exact(3)) == 243
    with pytest.raises(DomainError):
        eval_scalar(parse("1/x"), Scalar.exact(0))
    assert eval_scalar(parse("3/4*x"), Scalar.exact(2)) == Scalar.exact(3, 2)


def test_eval_scalar_modes():
    assert eval_scalar(parse("1/2*x"), Scalar.exact(1)).is_exact
    assert not eval_scalar(parse("0.5*x"), Scalar.exact(1)).is_exact
    assert not eval_scalar(parse("1/2*x"), Scalar.inexact(1.0)).is_exact
    with pytest.raises(ModeError):
        eval_scalar(parse("exp(x)"), Scalar.exact(1))
    with pytest.raises(ModeError):
        eval_scalar(parse("x^(3/2)"), Scalar.exact(2))
    # one mode rule for both evaluators: exact for an exact point and a tree
    # without a decimal, even one that diff or Python's arithmetic would drop
    for text in ("1/2*x", "0.5*x", "x^2 - 3/4", "x^2 - 0.75", "(0.5*x)^0 + x", "x^(1.0*2)"):
        for x0 in (Scalar.exact(1, 3), Scalar.inexact(1 / 3)):
            e, exact = parse(text), x0.is_exact and "." not in text
            assert eval_jet(e, x0, 2).is_exact == eval_scalar(e, x0).is_exact == exact, (text, x0)


def test_eval_jet_examples():
    j = eval_jet(parse("x^5"), Scalar.exact(1), 2)
    assert [c.value for c in j.coeffs] == [1, 5, 10]
    j = eval_jet(parse("x^2"), Scalar.exact(3), 2)
    assert [c.value for c in j.coeffs] == [9, 6, 1]
    j = eval_jet(parse("exp(x)"), Scalar.inexact(0.0), 3)
    assert [float(c) for c in j.coeffs] == [1.0, 1.0, 0.5, pytest.approx(1 / 6, rel=1e-15)]


def test_eval_jet_negative_power():
    j = eval_jet(parse("x^-1"), Scalar.exact(2), 2)
    assert [c.value for c in j.coeffs] == [Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8)]


def test_nth_derivative_examples():
    assert nth_derivative(parse("x^5"), 2, Scalar.exact(3)) == 540
    assert nth_derivative(parse("x^2"), 3, Scalar.exact(11, 7)) == 0
    e = parse("x^3 - x")
    x0 = Scalar.exact(5, 3)
    assert nth_derivative(e, 0, x0) == eval_scalar(e, x0)


def test_nth_derivative_takes_its_mode_from_the_given_tree():
    # diff folds (0.5*x)^0 to an exact 0, so the derivative alone has no
    # decimal left; the decimal in the given tree still makes it float
    e = parse("(0.5*x)^0 + x")
    assert nth_derivative(e, 1, Scalar.exact(1)) == Scalar.inexact(1.0)
    assert eval_jet(e, Scalar.exact(1), 1).derivative(1) == Scalar.inexact(1.0)


def test_nth_derivative_walks_only_the_given_tree_for_its_mode(monkeypatch):
    # counts the contains_float calls made while choosing the mode, which
    # reads the root's flag and so makes none; the bound is the old walk's
    def nodes(e):
        children = (getattr(e, name) for name in e._fields)
        return 1 + sum(nodes(v) for v in children if isinstance(v, Expr))

    calls = []

    def counting(e):
        calls.append(e)
        return contains_float(e)

    def mode_for(*args):
        with monkeypatch.context() as patch:
            patch.setattr(exprs, "contains_float", counting)
            return choose_mode(*args)

    choose_mode = exprs._mode_for
    monkeypatch.setattr(oracles, "_mode_for", mode_for)
    e = parse("x^3/(1+x^2)")
    assert nth_derivative(e, 8, Scalar.exact(1, 2)) == Scalar.exact(4950392832, 390625)
    assert len(calls) <= nodes(e) == 7


def test_predicates():
    assert contains_float(parse("x^2 + 0.25"))
    assert not contains_float(parse("x^2 + 1/4"))


# x-free trees of exact and decimal literals in tenths, whose sums round
# differently in float and in exact; a decimal anywhere makes the whole tree
# float, however deep below an exact subtree it sits
LITERALS = st.integers(-30, 30).flatmap(lambda k: st.sampled_from(
    [Const(Scalar.exact(k, 10)), Const(Scalar.inexact(k / 10))]))
CONSTANT_TREES = st.recursive(LITERALS, lambda sub: st.one_of(
    st.builds(Neg, sub),
    st.builds(PowInt, sub, st.integers(-3, 3)),
    *(st.builds(node, sub, sub) for node in (Add, Sub, Mul, Div)),
), max_leaves=8)


@settings(deadline=None, max_examples=300)
@given(CONSTANT_TREES)
def test_constant_folding_agrees_with_evaluation(e):
    try:
        value = eval_scalar(e, Scalar.exact(0))
    except DomainError:
        assert constant_value(e) is None
        return
    except OverflowError:
        return
    assert constant_value(e) == value, to_text(e)


def test_a_mixed_exponent_folds_as_it_evaluates():
    value = Scalar.inexact(0.9000000000000001)
    assert eval_scalar(parse("(1/10+2/10)*3.0"), Scalar.exact(0)) == value
    assert parse("x^((1/10+2/10)*3.0)").exponent == value


def test_to_text_spot():
    assert to_text(parse("x^2 - 3/4*x")) == "x^2 - 3/4*x"
    assert to_text(parse("exp(2*x)")) == "exp(2*x)"
    # a power of -0.0 prints its base in parentheses: -0.0^2 would read as
    # the negation of 0.0^2, which is -0.0 where the power is 0.0
    x0 = Scalar.inexact(1.0)
    for e in (PowInt(Const(Scalar.inexact(-0.0)), 2),
              PowReal(Const(Scalar.inexact(-0.0)), Scalar.inexact(2.0))):
        assert to_text(e).startswith("(-0.0)^")
        value, reread = eval_scalar(e, x0), eval_scalar(parse(to_text(e)), x0)
        assert float(reread).hex() == float(value).hex() == "0x0.0p+0", to_text(e)


@settings(deadline=None)
@given(
    st.fractions(max_denominator=10),
    st.fractions(max_denominator=10),
    st.fractions(max_denominator=10),
)
def test_diff_is_linear(a, b, x):
    e1 = parse("x^3 - x")
    e2 = parse("(x^2+1)*x")
    combined = Mul(C(a.numerator, a.denominator), e1), Mul(C(b.numerator, b.denominator), e2)
    lhs = eval_scalar(diff(Add(*combined)), Scalar(x))
    rhs = (
        Scalar(a) * eval_scalar(diff(e1), Scalar(x))
        + Scalar(b) * eval_scalar(diff(e2), Scalar(x))
    )
    assert lhs == rhs


def test_oracle_jet_equivalence_exact():
    rng = random.Random("exprs-exact")
    checked = 0
    while checked < 40:
        e = rand_rational_closed(rng, 4)
        x0 = pick_exact_point(rng, e, 6)
        if x0 is None:
            continue
        jet = eval_jet(e, x0, 6)
        for k in range(7):
            assert jet.derivative(k) == nth_derivative(e, k, x0), (to_text(e), k)
        checked += 1


def test_oracle_jet_equivalence_float():
    rng = random.Random("exprs-float")
    checked = 0
    while checked < 40:
        e = rand_transcendental(rng, 3)
        x0 = pick_float_point(rng, e, 6)
        if x0 is None:
            continue
        jet = eval_jet(e, x0, 6)
        for k in range(7):
            a = float(jet.derivative(k))
            b = float(nth_derivative(e, k, x0))
            assert rel_close(a, b, 1e-9), (to_text(e), k, a, b)
        checked += 1


# Real-power exponents of every kind the evaluators tell apart: exact p/q,
# exact integer (only a hand-built node holds one: pow_real folds it to a
# PowInt), float, and float integer.
REAL_EXPONENTS = (Scalar.exact(1, 2), Scalar.exact(-2, 3), Scalar.exact(5, 2), Scalar.exact(2),
                  Scalar.inexact(0.5), Scalar.inexact(-1.5), Scalar.inexact(2.0),
                  Scalar.inexact(3.0))


def _rand_quotient_power(rng: random.Random, depth: int) -> Expr:
    """Random float-mode tree built around quotients and real powers."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.6:
            return Var()
        return Const(Scalar.inexact(rng.randint(1, 4) / rng.randint(1, 3)))
    op = rng.choice(("div", "div", "pow", "pow", "add", "mul", "exp"))
    a = _rand_quotient_power(rng, depth - 1)
    if op == "pow":
        return PowReal(a, rng.choice(REAL_EXPONENTS))
    if op == "exp":
        return Apply("exp", a)
    return {"div": Div, "add": Add, "mul": Mul}[op](a, _rand_quotient_power(rng, depth - 1))


def _nodes(e: Expr):
    yield e
    for child in e._fields:
        if isinstance(getattr(e, child), Expr):
            yield from _nodes(getattr(e, child))


def _assert_jet_matches_the_oracle(e: Expr, x0: Scalar, kmax: int) -> None:
    jet = eval_jet(e, x0, kmax)
    for k in range(kmax + 1):
        a, b = float(jet.derivative(k)), float(nth_derivative(e, k, x0))
        assert rel_close(a, b, 1e-9), (to_text(e), x0, k, a, b)


@pytest.mark.parametrize("e", [
    parse("x^2.0"),
    PowReal(Var(), Scalar.exact(2)),
    Div(PowReal(Var(), Scalar.exact(2)), Add(Var(), Const(Scalar.exact(3)))),
    Div(Const(Scalar.exact(1)), PowReal(Sub(Var(), Const(Scalar.exact(1))), Scalar.inexact(3.0))),
])
def test_integer_real_powers_match_the_oracle_at_a_negative_point(e):
    # a negative base takes only an integer exponent, float or exact
    _assert_jet_matches_the_oracle(e, Scalar.inexact(-1.5), 5)


def test_oracle_jet_equivalence_on_quotients_and_real_powers():
    rng = random.Random("exprs-quotient-power")
    seen, checked = set(), 0
    while checked < 120:
        e = _rand_quotient_power(rng, 3)
        nodes = list(_nodes(e))
        powers = [node.exponent for node in nodes if isinstance(node, PowReal)]
        if not powers or not any(isinstance(node, Div) for node in nodes):
            continue
        x0 = pick_float_point(rng, e, 5)
        if x0 is None:
            continue
        _assert_jet_matches_the_oracle(e, x0, 5)
        seen.update(powers)
        checked += 1
    assert seen == set(REAL_EXPONENTS)


# Trees whose constant-only subtrees cover the forms that stay numbers in exact
# mode: a negated constant, a constant power (0^-k too), a constant quotient
# (/0 too), a jet over a constant, a constant over a jet and a constant minus
# a jet, with a real power or a function of a constant among them.
SMALL_CONSTANTS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)).map(
    lambda q: Const(Scalar(q)))
CONSTANT_SUBTREES = st.recursive(SMALL_CONSTANTS, lambda sub: st.one_of(
    st.builds(Neg, sub),
    st.builds(PowInt, sub, st.integers(-3, 3)),
    *(st.builds(node, sub, sub) for node in (Add, Sub, Mul, Div)),
), max_leaves=4)
MIXED_TREES = st.recursive(st.one_of(st.just(Var()), CONSTANT_SUBTREES), lambda sub: st.one_of(
    st.builds(Neg, sub),
    st.builds(PowInt, sub, st.integers(-3, 3)),
    *(st.builds(node, sub, sub) for node in (Add, Sub, Mul, Div)),
    st.builds(PowReal, sub, st.just(Scalar.exact(1, 2))),
    st.builds(Apply, st.sampled_from(("exp", "sin")), sub),
), max_leaves=8)


def _outcome(call):
    """A jet's mode and stored values (floats by their hex), or the type and text of the error."""
    try:
        jet = call()
    except (DomainError, ModeError, ZeroDivisionError, OverflowError) as err:
        return type(err), str(err)
    values, den = jet.cleared()
    return jet.mode, [v.hex() if isinstance(v, float) else v for v in values], den


@settings(deadline=None, max_examples=400)
@given(MIXED_TREES, st.fractions(-2, 2, max_denominator=3), st.integers(0, 4), st.booleans())
def test_eval_jet_agrees_with_the_constant_jet_evaluator(e, x, order, in_float):
    x0 = Scalar(float(x)) if in_float else Scalar(x)
    got = _outcome(lambda: eval_jet(e, x0, order))
    assert got == _outcome(lambda: reference_eval_jet(e, x0, order)), to_text(e)


def test_exact_constants_meet_jets_through_their_operators():
    x0 = Scalar.exact(3, 2)
    for text in ("-(1/2)^3", "(2/3)/(4/5)*x", "x/(4/5)", "(2/3)/x", "2-x", "2/3-x*x", "x-2", "2+x",
                 "-3/2*x^2+(2/3)/(4/5)*x-(1/2)^3", "(1-1)^0*x", "(-2)^(-3)+x"):
        e = parse(text)
        assert eval_jet(e, x0, 4) == reference_eval_jet(e, x0, 4), text
    for text, node in (("x/(1-1)", "x/(1 - 1)"), ("(1-1)^(-1)*x", "(1 - 1)^-1"),
                       ("x*(0)^(-2)", "0^-2"), ("(2-2)/(1-1)", "(2 - 2)/(1 - 1)")):
        with pytest.raises(DomainError, match=re.escape(f"vanishes at the expansion point in '{node}'") + "$"):
            eval_jet(parse(text), x0, 2)
    with pytest.raises(ModeError, match="^exp of an exact jet"):
        eval_jet(parse("exp(1/2)*x"), x0, 2)


def test_domain_errors_name_the_node():
    with pytest.raises(DomainError, match="log"):
        eval_scalar(parse("log(x-2)"), Scalar.inexact(1.0))
    with pytest.raises(DomainError, match="sqrt"):
        eval_jet(parse("sqrt(x)"), Scalar.inexact(-1.0), 2)
    for e, x0, message in (
        (parse("x^0.5"), -1.0, "non-positive base for real power in 'x^0.5'"),
        (PowReal(Var(), Scalar.inexact(-2.0)), 0.0, "zero base with negative exponent in 'x^-2.0'"),
        (parse("exp(x)"), 1000.0, "exp overflow in 'exp(x)'"),
    ):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            eval_scalar(e, Scalar.inexact(x0))
    with pytest.raises(DomainError, match="^derivative order must be non-negative, got -1$"):
        nth_derivative(Var(), -1, Scalar.exact(1))


class Odd(Expr):
    """A node class that no evaluator knows."""

    __slots__ = ()

    def __init__(self):
        object.__setattr__(self, "has_float", False)


def test_what_is_not_a_node_is_a_type_error():
    for call in (lambda: diff(5), lambda: to_text(5), lambda: eval_jet(5, Scalar.exact(1), 2)):
        with pytest.raises(TypeError, match="^not an expression node: 5$"):
            call()
    # a subclass that records its flag gets past the mode, to the walks' own checks
    for x0 in (Scalar.exact(1), Scalar.inexact(1.0)):
        for call in (lambda: eval_jet(Odd(), x0, 2), lambda: eval_scalar(Odd(), x0)):
            with pytest.raises(TypeError, match=r"^not an expression node: Odd\(\)$"):
                call()


def test_eval_jet_leaves_no_reference_cycles():
    e = parse("exp(x)/(1 + x^2) - sqrt(x)")
    gc.collect()
    gc.disable()
    try:
        eval_jet(e, Scalar.inexact(0.5), 4)
        assert gc.collect() == 0
    finally:
        gc.enable()
