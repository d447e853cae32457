"""The library's error contract: every verifier, called directly with any
well-typed input, returns a report or raises one of the documented errors
(ValueError, which covers DomainError and ParseError; ModeError; and
OverflowError).  A ZeroDivisionError, TypeError or any other exception is a
fault.  An n or r that is not an int, a tolerance that is not a real number
and a point or scalar input that is not a Scalar are each a TypeError that
names the input, and a tolerance that is not a finite number > 0 a
ValueError, each raised before any work."""

import math
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetcheck.exprs import (
    Add, Apply, Const, Div, Mul, Neg, PowInt, PowReal, Sub, Var, eval_jet, eval_scalar,
)
from jetcheck.identities import (
    TheoremInstance,
    VerificationReport,
    baran_verify,
    corollary2_verify,
    exp_family_check,
    leibniz_product_verify,
    power_family_check,
    symmetric_pair_verify,
    theorem1_verify,
    zero_power_lemma_check,
)
from jetcheck.numeric import ModeError, Scalar
from jetcheck.parsing import parse

CONTRACT_ERRORS = (ValueError, ModeError, OverflowError)

# one float leaf makes a whole tree float, so two kinds of exact value to one of float
_scalars = st.one_of(
    st.integers(min_value=-3, max_value=3).map(Scalar.exact),
    st.fractions(min_value=-5, max_value=5, max_denominator=4).map(Scalar),
    st.sampled_from((0.0, -0.0, 0.5, -1.5, 2.0, 1e308, -1e308, 3.25)).map(Scalar.inexact),
)


def _extend(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        children.map(Neg),
        pairs.map(lambda ab: Add(*ab)),
        pairs.map(lambda ab: Sub(*ab)),
        pairs.map(lambda ab: Mul(*ab)),
        pairs.map(lambda ab: Div(*ab)),
        st.builds(PowInt, children, st.integers(min_value=-3, max_value=4)),
        st.builds(PowReal, children, _scalars),
        st.builds(Apply, st.sampled_from(("exp", "log", "sin", "cos", "sqrt")), children),
    )


_exprs = st.recursive(st.one_of(st.just(Var()), _scalars.map(Const)), _extend, max_leaves=6)


@st.composite
def _calls(draw):
    """One verifier call: its name and a thunk that makes it."""
    n = draw(st.integers(min_value=0, max_value=5))
    r = draw(st.integers(min_value=1, max_value=3))
    weight = draw(st.one_of(st.just(n), st.integers(min_value=0, max_value=n)))
    cuts = sorted(draw(st.lists(st.integers(0, weight), min_size=r - 1, max_size=r - 1)))
    s = tuple(b - a for a, b in zip([0, *cuts], [*cuts, weight]))  # a random split of |s|
    exprs = st.lists(_exprs, min_size=r, max_size=r).map(tuple)
    scalars = st.lists(_scalars, min_size=r, max_size=r).map(tuple)
    x0, f, g, h, c = draw(_scalars), draw(exprs), draw(exprs), draw(_exprs), draw(scalars)
    if draw(st.booleans()):  # the hypotheses sum(g) = 0 and sum(c) = 0, unless modes mix
        g = g[:-1] + (Neg(reduce(Add, g[:-1])),) if r > 1 else g
        try:
            c = c[:-1] + (-sum(c[:-1], c[-1] * 0),)
        except ModeError:
            pass
    name = draw(st.sampled_from((
        "theorem1", "corollary2", "symmetric_pair", "baran", "leibniz_product",
        "power_family", "exp_family", "zero_power_lemma",
    )))
    if name == "theorem1":
        return name, lambda: theorem1_verify(TheoremInstance(n, r, f, g, s, x0))
    if name == "corollary2":
        return name, lambda: corollary2_verify(n, f, h, c, s, x0)
    if name == "symmetric_pair":
        p = draw(st.integers(min_value=0, max_value=n))
        return name, lambda: symmetric_pair_verify(n, p, f[0], g[0], h, x0)
    if name == "baran":
        return name, lambda: baran_verify(n, f[0], h, x0)
    if name == "leibniz_product":
        return name, lambda: leibniz_product_verify(n, f[0], h, x0)
    if name in ("power_family", "exp_family"):
        alpha, beta = draw(scalars), draw(_scalars)
        if name == "power_family":
            return name, lambda: power_family_check(n, alpha, beta, c, s)
        form = draw(st.sampled_from(("corrected", "as_printed")))
        return name, lambda: exp_family_check(n, alpha, beta, c, s, form)
    return name, lambda: zero_power_lemma_check(h, n, x0)


@settings(deadline=None, max_examples=250, derandomize=True)
@given(_calls())
def test_verifiers_return_a_report_or_raise_a_contract_error(call):
    name, verify = call
    try:
        report = verify()
    except CONTRACT_ERRORS:
        return
    assert isinstance(report, VerificationReport) and report.identity == name


# One valid call of each verifier, given its size n and its keywords; x0 is a
# float, so a tolerance enters each verdict.
_X, _X2, _HALF = Var(), PowInt(Var(), 2), Scalar.inexact(0.5)
_C = (Scalar.exact(1), Scalar.exact(-1))
_ONE_OF_EACH = {
    "theorem1": lambda n, **kw: theorem1_verify(
        TheoremInstance(n, 2, (_X, _X), (_X, Neg(_X)), (1, 1), _HALF), **kw),
    "corollary2": lambda n, **kw: corollary2_verify(n, (_X, _X2), _X, _C, (1, 1), _HALF, **kw),
    "symmetric_pair": lambda n, **kw: symmetric_pair_verify(n, 1, _X, _X2, _X, _HALF, **kw),
    "baran": lambda n, **kw: baran_verify(n, _X, _X2, _HALF, **kw),
    "leibniz_product": lambda n, **kw: leibniz_product_verify(n, _X, _X2, _HALF, **kw),
    "power_family": lambda n, **kw: power_family_check(n, (_HALF,) * 2, _HALF, _C, (1, 1), **kw),
    "exp_family": lambda n, **kw: exp_family_check(n, (_HALF,) * 2, _HALF, _C, (1, 1), **kw),
    "zero_power_lemma": lambda n, **kw: zero_power_lemma_check(
        Sub(_X, Const(_HALF)), n, _HALF, **kw),
}


@pytest.mark.parametrize("name", _ONE_OF_EACH)
def test_a_tolerance_that_is_not_finite_and_positive_is_refused(name):
    # the CLI's --tol rule; a nan or negative tol turned a true identity into a fail
    assert _ONE_OF_EACH[name](2).verdict == "pass"
    for tol in (math.nan, -1.0, 0.0, math.inf, -math.inf, 10 ** 400):
        with pytest.raises(ValueError) as error:
            _ONE_OF_EACH[name](2, tol=tol)
        assert str(error.value) == f"tol must be a finite number > 0, got {tol!r}"


@pytest.mark.parametrize("name", _ONE_OF_EACH)
def test_a_tolerance_that_is_not_a_real_number_is_a_type_error_naming_it(name):
    # True ran as tol = 1, and "1" failed inside float arithmetic
    for tol, kind in ((True, "bool"), ("1", "str"), (None, "NoneType")):
        with pytest.raises(TypeError) as error:
            _ONE_OF_EACH[name](2, tol=tol)
        assert str(error.value) == f"tol must be a real number, got {kind}"


@pytest.mark.parametrize("name", _ONE_OF_EACH)
def test_a_size_that_is_not_an_int_is_a_type_error_naming_it(name):
    for n, kind in ((True, "bool"), (2.0, "float"), ("2", "str")):
        with pytest.raises(TypeError) as error:
            _ONE_OF_EACH[name](n)
        assert str(error.value) == f"n must be an int, got {kind}"


@pytest.mark.parametrize("r, kind", [(True, "bool"), (2.0, "float")])
def test_an_r_that_is_not_an_int_is_a_type_error_naming_it(r, kind):
    for make in (lambda: TheoremInstance(2, r, (_X, _X), (_X, Neg(_X)), (1, 1), _HALF),
                 lambda: power_family_check(2, (_HALF,) * 2, _HALF, _C, (1, 1), r=r)):
        with pytest.raises(TypeError) as error:
            make()
        assert str(error.value) == f"r must be an int, got {kind}"


# One call of each verifier with one input that is not a Scalar, and the name
# its TypeError gives that input; each failed with an AttributeError inside.
_NOT_SCALARS = {
    "theorem1": (lambda: theorem1_verify(
        TheoremInstance(2, 2, (_X, _X), (_X, Neg(_X)), (1, 1), 3)), "x0", "int"),
    "corollary2": (lambda: corollary2_verify(
        2, (_X, _X2), _X, (_C[0], -1), (1, 1), _HALF), "c[1]", "int"),
    "symmetric_pair": (lambda: symmetric_pair_verify(2, 1, _X, _X2, _X, 0.5), "x0", "float"),
    "baran": (lambda: baran_verify(2, _X, _X2, _HALF, rhs_shift=0.5), "rhs_shift", "float"),
    "leibniz_product": (lambda: leibniz_product_verify(2, _X, _X2, None), "x0", "NoneType"),
    "power_family": (lambda: power_family_check(
        2, (_HALF, Fraction(1, 2)), _HALF, _C, (1, 1)), "alpha[1]", "Fraction"),
    "exp_family": (lambda: exp_family_check(2, (_HALF,) * 2, 0.5, _C, (1, 1)), "beta", "float"),
    "zero_power_lemma": (lambda: zero_power_lemma_check(
        Sub(_X, Const(_HALF)), 2, Fraction(1, 2)), "x0", "Fraction"),
}


@pytest.mark.parametrize("name", _NOT_SCALARS)
def test_an_input_that_is_not_a_scalar_is_a_type_error_naming_it(name):
    call, where, kind = _NOT_SCALARS[name]
    with pytest.raises(TypeError) as error:
        call()
    assert str(error.value) == f"{where} must be a Scalar, got {kind}"


def test_a_float_power_beyond_the_float_range_names_its_node():
    # eval_scalar let "(34, 'Numerical result out of range')" and "math range error" out
    for text, at in (("x^400", 1e300), ("x^(3/2)", 1e300), ("(x + 1)^2.5", 1e300),
                     ("x^-2", 1e-200), ("x^3.0", -1e200)):
        with pytest.raises(OverflowError) as error:
            eval_scalar(parse(text), Scalar.inexact(at))
        assert str(error.value) == f"float power overflow in '{text}'"


def test_the_evaluators_name_a_point_that_is_not_a_scalar():
    for evaluate in (lambda: eval_jet(_X2, 3, 2), lambda: eval_scalar(_X2, 3)):
        with pytest.raises(TypeError) as error:
            evaluate()
        assert str(error.value) == "x0 must be a Scalar, got int"
