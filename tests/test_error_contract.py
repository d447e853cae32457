"""The library's error contract: every verifier, called directly with any
well-typed input, returns a report or raises one of the documented errors
(ValueError, which covers DomainError and ParseError; ModeError; and
OverflowError).  A ZeroDivisionError, TypeError or any other exception is a
fault."""

from functools import reduce

from hypothesis import given, settings
from hypothesis import strategies as st

from jetcheck.exprs import Add, Apply, Const, Div, Mul, Neg, PowInt, PowReal, Sub, Var
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
