"""Parsed trees at the height bound, ``parsing.MAX_HEIGHT``, and derivatives
at theirs, ``oracles.MAX_DERIVATIVE_HEIGHT``.

Every walk of the library, the printer, the evaluators and the CLI over a
tree of exactly that height ends without ``RecursionError``, and so do the
node methods (``==``, ``hash``, ``repr``), ``copy.deepcopy`` and a pickle
round trip, and so does the first derivative
of the sum, product and quotient chains; one level more is a ``ParseError``
at the token that would build the higher node, raised at once.  The walks
that ``nth_derivative`` makes of a derivative fit a tree as high as its
bound, and a higher derivative is a ``DomainError``.  A tree built by hand
is bounded only by the recursion limit less the caller's stack depth: at the
default limit of 1000, one 600 levels high still evaluates and prints, and one
too high for the limit is a ``ValueError`` naming ``MAX_HEIGHT`` from every
verifier that takes a tree and from each public walk.

The module needs no pytest: ``python tests/test_tree_height.py`` runs the
same checks on interpreters that have none.
"""

from __future__ import annotations

import copy
import gc
import io
import pickle
import time
from fractions import Fraction
from functools import partial

from jetcheck.cli import run
from jetcheck.exprs import (
    X,
    Add,
    Div,
    Neg,
    Sub,
    _eval,
    contains_float,
    eval_jet,
    eval_scalar,
    to_text,
)
from jetcheck.identities import (
    TheoremInstance,
    baran_verify,
    corollary2_verify,
    leibniz_product_verify,
    symmetric_pair_verify,
    theorem1_verify,
    zero_power_lemma_check,
)
from jetcheck.numeric import DomainError, Scalar
from jetcheck.parsing import MAX_HEIGHT, MAX_NESTING, ParseError, parse
from oracles import MAX_DERIVATIVE_HEIGHT, _height, diff, nth_derivative

GROUPS = MAX_NESTING - 1


def chain(op: str, height: int = MAX_HEIGHT, term: str = "x") -> str:
    """A left-deep chain ``x op x op ...`` whose tree is ``height`` nodes high."""
    return op.join([term] * height)


# name -> (a tree exactly MAX_HEIGHT high, the evaluation point, the same
# tree one level higher, the offset of the token that builds that level)
CASES = {
    "sum": (chain("+"), "1", chain("+", MAX_HEIGHT + 1), 2 * MAX_HEIGHT - 1),
    "difference": (chain("-"), "1", chain("-", MAX_HEIGHT + 1), 2 * MAX_HEIGHT - 1),
    "product": (chain("*"), "1", chain("*", MAX_HEIGHT + 1), 2 * MAX_HEIGHT - 1),
    "quotient": (chain("/"), "1", chain("/", MAX_HEIGHT + 1), 2 * MAX_HEIGHT - 1),
    "sum in groups": ("(" * GROUPS + chain("+") + ")" * GROUPS, "1",
                      "(" * GROUPS + chain("+", MAX_HEIGHT + 1) + ")" * GROUPS,
                      GROUPS + 2 * MAX_HEIGHT - 1),
    "sign": ("-(" + chain("+", MAX_HEIGHT - 1) + ")", "1",
             "-(" + chain("+") + ")", 0),
    "function": ("exp(" + chain("+", MAX_HEIGHT - 1) + ")", "1.0",
                 "exp(" + chain("+") + ")", 0),
    # the power's checks walk its base at the deepest nesting the parser allows
    "power in groups": ("(" * GROUPS + "(" + chain("+", MAX_HEIGHT - 1) + ")^2" + ")" * GROUPS,
                        "1", "(" * GROUPS + "(" + chain("+") + ")^2" + ")" * GROUPS,
                        GROUPS + 2 * MAX_HEIGHT + 1),
}


def check_at_the_bound(text: str, at: str) -> None:
    tree = parse(text)
    x0 = Scalar(float(at)) if "." in at else Scalar(int(at))
    assert parse(to_text(tree)) == tree
    contains_float(tree)
    eval_scalar(tree, x0)
    eval_jet(tree, x0, 2)
    diff(tree)
    assert tree == copy.deepcopy(tree) and hash(tree) == hash(copy.deepcopy(tree))
    assert pickle.loads(pickle.dumps(tree)) == tree
    assert repr(tree).count("(") >= MAX_HEIGHT
    for argv in (["verify", "baran", "--n", "1", "--f", text, "--g", "x", "--at", at],
                 ["lemma", "--f", text, "--n", "1", "--at", at]):
        out, err = io.StringIO(), io.StringIO()
        code = run(argv, stdout=out, stderr=err)
        assert code in (0, 1) and err.getvalue() == "", (argv[0], code, err.getvalue())


def check_one_level_more(text: str, offset: int) -> None:
    # garbage of earlier checks is collected first, so its collection is not timed
    gc.collect()
    start = time.perf_counter()
    try:
        parse(text)
    except ParseError as err:
        assert time.perf_counter() - start < 0.1
        assert err.offset == offset, (err.offset, offset)
        assert f"at most {MAX_HEIGHT} levels high" in err.expected
    else:
        raise AssertionError("parsed a tree higher than MAX_HEIGHT")


def test_trees_at_the_bound_pass_every_walk():
    for text, at, _, _ in CASES.values():
        check_at_the_bound(text, at)


def test_first_derivatives_of_the_chains_at_the_bound():
    # diff nests a quotient's derivative three levels per level of the chain,
    # 597 in all, which the one-frame-per-level oracle still evaluates
    for name, expected in (("sum", 200), ("product", 200), ("quotient", -198)):
        text, at, _, _ = CASES[name]
        assert nth_derivative(parse(text), 1, Scalar(int(at))) == expected


def test_the_walks_of_a_derivative_fit_its_bound():
    # _eval and _diff take one frame per level of a quotient chain; the flag
    # that contains_float reads was set as the chain was built
    tree = X
    for _ in range(MAX_DERIVATIVE_HEIGHT - 1):
        tree = Div(tree, X)
    assert MAX_DERIVATIVE_HEIGHT >= 3 * MAX_HEIGHT
    assert _height(tree, {}) == MAX_DERIVATIVE_HEIGHT
    assert not contains_float(tree)
    assert _eval(tree, Fraction(2), False, {}) == Fraction(1, 2 ** (MAX_DERIVATIVE_HEIGHT - 2))
    diff(tree)


def test_a_second_derivative_past_the_bound_is_a_domain_error():
    # order 1 of the same chain is evaluated, in the test above
    try:
        nth_derivative(parse(CASES["quotient"][0]), 2, Scalar(1))
    except DomainError as err:
        assert "order 2 is 1193 levels high" in str(err), err
    else:
        raise AssertionError("evaluated a derivative higher than MAX_DERIVATIVE_HEIGHT")


def test_one_level_more_is_a_parse_error_at_its_token():
    for _, _, higher, offset in CASES.values():
        check_one_level_more(higher, offset)


def test_a_long_loop_built_sum_is_a_parse_error():
    # test_parsing.py has the same sum as the base and the exponent of a power
    check_one_level_more(chain("+", 3000), 2 * MAX_HEIGHT - 1)


def test_an_exponent_at_the_bound_parses_at_the_deepest_nesting():
    # the exponent is folded, so the power is two levels high
    text = "(" * (MAX_NESTING - 2) + "x^(" + chain("+", term="1") + ")" + ")" * (MAX_NESTING - 2)
    assert to_text(parse(text)) == f"x^{MAX_HEIGHT}"


def hand_built(height: int) -> Add:
    """A left-deep sum over x, ``height`` levels high, built without the parser."""
    tree = X
    for _ in range(height - 1):
        tree = Add(tree, X)
    return tree


# Each verifier that takes a tree, given one tree and a point; the two
# binomial families take scalars only.
TREE_VERIFIERS = {
    "theorem1": lambda t, x0: theorem1_verify(
        TheoremInstance(1, 2, (t, X), (X, Neg(X)), (1, 0), x0)),
    "corollary2": lambda t, x0: corollary2_verify(
        1, (t, X), X, (Scalar(1), Scalar(-1)), (1, 0), x0),
    "symmetric_pair": lambda t, x0: symmetric_pair_verify(1, 0, X, X, t, x0),
    "baran": lambda t, x0: baran_verify(1, t, X, x0),
    "leibniz_product": lambda t, x0: leibniz_product_verify(1, X, t, x0),
    "zero_power_lemma": lambda t, x0: zero_power_lemma_check(Sub(t, t), 1, x0),
}


def test_a_hand_built_tree_of_600_levels_still_evaluates():
    tree = hand_built(600)
    assert eval_scalar(tree, Scalar(1)) == 600
    assert eval_jet(tree, Scalar(0.5), 2).cleared() == ((300.0, 600.0, 0.0), 1)
    assert to_text(tree) == " + ".join(["x"] * 600)
    for verify in TREE_VERIFIERS.values():
        for x0 in (Scalar(1), Scalar(0.5)):
            assert verify(tree, x0).params  # the printed inputs walk the tree too


def test_a_hand_built_tree_too_high_for_the_stack_is_a_value_error():
    # each call raised RecursionError
    tree = hand_built(20_000)
    calls = [lambda: eval_scalar(tree, Scalar(1)), lambda: eval_jet(tree, Scalar(1), 2),
             lambda: to_text(tree)]
    calls += [partial(verify, tree, Scalar(1)) for verify in TREE_VERIFIERS.values()]
    for call in calls:
        try:
            call()
        except ValueError as err:
            assert f"MAX_HEIGHT = {MAX_HEIGHT}" in str(err), err
        else:
            raise AssertionError("walked a tree higher than the recursion limit")


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
    print("ok")
