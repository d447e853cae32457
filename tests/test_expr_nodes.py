"""The expression nodes: ``has_float``, recorded at construction, against the
tree walk it replaced (``helpers.reference_contains_float``), and the node
API (``repr``, ``hash``, ``==``, pickling, ``copy.deepcopy``, immutability)
against values recorded when the nodes were frozen dataclasses.

The corpus holds parsed texts in both modes, random parsed trees (the
generator of ``test_parser_differential.py``), their derivatives, and
hand-built nodes the parser does not build."""

import base64
import copy
import hashlib
import pickle
import random
from fractions import Fraction

import pytest

from helpers import reference_contains_float
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
    X,
    constant_value,
    contains_float,
    eval_jet,
)
from jetcheck.numeric import Scalar
from jetcheck.parsing import ParseError, parse
from oracles import _height, diff
from test_parser_differential import random_text

TEXTS = ("x", "0", "3/4", "0.5", "-x", "x+1", "x-2/3", "2*x", "x/3", "x^2", "x^-2",
         "x^0.5", "x^(1/2)", "x^2.0", "exp(x)", "log(1+x)", "sin(x)*cos(x)", "sqrt(x^2+1)",
         "(x+0.25)^3", "-(x^2)/(1-x)", "2.5*x^(3/2)", "exp(-x^2)/x", "x^(0.5*2)",
         "(1/2)^(2/3)", "1-0.0*x", "-(0.5)", "exp(0.5)", "x/0.5", "(2/3-x*x)^4")

HALF, THIRD = Scalar(0.5), Scalar(Fraction(1, 3))

# Nodes the parser does not build: a float PowReal exponent with an integer
# value, which pow_real would fold, and a float Const under Neg, Apply and Div.
HAND_BUILT = (Var(), Const(Scalar(-0.0)), Const(THIRD), PowReal(X, Scalar(2.0)),
              PowReal(X, THIRD), PowReal(Const(THIRD), HALF), Neg(Const(HALF)),
              Apply("exp", Const(HALF)), Div(X, Const(HALF)), Div(Const(HALF), X),
              PowInt(Const(HALF), 3), Neg(Apply("sin", Div(Const(THIRD), Const(HALF)))),
              Add(X, X), Sub(X, X), Mul(X, X), Div(X, X))


def corpus() -> list:
    rng, trees = random.Random(24), [parse(text) for text in TEXTS]
    while len(trees) < 300:
        try:
            trees.append(parse(random_text(rng)))
        except ParseError:
            pass
    derivatives = []
    for tree in trees:
        try:
            derivatives.append(diff(tree))
        except OverflowError:  # a constant power folded beyond the float range
            pass
    return trees + derivatives + list(HAND_BUILT)


CORPUS = corpus()


def subtrees(e: Expr):
    """``e`` and every node below it, each reached once per path."""
    yield e
    for name in e._fields:
        child = getattr(e, name)
        if isinstance(child, Expr):
            yield from subtrees(child)


def test_the_flag_equals_the_walk_on_every_subtree():
    copies = [pickle.loads(pickle.dumps(t)) for t in CORPUS] + [copy.deepcopy(t) for t in CORPUS]
    floats = 0
    for tree in CORPUS + copies:
        for node in subtrees(tree):
            assert node.has_float is reference_contains_float(node), node
            assert contains_float(node) is node.has_float
            floats += node.has_float
    assert floats > 1000  # both answers are common


def reference_height(e: Expr) -> int:
    """Levels from ``e`` down to its deepest leaf, by recursion on the node classes."""
    if isinstance(e, (Add, Sub, Mul, Div)):
        children = (e.left, e.right)
    elif isinstance(e, (Neg, Apply)):
        children = (e.arg,)
    elif isinstance(e, (PowInt, PowReal)):
        children = (e.base,)
    else:
        children = ()
    return 1 + max(map(reference_height, children), default=0)


def test_heights_equal_the_recursive_height():
    # every node class, and trees that are not left-deep; a tree and its
    # derivative share one memo, as in nth_derivative, since they share subtrees
    classes = set()
    for tree in CORPUS:
        try:
            derivative = diff(tree)
        except OverflowError:  # a constant power folded beyond the float range
            derivative = tree
        heights: dict[int, int] = {}
        for e in (tree, derivative):
            assert _height(e, heights) == reference_height(e), e
            classes.update(node.__class__ for node in subtrees(e))
    assert classes == {Add, Sub, Mul, Div, Neg, Apply, PowInt, PowReal, Const, Var}


def test_the_hand_built_float_nodes_are_float():
    for node in (PowReal(X, Scalar(2.0)), Neg(Const(HALF)), Apply("exp", Const(HALF)),
                 Div(X, Const(HALF)), Div(Const(HALF), X), PowReal(Const(THIRD), HALF)):
        assert node.has_float and reference_contains_float(node)
    for node in (X, Const(THIRD), PowReal(X, THIRD), Neg(Apply("exp", X))):
        assert not node.has_float and not reference_contains_float(node)
    # constant_value folds in the mode the flag gives
    assert constant_value(Add(Const(Scalar(Fraction(1, 10))), Const(Scalar(0.2)))) == Scalar(0.1 + 0.2)


# Recorded from the frozen-dataclass nodes: SHA-256 over the reprs of the
# corpus, one a line, and over the hash values of its trees without Apply
# (a function name is a str, whose hash varies between processes).
REPR_DIGEST = "5b28124a332a7957c67b804ef9cbf30e7199ba702390f52176635249c9bac9d9"
HASH_DIGEST = "7bd3f7136a1f16205f3b6919752ec8ce459057d9da797a9c0e3cb0b8ce4eecf5"
REPR_EXAMPLE = ("Add(left=PowReal(base=Var(), exponent=Scalar(0.5)), right=Apply(fn='exp', "
                "arg=Mul(left=Const(value=Scalar(Fraction(2, 1))), right=Var())))")
# pickle.dumps(parse("x^0.5 + exp(2*x)")) of the dataclass nodes, base64
PICKLED = ("gASV8QAAAAAAAACMDmpldGNoZWNrLmV4cHJzlIwDQWRklJOUKYGUXZQoaACMB1Bvd1JlYWyUk5QpgZRdlChoAIwD"
           "VmFylJOUKYGUXZRijBBqZXRjaGVjay5udW1lcmljlIwGU2NhbGFylJOUKYGUTn2UjAV2YWx1ZZRHP+AAAAAAAABz"
           "hpRiZWJoAIwFQXBwbHmUk5QpgZRdlCiMA2V4cJRoAIwDTXVslJOUKYGUXZQoaACMBUNvbnN0lJOUKYGUXZRoDymB"
           "lE59lGgSjAlmcmFjdGlvbnOUjAhGcmFjdGlvbpSTlEsCSwGGlFKUc4aUYmFiaAtlYmViZWIu")


def test_reprs_and_hashes_are_the_dataclass_ones():
    reprs = "\n".join(map(repr, CORPUS))
    assert hashlib.sha256(reprs.encode()).hexdigest() == REPR_DIGEST
    plain = [tree for tree in CORPUS if "Apply(" not in repr(tree)]
    assert len(plain) > 200
    hashes = ",".join(str(hash(tree)) for tree in plain)
    assert hashlib.sha256(hashes.encode()).hexdigest() == HASH_DIGEST
    assert repr(parse("x^0.5 + exp(2*x)")) == REPR_EXAMPLE
    for tree in CORPUS:
        fields = tuple(getattr(tree, name) for name in tree._fields)
        assert hash(tree) == hash(fields)


def test_equality_pickling_and_deepcopy():
    for tree in CORPUS:
        for other in (pickle.loads(pickle.dumps(tree)), copy.deepcopy(tree), rebuilt(tree)):
            assert other == tree and hash(other) == hash(tree) and repr(other) == repr(tree)
            assert not other != tree
        assert copy.deepcopy(tree) is not tree
        assert tree.__eq__(1) is NotImplemented and tree != 1
    assert pickle.loads(base64.b64decode(PICKLED)) == parse("x^0.5 + exp(2*x)")
    # the class is part of the value, and so is a Scalar's mode
    nodes = [Add(X, X), Sub(X, X), Mul(X, X), Div(X, X), PowInt(X, 2), PowReal(X, Scalar(2.0)),
             Const(Scalar(1)), Const(Scalar(1.0)), Neg(X), Apply("exp", X), Apply("log", X)]
    for i, a in enumerate(nodes):
        for j, b in enumerate(nodes):
            assert (a == b) is (i == j)


def rebuilt(tree: Expr) -> Expr:
    """A node equal to ``tree``, rebuilt from its fields by the constructors."""
    values = [getattr(tree, name) for name in tree._fields]
    return tree.__class__(*[rebuilt(v) if isinstance(v, Expr) else v for v in values])


def test_nodes_are_immutable():
    tree = parse("x^0.5 + exp(2*x)")
    for node in subtrees(tree):
        for name in (*node._fields, "has_float"):
            with pytest.raises(AttributeError):
                setattr(node, name, X)
            with pytest.raises(AttributeError):
                delattr(node, name)
    with pytest.raises(AttributeError):
        X.other = 1
    assert tree == parse("x^0.5 + exp(2*x)") and tree.has_float


def test_an_unknown_function_name_is_a_value_error():
    with pytest.raises(ValueError, match="unknown function 'tan'"):
        Apply("tan", X)


def test_a_tree_that_is_not_a_node_is_a_type_error():
    for bad in ("x", 1, None):
        with pytest.raises(TypeError, match="not an expression node"):
            contains_float(bad)
        with pytest.raises(TypeError, match="not an expression node"):
            eval_jet(bad, Scalar(1), 2)
