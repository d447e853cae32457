"""Expression trees for one-variable functions.

An :data:`Expr` is an immutable tree over the single variable ``x`` with
rational or float constants, the four arithmetic operations, integer and real
powers, and the elementary functions exp, log, sin, cos, sqrt.  Three
consumers share the representation:

* :func:`diff` - symbolic differentiation with light simplification
  (constant folding and 0/1 absorption, nothing fancier, so the rules stay
  auditable);
* :func:`eval_scalar` / :func:`nth_derivative` - plain evaluation and the
  brute-force derivative route (differentiate k times symbolically, then
  evaluate), used as the independent cross-check for the jet engine;
* :func:`eval_jet` - evaluation into truncated Taylor series.

A single decimal constant anywhere in a tree marks the whole evaluation as
float mode; otherwise evaluation inherits the mode of the evaluation point.
Exact mode refuses transcendental nodes with a ModeError rather than
returning a rounded value.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Union

from .jets import ELEMENTARY_FUNCTIONS, Jet
from .numeric import DomainError, ModeError, Scalar


@dataclass(frozen=True)
class Const:
    value: Scalar


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Div:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class PowInt:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class PowReal:
    base: "Expr"
    exponent: Scalar


@dataclass(frozen=True)
class Apply:
    fn: str
    arg: "Expr"

    def __post_init__(self) -> None:
        if self.fn not in ELEMENTARY_FUNCTIONS:
            raise ValueError(f"unknown function {self.fn!r}")


Expr = Union[Const, Var, Neg, Add, Sub, Mul, Div, PowInt, PowReal, Apply]

X = Var()


def const(value: Scalar | int) -> Const:
    return Const(value if isinstance(value, Scalar) else Scalar.exact(value))


def _is_exact_value(e: Expr, v: int) -> bool:
    return isinstance(e, Const) and e.value.is_exact and e.value == v


def _fold2(op, a: Scalar, b: Scalar) -> Scalar:
    """Fold two constants; a mixed pair is folded in float, matching the
    float-mode contagion rule for evaluation."""
    if a.is_exact != b.is_exact:
        a, b = a.to_float(), b.to_float()
    return op(a, b)


# Smart constructors used by diff().  They perform exactly the advertised
# light simplification; the parser builds raw nodes instead so parse trees
# mirror the input.

def neg(e: Expr) -> Expr:
    if isinstance(e, Const):
        return Const(-e.value)
    if isinstance(e, Neg):
        return e.arg
    return Neg(e)


def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(_fold2(lambda x, y: x + y, a.value, b.value))
    if _is_exact_value(a, 0):
        return b
    if _is_exact_value(b, 0):
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(_fold2(lambda x, y: x - y, a.value, b.value))
    if _is_exact_value(b, 0):
        return a
    if _is_exact_value(a, 0):
        return neg(b)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(b, Const) and not isinstance(a, Const):
        a, b = b, a
    if isinstance(a, Const):
        if isinstance(b, Const):
            return Const(_fold2(lambda x, y: x * y, a.value, b.value))
        if a.value.is_exact and a.value == 0:
            return a
        if a.value.is_exact and a.value == 1:
            return b
        if isinstance(b, Mul) and isinstance(b.left, Const):
            return mul(Const(_fold2(lambda x, y: x * y, a.value, b.left.value)), b.right)
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0:
        return Const(_fold2(lambda x, y: x / y, a.value, b.value))
    if _is_exact_value(b, 1):
        return a
    if _is_exact_value(a, 0):
        return a
    return Div(a, b)


def pow_int(e: Expr, m: int) -> Expr:
    if m == 1:
        return e
    if m == 0:
        return const(1)
    if isinstance(e, Const) and not (m < 0 and e.value == 0):
        return Const(e.value ** m)
    if isinstance(e, PowInt):
        return pow_int(e.base, e.exponent * m)
    return PowInt(e, m)


def pow_real(e: Expr, alpha: Scalar) -> Expr:
    if alpha.is_exact and alpha.value.denominator == 1:
        return pow_int(e, int(alpha.value))
    return PowReal(e, alpha)


def diff(e: Expr) -> Expr:
    """Symbolic derivative with respect to x."""
    return _diff(e, {})


def _diff(e: Expr, memo: dict[int, Expr]) -> Expr:
    # Derivative trees share subtrees by reference; memoizing on object
    # identity keeps repeated differentiation polynomial instead of
    # exponential in the order.
    hit = memo.get(id(e))
    if hit is not None:
        return hit
    if isinstance(e, Const):
        out: Expr = Const(e.value * 0)
    elif isinstance(e, Var):
        out = const(1)
    elif isinstance(e, Neg):
        out = neg(_diff(e.arg, memo))
    elif isinstance(e, Add):
        out = add(_diff(e.left, memo), _diff(e.right, memo))
    elif isinstance(e, Sub):
        out = sub(_diff(e.left, memo), _diff(e.right, memo))
    elif isinstance(e, Mul):
        out = add(
            mul(_diff(e.left, memo), e.right),
            mul(e.left, _diff(e.right, memo)),
        )
    elif isinstance(e, Div):
        out = div(
            sub(mul(_diff(e.left, memo), e.right), mul(e.left, _diff(e.right, memo))),
            pow_int(e.right, 2),
        )
    elif isinstance(e, PowInt):
        if e.exponent == 0:
            out = const(0)
        else:
            out = mul(
                const(e.exponent),
                mul(pow_int(e.base, e.exponent - 1), _diff(e.base, memo)),
            )
    elif isinstance(e, PowReal):
        out = mul(
            Const(e.exponent),
            mul(pow_real(e.base, e.exponent - 1), _diff(e.base, memo)),
        )
    elif isinstance(e, Apply):
        inner = _diff(e.arg, memo)
        if e.fn == "exp":
            out = mul(Apply("exp", e.arg), inner)
        elif e.fn == "log":
            out = div(inner, e.arg)
        elif e.fn == "sin":
            out = mul(Apply("cos", e.arg), inner)
        elif e.fn == "cos":
            out = neg(mul(Apply("sin", e.arg), inner))
        else:
            out = div(inner, mul(const(2), Apply("sqrt", e.arg)))
    else:
        raise TypeError(f"not an expression node: {e!r}")
    memo[id(e)] = out
    return out


def contains_float(e: Expr) -> bool:
    """True when the tree carries a float literal (which forces float mode)."""
    if isinstance(e, Const):
        return not e.value.is_exact
    if isinstance(e, Var):
        return False
    if isinstance(e, Neg):
        return contains_float(e.arg)
    if isinstance(e, (Add, Sub, Mul, Div)):
        return contains_float(e.left) or contains_float(e.right)
    if isinstance(e, PowInt):
        return contains_float(e.base)
    if isinstance(e, PowReal):
        return (not e.exponent.is_exact) or contains_float(e.base)
    if isinstance(e, Apply):
        return contains_float(e.arg)
    raise TypeError(f"not an expression node: {e!r}")


def constant_value(e: Expr) -> Scalar | None:
    """The value of a constants-only subtree, or None if it involves x or a
    node that cannot be folded without an evaluation point."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Neg):
        v = constant_value(e.arg)
        return None if v is None else -v
    if isinstance(e, (Add, Sub, Mul, Div)):
        a = constant_value(e.left)
        b = constant_value(e.right)
        if a is None or b is None:
            return None
        if isinstance(e, Add):
            return _fold2(lambda x, y: x + y, a, b)
        if isinstance(e, Sub):
            return _fold2(lambda x, y: x - y, a, b)
        if isinstance(e, Mul):
            return _fold2(lambda x, y: x * y, a, b)
        if b == 0:
            return None
        return _fold2(lambda x, y: x / y, a, b)
    if isinstance(e, PowInt):
        v = constant_value(e.base)
        if v is None or (e.exponent < 0 and v == 0):
            return None
        return v ** e.exponent
    return None


def _eval(e: Expr, x0: Scalar, lift: bool, memo: dict[int, Scalar]) -> Scalar:
    hit = memo.get(id(e))
    if hit is not None:
        return hit
    out = _eval_node(e, x0, lift, memo)
    memo[id(e)] = out
    return out


def _eval_node(e: Expr, x0: Scalar, lift: bool, memo: dict[int, Scalar]) -> Scalar:
    if isinstance(e, Const):
        return e.value.to_float() if lift else e.value
    if isinstance(e, Var):
        return x0
    if isinstance(e, Neg):
        return -_eval(e.arg, x0, lift, memo)
    if isinstance(e, Add):
        return _eval(e.left, x0, lift, memo) + _eval(e.right, x0, lift, memo)
    if isinstance(e, Sub):
        return _eval(e.left, x0, lift, memo) - _eval(e.right, x0, lift, memo)
    if isinstance(e, Mul):
        return _eval(e.left, x0, lift, memo) * _eval(e.right, x0, lift, memo)
    if isinstance(e, Div):
        den = _eval(e.right, x0, lift, memo)
        if den == 0:
            raise DomainError(f"division by zero in '{to_text(e)}'")
        return _eval(e.left, x0, lift, memo) / den
    if isinstance(e, PowInt):
        base = _eval(e.base, x0, lift, memo)
        if e.exponent < 0 and base == 0:
            raise DomainError(f"zero base with negative exponent in '{to_text(e)}'")
        return base ** e.exponent
    if isinstance(e, PowReal):
        alpha = e.exponent
        m: int | None = None
        if alpha.is_exact and alpha.value.denominator == 1:
            m = int(alpha.value)
        elif not alpha.is_exact and float(alpha).is_integer():
            m = int(float(alpha))
        base = _eval(e.base, x0, lift, memo)
        if m is not None:
            if m < 0 and base == 0:
                raise DomainError(f"zero base with negative exponent in '{to_text(e)}'")
            return base ** m
        if base.is_exact:
            raise ModeError(f"non-integer power in '{to_text(e)}' requires float mode")
        if not base > 0:
            raise DomainError(f"non-positive base for real power in '{to_text(e)}'")
        return Scalar.inexact(math.pow(float(base), float(alpha)))
    if isinstance(e, Apply):
        arg = _eval(e.arg, x0, lift, memo)
        if arg.is_exact:
            raise ModeError(f"'{e.fn}' in '{to_text(e)}' requires float mode")
        v = float(arg)
        if e.fn == "exp":
            try:
                return Scalar.inexact(math.exp(v))
            except OverflowError:
                raise DomainError(f"exp overflow in '{to_text(e)}'") from None
        if e.fn == "log":
            if not v > 0:
                raise DomainError(f"non-positive argument to log in '{to_text(e)}'")
            return Scalar.inexact(math.log(v))
        if e.fn == "sin":
            return Scalar.inexact(math.sin(v))
        if e.fn == "cos":
            return Scalar.inexact(math.cos(v))
        if e.fn == "sqrt":
            if not v > 0:
                raise DomainError(f"non-positive argument to sqrt in '{to_text(e)}'")
            return Scalar.inexact(math.sqrt(v))
    raise TypeError(f"not an expression node: {e!r}")


def eval_scalar(e: Expr, x0: Scalar) -> Scalar:
    """Evaluate at x0.  Exact when the tree and the point are exact; any
    decimal literal in the tree forces float mode for the whole evaluation."""
    lift = not x0.is_exact or contains_float(e)
    return _eval(e, x0.to_float() if lift else x0, lift, {})


def _named(node: Expr, op, *operands) -> Jet:
    """op(*operands), with a domain error naming ``node``; the operands are
    built before the call, so their own errors are named only once."""
    try:
        return op(*operands)
    except DomainError as err:
        raise DomainError(f"{err} in '{to_text(node)}'") from None


def eval_jet(e: Expr, x0: Scalar, order: int) -> Jet:
    """Evaluate into an order-n jet at x0, by structural recursion onto the
    jet operations.  Mode selection matches :func:`eval_scalar`."""
    lift = not x0.is_exact or contains_float(e)
    return _jet(e, Jet.variable(x0.to_float() if lift else x0, order))


def _jet(node: Expr, seed: Jet) -> Jet:
    """:func:`eval_jet` of a subtree; ``seed``, the jet of x, fixes order and
    mode.  Not a closure, so an evaluation leaves no reference cycle behind."""
    if isinstance(node, Const):
        return Jet.constant(node.value if seed.is_exact else node.value.to_float(), seed.order)
    if isinstance(node, Var):
        return seed
    if isinstance(node, Neg):
        return -_jet(node.arg, seed)
    if isinstance(node, Add):
        return _jet(node.left, seed) + _jet(node.right, seed)
    if isinstance(node, Sub):
        return _jet(node.left, seed) - _jet(node.right, seed)
    if isinstance(node, Mul):
        return _jet(node.left, seed) * _jet(node.right, seed)
    if isinstance(node, Div):
        return _named(node, operator.truediv, _jet(node.left, seed), _jet(node.right, seed))
    if isinstance(node, PowInt):
        return _named(node, operator.pow, _jet(node.base, seed), node.exponent)
    if isinstance(node, PowReal):
        alpha = node.exponent if seed.is_exact else node.exponent.to_float()
        return _named(node, Jet.pow_real, _jet(node.base, seed), alpha)
    if isinstance(node, Apply):
        return _named(node, getattr(Jet, node.fn), _jet(node.arg, seed))
    raise TypeError(f"not an expression node: {node!r}")


def nth_derivative(e: Expr, k: int, x0: Scalar) -> Scalar:
    """k-fold symbolic derivative evaluated at x0.

    This is the brute-force route: repeated :func:`diff` followed by plain
    evaluation, involving no jet machinery at all, which makes it a fully
    independent cross-check for the jet engine.
    """
    if k < 0:
        raise DomainError(f"derivative order must be non-negative, got {k}")
    d = e
    for _ in range(k):
        d = diff(d)
    return eval_scalar(d, x0)


# Precedence levels for printing: addition 1, multiplication 2, unary minus 3,
# power 4, atoms 5.  Each node is classified once, for its text and its level.

def _txt(e: Expr, min_prec: int) -> str:
    if isinstance(e, Const):
        # a negative constant prints with a leading minus
        s, p = e.value.as_text(), (3 if e.value < 0 else 5)
    elif isinstance(e, Var):
        s, p = "x", 5
    elif isinstance(e, Neg):
        s, p = "-" + _txt(e.arg, 3), 3
    elif isinstance(e, Add):
        s, p = f"{_txt(e.left, 1)} + {_txt(e.right, 2)}", 1
    elif isinstance(e, Sub):
        s, p = f"{_txt(e.left, 1)} - {_txt(e.right, 2)}", 1
    elif isinstance(e, Mul):
        s, p = f"{_txt(e.left, 2)}*{_txt(e.right, 3)}", 2
    elif isinstance(e, Div):
        right = _txt(e.right, 3)
        if right[0].isdigit():
            # keep the lexer from gluing a trailing integer on the left onto
            # '/<digits>' as a rational literal
            right = f"({right})"
        s, p = f"{_txt(e.left, 2)}/{right}", 2
    elif isinstance(e, PowInt):
        s, p = f"{_txt(e.base, 5)}^{e.exponent}", 4
    elif isinstance(e, PowReal):
        exp = e.exponent
        exp_txt = f"({exp.as_text()})" if exp.is_exact else exp.as_text()
        s, p = f"{_txt(e.base, 5)}^{exp_txt}", 4
    elif isinstance(e, Apply):
        s, p = f"{e.fn}({_txt(e.arg, 1)})", 5
    else:
        raise TypeError(f"not an expression node: {e!r}")
    return f"({s})" if p < min_prec else s


def to_text(e: Expr) -> str:
    """Render with the minimum parentheses that reparse to the same tree.

    Constants print with a leading minus when negative, which reparses as an
    explicit negation node; canonical trees keep constants non-negative.
    """
    return _txt(e, 1)
