"""The symbolic-differentiation oracle for the jet engine.

The second route to a derivative (differentiate the tree symbolically, then
evaluate it; Griewank & Walther, *Evaluating Derivatives*, ch. 13) takes no
arithmetic from ``jetcheck.jets``: :func:`diff` builds derivative trees with
the package's smart constructors, which fold constants and absorb 0 and 1
and nothing fancier, so the rules stay auditable, and :func:`nth_derivative`
evaluates the k-th one with the package's scalar evaluator.  The tests check
:func:`jetcheck.eval_jet` against it.

``_eval`` and ``_diff`` take one frame per tree level, so a derivative that
``nth_derivative`` evaluates is bounded at MAX_DERIVATIVE_HEIGHT levels.
``diff`` adds at most three levels per level, so every first derivative of a
parsed tree (at most ``MAX_HEIGHT`` high) is within that bound.
"""

from __future__ import annotations

from jetcheck.exprs import (
    MAX_HEIGHT,
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
    _eval,
    _is_exact_value,
    _mode_for,
    add,
    const,
    constant_value,
    mul,
    neg,
    pow_int,
    sub,
)
from jetcheck.numeric import DomainError, Scalar

MAX_DERIVATIVE_HEIGHT = 3 * MAX_HEIGHT


def div(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        folded = constant_value(Div(a, b))  # None for a zero divisor
        if folded is not None:
            return Const(folded)
    if _is_exact_value(b, 1):
        return a
    if _is_exact_value(a, 0):
        return a
    return Div(a, b)


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
    elif isinstance(e, (Mul, Div)):
        terms = mul(_diff(e.left, memo), e.right), mul(e.left, _diff(e.right, memo))
        out = add(*terms) if isinstance(e, Mul) else div(sub(*terms), pow_int(e.right, 2))
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


def nth_derivative(e: Expr, k: int, x0: Scalar) -> Scalar:
    """k-fold symbolic derivative evaluated at x0.

    This is the brute-force route: repeated :func:`diff` followed by plain
    evaluation, involving no jet machinery at all, which makes it a fully
    independent cross-check for the jet engine.  The mode is chosen on ``e``,
    as :func:`eval_jet` chooses it, since a derivative can drop a decimal.
    A derivative more than MAX_DERIVATIVE_HEIGHT levels high is a
    DomainError naming its order and its height.
    """
    if k < 0:
        raise DomainError(f"derivative order must be non-negative, got {k}")
    x0, mode = _mode_for(x0, (e,))
    d, heights = e, {}
    trees = []  # every tree measured so far, so that no id in ``heights`` is reused
    for order in range(1, k + 1):
        d = diff(d)
        trees.append(d)
        height = _height(d, heights)
        if height > MAX_DERIVATIVE_HEIGHT:
            raise DomainError(f"the derivative of order {order} is {height} levels high, "
                              f"more than the {MAX_DERIVATIVE_HEIGHT} that can be evaluated")
    return Scalar(_eval(d, x0.value, mode == "float", {}))


def _height(e: Expr, heights: dict[int, int]) -> int:
    """Levels from ``e`` down to its deepest leaf, by an explicit stack and
    memoized in ``heights`` on node identity, since derivatives share their
    subtrees."""
    stack = [e]
    while stack:
        node = stack[-1]
        children = [c for c in node.__getstate__() if isinstance(c, Expr)]
        pending = [c for c in children if id(c) not in heights]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        heights[id(node)] = 1 + max((heights[id(c)] for c in children), default=0)
    return heights[id(e)]
