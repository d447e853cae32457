"""Expression trees for one-variable functions.

An :data:`Expr` is an immutable tree over the single variable ``x`` with
rational or float constants, the four arithmetic operations, integer and real
powers, and the elementary functions exp, log, sin, cos, sqrt.  Two
consumers share the representation:

* :func:`eval_scalar` - plain evaluation at a point;
* :func:`eval_jet` - evaluation into truncated Taylor series.

A single decimal constant anywhere in a tree marks the whole evaluation as
float mode; otherwise evaluation inherits the mode of the evaluation point.
The first half of the rule is stated at construction: every node records in
``has_float`` whether a float literal lies at or below it, so a tree is never
walked for its mode.  :func:`_mode_for`, the one statement of the whole rule,
reads it from each evaluation's own inputs.  An exponent with an integer
value, exact or float, is an integer power to the jets and the scalar
evaluator alike.  Exact mode refuses transcendental nodes with a ModeError
rather than returning a rounded value.  Constant folding
(:func:`constant_value`, used by the parser and by the smart constructors)
is the evaluator run without a point, so a constant folds to the value the
same text evaluates to anywhere else.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

from .jets import ELEMENTARY_FUNCTIONS, Jet
from .numeric import DomainError, ModeError, Scalar, integer_value

# The recursive walks below take one frame per tree level, so trees are
# bounded in height where they are built: the parser's at MAX_HEIGHT.  On a
# hand-built tree too high for the recursion limit, each public walk
# (eval_jet, eval_scalar, to_text) turns the RecursionError into a ValueError,
# so no call pays for a walk that measures the height first.  A walk takes one
# frame a level, so the height it reaches is sys.getrecursionlimit() less the
# caller's own stack depth, not a fixed number.
MAX_HEIGHT = 200

_set = object.__setattr__  # how a node's own __init__ sets its slots


class Expr:
    """The base of the ten node classes, immutable.  A node's fields, named in
    ``_fields``, are its value: they give its ``==``, ``hash``, ``repr`` and
    pickled state, as a frozen dataclass's fields give its own; unpickling
    runs the constructor.  ``has_float``, set by each constructor and not a
    field, is True when a float literal lies at or below the node."""

    __slots__ = ("has_float",)
    _fields: tuple[str, ...] = ()

    def __getstate__(self) -> list:
        return [getattr(self, name) for name in self._fields]

    def __setstate__(self, state: list) -> None:
        self.__init__(*state)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.__getstate__() == other.__getstate__()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.__getstate__()))

    def __repr__(self) -> str:
        fields = [f"{name}={value!r}" for name, value in zip(self._fields, self.__getstate__())]
        return f"{self.__class__.__qualname__}({', '.join(fields)})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Const(Expr):
    __slots__ = _fields = ("value",)

    def __init__(self, value: Scalar):
        _set(self, "value", value)
        _set(self, "has_float", not value.is_exact)


class Var(Expr):
    __slots__ = _fields = ()

    def __init__(self):
        _set(self, "has_float", False)


class Neg(Expr):
    __slots__ = _fields = ("arg",)

    def __init__(self, arg: Expr):
        _set(self, "arg", arg)
        _set(self, "has_float", arg.has_float)


class _Binary(Expr):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "has_float", left.has_float or right.has_float)


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class PowInt(Expr):
    __slots__ = _fields = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int):
        _set(self, "base", base)
        _set(self, "exponent", exponent)
        _set(self, "has_float", base.has_float)


class PowReal(Expr):
    __slots__ = _fields = ("base", "exponent")

    def __init__(self, base: Expr, exponent: Scalar):
        _set(self, "base", base)
        _set(self, "exponent", exponent)
        _set(self, "has_float", base.has_float or not exponent.is_exact)


class Apply(Expr):
    __slots__ = _fields = ("fn", "arg")

    def __init__(self, fn: str, arg: Expr):
        if fn not in ELEMENTARY_FUNCTIONS:
            raise ValueError(f"unknown function {fn!r}")
        _set(self, "fn", fn)
        _set(self, "arg", arg)
        _set(self, "has_float", arg.has_float)


X = Var()


def const(value: Scalar | int) -> Const:
    return Const(value if isinstance(value, Scalar) else Scalar.exact(value))


def _is_exact_value(e: Expr, v: int) -> bool:
    return isinstance(e, Const) and e.value.is_exact and e.value == v


# Smart constructors, used by the sweep's generators: they fold constants and
# absorb 0 and 1, nothing more; the parser builds raw nodes instead so parse
# trees mirror the input.

def neg(e: Expr) -> Expr:
    if isinstance(e, Const):
        return Const(-e.value)
    if isinstance(e, Neg):
        return e.arg
    return Neg(e)


def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(constant_value(Add(a, b)))
    if _is_exact_value(a, 0):
        return b
    if _is_exact_value(b, 0):
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(constant_value(Sub(a, b)))
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
            return Const(constant_value(Mul(a, b)))
        if a.value.is_exact and a.value == 0:
            return a
        if a.value.is_exact and a.value == 1:
            return b
        if isinstance(b, Mul) and isinstance(b.left, Const):
            return mul(mul(a, b.left), b.right)
    return Mul(a, b)


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


def contains_float(e: Expr) -> bool:
    """True when the tree carries a float literal (which forces float mode):
    the flag its root recorded when it was built."""
    try:
        return e.has_float
    except AttributeError:
        raise TypeError(f"not an expression node: {e!r}") from None


class _NoPoint(Exception):
    """Evaluation without a point met x, a function or a real power."""


def _mode_for(x0: Scalar, exprs: Sequence[Expr], **scalars) -> tuple[Scalar, str]:
    """Evaluation point and ambient mode: float as soon as any input is, a
    decimal literal in a tree or an rhs shift included.  ``scalars`` are the
    other scalar inputs by name: a Scalar, a tuple of them, or a None
    rhs_shift.  An input that is not a Scalar is a TypeError naming it, the
    named ones first (the binomial families name their point, beta).  Plain
    loops, no generators: every evaluation calls it."""
    lift = False
    for name, value in scalars.items():
        for i, s in enumerate(value if value.__class__ is tuple else (value,)):
            if not isinstance(s, Scalar) and (s is not None or name != "rhs_shift"):
                name = f"{name}[{i}]" if value.__class__ is tuple else name
                raise TypeError(f"{name} must be a Scalar, got {type(s).__name__}")
            lift = lift or (s is not None and not s.is_exact)
    if not isinstance(x0, Scalar):
        raise TypeError(f"x0 must be a Scalar, got {type(x0).__name__}")
    lift = lift or not x0.is_exact
    for e in exprs:
        lift = lift or contains_float(e)
    return (x0.to_float(), "float") if lift else (x0, "exact")


def constant_value(e: Expr) -> Scalar | None:
    """The value of a subtree without x: :func:`eval_scalar` run without a
    point, so in the same mode and to the same digits; None where x, a
    function or a real power appears, or where the value is undefined
    (division by zero, zero to a negative power)."""
    try:
        return Scalar(_eval(e, None, contains_float(e), {}))
    except (_NoPoint, DomainError):
        return None


def _eval(e: Expr, x0: Fraction | float | None, lift: bool, memo: dict) -> Fraction | float:
    """The value of ``e`` at the plain number x0, a float when ``lift`` is set,
    memoized on node identity; one frame per tree level."""
    hit = memo.get(id(e))
    if hit is not None:
        return hit
    if isinstance(e, Const):
        out = float(e.value) if lift else e.value.value
    elif x0 is None and isinstance(e, (Var, PowReal, Apply)):
        raise _NoPoint
    elif isinstance(e, Var):
        out = x0
    elif isinstance(e, Neg):
        out = -_eval(e.arg, x0, lift, memo)
    elif isinstance(e, Add):
        out = _eval(e.left, x0, lift, memo) + _eval(e.right, x0, lift, memo)
    elif isinstance(e, Sub):
        out = _eval(e.left, x0, lift, memo) - _eval(e.right, x0, lift, memo)
    elif isinstance(e, Mul):
        out = _eval(e.left, x0, lift, memo) * _eval(e.right, x0, lift, memo)
    elif isinstance(e, Div):
        den = _eval(e.right, x0, lift, memo)
        if den == 0:
            raise DomainError(f"division by zero in '{to_text(e)}'")
        out = _eval(e.left, x0, lift, memo) / den
    elif isinstance(e, (PowInt, PowReal)):
        out = _power(e, _eval(e.base, x0, lift, memo))
    elif isinstance(e, Apply):
        out = _applied(e, _eval(e.arg, x0, lift, memo))
    else:
        raise TypeError(f"not an expression node: {e!r}")
    memo[id(e)] = out
    return out


def _power(e: PowInt | PowReal, base: Fraction | float) -> Fraction | float:
    """The value of ``e`` where its base has the value ``base``; a float power
    beyond the float range is an OverflowError naming ``e``."""
    m = e.exponent if e.__class__ is PowInt else integer_value(e.exponent)
    if m is not None:
        if m < 0 and base == 0:
            raise DomainError(f"zero base with negative exponent in '{to_text(e)}'")
    elif base.__class__ is Fraction:
        raise ModeError(f"non-integer power in '{to_text(e)}' requires float mode")
    elif not base > 0:
        raise DomainError(f"non-positive base for real power in '{to_text(e)}'")
    try:
        return base ** m if m is not None else math.pow(base, float(e.exponent))
    except OverflowError:
        raise OverflowError(f"float power overflow in '{to_text(e)}'") from None


def _applied(e: Apply, arg: Fraction | float) -> float:
    """The value of ``e`` where its argument has the value ``arg``."""
    if arg.__class__ is Fraction:
        raise ModeError(f"'{e.fn}' in '{to_text(e)}' requires float mode")
    if e.fn in ("log", "sqrt") and not arg > 0:
        raise DomainError(f"non-positive argument to {e.fn} in '{to_text(e)}'")
    try:
        return getattr(math, e.fn)(arg)
    except OverflowError:  # only exp overflows
        raise DomainError(f"exp overflow in '{to_text(e)}'") from None


def eval_scalar(e: Expr, x0: Scalar) -> Scalar:
    """Evaluate at x0.  Exact when the tree and the point are exact; any
    decimal literal in the tree forces float mode for the whole evaluation."""
    x0, mode = _mode_for(x0, (e,))
    try:
        return Scalar(_eval(e, x0.value, mode == "float", {}))
    except RecursionError:
        raise _too_high() from None


def _too_high() -> ValueError:
    """The error of a walk that ran out of recursion.  The bound is the
    interpreter's recursion limit less the caller's own stack depth, so a
    caller already deep in its stack, or a tree high enough to print only
    near the limit, gets this error too, not only a tree higher than it."""
    return ValueError("the tree is too high to walk: a parsed tree is at most "
                      f"MAX_HEIGHT = {MAX_HEIGHT} levels high")


def _named(node: Expr, op, *operands) -> Jet:
    """op(*operands), with a domain error naming ``node``; the operands are
    built before the call, so their own errors are named only once."""
    try:
        return op(*operands)
    except DomainError as err:
        raise DomainError(f"{err} in '{to_text(node)}'") from None


def eval_jet(e: Expr, x0: Scalar, order: int) -> Jet:
    """Evaluate into an order-n jet at x0, by structural recursion onto the
    jet operations, in the mode :func:`eval_scalar` takes for the tree and x0.

    In exact mode a subtree without x stays a Fraction, which scales or
    shifts a jet through the jet's operators; it becomes a constant jet only
    where a jet operation needs one (a constant over a jet, a zero divisor,
    zero to a negative power, a real power, a function, the whole tree), so
    errors read as before.  Float mode keeps every constant a jet, so its
    float operations, and bits, stay jet-by-jet."""
    seed = Jet.variable(_mode_for(x0, (e,))[0], order)
    try:
        return _lifted(_jet(e, seed), seed)
    except RecursionError:
        raise _too_high() from None


def _jet(node: Expr, seed: Jet) -> Jet | Fraction:
    """:func:`eval_jet` of a subtree, a Fraction for one without x in exact
    mode; ``seed``, the jet of x, fixes order and mode.  Not a closure, so an
    evaluation leaves no reference cycle behind."""
    cls = node.__class__
    if cls is Var:
        return seed
    if cls is Const:
        if seed.is_exact:
            return node.value.value
        return Jet._line(float(node.value), 0, seed.order)
    if cls is Mul:
        a, b = _jet(node.left, seed), _jet(node.right, seed)
        return b * a if a.__class__ is Fraction else a * b
    if cls is Add:
        a, b = _jet(node.left, seed), _jet(node.right, seed)
        return b + a if a.__class__ is Fraction else a + b
    if cls is Sub:
        a, b = _jet(node.left, seed), _jet(node.right, seed)
        return b.__rsub__(a) if a.__class__ is Fraction else a - b
    if cls is PowInt:
        base = _jet(node.base, seed)
        if base.__class__ is Fraction:
            if base or node.exponent >= 0:
                return base ** node.exponent
            base = _lifted(base, seed)
        return _named(node, operator.pow, base, node.exponent)
    if cls is Neg:
        return -_jet(node.arg, seed)
    if cls is Div:
        a, b = _jet(node.left, seed), _jet(node.right, seed)
        if b.__class__ is Fraction:
            if not b:
                b = _lifted(b, seed)
            elif a.__class__ is Fraction:
                return a / b
        return _named(node, operator.truediv, a, b)
    if cls is PowReal:
        return _named(node, Jet.pow_real, _lifted(_jet(node.base, seed), seed), node.exponent)
    if cls is Apply:
        return _named(node, getattr(Jet, node.fn), _lifted(_jet(node.arg, seed), seed))
    raise TypeError(f"not an expression node: {node!r}")


def _lifted(value: Jet | Fraction, seed: Jet) -> Jet:
    """``value`` as a jet of the seed's order: a Fraction becomes its constant jet."""
    return Jet._line(value, 0, seed.order) if value.__class__ is Fraction else value


# Precedence levels for printing: addition 1, multiplication 2, unary minus 3,
# power 4, atoms 5.  Each node is classified once, for its text and its level.

def _txt(e: Expr, min_prec: int) -> str:
    if (cls := e.__class__) is Const:
        s = e.value.as_text()
        p = 3 if s[0] == "-" else 5  # a leading minus, -0.0's too, reads as a negation
    elif cls is Var:
        s, p = "x", 5
    elif cls is Mul:
        s, p = f"{_txt(e.left, 2)}*{_txt(e.right, 3)}", 2
    elif cls is Add:
        s, p = f"{_txt(e.left, 1)} + {_txt(e.right, 2)}", 1
    elif cls is Sub:
        s, p = f"{_txt(e.left, 1)} - {_txt(e.right, 2)}", 1
    elif cls is PowInt:
        s, p = f"{_txt(e.base, 5)}^{e.exponent}", 4
    elif cls is Neg:
        s, p = "-" + _txt(e.arg, 3), 3
    elif cls is Div:
        right = _txt(e.right, 3)
        if right[0].isdigit():
            # keep the lexer from gluing a trailing integer on the left onto
            # '/<digits>' as a rational literal
            right = f"({right})"
        s, p = f"{_txt(e.left, 2)}/{right}", 2
    elif cls is PowReal:
        exp = e.exponent
        exp_txt = f"({exp.as_text()})" if exp.is_exact else exp.as_text()
        s, p = f"{_txt(e.base, 5)}^{exp_txt}", 4
    elif cls is Apply:
        s, p = f"{e.fn}({_txt(e.arg, 1)})", 5
    else:
        raise TypeError(f"not an expression node: {e!r}")
    return f"({s})" if p < min_prec else s


def to_text(e: Expr) -> str:
    """Render with the minimum parentheses that reparse to the same tree.

    Constants print with a leading minus when negative, which reparses as an
    explicit negation node; canonical trees keep constants non-negative.
    """
    try:
        return _txt(e, 1)
    except RecursionError:
        raise _too_high() from None
