"""Seeded random generators shared across the equivalence and acceptance
tests, the composition-enumeration reference for the verifiers'
left-hand sides, and reference routes for the jet evaluator, for the
exact right-hand-side product and for the float flag of a tree.

Everything here is driven by an explicit ``random.Random`` so tests are
reproducible; hypothesis-based strategies live in the test modules that use
them.
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction
from functools import reduce

from jetcheck import Jet, Scalar, TheoremInstance, eval_jet
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
    _mode_for,
    _named,
    add,
    const,
    mul,
    neg,
    pow_int,
)
from jetcheck.numeric import (
    DomainError,
    compositions,
    generalized_binomial,
    multinomial,
)
from jetcheck.parsing import parse
from oracles import nth_derivative

TRANSCENDENTALS = ("exp", "log", "sin", "cos", "sqrt")


def rand_fraction(rng: random.Random, num_bound: int = 4, den_bound: int = 4) -> Fraction:
    return Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))


def rand_polynomial(rng: random.Random, degree_bound: int = 4, coeff_bound: int = 4) -> Expr:
    poly: Expr = const(0)
    for j in range(rng.randint(0, degree_bound) + 1):
        poly = add(poly, mul(const(Scalar(rand_fraction(rng, coeff_bound, coeff_bound))), pow_int(Var(), j)))
    return poly


def quadratic_instance(n: int, r: int) -> TheoremInstance:
    """theorem1 with degree-2 polynomials, s = (n/r, ..., n/r) and x0 = 3/2."""
    rng = random.Random(f"wide:{n}:{r}:1")

    def quadratic():
        a, b, c = (Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(3))
        return parse(f"{a} + ({b})*x + ({c or 1})*x^2")

    f = tuple(quadratic() for _ in range(r))
    g_head = [quadratic() for _ in range(r - 1)]
    g_sum = const(0)
    for e in g_head:
        g_sum = add(g_sum, e)
    return TheoremInstance(
        n=n, r=r, f=f, g=tuple(g_head + [neg(g_sum)]), s=[n // r] * r, x0=Scalar.exact(3, 2),
    )


def rand_rational_closed(rng: random.Random, depth: int) -> Expr:
    """Random expression with no transcendental nodes and exact constants."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Var()
        return Const(Scalar(rand_fraction(rng)))
    op = rng.choice(("add", "sub", "mul", "mul", "div", "neg", "pow"))
    if op == "neg":
        return Neg(rand_rational_closed(rng, depth - 1))
    if op == "pow":
        return PowInt(rand_rational_closed(rng, depth - 1), rng.choice((0, 1, 2, 2, 3, 3, -1)))
    a = rand_rational_closed(rng, depth - 1)
    b = rand_rational_closed(rng, depth - 1)
    return {"add": Add, "sub": Sub, "mul": Mul, "div": Div}[op](a, b)


def rand_transcendental(rng: random.Random, depth: int) -> Expr:
    """Random expression built around the elementary functions; float mode."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.6:
            return Var()
        return Const(Scalar.inexact(rng.randint(-3, 3) / rng.randint(1, 4)))
    op = rng.choice(("add", "sub", "mul", "apply", "apply", "pow"))
    if op == "apply":
        return Apply(rng.choice(TRANSCENDENTALS), rand_transcendental(rng, depth - 1))
    if op == "pow":
        return PowInt(rand_transcendental(rng, depth - 1), rng.choice((1, 2, 3)))
    a = rand_transcendental(rng, depth - 1)
    b = rand_transcendental(rng, depth - 1)
    return {"add": Add, "sub": Sub, "mul": Mul}[op](a, b)


def pick_exact_point(rng: random.Random, e: Expr, kmax: int, attempts: int = 40) -> Scalar | None:
    """A rational point where both the jet route and the symbolic route are
    defined for all derivative orders up to kmax."""
    for _ in range(attempts):
        x0 = Scalar(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        try:
            eval_jet(e, x0, kmax)
            for k in range(kmax + 1):
                nth_derivative(e, k, x0)
        except (DomainError, ZeroDivisionError):
            continue
        return x0
    return None


def pick_float_point(
    rng: random.Random, e: Expr, kmax: int, attempts: int = 40, magnitude_cap: float = 1e6
) -> Scalar | None:
    """A float point where both routes are defined and values stay small
    enough that a 1e-9 relative comparison is meaningful."""
    for _ in range(attempts):
        x0 = Scalar.inexact(round(rng.uniform(0.2, 1.6), 3))
        try:
            jet = eval_jet(e, x0, kmax)
            values = [float(nth_derivative(e, k, x0)) for k in range(kmax + 1)]
        except (DomainError, ZeroDivisionError, OverflowError):
            continue
        if any(abs(v) > magnitude_cap for v in values):
            continue
        if any(abs(float(c)) > magnitude_cap for c in jet.coeffs):
            continue
        return x0
    return None


def rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# Reference left-hand sides --------------------------------------------------
#
# Each returns (lhs, cancellation_scale) for the same arguments as its
# verifier, by enumerating every composition k of n into r parts and taking a
# full jet product per factor: a route independent of the verifiers'
# binomial-convolution kernel, and too slow for wide instances (C(n+r-1, r-1)
# terms).


def _lift(s, mode):
    return s.to_float() if mode == "float" else s


def _composition_sum(n, r, mode, factor):
    """sum over |k| = n of multinomial(n, k) * prod_i factor(i, k_i), and the
    same sum of absolute values of the terms."""
    lhs = scale = _lift(Scalar.exact(0), mode)
    for k in compositions(n, r):
        term = _lift(multinomial(n, k), mode)
        for i in range(r):
            term = term * factor(i, k[i])
        lhs = lhs + term
        scale = scale + abs(term)
    return lhs, scale


def reference_convolve(tables, n):
    """The kernel's exact lhs and scale for integer tables (values, d, e), with
    entry k of table i read as values[k] / (d e^k), as Fractions."""

    def entry(i, k):
        values, d, e = tables[i]
        return Scalar(Fraction(values[k], d * e ** k))

    lhs, scale = _composition_sum(n, len(tables), "exact", entry)
    return lhs.value, scale.value


def reference_theorem1(inst):
    x0, mode = _mode_for(inst.x0, inst.f + inst.g)
    f = [eval_jet(e, x0, inst.n) for e in inst.f]
    g = [eval_jet(e, x0, inst.n) for e in inst.g]
    return _composition_sum(
        inst.n, inst.r, mode, lambda i, k: (f[i] * g[i] ** k).derivative(inst.s[i])
    )


def reference_corollary2(n, f, g, c, s, x0):
    x0, mode = _mode_for(x0, tuple(f) + (g,), c=tuple(c))
    c = [_lift(ci, mode) for ci in c]
    fj = [eval_jet(e, x0, n) for e in f]
    gj = eval_jet(g, x0, n)
    return _composition_sum(
        n, len(f), mode, lambda i, k: c[i] ** k * (fj[i] * gj ** k).derivative(s[i])
    )


def reference_symmetric_pair(n, p, f1, f2, g, x0):
    return reference_corollary2(n, (f1, f2), g, (Scalar.exact(-1), Scalar.exact(1)), (p, n - p), x0)


def reference_baran(n, f, g, x0):
    """Terms (-1)^k C(n,k) g(x0)^k (f g^(n-k))^(n)(x0) / n!, k = 0..n."""
    x0, mode = _mode_for(x0, (f, g))
    fj, gj = eval_jet(f, x0, n), eval_jet(g, x0, n)
    inv_nfact = _lift(Scalar.exact(1), mode) / _lift(Scalar.exact(math.factorial(n)), mode)
    return _composition_sum(
        n, 2, mode,
        lambda i, k: (-gj.value) ** k if i == 0 else (fj * gj ** k).derivative(n) * inv_nfact,
    )


def reference_leibniz_product(n, f, g, x0):
    """Terms x0 C(n,k) (x^k f)^(k)(x0) (x^(n-k) g)^(n-k)(x0), k = 0..n."""
    x0, mode = _mode_for(x0, (f, g))
    fj, gj = eval_jet(f, x0, n), eval_jet(g, x0, n)
    x = Jet.variable(x0, n)
    return _composition_sum(
        n, 2, mode,
        lambda i, k: x0 * (x ** k * fj).derivative(k) if i == 0 else (x ** k * gj).derivative(k),
    )


def _family_inputs(alpha, beta, c):
    beta, mode = _mode_for(beta, (), alpha=tuple(alpha), c=tuple(c))
    return mode, [_lift(a, mode) for a in alpha], beta, [_lift(ci, mode) for ci in c]


def reference_power_family(n, alpha, beta, c, s):
    mode, alpha, beta, c = _family_inputs(alpha, beta, c)
    return _composition_sum(
        n, len(c), mode,
        lambda i, k: c[i] ** k * generalized_binomial(alpha[i] + beta * k, s[i]),
    )


def reference_exp_family(n, alpha, beta, c, s, rhs_form="corrected"):
    """``rhs_form`` only mirrors the verifier's signature; the lhs ignores it."""
    mode, alpha, beta, c = _family_inputs(alpha, beta, c)
    return _composition_sum(
        n, len(c), mode, lambda i, k: c[i] ** k * (alpha[i] + beta * k) ** s[i]
    )


def _poly_mul(a: list, b: list, length: int) -> list:
    """The product of two coefficient lists, truncated to ``length`` terms."""
    return [sum(a[j] * b[m - j] for j in range(m + 1) if j < len(a) and m - j < len(b))
            for m in range(length)]


def closed_form_lhs(factors, n: int) -> Fraction:
    """The kernel's lhs, sum over |k| = n of multinomial(n, k) prod_i T_i[k_i],
    for tables T_i[k] = s_i! [t^(s_i)](F_i G_i^k) given as (F_i, G_i, s_i), F_i
    and G_i Fraction coefficient lists that reach index s_i.

    With g_i = G_i(x0) and H_i = G_i - g_i, expanding G_i^k = (g_i + H_i)^k
    turns the sum of table i's exponential generating function into
    e^(g_i z) P_i(z), P_i(y) = sum_{m <= s_i} (s_i!/m!) [t^(s_i)](F_i H_i^m) y^m,
    since H_i^m starts at t^m.  So the lhs is

        sum_M n(n-1)...(n-M+1) (sum_i g_i)^(n-M) [y^M] prod_i P_i(y),

    whose cost depends on the s_i alone, not on n but for one power.
    With sum g_i = 0 only M = n is left, which is the identities' own proof:
    a test oracle only, never a verifier's route."""
    product = [Fraction(1)]
    for f, g, s in factors:
        h, power, poly = [Fraction(0), *g[1:s + 1]], [Fraction(1)] + [Fraction(0)] * s, []
        for m in range(s + 1):
            at_s = sum(f[j] * power[s - j] for j in range(s + 1))
            poly.append(Fraction(math.factorial(s), math.factorial(m)) * at_s)
            power = _poly_mul(power, h, s + 1)
        product = _poly_mul(product, poly, len(product) + s)
    total = sum(g[0] for _, g, _ in factors)
    return sum(math.perm(n, m) * total ** (n - m) * c for m, c in enumerate(product) if m <= n)


# Verifier name -> its reference, called with the verifier's positional arguments.
REFERENCES = {
    "theorem1_verify": reference_theorem1,
    "corollary2_verify": reference_corollary2,
    "symmetric_pair_verify": reference_symmetric_pair,
    "baran_verify": reference_baran,
    "leibniz_product_verify": reference_leibniz_product,
    "power_family_check": reference_power_family,
    "exp_family_check": reference_exp_family,
}


# Reference routes ------------------------------------------------------------


def reference_contains_float(e: Expr) -> bool:
    """The tree walk that ``Expr.has_float`` replaced, kept verbatim as its
    reference: True when the tree carries a float literal; an explicit stack,
    left subtree first, on each node's exact class."""
    stack = [e]
    while stack:
        node = stack.pop()
        cls = node.__class__
        if cls is Const:
            if not node.value.is_exact:
                return True
        elif cls is Mul or cls is Add or cls is Sub or cls is Div:
            stack.append(node.right)
            stack.append(node.left)
        elif cls is PowInt:
            stack.append(node.base)
        elif cls is Neg or cls is Apply:
            stack.append(node.arg)
        elif cls is PowReal:
            if not node.exponent.is_exact:
                return True
            stack.append(node.base)
        elif cls is not Var:
            raise TypeError(f"not an expression node: {node!r}")
    return False


def reference_eval_jet(e: Expr, x0: Scalar, order: int) -> Jet:
    """eval_jet with every constant a constant jet and every node a jet-by-jet
    operation, in both modes: the route that eval_jet, which keeps exact
    constants as numbers, must agree with."""
    x0, mode = _mode_for(x0, (e,))
    seed = Jet.variable(x0.to_float() if mode == "float" else x0, order)

    def walk(node: Expr) -> Jet:
        if isinstance(node, Const):
            return Jet.constant(node.value if mode == "exact" else node.value.to_float(), order)
        if isinstance(node, Var):
            return seed
        if isinstance(node, Neg):
            return -walk(node.arg)
        if isinstance(node, (Add, Sub, Mul)):
            op = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}[type(node)]
            return op(walk(node.left), walk(node.right))
        if isinstance(node, Div):
            return _named(node, operator.truediv, walk(node.left), walk(node.right))
        if isinstance(node, PowInt):
            return _named(node, operator.pow, walk(node.base), node.exponent)
        if isinstance(node, PowReal):
            alpha = node.exponent if mode == "exact" else node.exponent.to_float()
            return _named(node, Jet.pow_real, walk(node.base), alpha)
        return _named(node, getattr(Jet, node.fn), walk(node.arg))

    return walk(e)


def reference_product(weight, factors, mode: str):
    """identities._product one Fraction at a time: weight times each
    (Fraction(base) / d) ** exponent, rounded once in float mode."""
    total = Fraction(weight)
    for base, d, exponent in factors:
        if isinstance(base, float) and not math.isfinite(base):
            raise OverflowError(f"a factor is {base!r}, not a finite number")
        total *= (Fraction(base) / d) ** exponent
    if mode == "exact":
        return total
    try:
        return float(total)
    except OverflowError:  # a rhs, as identities._product names it by default
        raise OverflowError("the rhs is beyond the float range") from None


# Full-loop references for float coefficient lists: the series products, the
# powers and the elementary recurrences with every term summed, none skipped,
# in the library's order.  The library's float paths must equal them bit for bit.


def _summed(terms):
    return reduce(operator.add, terms, 0)


def reference_series_mul(a, b) -> list:
    return [_summed(map(operator.mul, a, b[m::-1])) for m in range(len(a))]


def reference_series_pow(a, m: int) -> list:
    """a**m by square-and-multiply from the float unit, multiplying by it first."""
    result = [1.0] + [0.0] * (len(a) - 1)
    while m > 0:
        if m & 1:
            result = reference_series_mul(result, a)
        m >>= 1
        if m:
            a = reference_series_mul(a, a)
    return result


def reference_powers(g, n: int) -> list:
    """g^0 .. g^n, each power the product of the last by g, from the integer unit."""
    powers = [[1] + [0] * (len(g) - 1)]
    while len(powers) <= n:
        powers.append(reference_series_mul(powers[-1], g))
    return powers


def reference_exp(a) -> list:
    b = [math.exp(a[0])]
    for k in range(1, len(a)):
        b.append(_summed(a[j] * b[k - j] * j for j in range(1, k + 1)) / k)
    return b


def reference_sin_cos(a) -> tuple[list, list]:
    s, c = [math.sin(a[0])], [math.cos(a[0])]
    for k in range(1, len(a)):
        s.append(_summed(a[j] * c[k - j] * j for j in range(1, k + 1)) / k)
        c.append(-(_summed(a[j] * s[k - j] * j for j in range(1, k + 1)) / k))
    return s, c


def reference_log(a) -> list:
    b = [math.log(a[0])]
    for k in range(1, len(a)):
        acc = a[k] * k
        for j in range(1, k):
            acc = acc - b[j] * a[k - j] * j
        b.append(acc / k / a[0])
    return b


def reference_sqrt(a) -> list:
    b = [math.sqrt(a[0])]
    for k in range(1, len(a)):
        acc = a[k]
        for j in range(1, k):
            acc = acc - b[j] * b[k - j]
        b.append(acc / b[0] / 2)
    return b


def reference_pow_real(a, al: float) -> list:
    """a**al for a non-integer al and a[0] > 0, by the (1 + u)**al recurrence."""
    u = [0.0] + [ai / a[0] for ai in a[1:]]
    p = [1.0]
    for n in range(1, len(a)):
        p.append(_summed(u[k] * p[n - k] * ((al + 1.0) * k - n) for k in range(1, n + 1)) / n)
    lead = math.pow(a[0], al)
    return [lead * pk for pk in p]


def float_bits(values) -> list[str]:
    """float.hex() of each float and repr() of anything else: two lists are
    equal bit for bit (up to the payload of a nan) when these are equal."""
    return [v.hex() if v.__class__ is float else repr(v) for v in values]
