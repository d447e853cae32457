"""Seeded random generators shared across the equivalence and acceptance
tests, and the composition-enumeration reference for the verifiers'
left-hand sides.

Everything here is driven by an explicit ``random.Random`` so tests are
reproducible; hypothesis-based strategies live in the test modules that use
them.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from jetcheck import Jet, Scalar, eval_jet, nth_derivative
from jetcheck.exprs import (
    Add,
    Apply,
    Const,
    Div,
    Expr,
    Mul,
    Neg,
    PowInt,
    Sub,
    Var,
    add,
    const,
    mul,
    pow_int,
)
from jetcheck.identities import _mode_for
from jetcheck.numeric import (
    DomainError,
    compositions,
    generalized_binomial,
    multinomial,
)

TRANSCENDENTALS = ("exp", "log", "sin", "cos", "sqrt")


def rand_fraction(rng: random.Random, num_bound: int = 4, den_bound: int = 4) -> Fraction:
    return Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))


def rand_polynomial(rng: random.Random, degree_bound: int = 4, coeff_bound: int = 4) -> Expr:
    poly: Expr = const(0)
    for j in range(rng.randint(0, degree_bound) + 1):
        poly = add(poly, mul(const(Scalar(rand_fraction(rng, coeff_bound, coeff_bound))), pow_int(Var(), j)))
    return poly


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


def reference_theorem1(inst):
    x0, mode = _mode_for(inst.x0, inst.f + inst.g)
    f = [eval_jet(e, x0, inst.n) for e in inst.f]
    g = [eval_jet(e, x0, inst.n) for e in inst.g]
    return _composition_sum(
        inst.n, inst.r, mode, lambda i, k: (f[i] * g[i] ** k).derivative(inst.s[i])
    )


def reference_corollary2(n, f, g, c, s, x0):
    x0, mode = _mode_for(x0, tuple(f) + (g,), tuple(c))
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
    beta, mode = _mode_for(beta, (), tuple(alpha) + tuple(c))
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
