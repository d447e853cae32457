#!/usr/bin/env python3
"""Print one SHA-256 over the reports of a fixed grid of float instances.

The sweep that ``report_digest.py`` digests draws polynomial trees only; this
grid covers what it never draws: exp, log, sin, cos, sqrt and real powers, of
linear and of other arguments, through the six verifiers that take trees, at
two points and n = 0 .. 12.  Each instance adds its report as JSON and as
text, or its error.  A change that must keep every float answer prints the
same digest before and after it.

    python scripts/float_digest.py
"""

import hashlib
import sys
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from jetcheck import MultiIndex, Scalar, cli, parse  # noqa: E402
from jetcheck.exprs import Const, Neg, Sub, eval_scalar  # noqa: E402
from jetcheck.identities import (  # noqa: E402
    TheoremInstance, baran_verify, corollary2_verify, leibniz_product_verify,
    symmetric_pair_verify, theorem1_verify, zero_power_lemma_check,
)

# Each tree is f, with the next two as h and g, at each point.  The last tree
# is undefined at both points, so every verifier's error is in the grid too.
TREES = (
    "exp(0.5*x)", "log(x+2)", "sin(x)", "cos(2*x+1)", "sqrt(x+3)", "(x+1)^(3/2)", "x^0.5",
    "exp(x^2)*sin(x)", "log(1+x*x)/x", "sqrt(1+x^2)-cos(x)", "(x+2)^(-1/2)*exp(sin(x))",
    "log(x-2)",
)
POINTS = (0.75, 1.5)
ORDERS = range(13)


def calls():
    """One call per instance of the grid, in a fixed order."""
    trees = [parse(text) for text in TREES]
    c = (Scalar.inexact(1.5), Scalar.inexact(-1.5))
    for x0 in map(Scalar.inexact, POINTS):
        for i, f in enumerate(trees):
            h, g = trees[(i + 1) % len(trees)], trees[(i + 2) % len(trees)]
            try:  # f minus its value at x0, for the lemma's hypothesis f(x0) = 0
                zero = Sub(f, Const(eval_scalar(f, x0)))
            except ValueError:
                zero = f
            for n in ORDERS:
                s = MultiIndex((n // 2, n - n // 2))
                yield from (
                    partial(theorem1_verify, TheoremInstance(n, 2, (f, h), (g, Neg(g)), s, x0)),
                    partial(corollary2_verify, n, (f, h), g, c, s, x0),
                    partial(symmetric_pair_verify, n, n // 2, f, h, g, x0),
                    partial(baran_verify, n, f, g, x0),
                    partial(leibniz_product_verify, n, f, g, x0),
                    partial(zero_power_lemma_check, zero, n, x0),
                )


def digest() -> tuple[str, int]:
    """The SHA-256 hex digest of the grid and the number of instances."""
    sha, count = hashlib.sha256(), 0
    for call in calls():
        try:
            report = call()
        except (ValueError, ArithmeticError) as err:
            texts = [f"{type(err).__name__}: {err}"]
        else:
            texts = [cli.emit_report(report, "json"), cli.emit_report(report, "text")]
        for text in texts:
            sha.update(text.encode() + b"\0")
        count += 1
    return sha.hexdigest(), count


if __name__ == "__main__":
    hexdigest, count = digest()
    print(f"{hexdigest}  {count} float instances")
