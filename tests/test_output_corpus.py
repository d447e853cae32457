"""Byte-for-byte output of a fixed corpus of CLI invocations.

Each invocation runs through ``cli.run``; the SHA-256 of its exit code,
standard output and standard error is compared with the committed table in
``output_corpus.json``.  The corpus covers every README example, every
verify/binomid/lemma kind in text and JSON, exact and ``--float``, every
elementary recurrence and non-integer real powers at n >= 10, exact
constants that scale, shift and divide jets and zero constants as divisors,
exact lhs and scales over tables of different denominators, a large float
instance, a flag value ``--``, tokens after a standalone ``--``, argparse's
abbreviations and ``-`` prefixed values, the README soak sweep and a
``--negative`` sweep, so a refactor that changes a single output byte fails
here.

The module needs no pytest: ``python tests/test_output_corpus.py`` prints the
table for the running interpreter, which compares Python versions with a
``diff`` and records the table after an intended change of output.
"""

from __future__ import annotations

import hashlib
import io
import json
import pathlib
import shlex
import sys

from jetcheck.cli import run

TABLE = pathlib.Path(__file__).with_name("output_corpus.json")

README_EXAMPLES = [
    ["verify", "baran", "--n", "2", "--f", "x", "--g", "x^2", "--at", "3"],
    ["verify", "theorem1", "--n", "2", "--s", "0,2", "--f", "1,x", "--g", "-x^2,x^2",
     "--at", "3", "--json"],
    ["verify", "corollary2", "--n", "2", "--s", "1,1,0", "--c", "1,1,-2", "--f", "x,1,1",
     "--g", "x^2", "--at", "1"],
    ["verify", "symmetric_pair", "--n", "2", "--p", "0", "--f1", "1", "--f2", "x",
     "--g", "x^2", "--at", "3"],
    ["binomid", "eq5", "--n", "1", "--s", "1", "--alpha", "0,0", "--beta", "2"],
    ["binomid", "eq6", "--n", "2", "--s", "2,0", "--c", "-1,1", "--alpha", "0,0",
     "--beta", "1", "--rhs-form", "as_printed"],
    ["lemma", "--f", "x^2-1", "--n", "2", "--at", "1"],
    ["sweep", "--seed", "42", "--trials", "100", "--json"],
]

# One instance of every verify/binomid/lemma kind; each also runs with
# --json, --float and both.
KINDS = [
    ["verify", "baran", "--n", "4", "--f", "x^3-1/2", "--g", "x^2-x/3", "--at", "2/3"],
    ["verify", "theorem1", "--n", "3", "--s", "1,2", "--f", "x^2+1,1/(1+x)",
     "--g", "x^3-2,2-x^3", "--at", "1/2"],
    ["verify", "corollary2", "--n", "3", "--s", "1,1,1", "--c", "2,-1/2,-3/2",
     "--f", "x,x^2,1-x", "--g", "x^3+x", "--at", "-1/3"],
    ["verify", "symmetric_pair", "--n", "3", "--p", "1", "--f1", "x^2", "--f2", "1+x",
     "--g", "x^2-x", "--at", "2/5"],
    ["verify", "leibniz_product", "--n", "3", "--f", "x^2+1", "--g", "1/(2-x)", "--at", "1/3"],
    ["binomid", "eq4", "--n", "3", "--s", "1,1,1", "--c", "1,1,-2", "--alpha", "1/2,2,3",
     "--beta", "3/2"],
    ["binomid", "eq5", "--n", "3", "--s", "1", "--alpha", "1/2,1", "--beta", "2"],
    ["binomid", "eq6", "--n", "3", "--s", "1,2", "--c", "-1,1", "--alpha", "1,2",
     "--beta", "1/2"],
    ["binomid", "eq7", "--n", "3", "--s", "2", "--alpha", "1,-1", "--beta", "2",
     "--rhs-form", "as_printed"],
    ["lemma", "--f", "x^3-8", "--n", "3", "--at", "2"],
]

BARAN = ["verify", "baran", "--n", "2", "--f", "x", "--g", "x^2"]

OTHERS = [
    # float digits of the elementary recurrences and of a large cancellation
    ["verify", "baran", "--n", "5", "--f", "sin(x)", "--g", "exp(x)-1", "--at", "0.3"],
    ["verify", "leibniz_product", "--n", "4", "--f", "log(1+x)", "--g", "sqrt(x)",
     "--at", "0.7", "--json"],
    ["verify", "theorem1", "--n", "3", "--s", "1,1", "--f", "cos(x),exp(x)",
     "--g", "sin(x),-sin(x)", "--at", "1/3", "--float", "--tol", "1e-12"],
    ["verify", "baran", "--n", "200", "--f", "x", "--g", "exp(x)", "--at", "1", "--float"],
    # every elementary recurrence and non-integer real powers at n >= 10
    ["verify", "baran", "--n", "12", "--f", "exp(x/2)*sqrt(x+1)", "--g", "sin(x)+(x+1)^(1/3)",
     "--at", "0.5", "--json"],
    ["verify", "baran", "--n", "16", "--f", "cos(x)^2-log(x)", "--g", "x^(1/2)+exp(-x)",
     "--at", "2.5"],
    ["verify", "leibniz_product", "--n", "10", "--f", "log(1+x)*cos(x)", "--g", "x^(5/3)",
     "--at", "0.8", "--json"],
    ["verify", "leibniz_product", "--n", "14", "--f", "sin(x)*exp(x)", "--g", "sqrt(x)-x^(-1/2)",
     "--at", "1.5"],
    ["lemma", "--f", "log(x)*cos(x)+sqrt(x)-x^(1/2)", "--n", "10", "--at", "1.0"],
    ["lemma", "--f", "sin(x)*exp(x)+log(1+x)-(x+1)^(5/3)+1", "--n", "12", "--at", "0.0",
     "--json"],
    # verdicts other than pass
    ["verify", "theorem1", "--n", "2", "--s", "1,1", "--f", "1,x", "--g", "x,x", "--at", "2"],
    ["binomid", "eq4", "--n", "2", "--s", "1,0", "--c", "1,-1", "--alpha", "1,2",
     "--beta", "1", "--json"],
    ["lemma", "--f", "x^2", "--n", "2", "--at", "1", "--json"],
    ["verify", "corollary2", "--n", "2", "--s", "1,1", "--c", "1,-1", "--f", "x,1",
     "--g", "x^2", "--at", "1", "--perturb-rhs", "1/7"],
    # a lemma failing at an order below n only
    ["lemma", "--f", "x-1+0.0000000000001", "--n", "2", "--at", "1", "--tol", "1e-15"],
    # usage and domain errors, among them each list-size message
    ["verify", "baran", "--n", "2", "--f", "x,x", "--g", "x", "--at", "1"],
    ["verify", "theorem1", "--n", "2", "--s", "1,1", "--f", "1,x", "--g", "x", "--at", "2"],
    ["verify", "corollary2", "--n", "2", "--s", "1,1", "--c", "1,-1,0", "--f", "x,1",
     "--g", "x^2", "--at", "1"],
    ["verify", "corollary2", "--n", "1", "--s", "1,1", "--c", "1,-1", "--f", "x,1",
     "--g", "x^2", "--at", "1"],
    ["binomid", "eq4", "--n", "2", "--r", "3", "--s", "1,1", "--c", "1,-1", "--alpha", "1,2",
     "--beta", "1"],
    ["verify", "leibniz_product", "--n", "2", "--f", "1/(x-1)", "--g", "x", "--at", "1"],
    # the single --s of the two-term binomial forms
    ["binomid", "eq5", "--n", "2", "--s", "1,1", "--alpha", "0,0", "--beta", "1"],
    ["binomid", "eq7", "--n", "2", "--s", "3", "--alpha", "0,0", "--beta", "1"],
    # exact constants meeting jets: scaled, shifted, over a jet and as powers;
    # a zero constant as a divisor or a base with a negative exponent
    ["verify", "baran", "--n", "6", "--f", "-3/2*x^2+(2/3)/(4/5)*x-(1/2)^3",
     "--g", "2-x/3+(-(1/4))*x^2", "--at", "3/2", "--json"],
    ["lemma", "--f", "(2/3)/x-2/3", "--n", "4", "--at", "1"],
    ["verify", "leibniz_product", "--n", "5", "--f", "2-x/(3/4)", "--g", "(1/2)^(-2)*x+(-2)^3",
     "--at", "-1/3"],
    ["verify", "baran", "--n", "2", "--f", "x/(1-1)", "--g", "x", "--at", "1"],
    ["lemma", "--f", "(1-1)^(-1)*x", "--n", "2", "--at", "0"],
    ["verify", "baran", "--n", "2", "--f", "x", "--g", "x*(0)^(-2)", "--at", "2", "--json"],
    # sweeps: the README soak in text and JSON, and a negative sweep
    ["sweep", "--seed", "3", "--trials", "400", "--max-n", "5", "--coeff-bound", "5",
     "--degree-bound", "4"],
    ["sweep", "--seed", "3", "--trials", "400", "--max-n", "5", "--coeff-bound", "5",
     "--degree-bound", "4", "--json"],
    ["sweep", "--seed", "5", "--trials", "100", "--negative"],
    # one exit 2 for each parse bound: groups, tree height, the exponent
    # product over nested powers, the bits of a constant power, digits
    ["lemma", "--f", "(" * 101 + "x" + ")" * 101, "--n", "1", "--at", "0"],
    ["verify", "baran", "--n", "1", "--f", "+".join(["x"] * 201), "--g", "x", "--at", "1"],
    ["lemma", "--f", "((x+1)^1000)^1000", "--n", "1", "--at", "-1"],
    ["lemma", "--f", "x-999999^10000", "--n", "1", "--at", "1"],
    ["lemma", "--f", "x-" + "7" * 5000, "--n", "1", "--at", "1"],
    # a chain at the height bound verifies
    ["verify", "baran", "--n", "1", "--f", "+".join(["x"] * 200), "--g", "x", "--at", "1"],
    # a decimal rhs shift switches exact inputs to float mode; an overflowing
    # float lhs is a numeric overflow, not a verdict
    ["verify", "baran", "--n", "2", "--f", "x", "--g", "x^2", "--at", "3", "--perturb-rhs", "0.5"],
    ["verify", "baran", "--n", "2", "--f", "exp(x)", "--g", "x", "--at", "709.0"],
    # a constant exponent that mixes exact and decimal literals folds as it evaluates
    ["verify", "baran", "--n", "1", "--f", "x^((1/10+2/10)*3.0)", "--g", "x", "--at", "2"],
    ["verify", "baran", "--n", "1", "--f", "x^((1/10+2/10)*3.0)", "--g", "x", "--at", "2",
     "--json"],
    # a flag value "--", which Python before 3.13 dropped: a type's message, a
    # value that the handler rejects, and an int flag
    ["verify", "baran", "--n", "2", "--f", "x", "--g", "x", "--at", "--"],
    ["sweep", "--identities", "--"],
    ["verify", "baran", "--n", "--", "--f", "x", "--g", "x", "--at", "1", "--json"],
    # tokens after a standalone "--" are not joined to a flag before it
    ["verify", "baran", "--n", "2", "--", "--f", "x"],
    ["verify", "--", "baran", "--n", "2"],
    ["lemma", "--f", "x-1", "--", "--n", "-2", "--at", "1"],
    # argparse's abbreviations, "-" prefixed values and options before a
    # positional, which write the same bytes on every supported interpreter
    BARAN + ["--at", "3", "--pe", "1"],
    BARAN + ["--at", "3", "--fl"],
    ["sweep", "--trials", "3", "--max", "2"],
    BARAN + ["--at", "-3/2"],
    ["sweep", "--trials", "3", "--identities", "-baran"],
    BARAN + ["--at", "-"],
    ["verify", "--n", "2", "baran", "--f", "x", "--g", "x^2", "--at", "3"],
    ["lemma", "--f", "x-1", "--n", "2", "--at", "1", "--he"],
    # exact cancellation scales of theorem1 and corollary2 over tables of
    # different denominators, which only the kernel puts over one; baran and
    # corollary2 with powers x^0 to x^5 and a coefficient c = 1
    ["verify", "theorem1", "--n", "6", "--s", "2,2,2", "--f", "1+x/5,x*x/7,1/(1+x)",
     "--g", "x/2+1/4,x*x/3-1/9,-x/2-1/4-x*x/3+1/9", "--at", "1", "--json"],
    ["verify", "corollary2", "--n", "5", "--s", "2,3", "--c", "2/3,-2/3", "--f", "1/(2+x),x/5",
     "--g", "x*x/7-x", "--at", "1/2", "--json"],
    ["verify", "baran", "--n", "6", "--f", "x^3-2*x^0", "--g", "(x/2)^5+x^1-1/3", "--at", "3/2",
     "--json"],
    ["verify", "corollary2", "--n", "6", "--s", "1,2,3", "--c", "1,-2,1",
     "--f", "x^2+1,x^5-x,1/(x^3+2)", "--g", "(x^4)/5-x", "--at", "3/2", "--json"],
]

CORPUS = README_EXAMPLES + [
    kind + extra for kind in KINDS for extra in ([], ["--json"], ["--float"], ["--float", "--json"])
] + OTHERS


def digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return hashlib.sha256(json.dumps([code, out.getvalue(), err.getvalue()]).encode()).hexdigest()


def digests() -> dict[str, str]:
    return {shlex.join(argv): digest(argv) for argv in CORPUS}


def test_corpus_output_is_unchanged():
    expected = json.loads(TABLE.read_text())
    actual = digests()
    assert sorted(actual) == sorted(expected), "the corpus and the table list different invocations"
    changed = [argv for argv, sha in actual.items() if expected[argv] != sha]
    assert not changed, "output changed for:\n" + "\n".join(changed)


if __name__ == "__main__":
    json.dump(digests(), sys.stdout, indent=1)
    sys.stdout.write("\n")
