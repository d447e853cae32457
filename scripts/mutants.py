#!/usr/bin/env python3
"""Check that the test suite still kills a committed list of mutants.

Each mutant names a file, a piece of its text, the text that replaces it and
the test that must catch the change.  For each one the script copies ``src/``
and ``tests/`` into a temporary directory, runs the test on the copy as it is
(it must pass), replaces the text, which must occur exactly once, and runs
the test again (it must fail).  A refactor that moves a mutant's text
updates or retires its entry.

    python scripts/mutants.py                    # every mutant
    python scripts/mutants.py log_recurrence     # the named ones
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
JETS, IDENTITIES = "src/jetcheck/jets.py", "src/jetcheck/identities.py"
EXPRS, NUMERIC = "src/jetcheck/exprs.py", "src/jetcheck/numeric.py"
CLI, PARSING = "src/jetcheck/cli.py", "src/jetcheck/parsing.py"
DIVISION_GRID = "tests/test_jets.py::test_division_and_number_operands_keep_their_bits"

# name: (file, old text, new text, the test that kills the mutant)
MUTANTS = {
    # float jet division by the reciprocal of b[0]
    "float_jet_division": (
        JETS, "out.append(acc / b[0])", "out.append(acc * (1 / b[0]))", DIVISION_GRID),
    # a float jet divided by a number through the reciprocal of the number
    "float_number_division": (
        JETS, "return Jet._of([op(a, c) for a in self._values], None)",
        "return Jet._of([a * (1 / c) if op is operator.truediv else op(a, c)"
        " for a in self._values], None)", DIVISION_GRID),
    # a float shift that keeps a_k (and so -0.0) instead of op(a_k, 0)
    "float_shift_keeps_the_tail": (
        JETS, "*[op(v, 0) for v in values[1:]]", "*values[1:]",
        "tests/test_jets.py::test_number_operands_of_float_jets_keep_the_termwise_bits"),
    # a node's float flag that ignores a float PowReal exponent
    "float_exponent_flag": (
        EXPRS, '"has_float", base.has_float or not exponent.is_exact)',
        '"has_float", base.has_float)',
        "tests/test_expr_nodes.py::test_the_flag_equals_the_walk_on_every_subtree"),
    # the log recurrence divided once by k * a_0
    "log_recurrence": (
        JETS, "acc = acc - b[j] * a[k - j] * j\n            b.append(acc / k / a[0])",
        "acc = acc - b[j] * a[k - j] * j\n            b.append(acc / (k * a[0]))",
        "tests/test_jets.py::test_elementary_recurrences_keep_their_bits"),
    # the kernel lifts entry k of a table by (E/e_i)^(n-k)
    "kernel_lift_exponent": (
        IDENTITIES, "(common // e) ** k for k", "(common // e) ** (n - k) for k",
        "tests/test_kernel.py::test_entry_n_kernel_equals_the_composition_reference"),
    # the kernel's divisor without E^n
    "kernel_divisor": (
        IDENTITIES, "den = common ** n * math.prod(", "den = math.prod(",
        "tests/test_kernel.py::test_entry_n_kernel_equals_the_composition_reference"),
    # Pascal rows rounded through floats, which are exact only up to row 56
    "kernel_float_binomials": (
        IDENTITIES, "rows = {m: [math.comb(m, j) for j",
        "rows = {m: [int(float(math.comb(m, j))) for j",
        "tests/test_kernel.py::test_the_widest_tables_fold_to_the_closed_form"),
    # float series_pow without the product by the unit
    "float_power_unit": (
        JETS, "if unit.__class__ is float or not m else None", "if not m else None",
        "tests/test_jets.py::test_float_powers_keep_the_product_by_the_unit"),
    # a float product by a constant that keeps a -0.0 the sum turns into 0.0
    "float_scaling_keeps_minus_zero": (
        JETS, "return [c[0] * v + 0.0 for v in other]", "return [c[0] * v for v in other]",
        "tests/test_jets.py::test_float_products_by_a_constant_keep_the_full_loop_bits"),
    # exp of a linear argument that keeps the one-term values past an inf,
    # where the skipped zero terms of the full loop give nan
    "float_linear_exp_without_fallback": (
        JETS, "if not all(map(math.isfinite, b)):\n", "if False:\n",
        "tests/test_jets.py::test_recurrences_of_linear_arguments_keep_the_full_loop_bits"),
    # a node's children taken from its first field only: a function node then
    # has none, and a binary node only its left operand
    "height_first_field": (
        EXPRS, "for c in node.__getstate__() if", "for c in node.__getstate__()[:1] if",
        "tests/test_expr_nodes.py::test_heights_equal_the_recursive_height"),
    # a subcommand found by prefix, so that "ver" runs verify's parser
    "dispatch_by_prefix": (
        CLI, "_PARSER.commands.get(argv[0])",
        "next((p for name, p in _PARSER.commands.items() if name.startswith(argv[0])), None)",
        "tests/test_cli.py::test_dispatch_writes_what_the_whole_parser_writes"),
    # a plain argv pass that takes a repeated flag and keeps its first value,
    # where argparse keeps the last
    "plain_parse_keeps_first_repeat": (
        CLI, "return None  # argparse keeps the last value of a repeated flag", "continue",
        "tests/test_cli.py::test_plain_pass_agrees_with_argparse_on_the_workload_shapes"),
    # an exponent's errors placed at the token after the exponent, not at its first
    "exponent_error_offset": (
        PARSING, "exponent = self.factor()[0]\n",
        "exponent = self.factor()[0]\n        first = self.pos\n",
        "tests/test_parser_differential.py::test_random_strings_parse_as_the_reference"),
    # the height bound checked one level late, so a tree MAX_HEIGHT + 1 high parses
    "parse_height_bound": (
        PARSING, "if height == MAX_HEIGHT:", "if height > MAX_HEIGHT:",
        "tests/test_parsing.py::test_a_power_of_a_long_chain_is_a_parse_error"),
    # a value flag joined to the token after it past a standalone "--"
    "join_past_separator": (
        CLI, '        elif tok == "--":\n            return out + list(argv[i:])\n', "",
        "tests/test_output_corpus.py::test_corpus_output_is_unchanged"),
    # a plain pass that starts from the actions' defaults only, without the
    # parser's set_defaults entries (the handler among them)
    "plain_table_defaults": (
        CLI, "        self.defaults.update(self._defaults)\n", "",
        "tests/test_cli.py::test_plain_pass_agrees_with_argparse_on_the_workload_shapes"),
    # a lemma that reads only order n, passing an f^n nonzero at a lower order
    "lemma_lower_orders": (
        IDENTITIES, "if bad:", "if False:",
        "tests/test_output_corpus.py::test_corpus_output_is_unchanged"),
    # a float integer exponent taken as a real one, so a negative base is a domain error
    "real_power_integer_float": (
        NUMERIC, "if v.__class__ is Fraction else v.is_integer()",
        "if v.__class__ is Fraction else False",
        "tests/test_exprs.py::test_integer_real_powers_match_the_oracle_at_a_negative_point"),
    # a mode read from the point and the scalars only, so a decimal in a tree
    # that its derivative drops no longer makes the evaluation float
    "mode_for_trees": (
        EXPRS, "    for e in exprs:\n        lift = lift or contains_float(e)\n", "",
        "tests/test_exprs.py::test_nth_derivative_takes_its_mode_from_the_given_tree"),
    # a constant's precedence read from its value, so -0.0 prints unparenthesized
    # as a power's base and reads back as a negated power
    "txt_negative_zero": (
        EXPRS, 'p = 3 if s[0] == "-" else 5', "p = 3 if e.value.value < 0 else 5",
        "tests/test_exprs.py::test_to_text_spot"),
}


def run_test(tree: Path, test: str) -> int:
    """pytest's exit code for one test id, run on the copy at ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test],
        cwd=tree, env=env, capture_output=True, check=False,
    ).returncode


def check(name: str) -> str | None:
    """None when the mutant's test passes on the tree and fails on the mutant,
    else what went wrong."""
    path, old, new, test = MUTANTS[name]
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tree)
        code = run_test(tree, test)
        if code != 0:
            return f"{test} exits {code} on the tree"
        source = (tree / path).read_text()
        if source.count(old) != 1:
            return f"the old text occurs {source.count(old)} times in {path}"
        (tree / path).write_text(source.replace(old, new))
        code = run_test(tree, test)
        if code != 1:
            return f"{test} exits {code} on the mutant, not 1 (a failed test)"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"mutants to check (default: all): {', '.join(MUTANTS)}")
    names = parser.parse_args().names or list(MUTANTS)
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        parser.error(f"unknown mutant: {', '.join(unknown)}")
    failures = 0
    for name in names:
        problem = check(name)
        print(f"{name}: {'killed' if problem is None else problem}", flush=True)
        failures += problem is not None
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
