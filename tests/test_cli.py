import gc
import io
import json
import operator
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetcheck.cli import run
from jetcheck.parsing import MAX_NESTING
from test_output_corpus import OVERFLOWS

EXPECTED_KEYS = [
    "identity", "params", "mode", "lhs", "rhs", "residual",
    "cancellation_scale", "tolerance", "verdict", "notes",
]


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def invoke_json(*argv):
    code, out, err = invoke(*argv)
    assert out, err
    return code, json.loads(out)


def test_baran_spot_text():
    code, out, err = invoke("verify", "baran", "--n", "2", "--f", "x", "--g", "x^2", "--at", "3")
    assert code == 0
    assert "lhs: 108" in out and "rhs: 108" in out and "verdict: pass" in out


def test_theorem1_spot_json():
    code, doc = invoke_json(
        "verify", "theorem1", "--n", "2", "--s", "0,2",
        "--f", "1,x", "--g", "-x^2,x^2", "--at", "3", "--json",
    )
    assert code == 0
    assert list(doc.keys()) == EXPECTED_KEYS
    assert doc["lhs"] == "216/1"
    assert doc["residual"] == "0/1"
    assert doc["verdict"] == "pass"
    assert doc["tolerance"] is None
    assert doc["params"]["g"] == "-x^2,x^2"


def test_parse_error_exits_2():
    code, out, err = invoke("verify", "baran", "--n", "2", "--f", "x", "--g", "x^^2", "--at", "3")
    assert code == 2
    assert "offset 2" in err and "--g" in err


def test_missing_flag_exits_2():
    code, out, err = invoke("verify", "theorem1", "--n", "2", "--f", "1,x", "--at", "3")
    assert code == 2
    assert "--s" in err


def test_unknown_subcommand_exits_2():
    code, out, err = invoke("frobnicate")
    assert code == 2


def test_structural_error_exits_2():
    # |s| > n is a usage error, not a verdict
    code, out, err = invoke(
        "verify", "theorem1", "--n", "1", "--s", "1,1",
        "--f", "1,x", "--g", "-x,x", "--at", "0",
    )
    assert code == 2
    assert "|s|" in err


def test_precondition_exits_1_with_null_sides():
    code, doc = invoke_json(
        "verify", "theorem1", "--n", "2", "--s", "0,2",
        "--f", "1,x", "--g", "x^2,x^2", "--at", "3", "--json",
    )
    assert code == 1
    assert doc["verdict"] == "precondition_violated"
    assert doc["lhs"] is None and doc["rhs"] is None and doc["residual"] is None


def test_decimal_perturb_rhs_switches_exact_inputs_to_float_mode():
    code, doc = invoke_json(
        "verify", "baran", "--n", "2", "--f", "x", "--g", "x^2", "--at", "3",
        "--perturb-rhs", "0.5", "--json",
    )
    assert code == 1 and doc["mode"] == "float" and doc["residual"] == "-0.5"
    assert "float mode forced by a decimal literal in the inputs" in doc["notes"]


def test_perturbed_rhs_fails_with_exit_1():
    code, doc = invoke_json(
        "verify", "baran", "--n", "2", "--f", "x", "--g", "x^2", "--at", "3",
        "--perturb-rhs", "1/1000", "--json",
    )
    assert code == 1
    assert doc["verdict"] == "fail"
    assert doc["residual"] == "-1/1000"
    assert any("perturbed" in note for note in doc["notes"])


def test_float_mode_report():
    code, doc = invoke_json(
        "verify", "baran", "--n", "3", "--f", "exp(x)", "--g", "sin(x)",
        "--at", "1/2", "--float", "--json",
    )
    assert code == 0
    assert doc["mode"] == "float"
    assert doc["tolerance"] == "1e-09"
    assert "/" not in doc["lhs"]


def test_decimal_literal_forces_float_with_note():
    code, doc = invoke_json(
        "verify", "leibniz_product", "--n", "2", "--f", "0.5*x", "--g", "1",
        "--at", "2", "--json",
    )
    assert code == 0
    assert doc["mode"] == "float"
    assert any("float mode" in note for note in doc["notes"])


def test_exact_without_float_flag_rejects_transcendentals():
    code, out, err = invoke("verify", "baran", "--n", "2", "--f", "exp(x)", "--g", "x", "--at", "1")
    assert code == 2
    assert "float" in err


def test_tol_override():
    code, doc = invoke_json(
        "verify", "baran", "--n", "2", "--f", "x", "--g", "x^2",
        "--at", "0.5", "--tol", "0.001", "--json",
    )
    assert code == 0
    assert doc["tolerance"] == "0.001"


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_tol_must_be_finite_and_positive(tol):
    code, out, err = invoke(
        "verify", "baran", "--n", "2", "--f", "x", "--g", "x^2", "--at", "0.5", "--tol", tol,
    )
    assert code == 2 and out == ""
    assert "argument --tol" in err


@pytest.mark.parametrize("argv", [
    ("frobnicate",),
    ("verify", "baran", "--n", "abc", "--f", "x", "--g", "x^2", "--at", "3"),
    (),
])
def test_argparse_errors_are_one_line_on_the_given_stream(argv, capsys):
    code, out, err = invoke(*argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert capsys.readouterr().err == ""


def test_help_exits_0():
    code, out, err = invoke("--help")
    assert code == 0 and err == ""
    assert out.startswith("usage: jetcheck")


@pytest.mark.parametrize("argv", [
    (), ("--help",), ("frobnicate",), ("ver",), ("verify",),
    ("verify", "--help"), ("binomid", "--help"), ("lemma", "--help"), ("sweep", "--help"),
    ("verify", "baran", "stray", "--n", "2", "--f", "x", "--g", "x^2", "--at", "3"),
    ("--json", "lemma", "--f", "x^2-1", "--n", "2", "--at", "1"),
    ("sweep", "--trials", "two"),
    # plain under a prefix of a command: no plain pass may read it
    ("ver", "baran", "--n", "2", "--f", "x", "--g", "x^2", "--at", "3"),
])
def test_dispatch_writes_what_the_whole_parser_writes(argv):
    # run() reads argv led by a subcommand's name with that subcommand's plain
    # pass and hands all other argv to the whole parser; its help and its
    # errors are the whole parser's on the running interpreter, byte for byte
    from jetcheck import cli

    parser = cli.build_parser()
    try:
        parser.parse_args(cli._join_flag_values(argv, parser.value_flags))
    except cli._Help as help_text:
        expected = (0, str(help_text), "")
    except cli.UsageError as message:
        expected = (2, "", f"error: {message}\n")
    else:
        raise AssertionError(f"{argv} parsed")
    assert invoke(*argv) == expected


def test_superscript_exponent_is_one_error_line():
    code, out, err = invoke("verify", "baran", "--n", "2", "--f", "x^²", "--g", "x", "--at", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: argument --f: parse error at offset 2")
    assert err.count("\n") == 1 and "_expr_list" not in err


def test_domain_error_names_the_failing_node_once():
    code, out, err = invoke("verify", "baran", "--n", "2", "--f", "1/(1/(x-1))", "--g", "x",
                            "--at", "1")
    assert code == 2 and out == ""
    assert err == ("error: division by a jet that vanishes at the expansion point "
                   "in '1/(x - 1)'\n")
    code, out, err = invoke("verify", "baran", "--n", "2", "--f", "log(sqrt(x-1))", "--g", "x",
                            "--at", "1", "--float")
    assert code == 2 and out == ""
    assert err == ("error: sqrt requires a positive value at the expansion point "
                   "in 'sqrt(x - 1)'\n")


def test_float_overflow_exits_2_with_one_line_error():
    # 171! is above the largest float, so the eq7 right-hand side cannot be formed
    code, out, err = invoke(
        "binomid", "eq7", "--n", "171", "--s", "85", "--alpha", "0,0", "--beta", "1", "--float",
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_float_rhs_never_rounds_n_factorial_alone():
    # 171! is above the largest float, but the rhs 171! / 2^171 and the lhs are not
    code, out, err = invoke(
        "verify", "theorem1", "--n", "171", "--s", "86,85", "--f", "1,1",
        "--g", "-x/2,x/2", "--at", "0", "--float",
    )
    assert code == 0 and err == ""
    assert "verdict: pass" in out and "lhs: 4.146" in out


@pytest.mark.parametrize("f", ["exp(x)*exp(x)", "exp(x)*exp(x)-exp(x)*exp(x)"])
def test_non_finite_float_rhs_factor_exits_2(f):
    # f(x0) overflows to inf (or inf - inf = nan), which no exact rhs product can take
    code, out, err = invoke("verify", "baran", "--n", "1", "--f", f, "--g", "x", "--at", "400.0")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("verify", "baran", "--n", "1", "--f", "x", "--g", "exp(705*x)", "--at", "1.0"),
    ("lemma", "--f", "exp(700*x)-exp(700.0)", "--n", "3", "--at", "1.0"),
    ("verify", "baran", "--n", "2", "--f", "exp(x)", "--g", "x", "--at", "709.0"),
    ("verify", "baran", "--n", "1", "--f", "1" + "0" * 308 + ".0", "--g", "x", "--at", "1",
     "--perturb-rhs", "1" + "0" * 308 + ".0"),
])
def test_non_finite_factor_is_a_numeric_overflow_naming_the_value(argv):
    # g(x0) = exp(705) is inf; the lemma's f' = 700 exp(700) is inf, so f^n holds nan;
    # baran's terms exp(709)^2 overflow, so its lhs is inf - inf = nan; and
    # 1e308 shifted by 1e308 is an inf rhs
    code, out, err = invoke(*argv)
    assert code == 2 and out == ""
    assert err.count("error: numeric overflow:") == 1 and err.count("\n") == 1
    assert "integer ratio" not in err
    assert "inf" in err or "nan" in err


@pytest.mark.parametrize("fn", ["sin", "cos"])
def test_sin_cos_of_an_overflowed_value_names_the_node(fn):
    # x*x at 1e200 overflows to inf, where sin and cos have no value
    code, out, err = invoke("verify", "baran", "--n", "1", "--f", f"{fn}(x*x)", "--g", "x",
                            "--at", "1" + "0" * 200 + ".0")
    assert code == 2 and out == ""
    assert err == (f"error: sin/cos requires a finite value at the expansion point "
                   f"in '{fn}(x*x)'\n")


def test_large_float_baran_ends_in_a_report():
    # this instance once died in float(200!) with a traceback and exit code 1
    code, out, err = invoke(
        "verify", "baran", "--n", "200", "--f", "x", "--g", "exp(x)", "--at", "1", "--float",
    )
    assert code in (0, 1) and err == ""
    assert "verdict: " in out


@pytest.mark.parametrize("as_json", [False, True])
def test_exact_report_beyond_the_int_to_str_digit_limit(as_json):
    # lhs, rhs and scale have about 4500 digits: the report is written in
    # full, without raising the interpreter's int-to-str limit
    argv = ["verify", "baran", "--n", "2", "--f", "x^9", "--g", "x", "--at", "7" * 500]
    limit = sys.get_int_max_str_digits()
    code, out, err = invoke(*argv, *(["--json"] if as_json else []))
    assert code == 0 and err == ""
    if as_json:
        report = json.loads(out)
        assert report["residual"] == "0/1"
        assert report["lhs"] == report["rhs"] and len(report["lhs"]) == 4500 + 2
    else:
        assert "residual: 0\n" in out and "verdict: pass" in out
    assert sys.get_int_max_str_digits() == limit


def test_float_digits_do_not_depend_on_the_python_version():
    # Summing left to right pins the rounding; a compensated sum (the built-in
    # sum from Python 3.12 on) gives -1.7456684319946346e+180 here.
    code, report = invoke_json(
        "verify", "baran", "--n", "200", "--f", "x", "--g", "exp(x)", "--at", "1",
        "--float", "--json",
    )
    assert report["lhs"] == "-9.960672820283741e+179"


def test_deep_nesting_exits_2_with_one_line_error():
    deep = "(" * 3000 + "x" + ")" * 3000
    code, out, err = invoke("lemma", "--f", deep, "--n", "1", "--at", "0")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("f, at", [
    ("(" * MAX_NESTING + "x" + ")" * MAX_NESTING, "0"),
    ("-" * MAX_NESTING + "x", "0"),
    ("-(" * (MAX_NESTING // 2) + "x" + ")" * (MAX_NESTING // 2), "0"),
    ("x^" + "1^" * (MAX_NESTING - 1) + "1", "0"),
    ("sin(" * MAX_NESTING + "x" + ")" * MAX_NESTING, "0.0"),
], ids=["groups", "signs", "signed groups", "exponents", "arguments"])
def test_nesting_at_the_bound_parses_and_verifies(f, at):
    code, out, err = invoke("lemma", "--f", f, "--n", "2", "--at", at)
    assert (code, err) == (0, "") and "verdict: pass" in out


def test_binomid_eq5_and_eq7():
    code, doc = invoke_json("binomid", "eq5", "--n", "1", "--s", "1", "--alpha", "0,0", "--beta", "2", "--json")
    assert code == 0 and doc["lhs"] == "-2/1"
    code, doc = invoke_json("binomid", "eq7", "--n", "2", "--s", "1", "--alpha", "0,0", "--beta", "1", "--json")
    assert code == 0 and doc["lhs"] == "-2/1"


def test_binomid_eq6_rhs_forms():
    base = ("binomid", "eq6", "--n", "2", "--s", "2,0", "--c", "-1,1",
            "--alpha", "0,0", "--beta", "1", "--json")
    code, doc = invoke_json(*base, "--rhs-form", "corrected")
    assert code == 0 and doc["lhs"] == "2/1" and doc["rhs"] == "2/1"
    code, doc = invoke_json(*base, "--rhs-form", "as_printed")
    assert code == 1 and doc["verdict"] == "fail" and doc["rhs"] == "1/1"
    assert any("multinomial" in note for note in doc["notes"])


def test_lemma_subcommand():
    code, doc = invoke_json("lemma", "--f", "x^2-1", "--n", "2", "--at", "1", "--json")
    assert code == 0 and doc["lhs"] == "8/1"


def test_every_identity_reachable():
    invocations = {
        "baran": ("verify", "baran", "--n", "1", "--f", "x", "--g", "x^2", "--at", "2"),
        "theorem1": ("verify", "theorem1", "--n", "1", "--s", "0,1", "--f", "1,x",
                     "--g", "-x,x", "--at", "2"),
        "corollary2": ("verify", "corollary2", "--n", "1", "--s", "0,1", "--c", "-1,1",
                       "--f", "1,x", "--g", "x^2", "--at", "2"),
        "symmetric_pair": ("verify", "symmetric_pair", "--n", "1", "--p", "0",
                           "--f1", "1", "--f2", "x", "--g", "x^2", "--at", "2"),
        "leibniz_product": ("verify", "leibniz_product", "--n", "1", "--f", "x", "--g", "x", "--at", "2"),
        "power_family": ("binomid", "eq4", "--n", "1", "--s", "1,0", "--c", "-1,1",
                         "--alpha", "0,0", "--beta", "2"),
        "exp_family": ("binomid", "eq6", "--n", "1", "--s", "1,0", "--c", "-1,1",
                       "--alpha", "0,0", "--beta", "2"),
        "zero_power_lemma": ("lemma", "--f", "x-2", "--n", "2", "--at", "2"),
    }
    from jetcheck.identities import IDENTITIES

    assert set(invocations) == set(IDENTITIES)
    for identity, argv in invocations.items():
        code, out, err = invoke(*argv, "--json")
        assert code == 0, (identity, err)
        assert json.loads(out)["identity"] == identity


def test_sweep_json_deterministic():
    a = invoke("sweep", "--seed", "42", "--trials", "60", "--json")
    b = invoke("sweep", "--seed", "42", "--trials", "60", "--json")
    assert a == b
    assert a[0] == 0
    doc = json.loads(a[1])
    assert doc["counts"]["pass"] == 60


def test_sweep_defaults_are_the_sweep_config_defaults():
    from jetcheck.cli import build_parser
    from jetcheck.identities import SweepConfig

    args, config = build_parser().parse_args(["sweep"]), SweepConfig()
    for name in ("seed", "trials", "max_n", "max_r", "coeff_bound", "degree_bound"):
        assert getattr(args, name) == getattr(config, name), name


def test_sweep_negative_mode():
    code, out, err = invoke("sweep", "--seed", "1", "--trials", "5", "--negative", "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["counts"]["precondition_violated"] == 5
    assert doc["first_failure"]["verdict"] == "precondition_violated"


def test_sweep_reports_first_counterexample_in_json_text_mode():
    code, out, err = invoke("sweep", "--seed", "1", "--trials", "3",
                            "--identities", "theorem1", "--negative")
    assert code == 1
    assert "first failure:" in out
    payload = out.split("first failure:", 1)[1]
    assert json.loads(payload)["identity"] == "theorem1"


def test_identical_invocations_byte_identical():
    args = ("verify", "baran", "--n", "4", "--f", "x^2-1", "--g", "x^3", "--at", "5/3", "--json")
    assert invoke(*args) == invoke(*args)


def test_subprocess_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "jetcheck.cli", "verify", "baran",
         "--n", "2", "--f", "x", "--g", "x^2", "--at", "3", "--json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["lhs"] == "108/1"


def test_subprocess_exit_codes():
    bad = subprocess.run(
        [sys.executable, "-m", "jetcheck.cli", "verify", "baran",
         "--n", "2", "--f", "x", "--g", "x^^2", "--at", "3"],
        capture_output=True, text=True,
    )
    assert bad.returncode == 2


def test_vacuous_float_check_carries_a_note():
    # |rhs| = 7.2e86 is far below tol * scale = 4.6e187, so lhs = 0 would pass as well
    code, doc = invoke_json(
        "verify", "baran", "--n", "200", "--f", "x", "--g", "exp(x)", "--at", "1", "--float", "--json",
    )
    assert code == 0 and doc["verdict"] == "pass"
    (note,) = [note for note in doc["notes"] if note.startswith("vacuous check")]
    assert "7.225973768125673e+86" in note and "lhs = 0 would also pass" in note


def test_ordinary_float_pass_has_no_vacuous_note():
    code, doc = invoke_json(
        "verify", "baran", "--n", "3", "--f", "exp(x)", "--g", "sin(x)",
        "--at", "1/2", "--float", "--json",
    )
    assert code == 0
    assert not any("vacuous" in note for note in doc["notes"])


def test_concurrent_runs_share_the_parser():
    from concurrent.futures import ThreadPoolExecutor

    argvs = [
        ("verify", "baran", "--n", "4", "--f", "x^2-1", "--g", "x^3", "--at", "5/3", "--json"),
        ("verify", "theorem1", "--n", "2", "--s", "0,2", "--f", "1,x", "--g", "-x^2,x^2", "--at", "3"),
        ("binomid", "eq7", "--n", "3", "--s", "1", "--alpha", "0,1", "--beta", "2", "--float"),
        ("lemma", "--f", "x^2-1", "--n", "2", "--at", "1", "--perturb-rhs", "-1/2"),
        ("verify", "baran", "--n", "2", "--f", "x", "--g", "x^^2", "--at", "3"),
        ("sweep", "--seed", "5", "--trials", "8", "--json"),
    ] * 4
    serial = [invoke(*argv) for argv in argvs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, mid-parse included
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(invoke, *argv) for argv in argvs]
            concurrent = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert concurrent == serial


def test_help_works_twice():
    for _ in range(2):
        code, out, err = invoke("verify", "--help")
        assert code == 0 and err == ""
        assert out.startswith("usage: jetcheck verify")


# One subcommand prefix for each flag that takes a value.
VALUE_FLAG_PREFIXES = {
    "--n": ("verify", "baran"), "--r": ("verify", "theorem1"), "--p": ("verify", "symmetric_pair"),
    "--s": ("verify", "theorem1"), "--c": ("verify", "corollary2"), "--f": ("verify", "baran"),
    "--g": ("verify", "baran"), "--f1": ("verify", "symmetric_pair"),
    "--f2": ("verify", "symmetric_pair"), "--at": ("verify", "baran"),
    "--tol": ("verify", "baran"), "--perturb-rhs": ("lemma",), "--alpha": ("binomid", "eq4"),
    "--beta": ("binomid", "eq4"), "--rhs-form": ("binomid", "eq6"), "--seed": ("sweep",),
    "--trials": ("sweep",), "--max-n": ("sweep",), "--max-r": ("sweep",),
    "--coeff-bound": ("sweep",), "--degree-bound": ("sweep",), "--identities": ("sweep",),
}


def test_value_flags_come_from_the_parser():
    from jetcheck import cli

    assert cli._PARSER.value_flags == set(VALUE_FLAG_PREFIXES)


@pytest.mark.parametrize("flag", sorted(VALUE_FLAG_PREFIXES))
def test_every_value_flag_takes_a_value_starting_with_minus(flag):
    # argparse alone reads "-x" as an option and reports the flag's argument
    # missing; here "-x" reaches the flag's type or check, and any error is a
    # one-line message about the value or the rest of the call.
    code, out, err = invoke(*VALUE_FLAG_PREFIXES[flag], flag, "-x")
    assert "expected one argument" not in err and "unrecognized" not in err
    assert code in (0, 1) or (err.startswith("error: ") and err.count("\n") == 1)


def test_single_expression_flag_rejects_a_list():
    code, out, err = invoke("verify", "baran", "--n", "2", "--f", "x,x", "--g", "x^2", "--at", "3")
    assert code == 2 and out == ""
    assert err == "error: argument --f: expected one expression, got 2\n"


def test_unused_flag_value_is_still_checked():
    # baran takes no --c, but a malformed --c is a usage error, not ignored
    code, out, err = invoke("verify", "baran", "--n", "2", "--f", "x", "--g", "x^2", "--at", "3",
                            "--c", "abc")
    assert code == 2 and out == ""
    assert err == "error: argument --c: expected an integer, p/q, or decimal, got 'abc'\n"


@pytest.mark.parametrize("argv", [
    ("verify", "baran", "--n", "3", "--f", "x", "--g", "x^2", "--at", "1", "--json"),
    ("sweep", "--seed", "3", "--trials", "4", "--json"),
])
def test_closed_stdout_exits_141_quietly(argv):
    import os

    read_end, write_end = os.pipe()
    os.close(read_end)  # nobody will ever read: every write raises BrokenPipeError
    try:
        proc = subprocess.run([sys.executable, "-m", "jetcheck.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


@pytest.mark.parametrize("argv", [
    ("verify", "theorem1", "--n", "2", "--s", "0,2", "--f", "1,x", "--g", "-x^2,x^2", "--at", "3",
     "--json"),
    ("sweep", "--seed", "3", "--trials", "40", "--max-n", "5", "--json"),
])
def test_json_reports_leave_no_garbage(argv):
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        code, out, err = invoke(*argv)
        gc.collect()
        garbage = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert code == 0 and json.loads(out)
    assert garbage == 0


@pytest.mark.parametrize("expr", ["x^(2^2^2^2^2)", "2^2^2^2^2^2^2", "((2^999)^999)^999",
                                  "((x+1)^1000)^1000", "(((x+1)^10000)^10000)^10000"])
def test_exponent_towers_are_one_error_line(expr):
    code, out, err = invoke("lemma", "--f", f"{expr} - 1", "--n", "1", "--at", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: argument --f: parse error") and err.count("\n") == 1
    assert "at most 10000" in err


def test_nested_powers_within_the_bound_still_verify():
    code, doc = invoke_json("lemma", "--f", "(x^100)^100-1", "--n", "2", "--at", "1", "--json")
    assert code == 0 and doc["lhs"] == "200000000/1"


LONG_DECIMAL = "1" * 400 + ".0"
LONG_INTEGER = "1" * 5000


@pytest.mark.parametrize("argv, flag, offset, found", [
    (("lemma", "--f", "x-" + LONG_DECIMAL, "--n", "2", "--at", LONG_DECIMAL), "--f", 2,
     "402 characters"),
    (("verify", "baran", "--n", "2", "--f", "x", "--g", "x", "--at", LONG_DECIMAL), "--at", 0,
     "402 characters"),
    (("verify", "baran", "--n", "2", "--f", "x+" + LONG_INTEGER, "--g", "x", "--at", "1"), "--f", 2,
     "5000 digits"),
    (("verify", "baran", "--n", "2", "--f", "x", "--g", "x", "--at", " -" + LONG_INTEGER), "--at", 2,
     "5000 digits"),
])
def test_literals_out_of_range_are_one_usage_error_line(argv, flag, offset, found):
    code, out, err = invoke(*argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: argument {flag}: parse error at offset {offset}: ")
    assert found in err and err.count("\n") == 1 and len(err) < 200


@pytest.mark.parametrize("f", ["x^(2.0^2000)", "x^(1.0*" + "9" * 400 + ")"])
def test_an_exponent_that_overflows_is_a_parse_error_of_its_flag(f):
    code, out, err = invoke("verify", "baran", "--n", "1", "--f", f, "--g", "x", "--at", "1")
    assert (code, out) == (2, "")
    assert err == ("error: argument --f: parse error at offset 2: expected an exponent "
                   "within the float range, found one that overflows\n")


@pytest.mark.parametrize("site", OVERFLOWS)
def test_every_float_overflow_names_what_overflowed(site):
    # the overflows of float powers printed the bare "Numerical result out of range"
    argv, message = OVERFLOWS[site]
    assert invoke(*argv) == (2, "", message)


def test_a_sweep_size_above_its_limit_is_a_usage_error():
    # a degree bound of 1500 drew a polynomial too high for the recursive walks
    code, out, err = invoke("sweep", "--degree-bound", "1500", "--trials", "8", "--max-n", "3")
    assert (code, out, err) == (2, "", "error: degree_bound must be at most 20, got 1500\n")


def test_any_other_exception_is_one_error_line(monkeypatch):
    from jetcheck import cli

    def broken(*args, **kwargs):
        raise ZeroDivisionError("broken\nverifier")

    monkeypatch.setattr(cli, "baran_verify", broken)
    code, out, err = invoke("verify", "baran", "--n", "2", "--f", "x", "--g", "x^2", "--at", "3")
    assert code == 2 and out == ""
    assert err == "error: internal error: ZeroDivisionError: broken verifier\n"


# Fuzzing over bounded argv.  Literals run to 500 digits (beyond the float
# range) and to 4301 (beyond the int-to-str limit); n stays at most 6 and
# powers nest two deep with small exponents, so no input asks for unbounded work.
_digit_runs = st.builds(operator.mul, st.sampled_from("1234567890"),
                        st.sampled_from([1] * 6 + [2] * 4 + [3] * 3 + [320, 500, 4301]))
_unsigned = st.one_of(
    st.integers(0, 99).map(str),
    _digit_runs,
    st.builds("{}/{}".format, st.integers(0, 9), st.integers(0, 99) | _digit_runs),
    st.builds("{}.{}".format, st.integers(0, 99) | _digit_runs, st.integers(0, 99)),
)
_literals = st.builds(operator.add, st.sampled_from([""] * 5 + ["-", "-", "+", " ", "- "]), _unsigned)
_atoms = st.just("x") | _unsigned
_bases = _atoms | st.builds("({})^{}".format, _atoms, st.integers(-2, 3))
_leaves = _bases | st.builds("({})^{}".format, _bases, st.integers(-2, 3))
_exprs = st.recursive(_leaves, lambda sub: st.one_of(
    st.builds("({}){}({})".format, sub, st.sampled_from("+-*/"), sub),
    st.builds("-({})".format, sub),
    st.builds("{}({})".format, st.sampled_from(["exp", "log", "sin", "cos", "sqrt"]), sub),
), max_leaves=4)
_small = st.integers(-1, 6).map(str)
_FLAG_VALUES = {
    "--n": _small, "--r": _small, "--p": _small,
    "--s": st.lists(_small | _literals, min_size=1, max_size=3).map(",".join),
    "--c": st.lists(_literals, min_size=1, max_size=3).map(",".join),
    "--alpha": st.lists(_literals, min_size=1, max_size=3).map(",".join),
    "--f": _exprs | st.lists(_exprs, min_size=2, max_size=3).map(",".join),
    "--g": _exprs | st.lists(_exprs, min_size=2, max_size=3).map(",".join),
    "--f1": _exprs, "--f2": _exprs, "--at": _literals, "--beta": _literals,
    "--perturb-rhs": _literals, "--tol": st.sampled_from(["1e-9", "0.5", "0"]),
    "--rhs-form": st.sampled_from(["corrected", "as_printed"]),
    "--seed": st.integers(0, 99).map(str), "--trials": st.integers(0, 3).map(str),
    "--max-n": _small, "--max-r": st.integers(1, 3).map(str),
}
# Each flag also takes "--", in about one draw of 20: Python before 3.13
# dropped that value and left the flag an empty list (cli._Store).
_FLAG_VALUES = {flag: st.integers(0, 19).flatmap(lambda i, v=values: st.just("--") if i == 7 else v)
                for flag, values in _FLAG_VALUES.items()}
_COMMON = ("--float", "--json", "--tol", "--perturb-rhs")
_COMMANDS = {
    ("verify", "baran"): ("--n", "--f", "--g", "--at") + _COMMON,
    ("verify", "leibniz_product"): ("--n", "--f", "--g", "--at") + _COMMON,
    ("verify", "theorem1"): ("--n", "--r", "--s", "--f", "--g", "--at") + _COMMON,
    ("verify", "corollary2"): ("--n", "--r", "--s", "--c", "--f", "--g", "--at") + _COMMON,
    ("verify", "symmetric_pair"): ("--n", "--p", "--f1", "--f2", "--g", "--at") + _COMMON,
    ("binomid", "eq4"): ("--n", "--r", "--s", "--c", "--alpha", "--beta") + _COMMON,
    ("binomid", "eq5"): ("--n", "--s", "--alpha", "--beta") + _COMMON,
    ("binomid", "eq6"): ("--n", "--s", "--c", "--alpha", "--beta", "--rhs-form") + _COMMON,
    ("binomid", "eq7"): ("--n", "--s", "--alpha", "--beta", "--rhs-form") + _COMMON,
    ("lemma",): ("--f", "--n", "--at") + _COMMON,
    ("sweep",): ("--seed", "--trials", "--max-n", "--max-r", "--negative", "--json"),
}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = list(command)
    for flag in _COMMANDS[command]:
        # keep about 19 in 20 required flags and half of the optional ones
        if not draw(st.sampled_from([True] * 19 + [False]) if flag not in _COMMON else st.booleans()):
            continue
        argv.append(flag)
        if flag in _FLAG_VALUES:
            argv.append(draw(_FLAG_VALUES[flag]))
    return argv


@settings(deadline=None, max_examples=150, derandomize=True)
@given(_argvs())
def test_fuzzed_argv_ends_in_a_report_or_one_error_line(argv):
    code, out, err = invoke(*argv)
    assert code in (0, 1, 2)
    assert err == "" or (err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"))
    assert "Traceback" not in err and "internal error" not in err
    assert "invalid _" not in err  # argparse naming a private type function
    assert (code == 2) == (err != "")


# run() reads argv led by a subcommand through _Parser.parse_plain and hands it
# to argparse only where the pass returns None.  The pass must return None or
# the namespace argparse returns.


def _dispatched(argv):
    """The subcommand parser and the joined tokens that run() hands it."""
    from jetcheck import cli

    tokens = cli._join_flag_values(argv, cli._PARSER.value_flags)
    return cli._PARSER.commands[tokens[0]], tokens[1:]


def _plain_agrees(argv) -> bool:
    """Assert that parse_plain returns None or parse_args's namespace for argv
    led by a subcommand; True for a namespace."""
    command, rest = _dispatched(argv)
    plain = command.parse_plain(rest)
    if plain is None:
        return False
    assert vars(plain) == vars(command.parse_args(rest))
    return True


@settings(deadline=None, max_examples=300, derandomize=True)
@given(_argvs())
def test_plain_pass_agrees_with_argparse_on_fuzzed_argv(argv):
    # _argvs() gives each flag once and by its full name, so the pass leaves
    # to argparse only the argv that argparse rejects
    from jetcheck import cli

    if not _plain_agrees(argv):
        command, rest = _dispatched(argv)
        with pytest.raises(cli.UsageError):
            command.parse_args(rest)


def test_plain_pass_agrees_with_argparse_on_the_corpus():
    import shlex
    from pathlib import Path

    from jetcheck import cli

    texts = json.loads((Path(__file__).parent / "output_corpus.json").read_text())
    argvs = [shlex.split(text) for text in texts]
    accepted = [_plain_agrees(argv) for argv in argvs if argv and argv[0] in cli._PARSER.commands]
    assert len(accepted) > 60 and sum(accepted) > 30


# The argv shapes of the benchmark's cli_small_exact workload, one per kind:
# polynomial inputs, a rational first f, and negatives by --perturb-rhs or by
# a broken hypothesis.
WORKLOAD_ARGVS = [
    "verify baran --n 1 --f 2/3*x^2-2*x-3/2 --g 4*x^2+1*x --at -1 --json",
    "verify theorem1 --n 2 --s 1,0 --f 3/4*x^2+2/3*x-1,1/2*x^2+1/4"
    " --g 2*x^2+1/3*x+1,4/3*x^2-1*x-11/3 --at 1 --json",
    "verify corollary2 --n 3 --s 0,0 --c 4,-4 --f 1*x^2+1/2*x,-1/3*x^2-4*x-2"
    " --g 1/4*x^2-3/2*x-1 --at -3 --json",
    "verify symmetric_pair --n 1 --p 0 --f1 -4/3*x^2+1/2 --f2 -1*x^2-2*x"
    " --g 1/2*x^2-1/2*x+1/2 --at -1 --json",
    "verify leibniz_product --n 4 --f -2/3*x^2+1*x+1 --g -4/3*x^2-3/2*x+2 --at 1/3 --json",
    "binomid eq4 --n 1 --s 0,1 --alpha 2,2/3 --beta -3 --c 1/3,-1/3 --json",
    "binomid eq5 --n 2 --s 1 --alpha 1,-1/2 --beta 3/2 --json",
    "binomid eq6 --n 1 --s 0,1 --alpha -2/3,-1 --beta -1 --c -1/2,1/2 --json",
    "binomid eq7 --n 3 --s 0 --alpha -1/4,1/4 --beta -2 --json",
    "lemma --f 2*x^2-4*x --n 1 --at 2 --json",
    "verify baran --n 2 --f (-1*x^2+3/4*x+1/2)/(-1*x-2/3) --g -3/4*x^2-2*x --at 0 --json",
    "verify theorem1 --n 1 --s 0,0 --f (3*x^2-2*x+4)/(1*x+3/4),1/2*x^2+3/4*x+2"
    " --g -1*x^2-1/4,-4/3*x^2-1*x+5 --at -3/2 --json",
    "verify corollary2 --n 1 --s 0,1 --c -1/4,1/4 --f (-3*x^2-3*x+1/4)/(2*x+2),1/4*x^2+1/4*x"
    " --g 1*x^2-1/2*x-2/3 --at 1 --json",
    "verify baran --n 1 --f (4*x^2-2*x+3/2)/(3*x-2) --g 1/4*x^2+2 --at -3/2 --json"
    " --perturb-rhs 5/3",
    "verify symmetric_pair --n 1 --p 1 --f1 (-2*x^2+2*x)/(-1*x-1) --f2 1*x^2+1/2*x+3/2"
    " --g 3/4*x^2+1*x+4/3 --at -2/3 --json --perturb-rhs 1",
    "verify leibniz_product --n 1 --f (2/3*x^2+2/3*x-1/2)/(-1/4*x-1/3) --g 2*x^2-1*x-3/4"
    " --at -1 --json --perturb-rhs -5",
    "binomid eq4 --n 1 --s 0,1 --alpha 1,3 --beta -3 --c -2,3 --json",
    "binomid eq5 --n 1 --s 0 --alpha 0,1 --beta -1 --json --perturb-rhs 1",
    "binomid eq7 --n 1 --s 0 --alpha -3/4,-2 --beta -1/2 --json --perturb-rhs 2/3",
    "lemma --f 1*x^2+1/2*x+1 --n 1 --at 0 --json",
]


@pytest.mark.parametrize("text", WORKLOAD_ARGVS)
def test_plain_pass_agrees_with_argparse_on_the_workload_shapes(text):
    # every shape takes the plain pass; the same argv with --n given again
    # (argparse keeps the last value) must not read another n
    argv = text.split()
    assert _plain_agrees(argv)
    _plain_agrees(argv + ["--n", "5"])


_BARAN = ("--n", "2", "--f", "x", "--g", "x^2", "--at", "3")


@pytest.mark.parametrize("argv", [
    ("verify", "baran", *_BARAN, "-h"),
    ("lemma", "--help"),
    ("verify", "baran", "--n", "1", *_BARAN),
    ("verify", "baran", *_BARAN, "--perturb", "1/2"),
    ("lemma", "--f", "x^2-1", "--n", "2", "--at", "1", "--json=1"),
    ("verify", "--", "baran", *_BARAN),
    ("sweep", "--identities", "--"),
    ("verify", "baran", "stray", *_BARAN),
    ("verify", *_BARAN),
    ("verify", "frobnicate", *_BARAN),
    ("verify", "baran", *_BARAN, "--at"),
    ("verify", "baran", *_BARAN, "--alpha", "1,2"),
    ("verify", "baran", "--n", "two", *_BARAN[2:]),
    ("binomid", "eq6", "--n", "1", "--rhs-form", "printed"),
])
def test_plain_pass_leaves_every_other_argv_to_argparse(argv):
    command, rest = _dispatched(argv)
    assert command.parse_plain(rest) is None


def test_the_parsers_declare_only_what_the_plain_pass_reads():
    # parse_plain models store, store_true and help actions with nargs None
    # or 0 and no required options; a str default is converted by argparse
    # through the type; a mutually exclusive group checks what the pass does
    # not.  A flag added outside these assumptions fails here.
    import argparse

    from jetcheck import cli

    for sp in cli.build_parser().commands.values():
        assert sp._mutually_exclusive_groups == []
        actions = sp._actions
        for action in actions:
            assert isinstance(action, (argparse._StoreAction, argparse._StoreTrueAction,
                                       argparse._HelpAction))
            assert action.nargs in (None, 0)
            assert not (action.option_strings and action.required)
            assert not (isinstance(action.default, str) and action.type is not None)
        assert [slot[0] for slot in sp.positionals] == [a.dest for a in actions
                                                        if not a.option_strings]
        assert set(sp.options) | set(sp.switches) | {"-h", "--help"} == {
            flag for a in actions for flag in a.option_strings}
        assert sp.defaults == {dest: sp.get_default(dest) for dest in sp.defaults}
