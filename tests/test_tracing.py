"""The benchmark's tracer finds every name it patches in jetcheck.

``bench/tracing.py`` looks each patch point up by name (``Scalar.__dict__``,
``Jet.__dict__``, module attributes), so a renamed or merged method breaks the
benchmark; this catches it with the library's own tests.  It runs in a
subprocess, since installing the tracer patches the classes in place.  The
counts of one float library call are pinned too, so a fast path that skips a
traced operator or evaluation fails here, not only in the benchmark's tests.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROGRAM = """
import io, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from jetcheck import cli, identities, parse
from jetcheck.jets import Jet
from jetcheck.numeric import Scalar
from tracing import Tracer

owners = (Scalar, Jet, identities, cli)
before = [dict(vars(owner)) for owner in owners]
tracer = Tracer()
tracer.install()
code = cli.run(["verify", "baran", "--n", "3", "--f", "x*x", "--g", "2*x", "--at", "1/2"],
               io.StringIO(), io.StringIO())
cli_counts = dict(tracer.counts)
tracer.counts.clear()
report = identities.baran_verify(6, parse("exp(0.5*x)*sin(x+1)"), parse("sqrt(x+2)"),
                                 Scalar.inexact(0.75))
tracer.uninstall()
after = [dict(vars(owner)) for owner in owners]
assert code == 0, code
assert all(a.keys() == b.keys() and all(a[k] is b[k] for k in a) for a, b in zip(before, after))
print(cli_counts["numeric.scalar_ops"] > 0, cli_counts["jets.mul_calls"],
      cli_counts["identities.verify_calls"])
counts = tracer.counts
print(report.verdict, counts["jets.mul_calls"], counts["jets.elementary_calls"],
      counts["exprs.eval_jet_calls"])
"""


def test_tracer_installs_and_uninstalls():
    proc = subprocess.run(
        [sys.executable, "-c", PROGRAM, str(ROOT / "bench"), str(ROOT / "src")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    # x*x and 2*x are one jet product each, the second through Jet.__mul__
    # with a Fraction operand (exact mode keeps the constant 2 a number).  In
    # float mode 0.5*x and the outer product are one jet product each, and
    # exp, sin and sqrt one elementary call each, over the two trees.
    assert proc.stdout == "True 2 1\npass 2 3 2\n"
