"""The benchmark's tracer finds every name it patches in jetcheck.

``bench/tracing.py`` looks each patch point up by name (``Scalar.__dict__``,
``Jet.__dict__``, module attributes), so a renamed or merged method breaks the
benchmark; this catches it with the library's own tests.  It runs in a
subprocess, since installing the tracer patches the classes in place.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROGRAM = """
import io, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from jetcheck import cli, identities
from jetcheck.jets import Jet
from jetcheck.numeric import Scalar
from tracing import Tracer

owners = (Scalar, Jet, identities, cli)
before = [dict(vars(owner)) for owner in owners]
tracer = Tracer()
tracer.install()
code = cli.run(["verify", "baran", "--n", "3", "--f", "x*x", "--g", "2*x", "--at", "1/2"],
               io.StringIO(), io.StringIO())
tracer.uninstall()
after = [dict(vars(owner)) for owner in owners]
assert code == 0, code
assert all(a.keys() == b.keys() and all(a[k] is b[k] for k in a) for a, b in zip(before, after))
counts = tracer.counts
print(counts["numeric.scalar_ops"] > 0, counts["jets.mul_calls"], counts["identities.verify_calls"])
"""


def test_tracer_installs_and_uninstalls():
    proc = subprocess.run(
        [sys.executable, "-c", PROGRAM, str(ROOT / "bench"), str(ROOT / "src")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    # x*x and 2*x are one jet product each, the second through Jet.__mul__
    # with a Fraction operand (exact mode keeps the constant 2 a number)
    assert proc.stdout == "True 2 1\n"
