import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_rhs_form_grid_smoke():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "rhs_form_grid.py"), "--max-n", "4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1]
    assert last == "11 cells where only the corrected form matches the exact sum"


def test_report_digest_is_pinned():
    # One SHA-256 over the JSON and text reports of 6400 sweep trials and their
    # float CLI replays: it changes only when some answer changes.  This is
    # the answer gate of ROADMAP.md, and it reads the same on Python 3.10-3.13.
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "report_digest.py"), "--seeds", "40"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "5db276887527fa3a40a9f191884050edde29fb0b710be520c651345f686c01b0  6400 trials\n"
    )


def test_mutants_script_kills_a_committed_mutant():
    # CI checks every mutant; tier-1 keeps the script working on one cheap case.
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "mutants.py"), "log_recurrence"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "log_recurrence: killed\n"
