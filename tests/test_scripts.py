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
    # One SHA-256 over the JSON and text reports of 1280 sweep trials and their
    # float CLI replays: it changes only when some answer changes.
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "report_digest.py"), "--seeds", "8"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "005a9767dad171ad733e3e8cfedf7689c9f4e48f76f20220dd74e9799791c9cb  1280 trials\n"
    )


def test_mutants_script_kills_a_committed_mutant():
    # CI checks every mutant; tier-1 keeps the script working on one cheap case.
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "mutants.py"), "log_recurrence"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "log_recurrence: killed\n"
