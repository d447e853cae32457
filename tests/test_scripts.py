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
