import os
import subprocess
import sys
from pathlib import Path

import syzstab

ROOT = Path(__file__).resolve().parents[1]


def test_sweep_script_checks_every_cell():
    # N = 2 has C(d+2, 2) - 2 plane sizes: 1 + 4 + 8 + 13 for d = 1..4.
    # N = 3 has sizes 4..C(d+2, 2)+1 plus the full set C(d+3, 3) whenever it
    # lies above them: 1 + 5 + 9 + 14.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_sweep.py"),
         "--dims", "2", "3", "--d-max", "4"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(syzstab.__file__).parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "total: 55 families"
    assert len(lines) == 9
    assert all(line.endswith(", 0 problems") for line in lines[:-1])
