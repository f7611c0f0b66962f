"""The scripts under scripts/ run as documented."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_reproduce_results_runs_from_any_directory(tmp_path):
    # Without PYTHONPATH the script must find the package itself.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "reproduce_results.py")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("all values reproduced\n")
