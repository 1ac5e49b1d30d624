"""The fast demos run to completion (optimize_demo.py takes over a minute and is left out)."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# Text a demo must print besides exiting 0.
EXPECTED_OUTPUT = {"repair_demo.py": "feasible placement reached"}


@pytest.mark.parametrize("name", [
    "room_geometry_demo.py", "objectives_demo.py", "repair_demo.py", "tracking_demo.py",
])
def test_demo_runs(name, tmp_path):
    # A copy in tmp_path writes its demos/out files there, not into the source tree.
    script = tmp_path / name
    shutil.copy(ROOT / "demos" / name, script)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert EXPECTED_OUTPUT.get(name, "") in proc.stdout
