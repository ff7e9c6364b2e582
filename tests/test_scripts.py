"""Smoke runs of the experiment scripts with tiny counts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args",
    [
        ("gluing_audit.py", ["--walks", "3"]),
        ("volume_identity_sweep.py", ["--trials", "3"]),
        ("walk_three_spheres.py", ["7/2", "4", "9/2"]),
    ],
    ids=["gluing_audit", "volume_identity_sweep", "walk_three_spheres"],
)
def test_script_runs(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
