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
    proc = run_script(script, *args)
    assert proc.returncode == 0, proc.stderr


def run_script(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


@pytest.mark.parametrize("areas, message", [
    (["x", "1", "1"], "sphere areas must be rationals such as 2 or 7/2, got x 1 1"),
    (["1/0", "1", "1"], "sphere areas must be rationals such as 2 or 7/2, got 1/0 1 1"),
    (["0", "1", "1"], "sphere areas must be positive, got 0 1 1"),
    (["2", "-3", "4"], "sphere areas must be positive, got 2 -3 4"),
], ids=["not-a-number", "zero-denominator", "zero-area", "negative-area"])
def test_walk_three_spheres_refuses_bad_areas_with_a_usage_error(areas, message):
    proc = run_script("walk_three_spheres.py", "--", *areas)
    assert proc.returncode == 2
    assert proc.stdout == ""
    usage, error = proc.stderr.splitlines()[0], proc.stderr.splitlines()[-1]
    assert usage.startswith("usage: walk_three_spheres.py")
    assert error == f"walk_three_spheres.py: error: {message}"
    assert "Traceback" not in proc.stderr
