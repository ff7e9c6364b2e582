"""The package loads lazily: a command imports only the modules it runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCENARIO = ROOT / "scenarios" / "three_spheres_2_3_4.json"

# every public name that ``import dhwalk`` bound when it imported its
# submodules eagerly, submodules included
NAMESPACE = (
    "AffineClassFamily", "Certificate", "ComparisonResult", "ComponentKind", "CriticalLevel",
    "EulerClass", "FixedComponent", "FixedPointData", "IntersectionLattice", "Interval",
    "LatticeClass", "LatticeIsometry", "QuadraticPolynomial", "Refusal", "RigidityStatus",
    "WalkState", "WalkTrace", "WeakVerdict", "blow_down_data", "blow_up_lattice",
    "canonical_class", "certify", "classify", "classify_isolated", "compare_fixed_point_data",
    "compose_traces", "cremona_standard", "cross_level", "default_lattice", "errors",
    "exceptional_classes", "family", "finalize_at_maximum", "formatting", "hyperbolic_lattice",
    "init_from_minimum", "isolated_value_lattice_check", "lattice", "lookup", "rigidity",
    "ruling_classes", "run_walk", "scenario", "slope_from_euler", "small_data_bootstrap",
    "split_trace", "state_fingerprint", "symplectic_cone_check", "three_sphere_product_data",
    "time_reversed", "validate_structure", "walk", "weak_classification_check",
)


def fresh(code: str) -> str:
    """Run ``code`` in a new interpreter on this checkout and return its stdout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_validate_and_lattice_exc_load_no_walk_modules():
    out = fresh(
        "import contextlib, io, sys\n"
        "from dhwalk import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['lattice', 'exc', '-k', '4']) == 0\n"
        f"    assert cli.main(['validate', {str(SCENARIO)!r}]) == 0\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('dhwalk'))))\n"
    )
    loaded = set(out.split())
    assert {"dhwalk.cli", "dhwalk.io", "dhwalk.lattice", "dhwalk.scenario"} <= loaded
    for name in ("walk", "classify", "rigidity", "family"):
        assert f"dhwalk.{name}" not in loaded


# every CLI command that succeeds on a shipped scenario; "{out}" is a file to write
COMMANDS = (
    ("validate", str(SCENARIO)),
    ("walk", str(SCENARIO), "--trace", "csv"),
    ("classify", str(SCENARIO)),
    ("dh-profile", str(SCENARIO), "--emit", "csv"),
    ("bootstrap", str(SCENARIO), "-o", "{out}"),
    ("lattice", "exc", "-k", "4"),
    ("rigidity-table",),
)


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
def test_cli_commands_load_neither_dataclasses_nor_inspect(command, tmp_path):
    args = [a.format(out=tmp_path / "full.json") for a in command]
    out = fresh(
        "import contextlib, io, sys\n"
        "from dhwalk import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({args!r}) == 0\n"
        "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
    )
    assert out.split() == []


def test_every_package_name_resolves_in_a_fresh_interpreter():
    out = fresh(
        "import inspect, sys\n"
        "import dhwalk\n"
        "assert 'dhwalk.walk' not in sys.modules\n"
        f"for name in {NAMESPACE!r}:\n"
        "    getattr(dhwalk, name)\n"
        "assert dhwalk.run_walk is dhwalk.walk.run_walk\n"
        "assert inspect.ismodule(dhwalk.classify)\n"
        "namespace = {}\n"
        "exec('from dhwalk import *', namespace)\n"
        f"assert set({NAMESPACE!r}) <= set(namespace)\n"
        "print(len(dhwalk.__all__))\n"
    )
    assert int(out) == len(NAMESPACE)
