"""The package loads lazily, and is what its callers use.

A command imports only the modules it runs, and every public name of the
package has a caller in the package, the scripts or the benchmark.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCENARIO = ROOT / "scenarios" / "three_spheres_2_3_4.json"

# every public name that ``import dhwalk`` bound when it imported its
# submodules eagerly, submodules included, less the test-only names that
# moved to ``testutil`` (``LatticeIsometry``, ``cremona_standard``) and the
# Euler-class copies that the walk state held beside its family
# (``EulerClass``, ``slope_from_euler``, ``WalkState``)
NAMESPACE = (
    "AffineClassFamily", "Certificate", "ComparisonResult", "ComponentKind", "CriticalLevel",
    "FixedComponent", "FixedPointData", "IntersectionLattice", "Interval",
    "LatticeClass", "QuadraticPolynomial", "Refusal", "RigidityStatus",
    "WalkTrace", "WeakVerdict", "blow_down_data", "blow_up_lattice",
    "canonical_class", "certify", "classify", "classify_isolated", "compare_fixed_point_data",
    "compose_traces", "cross_level", "default_lattice", "errors",
    "exceptional_classes", "family", "finalize_at_maximum", "formatting", "hyperbolic_lattice",
    "init_from_minimum", "isolated_value_lattice_check", "lattice", "lookup", "rigidity",
    "ruling_classes", "run_walk", "scenario", "small_data_bootstrap",
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


def test_every_benchmark_tracer_target_is_a_callable_of_its_home_module(monkeypatch):
    # the benchmark times these names; one that no longer resolves fails here
    # first.  The tracer is loaded from its file without writing bytecode.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, names in tracer.TARGETS.items():
        home = importlib.import_module(f"dhwalk.{module}")
        for dotted in names:
            target = home
            for part in dotted.split("."):
                target = getattr(target, part, None)
            assert callable(target), f"{module}.{dotted}"
            assert target.__module__ == home.__name__, f"{module}.{dotted}"


def test_the_scenario_schema_lists_every_optional_component_field_in_record_order():
    # the parser, the key check and the writer all read this one table
    from dhwalk import io
    from dhwalk.scenario import FixedComponent

    assert tuple(io._FIELDS) == FixedComponent._fields[2:]


# ---------------------------------------------------------------------------
# the package surface
# ---------------------------------------------------------------------------

# public names that no command, script or benchmark calls, each with its reason
UNCALLED = {
    "compare_fixed_point_data": "the paper's comparison of fixed point data, as a library call",
    "weak_classification_check": "the paper's theorem on two data sets, as a library call",
}
CALLERS = ("src/dhwalk", "scripts", "perfbench")


def _public_definitions():
    """``(path, node, qualified name)`` of every public module-level function or
    class of the package, and of every public method or property of those classes."""
    for path in sorted((ROOT / "src" / "dhwalk").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path, node, node.name
                for sub in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield path, sub, f"{node.name}.{sub.name}"


def _references():
    """``(path, line, name)`` for every name, attribute and, outside the package,
    dotted string (the benchmark's tracer targets) in the calling files; and the
    names bound as parameters, which a name-based scan cannot tell from a call."""
    refs, parameters = [], set()
    for folder in CALLERS:
        for path in sorted((ROOT / folder).glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    refs.append((path, node.lineno, node.id))
                elif isinstance(node, ast.Attribute):
                    refs.append((path, node.lineno, node.attr))
                elif isinstance(node, ast.arg):
                    parameters.add(node.arg)
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and folder != "src/dhwalk"):
                    refs.append((path, node.lineno, node.value.rpartition(".")[2]))
    return refs, parameters


def test_every_public_name_has_a_caller_outside_the_tests():
    definitions = list(_public_definitions())
    refs, parameters = _references()

    def inside(ref, spans) -> bool:
        return any(ref[0] == p and n.lineno <= ref[1] <= n.end_lineno for p, n in spans)

    # a reference inside the definition itself, or inside one without callers
    # and without a stated reason, is no call; repeat until no more go
    dead: set[str] = set()
    while True:
        spans = [(p, n) for p, n, qual in definitions if qual in dead and qual not in UNCALLED]
        found = {
            qual for path, node, qual in definitions
            if qual not in dead and not any(
                r[2] == qual.rpartition(".")[2] and not inside(r, spans + [(path, node)])
                for r in refs
            )
        }
        if not found:
            break
        dead |= found
    assert sorted(dead - set(UNCALLED)) == []
    assert dead >= set(UNCALLED)  # a reason for a name that has a caller is stale
    # names the scan cannot decide: methods named like a method of the builtin
    # types (``x.values`` is then a call of either) and functions named like a
    # parameter somewhere (``cls``)
    builtin = set().union(*(dir(t) for t in (dict, list, tuple, str, set, int, Fraction)))
    ambiguous = [
        qual for _, _, qual in definitions
        if (qual.rpartition(".")[2] in builtin if "." in qual else qual in parameters)
    ]
    assert ambiguous == []


# ---------------------------------------------------------------------------
# leftovers: imports nothing reads, private names nothing reads
# ---------------------------------------------------------------------------


def _package_modules():
    """``(path, source lines, tree)`` of every module of the package."""
    for path in sorted((ROOT / "src" / "dhwalk").glob("*.py")):
        text = path.read_text()
        yield path, text.splitlines(), ast.parse(text)


def _loads(tree) -> list:
    """Every node that reads a name: loaded names, attributes and imported aliases."""
    return [
        node for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
        or isinstance(node, (ast.Attribute, ast.alias))
    ]


def _read_name(node) -> str:
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else node.name


def test_no_module_imports_a_name_it_never_reads():
    unread = []
    for path, lines, tree in _package_modules():
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"
            ):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                if bound not in read and "noqa" not in lines[alias.lineno - 1]:
                    unread.append(f"{path.name}:{alias.lineno} {bound}")
    assert unread == []


def test_every_private_module_level_name_has_a_reader():
    modules = list(_package_modules())
    reads = [(path, node) for path, _, tree in modules for node in _loads(tree)]
    unread = []
    for path, _, tree in modules:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if not name.startswith("_") or name.startswith("__"):
                    continue
                # a read inside the definition itself (recursion) is no reader
                if not any(
                    _read_name(ref) == name and not (
                        where == path and node.lineno <= ref.lineno <= node.end_lineno
                    )
                    for where, ref in reads
                ):
                    unread.append(f"{path.name}:{node.lineno} {name}")
    assert unread == []
