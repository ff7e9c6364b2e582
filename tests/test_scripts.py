"""Smoke runs of the experiment scripts with tiny counts."""

import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from dhwalk.classify import WeakVerdict

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


def test_coverage_census_lists_the_lines_a_test_run_misses():
    proc = run_script("coverage_census.py", "-q", "-p", "no:cacheprovider",
                      str(ROOT / "tests" / "test_record.py"))
    assert proc.returncode == 0, proc.stderr
    *rows, total = proc.stdout.split("lines never run, per file of src/dhwalk:\n")[1].splitlines()
    assert total.endswith(" in all; pytest exit status 0")
    assert sum(int(row.split()[0]) for row in rows) == int(total.split()[0])
    assert "src/dhwalk/walk.py:" in [row.split()[1] for row in rows]  # no record test walks


def test_coverage_census_gates_its_default_run_on_unlisted_and_stale_lines(monkeypatch, capsys):
    census = load_script("coverage_census")
    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts src on it
    listed = {(name, text) for name, text, _ in census.ALLOWED}
    walk = census.PACKAGE / "walk.py"
    unlisted = walk.read_text().splitlines().index("    report = validate_structure(data)") + 1

    def tests_that_run(everything=False, but=(), status=0):
        """A stand-in for the traced pytest run: it runs every line that is not
        listed, or ``everything``, less the ``(path, line)`` pairs in ``but``."""
        ran = {}
        for path in census.PACKAGE.glob("*.py"):
            lines = path.read_text().splitlines()
            ran[str(path)] = {n for n in census.executable_lines(path) if (path, n) not in but
                              and (everything or (path.name, lines[n - 1].strip()) not in listed)}
        monkeypatch.setattr(census, "census", lambda args: (status, ran))

    tests_that_run()
    assert census.main([]) == 0
    assert capsys.readouterr().out.endswith("census gate: 0 unlisted or stale\n")
    tests_that_run(but={(walk, unlisted)})
    assert census.main([]) == 1
    assert f"unlisted: walk.py:{unlisted}: report = validate_structure(data)\n" in (
        capsys.readouterr().out)
    assert census.main(["-q"]) == 0  # explicit arguments: a report only
    capsys.readouterr()
    tests_that_run(everything=True)
    assert census.main([]) == 1
    out = capsys.readouterr().out
    assert "stale: formatting.py: x = Fraction(x)\n" in out
    assert out.endswith(f"census gate: {len(census.ALLOWED)} unlisted or stale\n")
    tests_that_run(status=1)
    assert census.main([]) == 1  # a failing test run fails the gate


def run_script(script, *args, flags=()):
    """Run ``script`` with ``args``; ``flags`` go to the interpreter (such as ``-O``)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, str(ROOT / "scripts" / script), *args],
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


@pytest.mark.parametrize("script, args, message", [
    ("gluing_audit.py", ["--walks", "0"], "--walks must be at least 1, got 0"),
    ("gluing_audit.py", ["--walks", "-3"], "--walks must be at least 1, got -3"),
    ("volume_identity_sweep.py", ["--trials", "0"], "--trials must be at least 1, got 0"),
    ("volume_identity_sweep.py", ["--trials", "-1"], "--trials must be at least 1, got -1"),
    ("exit_code_audit.py", ["--files", "0"], "--files must be at least 1, got 0"),
], ids=["no-walks", "negative-walks", "no-trials", "negative-trials", "no-files"])
def test_audit_scripts_refuse_a_count_below_one_with_a_usage_error(script, args, message):
    proc = run_script(script, *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1] == f"{script}: error: {message}"


@pytest.mark.parametrize("script, args", [
    ("gluing_audit.py", ["--walks", "3"]),
    ("volume_identity_sweep.py", ["--trials", "3"]),
    ("exit_code_audit.py", ["--files", "20"]),
], ids=["gluing_audit", "volume_identity_sweep", "exit_code_audit"])
def test_audit_scripts_check_their_laws_under_python_dash_o(script, args):
    # the laws are explicit checks, not asserts, so -O leaves them in place
    plain, optimised = run_script(script, *args), run_script(script, *args, flags=["-O"])
    assert plain.returncode == optimised.returncode == 0, optimised.stderr
    assert plain.stdout and optimised.stdout == plain.stdout


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_gluing_audit_names_the_triple_whose_reglued_walk_differs(monkeypatch, capsys):
    audit = load_script("gluing_audit")
    monkeypatch.setattr(audit, "compose_traces", lambda left, right: left)  # drops the right half
    assert audit.main(["--walks", "2", "--seed", "0"]) == 1
    out, err = capsys.readouterr()
    rnd = audit.random.Random(0)
    lams = sorted(audit.random_area(rnd) for _ in range(3))  # the first triple drawn
    assert out == ""
    assert err.startswith("FAIL: the split/reglue round trip at ")
    assert err.endswith(f" for sphere areas ({', '.join(map(str, lams))})\n")


def test_gluing_audit_names_the_triple_whose_weak_check_fails(monkeypatch, capsys):
    audit = load_script("gluing_audit")
    monkeypatch.setattr(audit, "weak_classification_check", lambda d1, d2: WeakVerdict(
        "inconclusive", "data agree but rigidity is not certified"))
    assert audit.main(["--walks", "2", "--seed", "0"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("FAIL: the weak check of bootstrapped data against themselves for ")


def test_volume_identity_sweep_names_the_triple_whose_volume_differs(monkeypatch, capsys):
    sweep = load_script("volume_identity_sweep")
    monkeypatch.setattr(sweep, "slice_area", lambda a, b, c, t: Fraction(-1))
    assert sweep.main(["--trials", "2", "--seed", "2"]) == 1
    out, err = capsys.readouterr()
    rnd = sweep.random.Random(2)
    lams = sorted(sweep.random_area(rnd) for _ in range(3))  # the first triple drawn
    assert out == ""
    assert err.startswith("FAIL: the volume equals the slice area at t = ")
    assert err.endswith(f" for sphere areas ({', '.join(map(str, lams))})\n")


def test_volume_identity_sweep_names_the_triple_whose_profile_row_differs(monkeypatch, capsys):
    sweep = load_script("volume_identity_sweep")
    monkeypatch.setattr(sweep, "profile_rows",
                        lambda trace, samples: [(Fraction(1, 2), Fraction(-1), 0)])
    assert sweep.main(["--trials", "2", "--seed", "2"]) == 1
    out, err = capsys.readouterr()
    rnd = sweep.random.Random(2)
    lams = sorted(sweep.random_area(rnd) for _ in range(3))  # the first triple drawn
    assert out == ""
    assert err == ("FAIL: the profile row equals the slice area at t = 1/2 for sphere areas "
                   f"({', '.join(map(str, lams))})\n")


def test_exit_code_audit_keeps_the_contract_on_300_mutated_files():
    proc = run_script("exit_code_audit.py", "--files", "300", "--seed", "0")
    assert proc.returncode == 0, proc.stderr
    head, counts = proc.stdout.rstrip("\n").split(": ")
    assert head == "300 mutated files audited, no exit 4"
    counts = {name: int(n) for n, name in (c.split(" ", 1) for c in counts.split(", "))}
    assert list(counts) == ["parse errors", "validation refusals", "walk refusals",
                            "of the gap", "walked"]
    assert sum(counts.values()) == 300 and all(counts.values())


@pytest.mark.parametrize("codes, rule", [
    ((0, 0, 4, 0, 0), "no command exits 4"),
    ((1, 1, 1, 2, 1), "a parse error is exit 1 for every command"),
    ((2, 2, 2, 0, 2), "a validate refusal is exit 2 for every command"),
    ((0, 0, 0, 2, 0), "a walk exit 0 gives exit 0 for dh-profile and bootstrap"),
    ((0, 0, 2, 0, 2), "a walk exit 0 gives exit 0 for dh-profile and bootstrap"),
    ((0, 2, 2, 0, 0), None),  # the known gap: the maximum check only walk and classify read
    ((0, 0, 2, 0, 0), None),  # classify refuses what it does not apply to
    ((0, 2, 2, 2, 2), None),
    ((1, 1, 1, 1, 1), None),
    ((2, 2, 2, 2, 2), None),
])
def test_exit_code_audit_names_the_rule_that_codes_break(codes, rule):
    audit = load_script("exit_code_audit")
    assert audit.broken_rule(dict(zip(audit.COMMANDS, codes))) == rule


def test_exit_code_audit_names_the_file_whose_command_exits_four(monkeypatch, capsys):
    audit = load_script("exit_code_audit")
    main = audit.cli.main
    monkeypatch.setattr(audit, "cli", SimpleNamespace(
        main=lambda argv: 4 if argv[0] == "classify" else main(argv)))
    assert audit.main(["--files", "2", "--seed", "0"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("FAIL: no command exits 4: file 0 from ")
    assert ", classify 4, dh-profile " in err and err.count("\n") == 1


def test_bench_pairs_exports_the_working_tree_as_git_would_track_it(tmp_path):
    pairs = load_script("bench_pairs")
    root, into = tmp_path / "work", tmp_path / "change"
    (root / "src" / "__pycache__").mkdir(parents=True)
    (root / ".gitignore").write_text("__pycache__/\n.hypothesis/\n")
    (root / "src" / "mod.py").write_text("committed = 1\n")
    subprocess.run(["git", "init", "-q"], cwd=root, check=True)
    subprocess.run(["git", "add", "."], cwd=root, check=True)
    (root / "src" / "mod.py").write_text("edited = 2\n")  # an edit not yet staged
    (root / "src" / "new.py").write_text("untracked = 3\n")
    (root / "src" / "__pycache__" / "mod.cpython.pyc").write_bytes(b"stale")
    (root / ".hypothesis").mkdir()
    (root / ".hypothesis" / "examples").write_text("left over\n")
    pairs.export_worktree(root, into)
    assert (into / "src" / "mod.py").read_text() == "edited = 2\n"
    assert (into / "src" / "new.py").read_text() == "untracked = 3\n"
    assert not (into / "src" / "__pycache__").exists() and not (into / ".hypothesis").exists()
    assert sorted(p.relative_to(into).as_posix() for p in into.rglob("*") if p.is_file()) == [
        ".gitignore", "src/mod.py", "src/new.py"]


def _bench_run(tree, seed, p50, setup, ops):
    metrics = {"setup_s": setup, "peak_rss_mb": 20.0, "op_p50_ms": p50, "op_tail_ms": 2.0,
               "ops_per_s": ops}
    return {"tree": tree, "workload": "gluing_audit", "seed": seed, "seconds": 25, "trace": 0,
            "result": {"correct": True, "metrics": {name: {"value": value, "unit": "u"}
                                                    for name, value in metrics.items()}}}


PARENT_P50 = [1 + i / 100 for i in range(10)]  # median 1.045, quartiles 1.0225 and 1.0675
NINE = [0.9 + i / 100 for i in range(9)]  # nine pairs won by 0.1


@pytest.mark.parametrize("change, wins, quartiles, claim", [
    (NINE + [1.2], 9, "0.9450 ms (quartiles 0.9225, 0.9675)", "may"),
    (NINE[:8] + [1.1, 1.2], 8, "0.9450 ms (quartiles 0.9225, 0.9675)", "may not"),
    ([p - 0.01 for p in PARENT_P50[:9]] + [1.2], 9, "1.0350 ms (quartiles 1.0125, 1.0575)",
     "may not"),
], ids=["nine-wins-by-more-than-the-iqr", "eight-wins", "nine-wins-within-the-iqr"])
def test_bench_pairs_prints_the_claim_rule_and_every_bound(change, wins, quartiles, claim):
    pairs = load_script("bench_pairs")
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs = [_bench_run("change", 3, 0.1, 0.1, 1000.0)]  # another seed: not read
    for i, (p, c) in enumerate(zip(PARENT_P50, change)):
        pair = [_bench_run("parent", 0, p, 0.1, 1000.0), _bench_run("change", 0, c, 0.13, 900.0)]
        runs += pair if i % 2 == 0 else pair[::-1]
    assert pairs.verdict({"runs": runs}, "gluing_audit", 0, end_to_end) == [
        f"op_p50_ms: the change won {wins} of 10 pairs; parent median 1.0450 ms (quartiles "
        f"1.0225, 1.0675), change median {quartiles}; parent IQR 0.0450 ms; "
        f"a gain {claim} be claimed",
        "  setup_s: median 0.1000 -> 0.1300 s (+30.0%), bound 25% worse: OUT",
        "  peak_rss_mb: median 20.0000 -> 20.0000 MB (+0.0%), bound 10% worse: within",
        "  op_tail_ms: median 2.0000 -> 2.0000 ms (+0.0%), bound 25% worse: within",
        "  ops_per_s: median 1000.0000 -> 900.0000 1/s (-10.0%), bound 20% worse: within"]


def test_bench_pairs_reads_one_run_as_its_own_quartiles():
    pairs = load_script("bench_pairs")
    end_to_end = [{"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}]
    runs = [_bench_run("change", 0, 0.9, 0.1, 1000.0), _bench_run("parent", 0, 1.0, 0.1, 1000.0),
            _bench_run("parent", 0, 1.0, 0.1, 1000.0)]  # an unfinished pair: not read
    assert pairs.verdict({"runs": runs}, "gluing_audit", 0, end_to_end) == [
        "op_p50_ms: the change won 1 of 1 pairs; parent median 1.0000 ms (quartiles 1.0000, "
        "1.0000), change median 0.9000 ms (quartiles 0.9000, 0.9000); parent IQR 0.0000 ms; "
        "a gain may be claimed"]
