"""Self-checks for the benchmark.

Run from the root of a dhwalk checkout:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import copy
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tracer import Tracer, leftover_wrappers, summarize
from workloads import (
    FLAGSHIP,
    ROOT,
    CliCold,
    GluingAudit,
    TripleSweep,
    check_certificate,
    check_exceptional_listing,
    check_gluing,
    cli_gate,
    load_reference,
    slice_area,
    spawn,
)

sys.path.insert(0, str(ROOT / "src"))

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _flip_one_hex_digit(digest: str) -> str:
    return ("1" if digest[0] != "1" else "2") + digest[1:]


def test_gate_accepts_reference_and_rejects_flipped_digest(tmp_path):
    reference = load_reference()
    out = tmp_path / "bootstrap.json"
    key = "bootstrap three_spheres_1_2_4.json"
    proc = spawn([sys.executable, "-m", "dhwalk.cli", "bootstrap",
                  "scenarios/three_spheres_1_2_4.json", "-o", str(out)])
    assert cli_gate(key, proc, out, reference) is None

    for field in ("stdout_sha256", "file_sha256"):
        corrupted = copy.deepcopy(reference)
        corrupted["cli"][key][field] = _flip_one_hex_digit(corrupted["cli"][key][field])
        assert "differs from the reference" in cli_gate(key, proc, out, corrupted)
    corrupted = copy.deepcopy(reference)
    corrupted["cli"][key]["exit"] = 2
    assert cli_gate(key, proc, out, corrupted) is not None


def test_gate_rejects_exit_4_even_if_recorded(tmp_path):
    proc = subprocess.CompletedProcess([], 4, b"", b"boom")
    reference = {"cli": {"walk x.json": {"exit": 4, "stdout_sha256": "", "file_sha256": None}}}
    assert "exit 4" in cli_gate("walk x.json", proc, tmp_path / "none", reference)


def test_cli_round_passes_gate_for_one_command(tmp_path):
    wl = CliCold(0, tmp_path)
    op = wl.op("walk", ("--trace", "csv"), "bad_maximum_8.json")
    assert op.finish(op.run()) is None


def test_certificate_oracle_rejects_altered_values():
    from dhwalk.classify import classify_isolated
    from dhwalk.scenario import three_sphere_product_data

    outcome = classify_isolated(three_sphere_product_data(*FLAGSHIP))
    assert check_certificate(FLAGSHIP, outcome) is None
    other = (Fraction(2), Fraction(3), Fraction(5))
    assert check_certificate(other, outcome) is not None


def test_slice_area_integrates_to_the_box_volume():
    lams = (Fraction(1), Fraction(3, 2), Fraction(4))
    # Simpson's rule is exact on each quadratic piece between breakpoints
    cuts = sorted({Fraction(0), *lams, lams[0] + lams[1], lams[0] + lams[2],
                   lams[1] + lams[2], sum(lams)})
    total = sum((b - a) / 6 * (slice_area(lams, a) + 4 * slice_area(lams, (a + b) / 2)
                               + slice_area(lams, b)) for a, b in zip(cuts, cuts[1:]))
    assert total == lams[0] * lams[1] * lams[2]


def test_gluing_oracle_rejects_a_wrong_output():
    wl = GluingAudit(0, Path("."))
    out = wl.op(0, FLAGSHIP, Fraction(1, 2)).run()
    assert check_gluing(FLAGSHIP, Fraction(1, 2), *out) is None
    trace, reverse, composed, text, again = out
    ones = (Fraction(1), Fraction(1), Fraction(1))
    other_reverse = wl.op(1, ones, Fraction(1, 2)).run()[1]  # k-sequence (0, 3, 0)
    assert "k-sequence" in check_gluing(FLAGSHIP, None, trace, other_reverse, composed, text, again)
    assert "idempotent" in check_gluing(FLAGSHIP, None, trace, reverse, composed, text, again + " ")


def test_exceptional_listing_oracle():
    good = "# 1 exceptional class\nE1 = (0, 1)\n"
    assert check_exceptional_listing(4, good) is not None  # wrong rank and count
    k4 = spawn([sys.executable, "-m", "dhwalk.cli", "lattice", "exc", "-k", "4"]).stdout.decode()
    assert check_exceptional_listing(4, k4) is None
    lines = k4.splitlines()
    assert check_exceptional_listing(4, "\n".join(lines + [lines[-1]])) is not None  # duplicate
    altered = k4.replace("(1, -1, -1, 0, 0)", "(1, -1, -1, 1, 0)")
    assert "C.C" in check_exceptional_listing(4, altered)


def test_seed0_digest_mismatch_fails_the_round():
    wl = TripleSweep(0, Path("."))
    for op in wl.pool():
        assert op.finish(op.run()) is None
    wl.first_pass[0] += b"x"
    assert wl.pass_done() != []


def test_tracer_restores_every_object():
    import dhwalk
    import dhwalk.cli  # noqa: F401  (loads every dhwalk module before the snapshot)
    from dhwalk import lattice, walk
    from dhwalk.scenario import three_sphere_product_data

    modules = [m for n, m in sys.modules.items() if n == "dhwalk" or n.startswith("dhwalk.")]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    pair = lattice.IntersectionLattice.__dict__["pair"]
    tracer = Tracer()
    with tracer:
        assert lattice.IntersectionLattice.__dict__["pair"] is not pair
        walk.run_walk(three_sphere_product_data(*FLAGSHIP))
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    assert lattice.IntersectionLattice.__dict__["pair"] is pair
    assert leftover_wrappers() == []
    assert dhwalk.run_walk is walk.run_walk

    layers = summarize(tracer.spans)
    assert layers["walk.run_walk"]["calls"] == 1
    assert layers["lattice.pair"]["calls"] > 0
    # self time of the root is its duration minus its children's durations
    assert 0 < layers["walk.run_walk"]["self_ms"] < layers["walk.run_walk"]["total_ms"]


def test_tracer_sees_the_workload_calls():
    wl = GluingAudit(0, Path("."))
    op = wl.op(0, FLAGSHIP, Fraction(1, 2))
    tracer = Tracer()
    with tracer:
        op.run()
    layers = summarize(tracer.spans)
    for name in ("walk.split_trace", "walk.compose_traces", "scenario.time_reversed",
                 "classify.small_data_bootstrap"):
        assert layers[name]["calls"] >= 1, name
    assert layers["walk.run_walk"]["calls"] == 4  # two walks, two bootstraps


def test_tracer_times_calls_made_through_imported_names():
    from dhwalk import lattice, walk

    original = lattice.exceptional_classes
    tracer = Tracer()
    with tracer:
        assert walk.exceptional_classes is not original
        walk.exceptional_classes(lattice.default_lattice(2))
    assert walk.exceptional_classes is original
    assert summarize(tracer.spans)["lattice.exceptional_classes"]["calls"] == 1


def _run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_one_command_prints_every_metric_with_its_unit(trace, section):
    proc = _run_bench(ROOT, "triple_sweep", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name in want:
        assert name in proc.stdout.split("\n{")[0]  # also in the readable report


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path, "cli_cold", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
