"""dhwalk benchmark: one workload, one seed, one result line.

Usage, from the root of a dhwalk checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli_cold, triple_sweep, gluing_audit, lattice_enum (see
``workloads.py`` for what each runs and why).  The run byte-compiles
``src`` (the build), sets the workload up in SETUP_SAMPLES fresh
interpreters to time set-up, then measures it in one more fresh interpreter
(``worker.py``).  Every operation's output is checked; any failure makes
``correct`` false and the exit code 1.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones below; with ``--trace 1`` they are the per-layer ones from
the traced half of the run, plus the tracing overhead.

End-to-end metrics (the same names on every workload; an "op" is one CLI
call on cli_cold, one triple on triple_sweep and gluing_audit, and one
``lattice exc -k K`` on lattice_enum).  Times are scaled to reference speed
(``speed.py``), because the machine's speed drifts during a run:

* ``setup_s``: median wall time of a fresh interpreter from start to exit
  after ``import dhwalk.cli``, building the inputs and one warm-up op.
* ``peak_rss_mb``: peak resident set of the measuring interpreter (in-process
  workloads) or of its largest ``dhwalk`` child (fresh-process workloads).
* ``op_p50_ms``: median over distinct ops of each op's median latency.
* ``op_tail_ms``: the highest percentile of those per-op latencies with at
  least ten ops above it (the maximum with ten ops or fewer).
* ``ops_per_s``: distinct ops divided by the sum of their latencies.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from speed import loop_slowness, smoothed
from workloads import ROOT, SCENARIOS, WORKLOADS, child_env

SETUP_SAMPLES = 5
TIME_LIMIT_S = 170  # for the whole run
WORKER = Path(__file__).resolve().parent / "worker.py"

# per-layer metric -> (tracer span name, field, unit)
LAYER_METRICS = {
    "lattice.pair.calls": ("lattice.pair", "calls", "count"),
    "lattice.pair.self_ms": ("lattice.pair", "self_ms", "ms"),
    "walk.state_fingerprint.calls": ("walk.state_fingerprint", "calls", "count"),
    "walk.state_fingerprint.total_ms": ("walk.state_fingerprint", "total_ms", "ms"),
    "walk.cross_level.calls": ("walk.cross_level", "calls", "count"),
    "walk.cross_level.self_ms": ("walk.cross_level", "self_ms", "ms"),
    "walk.run_walk.total_ms": ("walk.run_walk", "total_ms", "ms"),
    "walk.split_trace.total_ms": ("walk.split_trace", "total_ms", "ms"),
    "walk.compose_traces.total_ms": ("walk.compose_traces", "total_ms", "ms"),
    "lattice.exceptional_classes.calls": ("lattice.exceptional_classes", "calls", "count"),
    "lattice.exceptional_classes.self_ms": ("lattice.exceptional_classes", "self_ms", "ms"),
    "lattice.ruling_classes.self_ms": ("lattice.ruling_classes", "self_ms", "ms"),
    "lattice.canonical_presentation.self_ms": ("lattice.canonical_presentation", "self_ms", "ms"),
    "lattice.blow_down_data.self_ms": ("lattice.blow_down_data", "self_ms", "ms"),
    "lattice.blow_up_lattice.self_ms": ("lattice.blow_up_lattice", "self_ms", "ms"),
    "family.symplectic_cone_check.self_ms": ("family.symplectic_cone_check", "self_ms", "ms"),
    "rigidity.lookup.self_ms": ("rigidity.lookup", "self_ms", "ms"),
    "rigidity.certify.self_ms": ("rigidity.certify", "self_ms", "ms"),
    "scenario.validate_structure.calls": ("scenario.validate_structure", "calls", "count"),
    "scenario.time_reversed.total_ms": ("scenario.time_reversed", "total_ms", "ms"),
    "io.load_scenario.total_ms": ("io.load_scenario", "total_ms", "ms"),
    "io.trace_csv.total_ms": ("io.trace_csv", "total_ms", "ms"),
    "io.profile_csv.total_ms": ("io.profile_csv", "total_ms", "ms"),
    "io.dump_scenario.total_ms": ("io.dump_scenario", "total_ms", "ms"),
    "classify.classify_isolated.total_ms": ("classify.classify_isolated", "total_ms", "ms"),
    "classify.small_data_bootstrap.total_ms": ("classify.small_data_bootstrap", "total_ms", "ms"),
}
# per-workload names for the end-to-end metrics, printed beside them in the report
ALIASES = {
    "cli_cold": {"op_p50_ms": "cli_p50_ms", "op_tail_ms": "cli_tail_ms"},
    "triple_sweep": {
        "op_p50_ms": "sweep_p50_ms",
        "op_tail_ms": "sweep_tail_ms",
        "ops_per_s": "sweep_triples_per_s",
    },
    "gluing_audit": {
        "op_p50_ms": "audit_p50_ms",
        "op_tail_ms": "audit_tail_ms",
        "ops_per_s": "audit_ops_per_s",
    },
    "lattice_enum": {},
}


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and its value.

    With ten samples or fewer no percentile qualifies, and the maximum is
    returned as the 100th percentile.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def spawn_worker(args: list[str], deadline: float) -> tuple[float, float, dict]:
    """Run the worker; return its wall time in s, the mean slowness around
    it, and its report.  At the deadline the worker and the processes
    it started are killed."""
    before = loop_slowness()
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        start_new_session=True,
    ) as proc:
        try:
            stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    wall = time.perf_counter() - start
    slowness = (before + loop_slowness()) / 2
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[:2]} exited {proc.returncode}")
    return wall, slowness, json.loads(stdout.decode().splitlines()[-1])


def preflight() -> str | None:
    if not (ROOT / "src" / "dhwalk" / "cli.py").is_file():
        return "no dhwalk sources at src/dhwalk"
    missing = [s for s in SCENARIOS if not (ROOT / "scenarios" / s).is_file()]
    if missing:
        return f"missing scenarios: {missing}"
    return None


def per_op(run: dict) -> dict[str, float]:
    """Median time of each distinct op, in ms at reference speed."""
    flat = sorted((at, ms, slow, name) for name, rows in run["samples"].items() for ms, slow, at in rows)
    slowness = smoothed([at for at, *_ in flat], [slow for _, _, slow, _ in flat])
    scaled: dict[str, list[float]] = {name: [] for name in run["samples"]}
    for (_, ms, _, name), slow in zip(flat, slowness):
        scaled[name].append(ms / slow)
    return {name: statistics.median(values) for name, values in scaled.items()}


def end_to_end(name: str, setups: list[tuple[float, float]], report: dict) -> tuple[dict, list[str]]:
    run = report["untraced"]
    by_op = per_op(run)
    ops = list(by_op.values())
    pct, tail_ms = tail(ops)
    metrics = {
        "setup_s": (statistics.median(wall / slow for wall, slow in setups), "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        "op_p50_ms": (statistics.median(ops), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "ops_per_s": (len(ops) / (sum(ops) / 1e3), "1/s"),
    }
    raw = [ms for pairs in run["samples"].values() for ms, _, _ in pairs]
    notes = {
        "setup_s": f"median of {len(setups)} fresh set-ups; raw median "
        f"{statistics.median(s for s, _ in setups):.4f} s",
        "op_p50_ms": f"raw median of all {len(raw)} samples {statistics.median(raw):.4f} ms",
        "op_tail_ms": f"p{pct:.1f} of {len(ops)} distinct ops",
    }
    lines = []
    for metric, (value, unit) in metrics.items():
        alias = ALIASES[name].get(metric)
        label = f"{metric} ({alias})" if alias else metric
        note = f"  ({notes[metric]})" if metric in notes else ""
        lines.append(f"  {label:<36} {value:12.4f} {unit}{note}")
    if name == "lattice_enum":
        for op, value in by_op.items():
            lines.append(f"  {'enum_k' + op.split()[-1] + '_ms':<36} {value:12.4f} ms")
    return {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}, lines


def per_layer(report: dict, import_ms: list[float]) -> tuple[dict, list[str]]:
    traced, untraced = report["traced"], report["untraced"]
    ops = traced["attempted"]
    layers = traced["layers"]
    metrics = {}
    for metric, (span, field, unit) in LAYER_METRICS.items():
        metrics[metric] = (layers.get(span, {}).get(field, 0) / ops, unit)
    metrics["io.bytes_out"] = (traced["bytes_out"] / ops, "bytes")
    metrics["cli.import_ms"] = (statistics.median(import_ms), "ms")
    base = statistics.median(per_op(untraced).values())
    overhead = statistics.median(per_op(traced).values()) - base
    metrics["trace.overhead_ms"] = (overhead, "ms")
    metrics["trace.overhead_pct"] = (100 * overhead / base, "%")
    lines = [f"  {m:<44} {v:14.4f} {u}" for m, (v, u) in metrics.items()]
    lines.append(f"  per traced op ({ops} ops); cli.import_ms is the median fresh import;"
                 " overhead is the traced minus the untraced op_p50_ms")
    return {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + TIME_LIMIT_S
    problem = preflight()
    if problem:
        print(f"perfbench: cannot run: {problem}", file=sys.stderr)
        return 2
    build = subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"], cwd=ROOT)
    if build.returncode != 0:
        print("perfbench: byte-compiling src failed", file=sys.stderr)
        return 2

    work_root = ROOT / ".perfbench"
    work_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        common = [args.workload, str(args.seed), str(tmp)]
        setups, import_ms, warm_errors = [], [], []
        for _ in range(SETUP_SAMPLES):
            wall, slow, rep = spawn_worker(["setup", *common], deadline)
            setups.append((wall, slow))
            import_ms.append(rep["import_ms"] / slow)
            warm_errors += [rep["warm_up_error"]] if rep["warm_up_error"] else []
        _, _, report = spawn_worker(["measure", *common, str(args.seconds), str(args.trace)], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if report["warm_up_error"]:
        warm_errors.append(report["warm_up_error"])
    runs = [report["untraced"]] + ([report["traced"]] if args.trace else [])
    warm_ups = SETUP_SAMPLES + 1  # one per set-up and one in the measuring worker
    attempted = sum(r["attempted"] for r in runs) + warm_ups
    failed = sum(r["failed"] for r in runs) + len(warm_errors)
    errors = warm_errors + [e for r in runs for e in r["errors"]]

    if args.trace:
        metrics, lines = per_layer(report, import_ms)
    else:
        metrics, lines = end_to_end(args.workload, setups, report)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted - warm_ups} ops in {sum(r['passes'] for r in runs)} passes over "
          f"{len(runs[0]['samples'])} distinct ops and {warm_ups} warm-ups, {failed} failed "
          f"(fail_ratio {failed / attempted:.4f})")
    if report["inputs"]:
        print(f"  inputs: {json.dumps(report['inputs'])}")
    print("\n".join(lines))
    for error in errors[:20]:
        print(f"  FAILED: {error}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
