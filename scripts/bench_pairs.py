#!/usr/bin/env python3
"""Alternating benchmark pairs: the working tree against a parent commit.

Runs ``perfbench/run.py`` for one workload and seed, ``--pairs`` times in
each of two trees, exported alike into sibling directories of one temporary
directory: a ``git archive`` export of ``--parent``, and a copy of the
working tree's files as they are now, tracked or untracked but not ignored
(so no ``__pycache__`` or ``.hypothesis`` folder comes along).  The two
trees alternate which runs first.  Every run's result line is recorded in
``--out`` (added to the file when it exists and names the same parent) in the
layout of the committed ``BENCH_*.json`` files: ``what``, ``parent``,
``machine``, ``command``, ``order`` and ``runs``.  Each pair's ``op_p50_ms`` change is printed,
then the verdict over every run in ``--out`` of that workload and seed: the pairs the
change won, each side's ``op_p50_ms`` median and quartiles, the parent's IQR and whether
a gain may be claimed (the change wins at least nine pairs in ten and the medians differ
by more than the parent's IQR), and each other end-to-end metric's median change beside
its bound in ``BENCHMARK.json``.

Usage, from the root of a dhwalk checkout:

    python3 scripts/bench_pairs.py --workload gluing_audit --seed 0 --pairs 5 \\
        --parent HEAD --out BENCH.json --what "what the change is"

Standard library only; a record of measurements, not a test.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLAIMED = "op_p50_ms"
COMMAND = "python3 perfbench/run.py --workload WORKLOAD --seed SEED --seconds {seconds} --trace 0"
ORDER = ("pairs of runs; the two trees alternate which runs first; "
         "runs are listed in the order they ran")


def export(rev: str, into: Path) -> str:
    """Write the tree of ``rev`` into ``into``; return the full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)
    return commit


def export_worktree(root: Path, into: Path) -> None:
    """Copy into ``into`` the files of the working tree at ``root`` that git tracks or
    would track (untracked but not ignored), with their working-tree contents."""
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                           cwd=root, check=True, capture_output=True).stdout.split(b"\0")
    for name in map(os.fsdecode, filter(None, names)):
        source = root / name
        if source.is_file():  # a tracked file deleted in the working tree stays out
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, into / name)


def machine() -> str:
    """CPU count and model, operating system and Python version."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (f"{os.cpu_count()} vCPUs, {model}, {platform.system()}, "
            f"Python {platform.python_version()}")


def run(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"bench_pairs: no result from {tree}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def quartiles(values: list) -> tuple:
    """The lower quartile, median and upper quartile, interpolated between order
    statistics (one value is all three)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def verdict(record: dict, workload: str, seed: int, end_to_end: list) -> list:
    """The verdict lines on the runs of ``workload`` and ``seed`` in ``record``, paired
    in the order they ran, against the ``end_to_end`` metrics of ``BENCHMARK.json``."""
    pairs, pending = [], {}
    for entry in record["runs"]:
        if (entry["workload"], entry["seed"]) != (workload, seed):
            continue
        pending[entry["tree"]] = entry["result"]["metrics"]
        if len(pending) == 2:
            pairs.append(pending)
            pending = {}
    if not pairs:
        return ["no complete pair of runs"]
    lines = []
    for metric in end_to_end:
        name, unit, lower = metric["name"], metric["unit"], metric["better"] == "lower"
        side = {tree: [p[tree][name]["value"] for p in pairs] for tree in ("parent", "change")}
        (p1, parent, p3), (c1, change, c3) = quartiles(side["parent"]), quartiles(side["change"])
        if name == CLAIMED:
            wins = sum((c < p) if lower else (c > p) for p, c in zip(side["parent"], side["change"]))
            gain = parent - change if lower else change - parent
            holds = 10 * wins >= 9 * len(pairs) and gain > p3 - p1
            lines.insert(0, (
                f"{name}: the change won {wins} of {len(pairs)} pairs; parent median "
                f"{parent:.4f} {unit} (quartiles {p1:.4f}, {p3:.4f}), change median {change:.4f} "
                f"{unit} (quartiles {c1:.4f}, {c3:.4f}); parent IQR {p3 - p1:.4f} {unit}; "
                f"a gain {'may' if holds else 'may not'} be claimed"))
            continue
        moved = change / parent - 1 if parent else float("inf") if change else 0.0
        within = (moved if lower else -moved) <= metric["bound"]
        lines.append(f"  {name}: median {parent:.4f} -> {change:.4f} {unit} ({100 * moved:+.1f}%),"
                     f" bound {100 * metric['bound']:.0f}% worse: {'within' if within else 'OUT'}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--parent", default="HEAD", help="the commit to compare against")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--what", default="", help="what the change measured is")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        parent = export(args.parent, trees["parent"])
        export_worktree(ROOT, trees["change"])
        record = {"what": args.what, "parent": parent, "machine": machine(),
                  "command": COMMAND.format(seconds=args.seconds), "order": ORDER, "runs": []}
        if args.out.exists():
            record = json.loads(args.out.read_text(encoding="utf-8"))
            if record["parent"] != parent:
                raise SystemExit(f"bench_pairs: {args.out} records parent {record['parent']}")
            record["what"] = args.what or record["what"]
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            p50 = {}
            for tree in order:
                result = run(trees[tree], args.workload, args.seed, args.seconds)
                record["runs"].append({"tree": tree, "workload": args.workload, "seed": args.seed,
                                       "seconds": args.seconds, "trace": 0, "result": result})
                args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
                p50[tree] = result["metrics"]["op_p50_ms"]["value"]
                if not result["correct"]:
                    print(f"  {tree} run not correct: {result}", file=sys.stderr)
            change = 100 * (p50["change"] / p50["parent"] - 1)
            print(f"{args.workload} seed {args.seed} pair {i + 1}: op_p50 parent "
                  f"{p50['parent']:.4f} ms, change {p50['change']:.4f} ms ({change:+.1f}%)",
                  flush=True)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    print("\n".join(verdict(record, args.workload, args.seed, benchmark["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
