"""Set up one workload in this fresh interpreter and, for ``measure``, run it.

Usage, from the root of a dhwalk checkout (``run.py`` starts it):

    python perfbench/worker.py setup   WORKLOAD SEED TMPDIR
    python perfbench/worker.py measure WORKLOAD SEED TMPDIR SECONDS TRACE

Set-up is ``import dhwalk.cli`` (timed on its own as the import cost),
building the workload's pool of operations from SEED and one warm-up
operation.  ``measure`` then runs passes over the pool, each in a new
seeded order, closed loop, until the next pass would end after SECONDS.
With TRACE 1 it spends half of SECONDS untraced and half traced, so that
the tracing overhead can be reported.  The last stdout line is a JSON
object with the raw samples.
"""

import sys
import time

_START = time.perf_counter()

import dhwalk.cli  # noqa: E402  (timed: the import every CLI call pays)

IMPORT_MS = (time.perf_counter() - _START) * 1e3

import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import loop_slowness  # noqa: E402
from tracer import Tracer, leftover_wrappers, summarize  # noqa: E402
from workloads import ROOT, WORKLOADS  # noqa: E402


def measure(wl, pool, order: random.Random, seconds: float, tracer=None) -> dict:
    """Closed loop, one client: run passes over the pool until the next would overrun.

    Each op is timed between two readings of the speed probe;
    ``samples`` maps an op to its ``[ms, mean slowness, seconds since start]``.
    """
    samples: dict[str, list[list[float]]] = {op.name: [] for op in pool}
    errors: list[str] = []
    attempted = 0
    bytes_before = wl.bytes_out
    start = time.perf_counter()
    passes = 0
    while True:
        shuffled = list(pool)
        order.shuffle(shuffled)
        before = loop_slowness()
        for op in shuffled:
            if tracer is not None:
                tracer.op = attempted
            attempted += 1
            t = time.perf_counter()
            try:
                out = op.run()
            except Exception as err:  # noqa: BLE001 - a failed op is counted, not fatal
                errors.append(f"{op.name}: {type(err).__name__}: {err}")
                continue
            finally:
                ms = (time.perf_counter() - t) * 1e3
                after = loop_slowness()
                at = time.perf_counter() - start
                samples[op.name].append([ms, (before + after) / 2, at])
                before = after
            try:
                error = op.finish(out)
            except Exception as err:  # noqa: BLE001
                error = f"{op.name}: check raised {type(err).__name__}: {err}"
            if error:
                errors.append(error)
        errors.extend(wl.pass_done())
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed * (passes + 1) / passes > seconds:
            break
    return {
        "samples": samples,
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors[:20],
        "passes": passes,
        "bytes_out": wl.bytes_out - bytes_before,
    }


def traced_measure(wl, pool, order: random.Random, seconds: float) -> dict:
    if wl.fresh_process:
        wl.traced, wl.layers = True, {}
        try:
            result = measure(wl, pool, order, seconds)
        finally:
            wl.traced = False
        result["layers"] = wl.layers
        return result
    tracer = Tracer()
    try:
        tracer.install()
        result = measure(wl, pool, order, seconds, tracer)
    finally:
        tracer.uninstall()
    leftover = leftover_wrappers()
    if leftover:
        result["errors"].append(f"tracer left wrappers behind: {leftover}")
        result["failed"] += 1
    result["layers"] = summarize(tracer.spans)
    spans_dir = ROOT / ".perfbench" / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    tracer.dump(spans_dir / f"{wl.name}-{wl.seed}.json")
    return result


def main(argv: list[str]) -> int:
    role, name, seed, tmp = argv[0], argv[1], int(argv[2]), Path(argv[3])
    if not Path(dhwalk.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"dhwalk imported from {dhwalk.cli.__file__}, not from this checkout", file=sys.stderr)
        return 2
    wl = WORKLOADS[name](seed, tmp)
    pool = wl.pool()
    try:
        warm_error = wl.warm_up()
    except Exception as err:  # noqa: BLE001 - reported as a failed op
        warm_error = f"warm-up raised {type(err).__name__}: {err}"
    report = {"import_ms": IMPORT_MS, "warm_up_error": warm_error}
    if role == "measure":
        seconds, trace = float(argv[4]), argv[5] == "1"
        order = random.Random(seed)
        if trace:
            report["untraced"] = measure(wl, pool, order, seconds / 2)
            report["traced"] = traced_measure(wl, pool, order, seconds / 2)
        else:
            report["untraced"] = measure(wl, pool, order, seconds)
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if wl.fresh_process else resource.RUSAGE_SELF)
        report["peak_rss_mb"] = usage.ru_maxrss / 1024
        report["inputs"] = wl.inputs()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
