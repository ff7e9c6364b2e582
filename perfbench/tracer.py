"""Outside-in span tracer for the dhwalk modules.

The tracer replaces public dhwalk functions, and ``IntersectionLattice.pair``,
with timing wrappers in every ``dhwalk`` module namespace that holds them, so
calls made through ``from .lattice import exceptional_classes`` are timed
too.  Nothing inside ``src/dhwalk`` is edited.  Spans are kept in memory as
``(op, parent, name, start_ns, end_ns, outermost)`` and summarised or written
out after the run.  ``uninstall`` puts every original object back.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

# module -> public names whose calls are timed ("Class.method" for methods)
TARGETS = {
    "lattice": (
        "IntersectionLattice.pair",
        "exceptional_classes",
        "ruling_classes",
        "canonical_presentation",
        "blow_down_data",
        "blow_up_lattice",
    ),
    "walk": ("state_fingerprint", "cross_level", "run_walk", "split_trace", "compose_traces"),
    "family": ("symplectic_cone_check",),
    "rigidity": ("lookup", "certify"),
    "scenario": ("validate_structure", "time_reversed"),
    "io": ("load_scenario", "trace_csv", "profile_csv", "dump_scenario"),
    "classify": ("classify_isolated", "small_data_bootstrap"),
}

_MARK = "__perfbench_wrapped__"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = 0
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, active, clock = self.spans, self._stack, self._active, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outermost = active[name] == 0
            active[name] += 1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                spans[sid] = (self.op, parent, name, start, end, outermost)

        setattr(wrapper, _MARK, fn)
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        homes = {short: importlib.import_module(f"dhwalk.{short}") for short in TARGETS}
        modules = _dhwalk_modules()
        for short, names in TARGETS.items():
            home = homes[short]
            for target in names:
                if "." in target:
                    cls_name, attr = target.split(".")
                    owner = getattr(home, cls_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, original, self._wrap(f"{short}.{attr}", original))
                    continue
                original = getattr(home, target)
                wrapper = self._wrap(f"{short}.{target}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def dump(self, path) -> None:
        if None in self.spans:
            raise RuntimeError("a span is still open")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def leftover_wrappers() -> list[str]:
    """Names in the dhwalk modules that still hold a tracer wrapper."""
    found = []
    for module in _dhwalk_modules():
        for attr, value in vars(module).items():
            if hasattr(value, _MARK):
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type):
                for cattr, cvalue in vars(value).items():
                    if hasattr(cvalue, _MARK):
                        found.append(f"{module.__name__}.{attr}.{cattr}")
    return found


def _dhwalk_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == "dhwalk" or n.startswith("dhwalk.")]


def summarize(spans, into=None) -> dict[str, dict[str, float]]:
    """Add per-name calls, self time and total time (ms) of ``spans`` to ``into``.

    Parent ids index into ``spans``.  Self time is a span's duration minus
    the time its child spans cover; total time counts only spans with no
    ancestor of the same name, so recursion is not counted twice.
    """
    child_ns = defaultdict(int)
    for _op, parent, _name, start, end, _outermost in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out = {} if into is None else into
    for sid, (_op, _parent, name, start, end, outermost) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "self_ms": 0.0, "total_ms": 0.0})
        row["calls"] += 1
        row["self_ms"] += (end - start - child_ns[sid]) / 1e6
        if outermost:
            row["total_ms"] += (end - start) / 1e6
    return out
