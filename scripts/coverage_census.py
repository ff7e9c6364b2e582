#!/usr/bin/env python3
"""Census of the package lines that the tests never run, with the standard library only.

Usage: PYTHONPATH=src python scripts/coverage_census.py [pytest arguments]

Runs pytest in this interpreter under ``sys.settrace`` (by default the
tier-1 suite, ``tests``) and prints, per file of ``src/dhwalk``, the
executable lines that no test reached.  A line is executable when it
belongs to some code object's ``co_lines()``.  Only frames of package code
are traced line by line.  Subprocesses are not followed, so a line that only
a CLI test run in a child interpreter reaches counts as unexecuted.  Tracing
about doubles the suite's time.  The census reports; it does not gate: the
exit status is 0 whatever the tests did, and the last line says how pytest
ended.
"""

import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dhwalk"


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every code object compiled from ``path``."""
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    for code in codes:  # appended to while read
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def spans(numbers: list[int]) -> str:
    """``1, 3-5, 9`` for ``[1, 3, 4, 5, 9]``."""
    out, start = [], None
    for i, n in enumerate(numbers):
        start = n if start is None else start
        if i + 1 == len(numbers) or numbers[i + 1] != n + 1:
            out.append(str(n) if n == start else f"{start}-{n}")
            start = None
    return ", ".join(out)


def census(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest under the tracer: its exit status and the lines run per package file."""
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = defaultdict(set)
    traced: dict[object, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_trace(frame, event, arg):
        code = frame.f_code
        inside = traced.get(code)
        if inside is None:
            inside = traced[code] = code.co_filename.startswith(prefix)
        if not inside:
            return None
        ran[code.co_filename].add(frame.f_lineno)  # a decorated def starts at its decorator
        return local

    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), ran


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    status, ran = census(sys.argv[1:] or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    rows = []
    for path in sorted(PACKAGE.glob("*.py")):
        missing = sorted(executable_lines(path) - ran.get(str(path), set()))
        if missing:
            rows.append((path.relative_to(ROOT).as_posix(), missing))
    print(f"\nlines never run, per file of {PACKAGE.relative_to(ROOT).as_posix()}:")
    for name, missing in sorted(rows, key=lambda row: (-len(row[1]), row[0])):
        print(f"{len(missing):4d}  {name}: {spans(missing)}")
    print(f"{sum(len(m) for _, m in rows):4d}  in all; pytest exit status {status}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
