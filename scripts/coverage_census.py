#!/usr/bin/env python3
"""Census of the package lines that the tests never run, with the standard library only.

Usage: PYTHONPATH=src python scripts/coverage_census.py [pytest arguments]

Runs pytest in this interpreter under ``sys.settrace`` (by default the
tier-1 suite, ``tests``) and prints, per file of ``src/dhwalk``, the
executable lines that no test reached.  A line is executable when it
belongs to some code object's ``co_lines()``.  Only frames of package code
are traced line by line.  Subprocesses are not followed, so a line that only
a CLI test run in a child interpreter reaches counts as unexecuted.  Tracing
about doubles the suite's time.

The default run is a gate: it exits 1 when a line that no test ran is not in
``ALLOWED``, when an entry there names no such line (it is stale), or when
pytest fails.  A run with explicit pytest arguments only reports: its exit
status is 0 whatever the tests did, and its last line says how pytest ended.
"""

import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dhwalk"

_CHILD = "reached only in a child interpreter (test_cli's subprocess tests)"
_LIBRARY = "a library argument refusal: no file or command passes such an argument"

#: ``(file, stripped text, reason)`` of each package line the tier-1 suite cannot run;
#: an entry covers every line of its file with that text
ALLOWED = (
    ("cli.py", "except OSError as err:", _CHILD + ": a closed or full stdout"),
    ("cli.py", "raise _StdoutClosed(err.strerror or repr(err)) from err", _CHILD),
    ("cli.py", 'print(f"error: cannot write to standard output: {err}", file=sys.stderr)',
     _CHILD),
    ("cli.py", "return EXIT_PARSE", _CHILD + ": the closed-stdout exit"),
    ("cli.py", "_emit(f\"{usage}\\n\\n{text}\\n\\n{'options' if name else 'commands'}:"
     "\\n{''.join(rows)}\")", _CHILD + ": help"),
    ("cli.py", "raise SystemExit(EXIT_OK)", _CHILD + ": help"),
    ("cli.py", "_exit(name)", _CHILD + ": --help"),
    ("cli.py", "raise SystemExit(main())", _CHILD + ": python -m dhwalk.cli"),
    ("__init__.py", 'return import_module(f"{__name__}.{name}")',
     "a submodule read off the package before its first import: test_package's child"),
    ("lattice.py", 'raise ValueError(f"class {self} is not integral")', _LIBRARY),
    ("lattice.py", 'raise DimensionError(f"rank mismatch: {self.rank} vs {other.rank}")',
     _LIBRARY),
    ("lattice.py", 'raise ValueError("labels must be distinct and match the rank")', _LIBRARY),
    ("lattice.py",
     'raise DimensionError(f"expected {self.rank} coefficients, got {len(coeffs)}")', _LIBRARY),
    ("lattice.py", 'raise ValueError("blow-up count must be nonnegative")', _LIBRARY),
    ("lattice.py", 'raise DimensionError("class rank does not match the source lattice")',
     _LIBRARY),
    ("lattice.py", 'raise DimensionError("class rank does not match the target lattice")',
     _LIBRARY),
    ("lattice.py", 'raise InvalidBlowDownError(f"blow-down class {c} must be integral")',
     _LIBRARY),
    ("lattice.py", 'raise InternalInvariantError("degenerate gram in signature computation")',
     "defensive: a unimodular gram is never degenerate"),
    ("lattice.py", "raise InternalInvariantError(f\"the lattice {'/'.join(lattice.labels)} "
     "has no presentation\")",
     "defensive: every lattice that obeys the declared laws has a presentation"),
    ("io.py", "raise", "fallback: rereading a bad list's entries at their own paths raises first"),
    ("formatting.py", "x = Fraction(x)", "fallback: every package caller passes an int or a "
     "Fraction"),
)


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


def gate(rows: list[tuple[Path, list[int]]]) -> list[str]:
    """One line per missed line that ``ALLOWED`` does not name, and per stale entry."""
    allowed = {(name, text) for name, text, _ in ALLOWED}
    faults, listed = [], set()
    for path, missing in rows:
        lines = path.read_text(encoding="utf-8").splitlines()
        for n in missing:
            key = (path.name, lines[n - 1].strip())
            if key in allowed:
                listed.add(key)
            else:
                faults.append(f"unlisted: {path.name}:{n}: {key[1]}")
    return faults + [f"stale: {name}: {text}" for name, text, _ in ALLOWED
                     if (name, text) not in listed]


def main(args: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    status, ran = census(args or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    rows = []
    for path in sorted(PACKAGE.glob("*.py")):
        missing = sorted(executable_lines(path) - ran.get(str(path), set()))
        if missing:
            rows.append((path, missing))
    print(f"\nlines never run, per file of {PACKAGE.relative_to(ROOT).as_posix()}:")
    for path, missing in sorted(rows, key=lambda row: (-len(row[1]), row[0])):
        print(f"{len(missing):4d}  {path.relative_to(ROOT).as_posix()}: {spans(missing)}")
    print(f"{sum(len(m) for _, m in rows):4d}  in all; pytest exit status {status}")
    if args:
        return 0
    faults = gate(rows)
    for fault in faults:
        print(fault)
    print(f"census gate: {len(faults)} unlisted or stale")
    return 1 if faults or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
