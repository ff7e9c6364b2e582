#!/usr/bin/env python3
"""Randomised audit of the CLI's exit-code contract on mutated scenario files.

Each file is a seeded schema-level mutation of one of the scenarios in
``scenarios/``: one or two edits, each dropping or duplicating a list entry or
swapping a field (an object value or a list entry) for a value from a fixed
menu of integers, ``p/q`` strings, lists, grams, ``null`` and booleans.  Every
file is run in-process through ``cli.main`` by ``validate``, ``walk``,
``classify``, ``dh-profile`` and ``bootstrap``, and four rules are checked:

1. no command exits 4 (a bug in dhwalk, never the result of bad data);
2. a parse error is exit 1 for every command;
3. a ``validate`` exit 2 is exit 2 for every command;
4. a ``walk`` exit 0 gives exit 0 for ``dh-profile`` and ``bootstrap``.

One gap is known and allowed, and counted: ``walk`` exits 2 on a failed
maximum check while ``dh-profile`` and ``bootstrap``, which do not read that
check, exit 0.  A broken rule is named on stderr with the file's scenario,
index and edits, and the exit status is 1; a count below 1 is a usage error.

Usage: python scripts/exit_code_audit.py [--files 300] [--seed 0]
"""

import argparse
import contextlib
import copy
import io
import json
import random
import sys
import tempfile
from pathlib import Path

from dhwalk import cli

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
COMMANDS = ("validate", "walk", "classify", "dh-profile", "bootstrap")
#: the values a swapped field takes, by shape: numbers, lists, grams, the rest
MENU = ((0, 1, 2, -1, 6, 7, "1/2", "7/2", "-3/2", "1/0"),
        ([], [0], [1, 1], [1, -1], [0, 1, 1], [-3, 1, 1]),
        ([[1]], [[1, 0], [0, -1]], [[0, 1], [1, 0]], [[1, 0, 0], [0, -1, 0], [0, 0, -1]]),
        (None, True, False))


def shape(value) -> int:
    """The ``MENU`` group of a value's shape."""
    if isinstance(value, list):
        return 2 if value and isinstance(value[0], list) else 1
    return 0 if isinstance(value, (int, str)) and not isinstance(value, bool) else 3


def sites(node, path: str):
    """Every ``(container, key, path)`` below ``node``: object values and list entries."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        here = f"{path}.{key}" if isinstance(node, dict) else f"{path}[{key}]"
        yield node, key, here
        if isinstance(value, (dict, list)):
            yield from sites(value, here)


def mutate(payload, rnd: random.Random) -> str:
    """Apply one seeded edit to ``payload`` in place; the edit, in words."""
    found = list(sites(payload, ""))
    op = rnd.choice(("drop", "duplicate", "swap"))
    if op == "swap":
        container, key, path = rnd.choice(found)
        # mostly a value of the same shape, so that more files parse
        group = MENU[shape(container[key])] if rnd.random() < 0.75 else rnd.choice(MENU)
        container[key] = copy.deepcopy(rnd.choice(group))
        return f"{path} = {json.dumps(container[key])}"
    # a list keeps an entry, and is mostly the levels or a level's components
    lists = [(v, p) for c, k, p in found if isinstance(v := c[k], list) and len(v) > (op == "drop")]
    levels = [(v, p) for v, p in lists if isinstance(v[0], dict)]
    if not lists:
        return "no list to edit"
    entries, path = rnd.choice(levels if levels and rnd.random() < 0.75 else lists)
    i = rnd.randrange(len(entries))
    if op == "drop":
        del entries[i]
    else:
        entries.insert(i, copy.deepcopy(entries[i]))
    return f"{op} {path}[{i}]"


def exit_codes(path: Path, out: Path) -> dict:
    """The exit code of every command on the file at ``path``, run in-process."""
    codes = {}
    for command in COMMANDS:
        extra = ["-o", str(out)] if command == "bootstrap" else []
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes[command] = cli.main([command, str(path), *extra])
    return codes


def broken_rule(codes: dict) -> str | None:
    """The first of the four rules that ``codes`` break, in words; None if none."""
    values = set(codes.values())
    if 4 in values:
        return "no command exits 4"
    if 1 in values and values != {1}:
        return "a parse error is exit 1 for every command"
    if codes["validate"] == 2 and values != {2}:
        return "a validate refusal is exit 2 for every command"
    if codes["walk"] == 0 and (codes["dh-profile"], codes["bootstrap"]) != (0, 0):
        return "a walk exit 0 gives exit 0 for dh-profile and bootstrap"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--files", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.files < 1:
        parser.error(f"--files must be at least 1, got {args.files}")
    rnd = random.Random(args.seed)
    sources = {p.stem: json.loads(p.read_text(encoding="utf-8"))
               for p in sorted(SCENARIOS.glob("*.json"))}
    counts = dict.fromkeys(("parse errors", "validation refusals", "walk refusals",
                             "of the gap", "walked"), 0)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "mutated.json", Path(tmp) / "full.json"
        for n in range(args.files):
            name = rnd.choice(sorted(sources))
            payload = copy.deepcopy(sources[name])
            edits = [mutate(payload, rnd) for _ in range(rnd.randint(1, 2))]
            path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
            codes = exit_codes(path, out)
            rule = broken_rule(codes)
            if rule is not None:
                print(f"FAIL: {rule}: file {n} from {name} ({'; '.join(edits)}): "
                      + ", ".join(f"{c} {code}" for c, code in codes.items()), file=sys.stderr)
                return 1
            gap = codes["walk"] == 2 and (codes["dh-profile"], codes["bootstrap"]) == (0, 0)
            counts["parse errors" if codes["validate"] == 1 else
                   "validation refusals" if codes["validate"] == 2 else
                   "of the gap" if gap else "walked" if codes["walk"] == 0 else
                   "walk refusals"] += 1
    print(f"{args.files} mutated files audited, no exit 4: "
          + ", ".join(f"{v} {k}" for k, v in counts.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
