"""Golden-output corpus: every CLI command on every shipped scenario, byte for byte.

For each scenario in ``scenarios/`` the corpus under ``tests/golden/<stem>/``
holds the stdout of ``validate``, ``walk --trace csv``, ``classify``,
``dh-profile --emit csv`` and ``bootstrap -o``, plus the file ``bootstrap``
writes; ``tests/golden/exit_codes.json`` holds the exit codes.  The
bootstrap output path is replaced by ``<OUT>`` in stdout.

Refactors must reproduce the corpus exactly.  To record it afresh from a
trusted checkout (never to make a change pass):

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from dhwalk import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIOS = sorted(p.name for p in (ROOT / "scenarios").glob("*.json"))
# (case name, command, extra arguments); "{out}" is the bootstrap output file
COMMANDS = (
    ("validate", "validate", ()),
    ("walk_csv", "walk", ("--trace", "csv")),
    ("classify", "classify", ()),
    ("profile_csv", "dh-profile", ("--emit", "csv")),
    ("bootstrap", "bootstrap", ("-o", "{out}")),
)


def run_case(command: str, extra: tuple, scenario: str, out: Path) -> tuple[int, bytes, bytes | None]:
    """Exit code, normalised stdout and written file of one CLI call."""
    args = [command, str(ROOT / "scenarios" / scenario)] + [a.format(out=out) for a in extra]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(args)
    text = stdout.getvalue().replace(str(out), "<OUT>").encode()
    written = out.read_bytes() if out.exists() else None
    out.unlink(missing_ok=True)
    return code, text, written


def case_key(case: str, scenario: str) -> str:
    return f"{Path(scenario).stem}/{case}"


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_golden_corpus(scenario, tmp_path):
    exit_codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    stem = GOLDEN / Path(scenario).stem
    for case, command, extra in COMMANDS:
        code, text, written = run_case(command, extra, scenario, tmp_path / "bootstrap.json")
        key = case_key(case, scenario)
        assert code == exit_codes[key], key
        assert text == (stem / f"{case}.stdout").read_bytes(), key
        if case == "bootstrap":
            want = stem / "bootstrap.json"
            assert written == (want.read_bytes() if want.exists() else None), key


def capture() -> None:
    exit_codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "bootstrap.json"
        for scenario in SCENARIOS:
            stem = GOLDEN / Path(scenario).stem
            stem.mkdir(parents=True, exist_ok=True)
            for case, command, extra in COMMANDS:
                code, text, written = run_case(command, extra, scenario, out)
                if code == 4:
                    raise SystemExit(f"{command} {scenario} exits 4: not a trustworthy corpus")
                exit_codes[case_key(case, scenario)] = code
                (stem / f"{case}.stdout").write_bytes(text)
                if written is not None:
                    (stem / "bootstrap.json").write_bytes(written)
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(exit_codes, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(exit_codes)} cases to {GOLDEN.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(capture())
