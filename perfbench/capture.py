"""Record the reference outputs that the benchmark's exactness gate compares with.

Usage, from the root of a dhwalk checkout whose outputs are trusted:

    python3 perfbench/capture.py

Writes ``perfbench/reference.json``: for every (command, scenario) pair of
``cli_cold``, the exit code and the sha256 of stdout and of the file
``bootstrap`` writes; and for ``triple_sweep`` and ``gluing_audit`` at the
default seed, the sha256 of the output emitted in their first pass over
their pool of triples.
Outputs must stay byte-identical, so this is run once, at the commit that
defines the benchmark, and not to make a later change pass.
"""

import json
import sys
import tempfile
from pathlib import Path

from workloads import (
    CLI_COMMANDS,
    DEFAULT_SEED,
    REFERENCE,
    ROOT,
    SCENARIOS,
    GluingAudit,
    TripleSweep,
    cli_outcome,
    spawn,
)

sys.path.insert(0, str(ROOT / "src"))


def main() -> int:
    reference = {"cli": {}, "seed0": {}}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        out = Path(tmp) / "bootstrap.json"
        for scenario in SCENARIOS:
            for cmd, extra in CLI_COMMANDS:
                args = [cmd, f"scenarios/{scenario}"] + [a.format(out=out) for a in extra]
                proc = spawn([sys.executable, "-m", "dhwalk.cli", *args])
                if proc.returncode == 4:
                    raise SystemExit(f"{cmd} {scenario} exits 4: not a trustworthy reference")
                reference["cli"][f"{cmd} {scenario}"] = cli_outcome(proc, out)
                out.unlink(missing_ok=True)
        for cls in (TripleSweep, GluingAudit):
            wl = cls(DEFAULT_SEED, Path(tmp))
            for op in wl.pool():
                error = op.finish(op.run())
                if error:
                    raise SystemExit(f"{cls.name}: {error}")
            reference["seed0"][cls.name] = wl.first_pass_digest()
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE.relative_to(ROOT)}: {len(reference['cli'])} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
