"""The benchmark workloads: seeded inputs, timed operations and their checks.

A workload builds a pool of distinct operations from its seed.  The worker
runs the whole pool in passes, each pass in a new seeded order, so that every
operation is timed several times, spread over the run.  An operation's
``run`` is timed; its ``finish`` is not: it checks the output against the
stored reference digests or an independent oracle, and returns an error
message or ``None``.

Why these workloads:

* ``cli_cold``: what a command-line user pays per call: interpreter start,
  ``import dhwalk``, cold ``lru_cache`` fills, parsing, emission and the
  refusal paths (exit 2) of the two ``bad_*`` scenarios.
* ``triple_sweep``: the research sweep over sphere-area triples in one warm
  process; ``Fraction`` pairing arithmetic at k <= 3, no box searches.
* ``gluing_audit``: the same walk code used for reversal, split/compose and
  bootstrap round trips; fingerprints and ``io`` writes are on its path.
* ``lattice_enum``: the only workload that reaches the 7^(k+1) box search of
  exceptional classes (k = 4 and 5, each in a fresh interpreter).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from tracer import summarize

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
TRACECLI = Path(__file__).resolve().parent / "tracecli.py"
DEFAULT_SEED = 0
OP_TIMEOUT_S = 60

SCENARIOS = (
    "bad_maximum_8.json",
    "bad_value_lattice.json",
    "conic_surface_wall.json",
    "sphere_product_extrema.json",
    "three_spheres_1_1_1.json",
    "three_spheres_1_2_4.json",
    "three_spheres_2_3_4.json",
)
# (command, extra arguments); "{out}" is the bootstrap output file
CLI_COMMANDS = (
    ("validate", ()),
    ("walk", ("--trace", "csv")),
    ("classify", ()),
    ("dh-profile", ("--emit", "csv")),
    ("bootstrap", ("-o", "{out}")),
)
# classical counts of exceptional classes on the k-fold blow-up of the plane
EXCEPTIONAL_COUNT = {4: 10, 5: 16}
# triples per block of the seeded workloads, by kind; about the natural
# shares of the uniform area draw below (10% / 35% / 55%)
TRIPLE_BLOCK = (("coincident", 2), ("thin", 7), ("fat", 11))
FLAGSHIP = (Fraction(2), Fraction(3), Fraction(4))


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    finish: Callable[[object], Optional[str]]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(cmd: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, timeout=OP_TIMEOUT_S
    )


# ---------------------------------------------------------------------------
# fresh-process workloads
# ---------------------------------------------------------------------------


class FreshProcessWorkload:
    """Operations that each start a new interpreter running ``dhwalk.cli``.

    With ``traced`` set, the child runs ``tracecli.py`` instead, which
    installs the tracer and writes its spans to a file; ``collect_spans``
    adds them to ``layers`` after the timed call.
    """

    fresh_process = True

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.traced = False
        self.pending_spans: list[Path] = []
        self.layers: dict = {}
        self.bytes_out = 0

    def cli(self, args: list[str]) -> subprocess.CompletedProcess:
        if not self.traced:
            return spawn([sys.executable, "-m", "dhwalk.cli", *args])
        spans = self.tmp / f"spans-{len(self.pending_spans)}.json"
        self.pending_spans.append(spans)
        return spawn([sys.executable, str(TRACECLI), str(spans), *args])

    def collect_spans(self) -> None:
        for path in self.pending_spans:
            summarize(json.loads(path.read_text(encoding="utf-8")), self.layers)
            path.unlink()
        self.pending_spans.clear()

    def pass_done(self) -> list[str]:
        return []

    def inputs(self) -> dict:
        return {}


def cli_outcome(proc, out_path: Path) -> dict:
    """Exit code and digests of one command's stdout and written file."""
    return {
        "exit": proc.returncode,
        "stdout_sha256": sha256(proc.stdout.replace(str(out_path).encode(), b"<OUT>")),
        "file_sha256": sha256(out_path.read_bytes()) if out_path.exists() else None,
    }


def cli_gate(key: str, proc, out_path: Path, reference: dict) -> Optional[str]:
    """Compare one command's exit code and output digests with the reference."""
    want = reference["cli"].get(key)
    if want is None:
        return f"{key}: no reference output"
    if proc.returncode == 4:
        return f"{key}: exit 4 (internal invariant breach): {proc.stderr.decode(errors='replace')[-300:]}"
    got = cli_outcome(proc, out_path)
    if got != want:
        diff = ", ".join(f"{k} {want.get(k)} != {v}" for k, v in got.items() if want.get(k) != v)
        return f"{key}: output differs from the reference ({diff})"
    return None


class CliCold(FreshProcessWorkload):
    """Every (command, scenario) pair; the seed only orders the passes."""

    name = "cli_cold"

    def __init__(self, seed: int, tmp: Path):
        super().__init__(seed, tmp)
        self.reference = load_reference()
        self.out_path = tmp / "bootstrap.json"

    def op(self, cmd: str, extra: tuple, scenario: str) -> Op:
        key = f"{cmd} {scenario}"
        args = [cmd, f"scenarios/{scenario}"] + [a.format(out=self.out_path) for a in extra]

        def finish(proc) -> Optional[str]:
            self.collect_spans()
            self.bytes_out += len(proc.stdout)
            if self.out_path.exists():
                self.bytes_out += self.out_path.stat().st_size
            try:
                return cli_gate(key, proc, self.out_path, self.reference)
            finally:
                self.out_path.unlink(missing_ok=True)

        return Op(key, lambda: self.cli(args), finish)

    def warm_up(self) -> Optional[str]:
        op = self.op("validate", (), "three_spheres_2_3_4.json")
        return op.finish(op.run())

    def pool(self) -> list[Op]:
        return [self.op(cmd, extra, scen) for scen in SCENARIOS for cmd, extra in CLI_COMMANDS]


_CLASS_LINE = re.compile(r"^\S+ = \((-?\d+(?:, -?\d+)*)\)$")


def check_exceptional_listing(k: int, text: str) -> Optional[str]:
    """Independent oracle for ``dhwalk lattice exc -k K`` on the default basis.

    Every listed class must satisfy ``C.C = -1`` and ``C.K = -1`` for the
    form ``diag(1, -1, ..., -1)`` and ``K = -3L + E1 + ... + Ek``, no class
    may repeat, and the count must be the classical one.
    """
    classes = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        m = _CLASS_LINE.match(line)
        if m is None:
            return f"k={k}: unparsable class line {line!r}"
        c = tuple(int(x) for x in m.group(1).split(", "))
        if len(c) != k + 1:
            return f"k={k}: class {c} has rank {len(c)}"
        self_pair = c[0] * c[0] - sum(x * x for x in c[1:])
        k_pair = -3 * c[0] - sum(c[1:])
        if (self_pair, k_pair) != (-1, -1):
            return f"k={k}: {c} has C.C = {self_pair}, C.K = {k_pair}"
        classes.append(c)
    if len(set(classes)) != len(classes):
        return f"k={k}: a class is listed twice"
    if len(classes) != EXCEPTIONAL_COUNT[k]:
        return f"k={k}: {len(classes)} classes listed, expected {EXCEPTIONAL_COUNT[k]}"
    return None


class LatticeEnum(FreshProcessWorkload):
    """``lattice exc -k 4`` and ``-k 5``, each in a fresh interpreter."""

    name = "lattice_enum"

    def op(self, k: int) -> Op:
        def finish(proc) -> Optional[str]:
            self.collect_spans()
            self.bytes_out += len(proc.stdout)
            if proc.returncode != 0:
                return f"k={k}: exit {proc.returncode}"
            return check_exceptional_listing(k, proc.stdout.decode())

        return Op(f"lattice exc -k {k}", lambda: self.cli(["lattice", "exc", "-k", str(k)]), finish)

    def warm_up(self) -> Optional[str]:
        op = self.op(4)
        return op.finish(op.run())

    def pool(self) -> list[Op]:
        return [self.op(k) for k in EXCEPTIONAL_COUNT]


# ---------------------------------------------------------------------------
# seeded in-process workloads
# ---------------------------------------------------------------------------


def random_area(rnd: random.Random) -> Fraction:
    den = rnd.randint(1, 6)
    return Fraction(rnd.randint(den, 10 * den), den)


def triple_kind(lams) -> str:
    a, b, c = lams
    values = (a, b, c, a + b, a + c, b + c)
    if len(set(values)) < len(values):
        return "coincident"  # two critical levels merge into a non-simple level
    return "thin" if a + b < c else "fat"


class TripleStream:
    """Seeded sorted sphere-area triples, in blocks with a fixed mix of kinds."""

    def __init__(self, seed: int):
        self.rnd = random.Random(seed)
        self.counts = {kind: 0 for kind, _ in TRIPLE_BLOCK}
        self.denominators: set[int] = set()

    def block(self) -> list[tuple[Fraction, Fraction, Fraction]]:
        out = []
        for kind, n in TRIPLE_BLOCK:
            found = 0
            while found < n:
                lams = tuple(sorted(random_area(self.rnd) for _ in range(3)))
                if triple_kind(lams) == kind:
                    out.append(lams)
                    found += 1
        self.rnd.shuffle(out)
        for lams in out:
            self.counts[triple_kind(lams)] += 1
            self.denominators.update(x.denominator for x in lams)
        return out

    def summary(self) -> dict:
        total = sum(self.counts.values())
        return {
            "triples": total,
            **{f"{kind}_share": n / total for kind, n in self.counts.items()},
            "denominator_range": [min(self.denominators), max(self.denominators)],
        }


def slice_area(lams, t: Fraction) -> Fraction:
    """Area of the slice ``x+y+z = t`` of the box ``prod [0, l_i]``, projected
    to the ``(x, y)`` plane, by inclusion-exclusion over the box corners."""
    total = Fraction(0)
    for mask in range(8):
        shift = sum(lam for i, lam in enumerate(lams) if mask >> i & 1)
        u = t - shift
        if u > 0:
            total += (-1) ** bin(mask).count("1") * u * u / 2
    return total


class InProcessWorkload:
    fresh_process = False
    blocks = 1  # pool size in TRIPLE_BLOCKs

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.stream = TripleStream(seed)
        self.first_pass: dict[int, bytes] = {}  # output per pool index
        self.passes_done = 0
        self.bytes_out = 0

    def first_pass_digest(self) -> str:
        return sha256(b"".join(self.first_pass[i] for i in sorted(self.first_pass)))

    def pass_done(self) -> list[str]:
        self.passes_done += 1
        if self.passes_done != 1 or self.seed != DEFAULT_SEED:
            return []
        want = load_reference()["seed0"][self.name]
        got = self.first_pass_digest()
        if got != want:
            return [f"{self.name}: seed-{DEFAULT_SEED} output digest {got} != reference {want}"]
        return []

    def emitted(self, index: int, text: str) -> None:
        data = text.encode()
        self.bytes_out += len(data)
        if self.passes_done == 0:
            self.first_pass[index] = data

    def inputs(self) -> dict:
        return self.stream.summary()

    def pool(self) -> list[Op]:
        triples = [lams for _ in range(self.blocks) for lams in self.stream.block()]
        return [self.op(i, lams) for i, lams in enumerate(triples)]


class TripleSweep(InProcessWorkload):
    """Per triple: ``three_sphere_product_data`` -> ``classify_isolated`` -> ``trace_csv``."""

    name = "triple_sweep"
    blocks = 3

    def op(self, index: int, lams) -> Op:
        from dhwalk import classify, io, scenario

        def run():  # module attributes are looked up per call, so the tracer sees them
            outcome = classify.classify_isolated(scenario.three_sphere_product_data(*lams))
            return outcome, io.trace_csv(outcome.trace)

        def finish(out) -> Optional[str]:
            outcome, csv = out
            self.emitted(index, csv)
            return check_certificate(lams, outcome)

        return Op(f"{index}: triple {tuple(map(str, lams))}", run, finish)

    def warm_up(self) -> Optional[str]:
        return check_certificate(FLAGSHIP, self.op(-1, FLAGSHIP).run()[0])


def check_certificate(lams, outcome) -> Optional[str]:
    """Independent oracle for one certified triple."""
    from dhwalk.classify import Certificate

    name = "(" + ", ".join(str(x) for x in lams) + ")"
    if not isinstance(outcome, Certificate):
        return f"{name}: not certified: {outcome.lines()}"
    if tuple(outcome.lambdas) != tuple(lams):
        return f"{name}: certificate names sphere areas {outcome.lambdas}"
    trace = outcome.trace
    if trace.volume_integral() != lams[0] * lams[1] * lams[2]:
        return f"{name}: volume integral {trace.volume_integral()} is not the product of the areas"
    for rec in trace.intervals:
        mid = rec.interval.midpoint
        if rec.volume(mid) != slice_area(lams, mid):
            return f"{name}: volume at {mid} is {rec.volume(mid)}, slice area {slice_area(lams, mid)}"
    return None


def regular_seam(rnd: random.Random, lams) -> Fraction:
    a, b, c = lams
    walls = {0, a, b, c, a + b, a + c, b + c, a + b + c}
    while True:
        seam = (a + b + c) * Fraction(rnd.randint(1, 59), 60)
        if seam not in walls:
            return seam


class GluingAudit(InProcessWorkload):
    """Per triple: walk, reversed walk, split/compose at a regular seam, then
    bootstrap, serialize/parse round trip and bootstrap again."""

    name = "gluing_audit"
    blocks = 2

    def __init__(self, seed: int, tmp: Path):
        super().__init__(seed, tmp)
        self.seams = random.Random(f"seams-{seed}")

    def op(self, index: int, lams, seam=None) -> Op:
        from dhwalk import classify, io, scenario, walk

        if seam is None:
            seam = regular_seam(self.seams, lams)

        def run():  # module attributes are looked up per call, so the tracer sees them
            data = scenario.three_sphere_product_data(*lams, mode="small")
            trace = walk.run_walk(data)
            reverse = walk.run_walk(scenario.time_reversed(data))
            composed = walk.compose_traces(*walk.split_trace(trace, seam))
            text = io.serialize_scenario(classify.small_data_bootstrap(data))
            again = io.serialize_scenario(classify.small_data_bootstrap(io.parse_scenario(text)))
            return trace, reverse, composed, text, again

        def finish(out) -> Optional[str]:
            self.emitted(index, out[3])
            return check_gluing(lams, seam, *out)

        return Op(f"{index}: gluing {tuple(map(str, lams))} at {seam}", run, finish)

    def warm_up(self) -> Optional[str]:
        seam = Fraction(1, 2)
        return check_gluing(FLAGSHIP, seam, *self.op(-1, FLAGSHIP, seam).run())


def check_gluing(lams, seam, trace, reverse, composed, text, again) -> Optional[str]:
    """Independent oracle for one audited triple."""
    name = "(" + ", ".join(str(x) for x in lams) + ")"
    if composed.fingerprints() != trace.fingerprints():
        return f"{name}: split at {seam} and composed, fingerprints changed"
    if reverse.k_sequence != tuple(reversed(trace.k_sequence)):
        return f"{name}: reversed walk has k-sequence {reverse.k_sequence}"
    for walk in (trace, reverse):
        downs = [a for ev in walk.events for a in ev.actions if a.kind == "blow_down"]
        if len(downs) != 3:  # one per index-4 fixed point
            return f"{name}: {len(downs)} blow-downs, expected 3"
        if any(a.euler_pairing != 1 for a in downs):
            return f"{name}: a blow-down has Euler pairing other than 1"
    if again != text:
        return f"{name}: bootstrap is not idempotent across a serialize/parse round trip"
    return None


WORKLOADS = {w.name: w for w in (CliCold, TripleSweep, GluingAudit, LatticeEnum)}
