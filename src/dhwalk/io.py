"""Scenario files and bit-exact emission of traces and volume profiles.

Scenario files are strict JSON: unknown keys are rejected (silent typos in a
fixed-point table are worse than a parse error), rationals travel as integers
or exact ``"p/q"`` strings (an optional minus sign, ASCII digits, an optional
``/`` and positive denominator, nothing else), and floating-point literals are
refused outright.  The optional component fields are one table, ``_FIELDS``,
in the file's key order: the key check, the parser and the writer all read
it.  The parser checks only the file's form; the records check their own
laws (``mode``, no bundle data in small mode), reported here as format
errors.  The writer knows the schema and writes the bytes of
``json.dumps(payload, indent=2)`` directly, with ``ensure_ascii`` escaping,
without building the payload.  Parsing then serialising then parsing is the
identity on the data model, and every emitter in this module is
deterministic down to the byte.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .errors import ScenarioFormatError
from .formatting import fmt_affine, fmt_q
from .lattice import LatticeClass
from .scenario import (
    ComponentKind,
    CriticalLevel,
    FixedComponent,
    FixedPointData,
    declared_lattice_problem,
    expected_split,
)

if TYPE_CHECKING:
    from .walk import WalkTrace

# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOP_KEYS = {"name", "dim", "mode", "levels"}
_LEVEL_KEYS = {"value", "components", "euler_minus"}


def _reject_float(text: str) -> None:
    raise ScenarioFormatError(
        f"floating-point literal {text!r}: rationals must be integers or 'p/q' strings"
    )


def _check_keys(obj: dict, allowed: set[str], path: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ScenarioFormatError(f"{path}: unknown key(s) {unknown}")


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _rational(value: Any, path: str) -> Fraction:
    if isinstance(value, bool):
        raise ScenarioFormatError(f"{path}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value)
        if match is None:
            raise ScenarioFormatError(
                f"{path}: malformed rational {value!r}: expected an integer or 'p/q' string"
            )
        num, den = match.groups()
        try:  # int() refuses more digits than sys.get_int_max_str_digits()
            num, den = int(num), 1 if den is None else int(den)
        except ValueError as err:
            raise ScenarioFormatError(f"{path}: malformed rational {value!r}: {err}") from None
        if den == 0:
            raise ScenarioFormatError(f"{path}: malformed rational {value!r}: zero denominator")
        return Fraction(num, den)
    raise ScenarioFormatError(f"{path}: expected an integer or 'p/q' string, got {value!r}")


def _int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioFormatError(f"{path}: expected an integer, got {value!r}")
    return value


def _list_of(read, what: str):
    """The reader of a list whose entries ``read`` reads, each at its own path."""

    def read_list(value: Any, path: str) -> tuple:
        if not isinstance(value, list):
            raise ScenarioFormatError(f"{path}: expected {what}")
        return tuple(read(v, f"{path}[{i}]") for i, v in enumerate(value))

    return read_list


_int_list = _list_of(_int, "a list of integers")


def _reduced_class(value: Any, path: str) -> LatticeClass:
    coeffs = _int_list(value, path)
    if not coeffs:
        raise ScenarioFormatError(f"{path}: expected a nonempty list")
    return LatticeClass(coeffs)


def _split(value: Any, path: str) -> tuple[int, int]:
    pair = _int_list(value, path)
    if len(pair) != 2:
        raise ScenarioFormatError(f"{path}: expected two integers")
    return pair


def _json_rational(x: Fraction):
    return x.numerator if x.denominator == 1 else fmt_q(x)


def _integer_coeffs(c: LatticeClass) -> list[int]:
    return [int(x) for x in c.integer_coeffs()]


#: every optional component field, in ``FixedComponent`` order (the file's key
#: order), with its reader ``(value, path) -> field`` and its writer
_FIELDS = {
    "genus": (_int, lambda n: n),
    "reduced_class": (_reduced_class, _integer_coeffs),
    "normal_split": (_split, list),
    "normal_euler": (_int, lambda n: n),
    "gram": (_list_of(_int_list, "a nonempty matrix"), lambda rows: [list(r) for r in rows]),
    "areas": (_list_of(_rational, "a list"), lambda areas: [_json_rational(a) for a in areas]),
    "canonical": (_int_list, list),
    "euler_class": (_int_list, list),
}


def _component(obj: Any, path: str) -> FixedComponent:
    if not isinstance(obj, dict):
        raise ScenarioFormatError(f"{path}: component must be an object")
    _check_keys(obj, {"kind", "index", *_FIELDS}, path)
    kind_text = obj.get("kind")
    try:
        kind = ComponentKind(kind_text)
    except ValueError:
        raise ScenarioFormatError(
            f"{path}.kind: expected 'point', 'surface' or 'fourfold', got {kind_text!r}"
        ) from None
    if "index" not in obj:
        raise ScenarioFormatError(f"{path}: component needs an index")
    index = _int(obj["index"], f"{path}.index")
    fields = {
        name: read(obj[name], f"{path}.{name}")
        for name, (read, _) in _FIELDS.items()
        if name in obj
    }
    if kind is not ComponentKind.FOURFOLD:
        fields.setdefault("normal_split", expected_split(kind, index))
    component = FixedComponent(kind, index, **fields)
    problem = declared_lattice_problem(component)
    if problem is not None:
        raise ScenarioFormatError(f"{path}.{problem}")
    return component


def parse_scenario(text: str) -> FixedPointData:
    try:
        payload = json.loads(text, parse_float=_reject_float)
    except json.JSONDecodeError as err:
        raise ScenarioFormatError(
            f"invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from None
    except ValueError as err:  # an integer literal with too many digits for int()
        raise ScenarioFormatError(f"invalid JSON: {err}") from None
    if not isinstance(payload, dict):
        raise ScenarioFormatError("top level must be an object")
    _check_keys(payload, _TOP_KEYS, "top level")
    for key in ("name", "dim", "mode", "levels"):
        if key not in payload:
            raise ScenarioFormatError(f"top level: missing key {key!r}")
    name = payload["name"]
    if not isinstance(name, str):
        raise ScenarioFormatError("name: expected a string")
    dim = _int(payload["dim"], "dim")
    if dim != 6:
        raise ScenarioFormatError(f"dim: this engine handles dimension 6, got {dim}")
    raw_levels = payload["levels"]
    if not isinstance(raw_levels, list) or not raw_levels:
        raise ScenarioFormatError("levels: expected a nonempty list")
    levels = []
    for i, obj in enumerate(raw_levels):
        path = f"levels[{i}]"
        if not isinstance(obj, dict):
            raise ScenarioFormatError(f"{path}: level must be an object")
        _check_keys(obj, _LEVEL_KEYS, path)
        if "value" not in obj or "components" not in obj:
            raise ScenarioFormatError(f"{path}: level needs 'value' and 'components'")
        value = _rational(obj["value"], f"{path}.value")
        comps_raw = obj["components"]
        if not isinstance(comps_raw, list) or not comps_raw:
            raise ScenarioFormatError(f"{path}.components: expected a nonempty list")
        comps = [_component(c, f"{path}.components[{j}]") for j, c in enumerate(comps_raw)]
        euler = None
        if "euler_minus" in obj:
            euler = LatticeClass(_int_list(obj["euler_minus"], f"{path}.euler_minus"))
        levels.append(CriticalLevel(value, comps, euler))
    try:
        return FixedPointData.build(name, dim, payload["mode"], levels)
    except ValueError as err:
        raise ScenarioFormatError(str(err)) from None


def load_scenario(path: str | Path) -> FixedPointData:
    return parse_scenario(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------


_string = json.encoder.encode_basestring_ascii


def _block(open_: str, close: str, items: list[str], depth: int) -> str:
    """An array or object ``depth`` levels deep, one rendered item per line, as
    ``indent=2`` writes it; empty, it closes on the same line."""
    if not items:
        return open_ + close
    pad = "\n" + "  " * (depth + 1)
    return f"{open_}{pad}{(',' + pad).join(items)}\n{'  ' * depth}{close}"


def _json(value: Any, depth: int) -> str:
    """A field value (integers, strings and lists of them) ``depth`` levels deep."""
    if type(value) is int:
        return str(value)
    if type(value) is str:
        return _string(value)
    if isinstance(value, (list, tuple)):
        return _block("[", "]", [_json(v, depth + 1) for v in value], depth)
    return json.dumps(value)  # any other JSON scalar, or the TypeError json.dumps raises


def _component_json(c: FixedComponent) -> str:
    items = [f'"kind": {_string(c.kind.value)}', f'"index": {_json(c.index, 5)}']
    for name, (_, write) in _FIELDS.items():
        value = getattr(c, name)
        if value is not None:
            items.append(f'"{name}": {_json(write(value), 5)}')
    return _block("{", "}", items, 4)


def _level_json(lv: CriticalLevel) -> str:
    items = [
        f'"value": {_json(_json_rational(lv.value), 3)}',
        '"components": ' + _block("[", "]", [_component_json(c) for c in lv.components], 3),
    ]
    if lv.euler_minus is not None:
        items.append(f'"euler_minus": {_json(_integer_coeffs(lv.euler_minus), 3)}')
    return _block("{", "}", items, 2)


def serialize_scenario(data: FixedPointData) -> str:
    """The scenario file of ``data``: ``json.dumps(payload, indent=2)`` plus a newline."""
    levels = _block("[", "]", [_level_json(lv) for lv in data.levels], 1)
    return (f'{{\n  "name": {_json(data.name, 1)},\n  "dim": {_json(data.dim, 1)},\n'
            f'  "mode": {_json(data.mode, 1)},\n  "levels": {levels}\n}}\n')


def dump_scenario(data: FixedPointData, path: str | Path) -> None:
    Path(path).write_text(serialize_scenario(data), encoding="utf-8")


# ---------------------------------------------------------------------------
# trace emission
# ---------------------------------------------------------------------------


def _areas_text(rec, sep: str) -> str:
    """The areas a trace row reports: the line (or the rulings), then exceptional."""
    table = rec.family.areas
    marked = ((table.line,) if table.line else table.rulings) + table.exceptional
    return sep.join(f"{rec.lattice.name_of(m.cls)}={fmt_affine(m.const, m.s)}" for m in marked)


def _euler_fingerprint_text(rec) -> str:
    table = rec.family.areas
    body = ",".join(fmt_q(e) for e in sorted(-m.s for m in table.fingerprinted))
    return f"e.e={fmt_q(table.euler_self)}|e.K={fmt_q(table.euler_canonical)}|e.C=[{body}]"


def trace_csv(trace: WalkTrace) -> str:
    lines = ["interval_lo,interval_hi,k,exc_areas,euler_fingerprint,volume_poly,rigidity_status"]
    for rec in trace.intervals:
        lines.append(
            ",".join(
                [
                    fmt_q(rec.interval.lo),
                    fmt_q(rec.interval.hi),
                    str(rec.k),
                    _areas_text(rec, ";"),
                    _euler_fingerprint_text(rec),
                    str(rec.volume),
                    rec.rigidity.status.value,
                ]
            )
        )
    return "\n".join(lines) + "\n"


def trace_text(trace: WalkTrace) -> str:
    out = [f"walk trace: {trace.name}"]
    rng = trace.moment_range
    out.append(f"moment interval: [{fmt_q(rng.lo)}, {fmt_q(rng.hi)}]")
    for i, rec in enumerate(trace.intervals):
        if i > 0:
            ev = trace.events[i - 1]
            acts = ", ".join(
                f"{a.kind}({a.class_name})" for a in ev.actions
            )
            out.append(f"-- wall {fmt_q(ev.value)}: {acts}")
        out.append(
            f"interval {rec.interval}: k={rec.k} [{'/'.join(rec.lattice.labels)}]"
            f"  areas: {_areas_text(rec, '  ')}"
        )
        out.append(
            f"    euler {_euler_fingerprint_text(rec)}  volume {rec.volume}"
            f"  rigidity {rec.rigidity.status.value}"
        )
    if trace.final_report is not None:
        out.append(f"maximum at {fmt_q(trace.final_report.value)}:")
        out.extend(f"    {line}" for line in trace.final_report.lines())
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# volume profiles
# ---------------------------------------------------------------------------


def profile_rows(trace: WalkTrace, samples: int) -> list[tuple[Fraction, Fraction, int]]:
    """Exact (t, volume, k) table at samples+1 evenly spaced rational values."""
    if samples < 1:
        raise ValueError("need at least one sample step")
    rng = trace.moment_range
    rows = []
    for j in range(samples + 1):
        t = rng.lo + (rng.hi - rng.lo) * Fraction(j, samples)
        rec = None
        for candidate in trace.intervals:
            if candidate.interval.lo <= t < candidate.interval.hi:
                rec = candidate
                break
        if rec is None:
            rec = trace.intervals[-1]
        rows.append((t, rec.volume(t), rec.k))
    return rows


def profile_csv(trace: WalkTrace, samples: int) -> str:
    lines = ["t,volume,k"]
    for t, vol, k in profile_rows(trace, samples):
        lines.append(f"{fmt_q(t)},{fmt_q(vol)},{k}")
    return "\n".join(lines) + "\n"


def profile_text(trace: WalkTrace, samples: int) -> str:
    rows = profile_rows(trace, samples)
    width = max(len(fmt_q(t)) for t, _, _ in rows)
    out = [f"volume profile: {trace.name}"]
    for t, vol, k in rows:
        out.append(f"t = {fmt_q(t):>{width}}   k = {k}   volume = {fmt_q(vol)}")
    return "\n".join(out) + "\n"


def profile_svg(trace: WalkTrace, samples: int) -> str:
    """A static plot of volume against the moment value, walls marked."""
    width, height, margin = 640, 360, 45
    rows = profile_rows(trace, samples)
    rng = trace.moment_range
    span = rng.hi - rng.lo
    vmax = max(vol for _, vol, _ in rows)
    if vmax == 0:
        vmax = Fraction(1)

    def x_of(t: Fraction) -> float:
        return margin + float((t - rng.lo) / span) * (width - 2 * margin)

    def y_of(v: Fraction) -> float:
        return height - margin - float(v / vmax) * (height - 2 * margin)

    points = " ".join(f"{x_of(t):.2f},{y_of(v):.2f}" for t, v, _ in rows)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
    ]
    for wall in trace.walls:
        x = x_of(wall)
        parts.append(
            f'<line x1="{x:.2f}" y1="{margin}" x2="{x:.2f}" y2="{height - margin}" '
            f'stroke="gray" stroke-dasharray="4 3"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{height - margin + 16}" font-size="11" '
            f'text-anchor="middle">{fmt_q(wall)}</text>'
        )
    parts.append(f'<polyline points="{points}" fill="none" stroke="crimson" stroke-width="1.5"/>')
    parts.append(
        f'<text x="{margin}" y="{margin - 12}" font-size="12">reduced-space volume, '
        f"{trace.name}</text>"
    )
    parts.append(
        f'<text x="{width - margin}" y="{height - margin + 32}" font-size="11" '
        f'text-anchor="end">moment value t</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
