"""Scenario files and bit-exact emission of traces and volume profiles.

Scenario files are strict JSON: unknown keys are rejected (silent typos in a
fixed-point table are worse than a parse error), rationals travel as integers
or exact ``"p/q"`` strings, and floating-point literals are refused outright.
Parsing then serialising then parsing is the identity on the data model, and
every emitter in this module is deterministic down to the byte.
"""

from __future__ import annotations

import json
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
_COMPONENT_KEYS = {
    "kind",
    "index",
    "genus",
    "reduced_class",
    "normal_split",
    "normal_euler",
    "gram",
    "areas",
    "canonical",
    "euler_class",
}


def _reject_float(text: str) -> None:
    raise ScenarioFormatError(
        f"floating-point literal {text!r}: rationals must be integers or 'p/q' strings"
    )


def _check_keys(obj: dict, allowed: set[str], path: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ScenarioFormatError(f"{path}: unknown key(s) {unknown}")


def _rational(value: Any, path: str) -> Fraction:
    if isinstance(value, bool):
        raise ScenarioFormatError(f"{path}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as err:
            raise ScenarioFormatError(f"{path}: malformed rational {value!r}: {err}") from None
    raise ScenarioFormatError(f"{path}: expected an integer or 'p/q' string, got {value!r}")


def _int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioFormatError(f"{path}: expected an integer, got {value!r}")
    return value


def _int_list(value: Any, path: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise ScenarioFormatError(f"{path}: expected a list of integers")
    return tuple(_int(v, f"{path}[{i}]") for i, v in enumerate(value))


def _component(obj: Any, path: str) -> FixedComponent:
    if not isinstance(obj, dict):
        raise ScenarioFormatError(f"{path}: component must be an object")
    _check_keys(obj, _COMPONENT_KEYS, path)
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
    genus = None if "genus" not in obj else _int(obj["genus"], f"{path}.genus")
    reduced = None
    if "reduced_class" in obj:
        coeffs = _int_list(obj["reduced_class"], f"{path}.reduced_class")
        if not coeffs:
            raise ScenarioFormatError(f"{path}.reduced_class: expected a nonempty list")
        reduced = LatticeClass(coeffs)
    split = None
    if "normal_split" in obj:
        pair = _int_list(obj["normal_split"], f"{path}.normal_split")
        if len(pair) != 2:
            raise ScenarioFormatError(f"{path}.normal_split: expected two integers")
        split = (pair[0], pair[1])
    normal_euler = (
        None if "normal_euler" not in obj else _int(obj["normal_euler"], f"{path}.normal_euler")
    )
    gram = None
    if "gram" in obj:
        rows = obj["gram"]
        if not isinstance(rows, list):
            raise ScenarioFormatError(f"{path}.gram: expected a nonempty matrix")
        gram = tuple(_int_list(row, f"{path}.gram[{i}]") for i, row in enumerate(rows))
    areas = None
    if "areas" in obj:
        if not isinstance(obj["areas"], list):
            raise ScenarioFormatError(f"{path}.areas: expected a list")
        areas = tuple(
            _rational(v, f"{path}.areas[{i}]") for i, v in enumerate(obj["areas"])
        )
    canonical = None if "canonical" not in obj else _int_list(obj["canonical"], f"{path}.canonical")
    euler_class = (
        None if "euler_class" not in obj else _int_list(obj["euler_class"], f"{path}.euler_class")
    )
    if split is None and kind is not ComponentKind.FOURFOLD:
        split = expected_split(kind, index)
    component = FixedComponent(
        kind,
        index,
        genus=genus,
        reduced_class=reduced,
        normal_split=split,
        normal_euler=normal_euler,
        gram=gram,
        areas=areas,
        canonical=canonical,
        euler_class=euler_class,
    )
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
    mode = payload["mode"]
    if mode not in ("full", "small"):
        raise ScenarioFormatError(f"mode: expected 'full' or 'small', got {mode!r}")
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
            if mode == "small":
                raise ScenarioFormatError(
                    f"{path}.euler_minus: small-mode data excludes reduction-bundle classes"
                )
            euler = LatticeClass(_int_list(obj["euler_minus"], f"{path}.euler_minus"))
        levels.append(CriticalLevel(value, comps, euler))
    try:
        return FixedPointData.build(name, dim, mode, levels)
    except ValueError as err:
        raise ScenarioFormatError(str(err)) from None


def load_scenario(path: str | Path) -> FixedPointData:
    return parse_scenario(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------


def _json_rational(x: Fraction):
    return x.numerator if x.denominator == 1 else fmt_q(x)


def _component_payload(c: FixedComponent) -> dict:
    out: dict[str, Any] = {"kind": c.kind.value, "index": c.index}
    if c.genus is not None:
        out["genus"] = c.genus
    if c.reduced_class is not None:
        out["reduced_class"] = [int(x) for x in c.reduced_class.integer_coeffs()]
    if c.normal_split is not None:
        out["normal_split"] = list(c.normal_split)
    if c.normal_euler is not None:
        out["normal_euler"] = c.normal_euler
    if c.gram is not None:
        out["gram"] = [list(row) for row in c.gram]
    if c.areas is not None:
        out["areas"] = [_json_rational(a) for a in c.areas]
    if c.canonical is not None:
        out["canonical"] = list(c.canonical)
    if c.euler_class is not None:
        out["euler_class"] = list(c.euler_class)
    return out


def serialize_scenario(data: FixedPointData) -> str:
    levels = []
    for lv in data.levels:
        obj: dict[str, Any] = {
            "value": _json_rational(lv.value),
            "components": [_component_payload(c) for c in lv.components],
        }
        if lv.euler_minus is not None:
            obj["euler_minus"] = [int(x) for x in lv.euler_minus.integer_coeffs()]
        levels.append(obj)
    payload = {"name": data.name, "dim": data.dim, "mode": data.mode, "levels": levels}
    return json.dumps(payload, indent=2) + "\n"


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
