"""Fixed point data of a semi-free Hamiltonian circle action on a 6-manifold.

A scenario records, per critical value of the moment map, the fixed
components sitting in that level: isolated points (codimension 6), surfaces
embedded in the reduced space (codimension 4), or a 4-dimensional extremal
component (codimension 2, declared with its own lattice data and taken at
face value).  "Full" mode may additionally record the Euler class of the
reduction bundle arriving at each interior level; "small" mode never does,
and attempts to store one are rejected at construction.

Weights are not stored: semi-freeness is encoded structurally through the
normal splitting ranks and even Morse indices.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Optional

from .errors import DimensionError
from .formatting import exact_rational, fmt_q
from .lattice import LatticeClass, general_lattice
from .record import Record, set_field


class ComponentKind(enum.Enum):
    POINT = "point"
    SURFACE = "surface"
    FOURFOLD = "fourfold"


#: complex rank of the normal bundle per component kind in dimension six
_NORMAL_RANK = {ComponentKind.POINT: 3, ComponentKind.SURFACE: 2, ComponentKind.FOURFOLD: 1}

#: the fields that mean nothing on a component of each kind
_FOREIGN_FIELDS = {
    ComponentKind.POINT: (
        "genus", "reduced_class", "normal_euler", "gram", "areas", "canonical", "euler_class"
    ),
    ComponentKind.SURFACE: ("gram", "areas", "canonical", "euler_class"),
    ComponentKind.FOURFOLD: ("genus", "reduced_class"),
}


def expected_split(kind: ComponentKind, index: int) -> Optional[tuple[int, int]]:
    """Normal splitting ranks forced by the index and the codimension, or None
    when the index leaves the normal rank."""
    down, total = index // 2, _NORMAL_RANK[kind]
    return (down, total - down) if 0 <= down <= total else None


class FixedComponent(Record):
    """One connected fixed component at a critical level.

    ``reduced_class`` (surfaces) is written in the basis of the reduced space
    arriving at this level from below.  The fourfold fields describe a
    codimension-2 extremal component: its declared intersection form, the
    symplectic areas of the declared basis at the extremal level, and the
    Euler data of its normal line bundle.
    """

    __slots__ = (
        "kind", "index", "genus", "reduced_class", "normal_split", "normal_euler",
        # fourfold extremum data
        "gram", "areas", "canonical", "euler_class",
    )

    def __init__(
        self,
        kind: ComponentKind,
        index: int,
        genus: Optional[int] = None,
        reduced_class: Optional[LatticeClass] = None,
        normal_split: Optional[tuple[int, int]] = None,
        normal_euler: Optional[int] = None,
        gram: Optional[tuple[tuple[int, ...], ...]] = None,
        areas: Optional[tuple[Fraction, ...]] = None,
        canonical: Optional[tuple[int, ...]] = None,
        euler_class: Optional[tuple[int, ...]] = None,
    ):
        Record.__init__(
            self, kind, index, genus, reduced_class, normal_split, normal_euler,
            gram, areas, canonical, euler_class,
        )

    def sort_key(self):
        return (
            self.kind.value,
            self.index,
            -1 if self.genus is None else self.genus,
            () if self.reduced_class is None else self.reduced_class.coeffs,
            0 if self.normal_euler is None else self.normal_euler,
            () if self.gram is None else self.gram,
            () if self.areas is None else self.areas,
        )


def declared_lattice_problem(c: FixedComponent) -> Optional[str]:
    """The first fault of a declared lattice and its Euler data, as ``"field: message"``.

    The parser and ``validate_structure`` both ask here; ``None`` when sound or undeclared.
    """
    if not c.gram:
        return None if c.gram is None else "gram: expected a nonempty matrix"
    try:
        general_lattice(c.gram, c.canonical)
    except (DimensionError, ValueError) as err:
        return f"gram: {err}"
    if c.euler_class is not None and [type(x) for x in c.euler_class] != [int] * len(c.gram):
        return "euler_class: expected one integer per gram row"
    if c.normal_euler is not None and type(c.normal_euler) is not int:
        return "normal_euler: expected an integer"
    return None


def point_component(index: int) -> FixedComponent:
    return FixedComponent(
        ComponentKind.POINT, index, normal_split=expected_split(ComponentKind.POINT, index)
    )


class CriticalLevel(Record):
    """All fixed components sharing one critical value.

    Components are stored in a canonical sorted order, so scenarios that
    merely permute the declared component list are equal as data.
    """

    __slots__ = ("value", "components", "euler_minus")

    def __init__(self, value, components: Iterable[FixedComponent], euler_minus=None):
        set_field(self, "value", exact_rational(value))
        set_field(self, "components", tuple(sorted(components, key=FixedComponent.sort_key)))
        set_field(self, "euler_minus", euler_minus)
        if not self.components:
            raise ValueError("critical level needs at least one component")
        if euler_minus is not None and not euler_minus.is_integral:
            raise ValueError("declared Euler class must be integral")

    @property
    def simple(self) -> bool:
        """All components share one Morse index."""
        return len({c.index for c in self.components}) == 1


_value = attrgetter("value")


class FixedPointData(Record):
    """An ordered scenario of critical levels for one Hamiltonian manifold."""

    __slots__ = ("name", "dim", "mode", "levels")  # mode: "full" | "small"

    def __init__(self, name: str, dim: int, mode: str, levels: tuple[CriticalLevel, ...]):
        if mode not in ("full", "small"):
            raise ValueError(f"mode must be 'full' or 'small', got {mode!r}")
        if mode == "small" and any(lv.euler_minus is not None for lv in levels):
            raise ValueError("small-mode data cannot carry reduction-bundle Euler classes")
        Record.__init__(self, name, dim, mode, levels)

    @classmethod
    def build(
        cls, name: str, dim: int, mode: str, levels: Iterable[CriticalLevel]
    ) -> "FixedPointData":
        """Sort levels by value and merge levels sharing one critical value.

        A stable sort puts equal values in runs; a level alone at its value is
        kept as it is, and only a merge builds one.
        """
        merged = []
        for value, run in groupby(sorted(levels, key=_value), key=_value):
            group = list(run)
            if len(group) > 1:
                eulers = [lv.euler_minus for lv in group if lv.euler_minus is not None]
                if len(eulers) > 1:
                    raise ValueError(f"conflicting Euler data at merged level {fmt_q(value)}")
                comps = [c for lv in group for c in lv.components]
                group = [CriticalLevel(value, comps, eulers[0] if eulers else None)]
            merged.append(group[0])
        return cls(name, dim, mode, tuple(merged))

    @property
    def all_components(self) -> tuple[tuple[Fraction, FixedComponent], ...]:
        return tuple((lv.value, c) for lv in self.levels for c in lv.components)

    def is_isolated(self) -> bool:
        return all(c.kind is ComponentKind.POINT for _, c in self.all_components)


# ---------------------------------------------------------------------------
# structural validation
# ---------------------------------------------------------------------------


class ValidationIssue(Record):
    __slots__ = ("code", "message")

    def __str__(self) -> str:
        return f"[{self.code}] {self.message}"


class ValidationReport(Record):
    __slots__ = ("issues",)

    @property
    def ok(self) -> bool:
        return not self.issues

    def lines(self) -> list[str]:
        return [str(i) for i in self.issues]


def validate_structure(data: FixedPointData) -> ValidationReport:
    """Structural checks independent of any wall-crossing computation.

    All findings are report entries, never exceptions; an empty report means
    the scenario is structurally admissible.
    """
    issues: list[ValidationIssue] = []

    def issue(code: str, message: str) -> None:
        issues.append(ValidationIssue(code, message))

    if data.dim != 6:
        issue("dim", f"ambient dimension must be 6, got {data.dim}")
    if not data.levels:
        issue("levels", "scenario has no critical levels")
        return ValidationReport(tuple(issues))
    values = [lv.value for lv in data.levels]
    for a, b in zip(values, values[1:]):
        if a == b:
            issue("values", f"duplicated critical value {fmt_q(a)} (levels must be merged)")
        elif a > b:
            issue("values", f"critical values out of order: {fmt_q(a)} before {fmt_q(b)}")
    if len(data.levels) < 2:
        issue("extrema", "scenario needs distinct minimum and maximum levels")
        return ValidationReport(tuple(issues))
    if values[0] != 0:
        issue("normalization", f"minimum critical value must be 0, got {fmt_q(values[0])}")

    first, last = data.levels[0], data.levels[-1]
    if len(first.components) != 1:
        issue("extrema", "extremal fixed point sets are connected: minimum has several components")
    if len(last.components) != 1:
        issue("extrema", "extremal fixed point sets are connected: maximum has several components")
    c0 = first.components[0]
    if c0.index != 0:
        issue("extrema", f"minimum component must have index 0, got {c0.index}")
    ctop = last.components[0]
    top = 2 * _NORMAL_RANK[ctop.kind]
    if ctop.index != top:
        issue(
            "extrema",
            f"maximum component must have coindex 0 (index {top} "
            f"for a {ctop.kind.value}), got {ctop.index}",
        )

    for lv in data.levels:
        extremal = lv is first or lv is last
        for c in lv.components:
            where = f"level {fmt_q(lv.value)}"
            if c.index % 2 != 0 or not 0 <= c.index <= 6:
                issue("index", f"{where}: index {c.index} is odd or out of range")
                continue
            if c.index > 2 * _NORMAL_RANK[c.kind]:
                issue("index", f"{where}: {c.kind.value} index {c.index} exceeds the codimension")
                continue
            if not extremal:
                if c.kind is ComponentKind.FOURFOLD:
                    issue("extrema", f"{where}: codimension-2 component must be extremal")
                elif c.index not in (2, 4):
                    issue(
                        "index",
                        f"{where}: non-extremal component must have (co)index 2, got index {c.index}",
                    )
            expected = expected_split(c.kind, c.index)
            if c.normal_split is not None and c.normal_split != expected:
                issue(
                    "semi-free",
                    f"{where}: normal splitting {c.normal_split} inconsistent with a "
                    f"semi-free {c.kind.value} of index {c.index} (expected {expected})",
                )
            for field in _FOREIGN_FIELDS[c.kind]:
                if getattr(c, field) is not None:
                    name = field.replace("_", " ")
                    issue("fields", f"{where}: {name} declared on a {c.kind.value}")
            if c.kind is ComponentKind.SURFACE:
                if c.genus is not None and c.genus < 0:
                    issue("fields", f"{where}: negative genus")
                if c.reduced_class is None or not c.reduced_class.is_integral:
                    issue("fields", f"{where}: surface component needs an integral reduced class")
            if c.kind is ComponentKind.FOURFOLD:
                if c.gram is None or c.areas is None:
                    issue("fields", f"{where}: fourfold component needs declared gram and areas")
                    continue
                problem = declared_lattice_problem(c)
                if problem is not None:
                    issue("fields", f"{where}: fourfold {problem}")
                if len(c.areas) != len(c.gram):
                    issue("fields", f"{where}: fourfold areas need one entry per gram row")
        if lv.euler_minus is not None and (lv is first or lv is last):
            issue("euler", f"level {fmt_q(lv.value)}: extremal levels carry no reduction bundle data")
    return ValidationReport(tuple(issues))


# ---------------------------------------------------------------------------
# the isolated value lattice
# ---------------------------------------------------------------------------


class IsolatedValueCheck(Record):
    __slots__ = ("status", "lambdas", "message")  # status: "pass" | "fail" | "not-applicable"

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def isolated_value_lattice_check(data: FixedPointData) -> IsolatedValueCheck:
    """Check the eight critical values of an isolated-fixed-point scenario.

    For some ``l1 <= l2 <= l3`` read off the three index-2 points, the value
    multiset must be ``{0, l1, l2, l3, l1+l2, l1+l3, l2+l3, l1+l2+l3}``.
    """
    if data.dim != 6 or not data.is_isolated():
        return IsolatedValueCheck("not-applicable", None, "data has non-point components")
    per_component = [(value, c.index) for value, c in data.all_components]
    indices = sorted(idx for _, idx in per_component)
    if indices != [0, 2, 2, 2, 4, 4, 4, 6]:
        return IsolatedValueCheck(
            "fail", None, f"index multiset {indices} is not (0,2,2,2,4,4,4,6)"
        )
    lams = tuple(sorted(value for value, idx in per_component if idx == 2))
    l1, l2, l3 = lams
    expected = sorted([
        Fraction(0), l1, l2, l3, l1 + l2, l1 + l3, l2 + l3, l1 + l2 + l3,
    ])
    declared = sorted(value for value, _ in per_component)
    if expected != declared:
        missing = [fmt_q(v) for v in declared if v not in expected]
        return IsolatedValueCheck(
            "fail",
            lams,
            f"value multiset does not match sums of ({fmt_q(l1)},{fmt_q(l2)},{fmt_q(l3)}): "
            f"unexpected values {missing}",
        )
    return IsolatedValueCheck("pass", lams, "value lattice consistent")


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def three_sphere_product_data(
    l1, l2, l3, mode: str = "full", name: Optional[str] = None
) -> FixedPointData:
    """The isolated-fixed-point scenario of a diagonal action on S2 x S2 x S2.

    Critical values are 0, the three sphere areas, their pairwise sums, and
    the total; equal values merge into multi-component levels.  Produced
    without reduction-bundle data; the bootstrap can fill that in.
    """
    lams = sorted(exact_rational(x) for x in (l1, l2, l3))
    if lams[0] <= 0:
        raise ValueError("sphere areas must be positive")
    a, b, c = lams
    if name is None:
        name = f"three-spheres-{fmt_q(a)}-{fmt_q(b)}-{fmt_q(c)}".replace("/", "_")
    levels = [CriticalLevel(0, [point_component(0)])]
    for lam in lams:
        levels.append(CriticalLevel(lam, [point_component(2)]))
    for s in (a + b, a + c, b + c):
        levels.append(CriticalLevel(s, [point_component(4)]))
    levels.append(CriticalLevel(a + b + c, [point_component(6)]))
    return FixedPointData.build(name, 6, mode, levels)


def time_reversed(data: FixedPointData, name: Optional[str] = None) -> FixedPointData:
    """Run the Hamiltonian backwards: ``H -> max(H) - H``.

    Indices are complemented within each component's codimension and normal
    splittings swap.  Declared reduction-bundle data is dropped (it describes
    the bundle below a level, which reversal does not transport).
    """
    total = data.levels[-1].value

    def reversed_component(c: FixedComponent) -> FixedComponent:
        kind, index, genus, reduced, split, *fourfold = c._key(c)
        return FixedComponent(
            kind, 2 * _NORMAL_RANK[kind] - index, genus, reduced,
            None if split is None else (split[1], split[0]), *fourfold,
        )

    reversed_levels = [
        CriticalLevel(total - lv.value, map(reversed_component, lv.components))
        for lv in reversed(data.levels)
    ]
    return FixedPointData.build(
        name or f"{data.name}-reversed", data.dim, data.mode, reversed_levels
    )
