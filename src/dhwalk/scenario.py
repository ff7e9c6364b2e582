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

The moment line sits on one denominator: a data set keeps its level values'
numerators over ``D``, the lcm of their denominators, and sorting, merging,
the order checks and the critical-value lattice compare those integers.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import attrgetter, itemgetter

from .errors import PreconditionError
from .formatting import exact_rational, fmt_q
from .lattice import LatticeClass, general_lattice, require_rational_surface
from .record import Record, set_field


class ComponentKind(enum.Enum):
    POINT = "point"
    SURFACE = "surface"
    FOURFOLD = "fourfold"
    __hash__ = object.__hash__  # singletons: key the kind tables in C, not by hashing the name


#: complex rank of the normal bundle per component kind in dimension six
_NORMAL_RANK = {ComponentKind.POINT: 3, ComponentKind.SURFACE: 2, ComponentKind.FOURFOLD: 1}

#: the fields that mean nothing on a component of each kind, with one getter of them all
_FOREIGN_FIELDS = {kind: (names, attrgetter(*names)) for kind, names in {
    ComponentKind.POINT: (
        "genus", "reduced_class", "normal_euler", "gram", "areas", "canonical", "euler_class"
    ),
    ComponentKind.SURFACE: ("gram", "areas", "canonical", "euler_class"),
    ComponentKind.FOURFOLD: ("genus", "reduced_class"),
}.items()}


def expected_split(kind: ComponentKind, index: int) -> tuple[int, int] | None:
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
        genus: int | None = None,
        reduced_class: LatticeClass | None = None,
        normal_split: tuple[int, int] | None = None,
        normal_euler: int | None = None,
        gram: tuple[tuple[int, ...], ...] | None = None,
        areas: tuple[Fraction, ...] | None = None,
        canonical: tuple[int, ...] | None = None,
        euler_class: tuple[int, ...] | None = None,
    ):
        Record.__init__(
            self, kind, index, genus, reduced_class, normal_split, normal_euler,
            gram, areas, canonical, euler_class,
        )

    def sort_key(self):
        c = self.reduced_class
        return (
            self.kind.value,
            self.index,
            -1 if self.genus is None else self.genus,
            () if c is None else (c.den, c.nums),
            0 if self.normal_euler is None else self.normal_euler,
            *(() if v is None else v for v in (self.gram, self.areas, self.normal_split,
                                               self.canonical, self.euler_class)),
        )


def declared_lattice_problem(c: FixedComponent) -> str | None:
    """The first fault of a declared lattice and its Euler data, as ``"field: message"``.

    The parser and ``validate_structure`` both ask here, so no later stage meets a lattice
    that fails ``require_rational_surface``; ``None`` when sound or undeclared.
    """
    if not c.gram:
        return None if c.gram is None else "gram: expected a nonempty matrix"
    try:
        lattice = general_lattice(c.gram, c.canonical)
    except ValueError as err:
        return f"gram: {err}"
    try:
        require_rational_surface(lattice.gram, lattice.canonical.nums)
    except PreconditionError as err:
        return f"canonical: {err}"
    if c.euler_class is not None and [type(x) for x in c.euler_class] != [int] * len(c.gram):
        return "euler_class: expected one integer per gram row"
    if c.normal_euler is not None and type(c.normal_euler) is not int:
        return "normal_euler: expected an integer"
    return None


@lru_cache(maxsize=None)
def point_component(index: int) -> FixedComponent:
    """The isolated point of ``index``: one shared immutable record per index."""
    return FixedComponent(
        ComponentKind.POINT, index, normal_split=expected_split(ComponentKind.POINT, index)
    )


class CriticalLevel(Record):
    """All fixed components sharing one critical value.

    Components are stored in a canonical sorted order, so scenarios that
    merely permute the declared component list are equal as data; a single
    component is not sorted.
    """

    __slots__ = ("value", "components", "euler_minus")

    def __init__(self, value, components: Iterable[FixedComponent], euler_minus=None):
        components = tuple(components)
        if len(components) > 1:
            components = tuple(sorted(components, key=FixedComponent.sort_key))
        set_field(self, "value", exact_rational(value))
        set_field(self, "components", components)
        set_field(self, "euler_minus", euler_minus)
        if not self.components:
            raise ValueError("critical level needs at least one component")
        if euler_minus is not None and not euler_minus.is_integral:
            raise ValueError("declared Euler class must be integral")

    @property
    def simple(self) -> bool:
        """All components share one Morse index."""
        return len({c.index for c in self.components}) == 1


_first = itemgetter(0)


def _over_one_denominator(values) -> tuple[int, tuple[int, ...]]:
    """The lcm ``D`` of the denominators of ``values`` and their numerators over ``D``."""
    dens = [v.denominator for v in values]
    den = lcm(*dens)
    return den, tuple([v.numerator * (den // d) for v, d in zip(values, dens)])


class FixedPointData(Record):
    """An ordered scenario of critical levels for one Hamiltonian manifold.

    ``_den`` is ``D`` and ``_nums`` the level values' numerators over it, in
    level order: computed once per data set and never compared.  Each level
    keeps its value as a ``Fraction``.  A caller holding them hands them over as ``_line``.
    ``_report``, never compared either, is the report ``validate_structure`` keeps.
    """

    # mode: "full" | "small"
    __slots__ = ("name", "dim", "mode", "levels", "_den", "_nums", "_report")

    def __init__(self, name: str, dim: int, mode: str, levels: tuple[CriticalLevel, ...],
                 _line: tuple[int, tuple[int, ...]] | None = None):
        if mode not in ("full", "small"):
            raise ValueError(f"mode must be 'full' or 'small', got {mode!r}")
        if mode == "small" and any(lv.euler_minus is not None for lv in levels):
            raise ValueError("small-mode data cannot carry reduction-bundle Euler classes")
        Record.__init__(self, name, dim, mode, levels)
        den, nums = _line or _over_one_denominator([lv.value for lv in levels])
        set_field(self, "_den", den)
        set_field(self, "_nums", nums)
        set_field(self, "_report", None)

    @classmethod
    def build(
        cls, name: str, dim: int, mode: str, levels: Iterable[CriticalLevel]
    ) -> "FixedPointData":
        """Sort levels by value and merge levels sharing one critical value.

        A stable sort on the numerators over one denominator puts equal values
        in runs; a level alone at its value is kept as it is, and only a merge
        builds one.  The runs' numerators are the merged data's line.
        """
        levels = list(levels)
        den, nums = _over_one_denominator([lv.value for lv in levels])
        merged, line, last = [], [], None
        for n, lv in sorted(zip(nums, levels), key=_first):
            if n != last:
                merged.append(lv)
                line.append(n)
            else:  # merge lv into the run at this value so far
                run = merged[-1]
                if run.euler_minus is not None and lv.euler_minus is not None:
                    raise ValueError(f"conflicting Euler data at merged level {fmt_q(lv.value)}")
                euler = lv.euler_minus if run.euler_minus is None else run.euler_minus
                merged[-1] = CriticalLevel(run.value, run.components + lv.components, euler)
            last = n
        return cls(name, dim, mode, tuple(merged), _line=(den, tuple(line)))

    def is_isolated(self) -> bool:
        """Six-dimensional data whose every fixed component is a point."""
        return self.dim == 6 and all(
            c.kind is ComponentKind.POINT for lv in self.levels for c in lv.components)


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
    the scenario is structurally admissible.  Built on the first call and kept
    on the immutable data (``_report``): every later call returns it.
    """
    if data._report is None:
        set_field(data, "_report", _structure_report(data))
    return data._report


def _structure_report(data: FixedPointData) -> ValidationReport:
    """The report ``validate_structure`` keeps.  An index is an ``int``, ``bool``
    excluded.  A shared ``point_component`` of even index meets only its level's
    index rule: its split and fields are right by construction.
    """
    issues: list[ValidationIssue] = []

    def issue(code: str, message: str, lv: CriticalLevel | None = None) -> None:
        if lv is not None:  # the level's label is rendered only for an issue it has
            message = f"level {fmt_q(lv.value)}: {message}"
        issues.append(ValidationIssue(code, message))

    if data.dim != 6:
        issue("dim", f"ambient dimension must be 6, got {data.dim}")
    if not data.levels:
        issue("levels", "scenario has no critical levels")
        return ValidationReport(tuple(issues))
    levels, nums = data.levels, data._nums
    for lv, nxt, m, n in zip(levels, levels[1:], nums, nums[1:]):
        if m == n:
            issue("values", f"duplicated critical value {fmt_q(lv.value)} (levels must be merged)")
        elif m > n:
            issue("values",
                  f"critical values out of order: {fmt_q(lv.value)} before {fmt_q(nxt.value)}")
    if len(levels) < 2:
        issue("extrema", "scenario needs distinct minimum and maximum levels")
        return ValidationReport(tuple(issues))
    if nums[0] != 0:
        issue("normalization", f"minimum critical value must be 0, got {fmt_q(levels[0].value)}")

    first, last = levels[0], levels[-1]
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

    for lv in levels:
        extremal = lv is first or lv is last
        for c in lv.components:
            if type(c.index) is not int:
                issue("index", f"index {c.index!r} is not an integer", lv)
                continue
            if c.index % 2 != 0 or not 0 <= c.index <= 6:
                issue("index", f"index {c.index} is odd or out of range", lv)
                continue
            if c.index > 2 * _NORMAL_RANK[c.kind]:
                issue("index", f"{c.kind.value} index {c.index} exceeds the codimension", lv)
                continue
            if not extremal:
                if c.kind is ComponentKind.FOURFOLD:
                    issue("extrema", "codimension-2 component must be extremal", lv)
                elif c.index not in (2, 4):
                    issue("index", "non-extremal component must have (co)index 2, "
                          f"got index {c.index}", lv)
            # a shared point's split and fields hold by construction (an even int index by now)
            if c is point_component(c.index):
                continue
            expected = expected_split(c.kind, c.index)
            if c.normal_split is not None and c.normal_split != expected:
                issue("semi-free", f"normal splitting {c.normal_split} inconsistent with a "
                      f"semi-free {c.kind.value} of index {c.index} (expected {expected})", lv)
            names, foreign = _FOREIGN_FIELDS[c.kind]
            values = foreign(c)
            if values.count(None) != len(values):  # some foreign field is declared
                for field, value in zip(names, values):
                    if value is not None:
                        name = field.replace("_", " ")
                        issue("fields", f"{name} declared on a {c.kind.value}", lv)
            if c.kind is ComponentKind.SURFACE:
                if c.genus is not None and c.genus < 0:
                    issue("fields", "negative genus", lv)
                if c.reduced_class is None or not c.reduced_class.is_integral:
                    issue("fields", "surface component needs an integral reduced class", lv)
            if c.kind is ComponentKind.FOURFOLD:
                if c.gram is None or c.areas is None:
                    issue("fields", "fourfold component needs declared gram and areas", lv)
                    continue
                problem = declared_lattice_problem(c)
                if problem is not None:
                    issue("fields", f"fourfold {problem}", lv)
                if len(c.areas) != len(c.gram):
                    issue("fields", "fourfold areas need one entry per gram row", lv)
        if lv.euler_minus is not None and extremal:
            issue("euler", "extremal levels carry no reduction bundle data", lv)
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
    multiset must be ``{0, l1, l2, l3, l1+l2, l1+l3, l2+l3, l1+l2+l3}``.  The
    values are compared as numerators over the data's one denominator, and
    ``lambdas`` are the index-2 levels' own values.  A failure names the
    declared values, in level order, that the multiset does not expect: a
    value declared more often than expected is named too.
    """
    if not data.is_isolated():
        return IsolatedValueCheck("not-applicable", None, "data has non-point components")
    points = [(n, lv, c.index) for n, lv in zip(data._nums, data.levels) for c in lv.components]
    indices = sorted(idx for _, _, idx in points)
    if indices != [0, 2, 2, 2, 4, 4, 4, 6]:
        return IsolatedValueCheck(
            "fail", None, f"index multiset {indices} is not (0,2,2,2,4,4,4,6)"
        )
    (n1, lv1), (n2, lv2), (n3, lv3) = sorted(
        ((n, lv) for n, lv, idx in points if idx == 2), key=_first)
    lams = (lv1.value, lv2.value, lv3.value)
    expected = sorted((0, n1, n2, n3, n1 + n2, n1 + n3, n2 + n3, n1 + n2 + n3))
    if sorted(n for n, _, _ in points) != expected:
        unexpected = []
        for n, lv, _ in points:  # the multiset difference, in level order
            if n in expected:
                expected.remove(n)
            else:
                unexpected.append(fmt_q(lv.value))
        return IsolatedValueCheck(
            "fail",
            lams,
            f"value multiset does not match sums of ({','.join(map(fmt_q, lams))}): "
            f"unexpected values {unexpected}",
        )
    return IsolatedValueCheck("pass", lams, "value lattice consistent")


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def three_sphere_product_data(
    l1, l2, l3, mode: str = "full", name: str | None = None
) -> FixedPointData:
    """The isolated-fixed-point scenario of a diagonal action on S2 x S2 x S2.

    Critical values are 0, the three sphere areas, their pairwise sums, and
    the total; equal values merge into multi-component levels.  Produced
    without reduction-bundle data; the bootstrap can fill that in.
    """
    given = [exact_rational(x) for x in (l1, l2, l3)]
    den, nums = _over_one_denominator(given)
    (a, _), (b, _), (c, _) = ordered = sorted(zip(nums, given), key=_first)
    if a <= 0:
        raise ValueError("sphere areas must be positive")
    lams = [lam for _, lam in ordered]
    if name is None:
        name = "three-spheres-" + "-".join(map(fmt_q, lams)).replace("/", "_")
    levels = [CriticalLevel(0, [point_component(0)])]
    levels += [CriticalLevel(lam, [point_component(2)]) for lam in lams]
    levels += [CriticalLevel(Fraction(s, den), [point_component(4)]) for s in (a + b, a + c, b + c)]
    levels.append(CriticalLevel(Fraction(a + b + c, den), [point_component(6)]))
    return FixedPointData.build(name, 6, mode, levels)


def time_reversed(data: FixedPointData, name: str | None = None) -> FixedPointData:
    """Run the Hamiltonian backwards: ``H -> max(H) - H``.

    Indices are complemented within each component's codimension and normal
    splittings swap; a shared point of even index reverses to a shared point.
    An interior surface keeps its index, split and class: the walk shifts the
    Euler class by its class on the same side both ways.  That class is in
    the basis arriving from below, which reversal keeps only on the plane, so
    one of rank above 1, or beside a point, raises ``PreconditionError``.
    Declared reduction-bundle data, which reversal does not transport, is dropped.
    """
    den, nums = data._den, data._nums
    first, last = data.levels[0], data.levels[-1]

    def reversed_component(c: FixedComponent, lv: CriticalLevel) -> FixedComponent:
        if c.index in (0, 2, 4, 6) and c is point_component(c.index):
            return point_component(6 - c.index)
        kind, index, genus, reduced, split, *fourfold = c._key(c)
        if kind is ComponentKind.SURFACE and lv is not first and lv is not last:
            if (reduced is not None and reduced.rank > 1) or any(
                    d.kind is ComponentKind.POINT for d in lv.components):
                raise PreconditionError(
                    f"level {fmt_q(lv.value)}: a surface beside a point, or of class rank "
                    "above 1, reverses only with the walk carried across")
            return c
        return FixedComponent(
            kind, 2 * _NORMAL_RANK[kind] - index, genus, reduced,
            None if split is None else (split[1], split[0]), *fourfold,
        )

    reversed_levels = [
        CriticalLevel(Fraction(nums[-1] - n, den),
                      [reversed_component(c, lv) for c in lv.components])
        for n, lv in zip(reversed(nums), reversed(data.levels))
    ]
    return FixedPointData.build(
        name or f"{data.name}-reversed", data.dim, data.mode, reversed_levels
    )
