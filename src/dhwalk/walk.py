"""The wall-crossing walk engine.

A walk carries one affine class family (lattice, base, slope ``-e``) across
the moment interval: on regular intervals the reduced class is affine with
slope minus the Euler class, and at a critical level it changes by the
Guillemin-Sternberg surgery rules:

* index-2 point: the lattice gains an exceptional generator, the Euler class
  gains it too, and the new area function is ``t - wall``;
* coindex-2 point: an exceptional class whose area vanishes exactly at the
  wall blows down; the inverted bundle relation forces ``pair(e, C) = 1``
  before the crossing (asserted, never assumed), and the new Euler class is
  the pushforward of ``e + C``;
* codimension-4 surface: the lattice is unchanged and the Euler class shifts
  by the surface class (up at index 2, down at the declared coindex-2 form).

Walls are never trusted: a declared blow-down level must coincide exactly
with a root of an exceptional-area function, and every regular interval is
screened for interior roots, which operationalises the fact that critical
values are determined by the cohomology class of the form.

A point surgery's next lattice and Euler class depend on neither the areas
nor the wall, so each blow-up and each blow-down is an edge of a graph on the
walk frames, built on its first crossing and cached on the frame it leaves; a
crossing then maps only the base's numerators.  A level builds one interval,
the regular one above its wall, and every action's family lands on it holding
its edge's frame, so the last action's family is the next interval's.
Everything is exact and deterministic: identical scenarios give
byte-identical traces.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import PreconditionError, WalkError
from .family import AffineClassFamily, Interval, walk_frame
from .formatting import exact_rational, fmt_q
from .lattice import (
    LatticeClass,
    blow_down_data,
    blow_up_lattice,
    canonical_presentation,
    class_with_areas,
    default_lattice,
    exceptional_classes,  # noqa: F401  (callers reach it as walk.exceptional_classes)
    general_lattice,
)
from .record import Record, set_field
from .rigidity import lookup
from .scenario import (
    ComponentKind,
    CriticalLevel,
    FixedComponent,
    FixedPointData,
    validate_structure,
)


# ---------------------------------------------------------------------------
# fingerprints and records
# ---------------------------------------------------------------------------


class Fingerprint(Record):
    """Basis-independent snapshot of a family at one moment value.

    ``marked_areas`` pairs the area of every exceptional and ruling class
    with its Euler pairing, as a sorted multiset; together with the lattice
    type, canonical data, the volume and its Duistermaat-Heckman slope
    ``d vol/dt = -pair(A_t, e)`` this is invariant under any
    canonical-class-preserving isometry of the coordinates.  At an
    interval's midpoint it determines the family's affine data.
    """

    __slots__ = (
        "lattice_type", "canonical_self", "volume", "volume_slope", "marked_areas", "euler_self",
        "euler_canonical",
    )

    def first_difference(self, other: "Fingerprint") -> str | None:
        """The first field, in words, where ``other`` differs; None when equal."""
        return next((f.replace("_", " ") for f in self._fields
                     if getattr(self, f) != getattr(other, f)), None)


def state_fingerprint(family: AffineClassFamily, t) -> Fingerprint:
    """The fingerprint of ``family`` at ``t`` (endpoints allowed); raises
    ``ValueError`` outside the family's interval and ``PreconditionError``
    where the marked classes need not be finite.

    Read off the family's integer row at ``t = p/q``: every area is sorted as
    its numerator ``c*q + s*den*p`` over the common ``den*q``, with its Euler
    pairing ``-s``, and each value becomes a ``Fraction`` once.  The lattice's
    type and K.K are the frame's.
    """
    t = exact_rational(t)
    if not family.interval.contains(t):
        raise ValueError(f"moment value {fmt_q(t)} outside interval {family.interval}")
    frame, den, (_, bs2, ss2) = family.frame, family.base.den, family.volume_nums
    p, q = t.numerator, t.denominator
    dp, dq, den2 = den * p, den * q, 2 * den * den
    n = frame.rulings.start  # the exceptional and ruling classes: all but the line
    slopes = frame.slopes[n:]
    marked = sorted(zip([c * q + s * dp for c, s in zip(family.row[n:], slopes)],
                        [-s for s in slopes]))
    return Fingerprint(
        frame.lattice_type,
        frame.canonical_self,
        Fraction(family._volume_num(p, q), den2 * q * q),
        Fraction(bs2 * q + 2 * ss2 * p, den2 * q),
        tuple((Fraction(a, dq), Fraction(e)) for a, e in marked),
        frame.euler_self,
        frame.euler_canonical,
    )


def declared_family(comp: FixedComponent, value) -> AffineClassFamily:
    """The family a declared fourfold extremum fixes at its level ``value``.

    The lattice is ``gram``/``canonical`` and the class at ``value`` has the
    declared ``areas``.  The Euler class is ``euler_class``, or else
    ``-normal_euler`` times the first basis class; at a maximum (index 2)
    it is negated, the convention ``time_reversed`` implies.  The family is
    defined on the single point ``value``.
    """
    lat = general_lattice(comp.gram, comp.canonical)
    if comp.euler_class is not None:
        e = LatticeClass(comp.euler_class)
    else:
        e = -(comp.normal_euler or 0) * lat.basis(0)
    if comp.index == 2:
        e = -e
    return AffineClassFamily(
        lat, class_with_areas(lat.gram, comp.areas) + value * e, -e, Interval(value, value)
    )


class CrossingAction(Record):
    # kind: blow_up | blow_down | euler_shift_up | euler_shift_down; a blow-down
    # carries the pairing it checked and its map, other actions None.
    # class_name uses the basis the walk holds right after the action (for a
    # blow-down, right before it); a blow-up is presented only after it is
    # named, so two blow-ups of A/B read blow_up(E1), blow_up(E3).
    __slots__ = ("kind", "class_name", "euler_pairing", "blow_down_map")


class CrossingEvent(Record):
    __slots__ = ("value", "actions")

    def __init__(self, value, actions):
        set_field(self, "value", value)
        set_field(self, "actions", actions)


class FinalCheck(Record):
    __slots__ = ("name", "ok", "detail")

    def __init__(self, name, ok, detail):
        set_field(self, "name", name)
        set_field(self, "ok", ok)
        set_field(self, "detail", detail)


class FinalReport(Record):
    __slots__ = ("value", "checks")

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def lines(self) -> list[str]:
        return [
            f"{'pass' if c.ok else 'FAIL'}: {c.name}" + (f" ({c.detail})" if c.detail else "")
            for c in self.checks
        ]


class WalkTrace(Record):
    """The full log of a walk: the screened family over each regular interval,
    crossing events, final checks."""

    __slots__ = ("name", "intervals", "events", "final_report", "declared_extremum")

    @property
    def k_sequence(self) -> tuple[int, ...]:
        return tuple(family.frame.k for family in self.intervals)

    @property
    def walls(self) -> tuple[Fraction, ...]:
        return tuple(ev.value for ev in self.events)

    @property
    def moment_range(self) -> Interval:
        lo = self.intervals[0].interval.lo
        hi = self.final_report.value if self.final_report else self.intervals[-1].interval.hi
        return Interval(lo, hi)

    def fingerprints(self) -> tuple[Fingerprint, ...]:
        """The state fingerprint at every interval's midpoint."""
        return tuple(state_fingerprint(f, f.interval.midpoint) for f in self.intervals)

    def volume_integral(self) -> Fraction:
        """Exact integral of the piecewise volume over the moment interval, by
        Simpson's rule, which is exact on each family's quadratic volume."""
        total = Fraction(0)
        for f in self.intervals:
            lo, mid, hi = f.interval.lo, f.interval.midpoint, f.interval.hi
            total += (hi - lo) * (f.volume(lo) + 4 * f.volume(mid) + f.volume(hi)) / 6
        return total


# ---------------------------------------------------------------------------
# crossing primitives (no canonicalisation, no cone checks)
# ---------------------------------------------------------------------------


class _Edge(Record):
    """One point surgery out of a walk frame, cached on it: the lattice and slope
    it arrives at with their frame, the action it logs (shared by every visit),
    and the maps that carry classes across (a blow-up's inclusion, then its
    presentation; a blow-down's contraction)."""

    __slots__ = ("lattice", "slope", "frame", "action", "maps")

    def carry(self, x: LatticeClass) -> LatticeClass:
        for change in self.maps:
            x = change.apply(x)
        return x


def _vanishing(state: AffineClassFamily, p: int, q: int) -> list[int]:
    """Indices into ``state.frame.falling`` of the exceptional classes whose area
    hits zero from above at the wall ``p/q`` (in lowest terms).

    Only classes of negative slope pairing can: the frame's ``falling`` ones,
    in coefficient order.  Each ``(class, s, i)`` reads ``c = state.row[i]``, and
    an area ``(c + s*den*t) / den`` vanishes at ``t = p/q`` when ``c*q + s*den*p == 0``.
    """
    row, dp = state.row, p * state.base.den
    return [j for j, (_, s, i) in enumerate(state.frame.falling) if row[i] * q + s * dp == 0]


def _blow_up_point(state: AffineClassFamily, wall: Interval) -> tuple[AffineClassFamily, _Edge]:
    """One blow-up at the wall ``lam = p/q``, the lower end of ``wall``, the interval
    the family lands on: ``e' = inc(e) + E`` (so ``B' = inc(B) - E``) and ``A' =
    inc(A) + lam*E``, presented at once (``canonical_presentation``).

    The slope side is the frame's blow-up edge, built on the first visit; the
    base is mapped on its numerators.
    """
    frame, slope = state.frame, state.slope
    edge = frame._up
    if edge is None:
        inclusion = blow_up_lattice(state.lattice)
        change = canonical_presentation(inclusion.target)
        lat, slope = inclusion.target, LatticeClass._of(slope.nums + (-slope.den,), slope.den)
        maps = (inclusion,)
        if change is not None:
            lat, slope, maps = change.target, change.apply(slope), (inclusion, change)
        action = CrossingAction("blow_up", inclusion.target.labels[-1], None, None)
        edge = _Edge(lat, slope, walk_frame(lat, slope), action, maps)
        set_field(frame, "_up", edge)
    p, q, den = *wall._ends[:2], state.base.den
    nums = tuple(n * q for n in state.base.nums) + (p * den,)
    for change in edge.maps[1:]:
        nums = change.push(nums)
    base = LatticeClass._of(nums, den * q)
    return AffineClassFamily._at(edge.lattice, base, edge.slope, wall, edge.frame), edge


def _blow_down_point(state: AffineClassFamily, wall: Interval) -> tuple[AffineClassFamily, _Edge]:
    """Contract the first class ``C`` vanishing at the wall ``lam = p/q``, the lower
    end of ``wall``, the interval the family lands on: ``e' = push(e + C)``, so ``B' =
    push(B - C)``, and ``A' = push(A + lam*B) - lam*B'``, which is ``push(A)`` since the
    map kills ``C``.

    The slope side is the frame's edge for ``C``, built on the first visit
    with the checked ``pair(e, C) = 1`` and ``blow_down_data``'s map; only a
    built edge is kept, so every refusal is raised on every visit.
    """
    vanishing = _vanishing(state, *wall._ends[:2])
    if not vanishing:
        raise WalkError(
            "declared coindex-2 level, but no exceptional area vanishes here "
            "(critical values are forced by the class areas)",
            wall.lo, "no vanishing class",
        )
    frame, j, lat = state.frame, vanishing[0], state.lattice
    edge = frame._down[j]
    if edge is None:
        c, s, _ = frame.falling[j]
        if s != -1:  # pair(e, C) = -pair(B, C)
            raise WalkError(f"blow-down of {lat.name_of(c)} needs pair(e,C) = 1, got {-s}",
                            wall.lo, "euler pairing")
        bdm = blow_down_data(lat, c)
        slope = LatticeClass._of(bdm.push((state.slope - c).nums), 1)
        action = CrossingAction("blow_down", lat.name_of(c), 1, bdm)
        edge = _Edge(bdm.target, slope, walk_frame(bdm.target, slope), action, (bdm,))
        frame._down[j] = edge
    base = LatticeClass._of(edge.maps[0].push(state.base.nums), state.base.den)
    return AffineClassFamily._at(edge.lattice, base, edge.slope, wall, edge.frame), edge


def _shift_surfaces(state: AffineClassFamily, wall: Interval, surfaces: list, up: bool,
                    actions: list) -> AffineClassFamily:
    """Shift the Euler class by each surface class on the ``up`` side, in
    coefficient order: up ``e + f`` or down ``e - f``, logged in ``actions``; each
    family lands on ``wall``, the interval above the wall ``wall.lo``."""
    for f in sorted((f for f, side in surfaces if side is up), key=lambda f: f.nums):
        slope = state.slope - f if up else state.slope + f
        kind = "euler_shift_up" if up else "euler_shift_down"
        actions.append(CrossingAction(kind, state.lattice.name_of(f), None, None))
        base = state.base + wall.lo * (state.slope - slope)
        state = AffineClassFamily._at(state.lattice, base, slope, wall)
    return state


# ---------------------------------------------------------------------------
# level crossing with consistency screening
# ---------------------------------------------------------------------------


def _screen_interval(family: AffineClassFamily) -> AffineClassFamily:
    """Screen a family on its regular interval and store its rigidity in it.

    One pass over its row (``AffineClassFamily.screen``) raises when the family
    visibly leaves the symplectic cone at the interval midpoint or when some
    marked area has a root strictly inside the interval, which would be a wall
    the scenario failed to declare.  The rigidity lookup reuses the cone verdict.
    """
    interval = family.interval
    check, root = family.screen(interval)
    if check.status is False:
        name = family.lattice.name_of(check.witness) if check.witness else "volume"
        raise WalkError(f"symplectic cone violated on {interval}: {check.reason} ({name})",
                        interval.lo, "cone")
    if root is not None:
        raise WalkError(
            f"area of {family.lattice.name_of(root[0])} vanishes at {fmt_q(root[1])} "
            "inside a regular interval: an undeclared wall",
            interval.lo, "undeclared wall",
        )
    set_field(family, "_rigidity", lookup(family, check.status is True))
    return family


def cross_level(
    family: AffineClassFamily, level: CriticalLevel, next_hi
) -> tuple[AffineClassFamily, CrossingEvent]:
    """Cross one critical level, simple or not.

    All coindex-2 actions run first (point blow-downs in ascending vanishing
    class order, then surface down-shifts), then all index-2 actions (point
    blow-ups, then surface up-shifts).  Declared surface classes are
    transported through the level's own blow-downs and blow-ups; each must
    pass the rank check, adjunction (when a genus is declared) and have
    positive area at the wall.  Every lattice a walk reaches is default or
    hyperbolic: blow-downs land on one (``blow_down_data``), each blow-up is
    presented at once (``canonical_presentation``), and a level leaving
    K.K <= 0 (more than eight blow-ups) is refused at its wall before its
    blow-ups.  The crossing starts from the arriving family and builds one
    interval, ``(lam, next_hi)``; each action yields a family on it, and every
    component yields one action, so the last family is screened in place.
    The point actions follow edges of the frame in hand (``_blow_down_point``,
    ``_blow_up_point``), one edge per point; only a surface shift leaves a
    frame to look up.  The arriving row goes along, and the row the leftover
    check builds after the blow-downs is the next interval's when no other
    action follows.
    """
    lam = level.value
    if family.interval.hi is not lam and family.interval.hi != lam:  # a walk passes lam itself
        raise PreconditionError(
            f"state interval {family.interval} does not end at the wall {fmt_q(lam)}"
        )
    actions: list[CrossingAction] = []
    surfaces: list[tuple[LatticeClass, bool]] = []  # (class, up: index 2) per declared surface
    points_down = points_up = 0
    for comp in level.components:
        if comp.index not in (2, 4) or comp.kind is ComponentKind.FOURFOLD or (
                comp.kind is ComponentKind.SURFACE and comp.reduced_class is None):
            raise PreconditionError(  # validate_structure refuses such a level
                f"cannot cross a {comp.kind.value} of index {comp.index} at {fmt_q(lam)}; "
                "an interior component is a point or a surface with its class, of index 2 or 4"
            )
        if comp.kind is ComponentKind.POINT:
            if comp.index == 4:
                points_down += 1
            else:
                points_up += 1
        else:
            if comp.reduced_class.rank != family.lattice.rank:
                raise WalkError(
                    f"surface class rank {comp.reduced_class.rank} does not match the "
                    f"reduced space rank {family.lattice.rank}",
                    lam, "surface rank",
                )
            if not comp.reduced_class.is_integral:  # validate_structure refuses it too
                raise WalkError("surface component needs an integral reduced class", lam,
                                "surface class")
            f, lat = comp.reduced_class, family.lattice
            adjunction = lat.pair(f, f) + lat.pair(lat.canonical, f)
            if comp.genus is not None and adjunction != 2 * comp.genus - 2:
                raise WalkError(
                    f"surface of genus {comp.genus} in class {lat.name_of(f)} breaks "
                    f"adjunction: F.F + K.F = {fmt_q(adjunction)}, not {2 * comp.genus - 2}",
                    lam, "adjunction",
                )
            area = lat.pair(family.base + lam * family.slope, f)
            if area <= 0:
                raise WalkError(
                    f"surface in class {lat.name_of(f)} has area {fmt_q(area)} at its wall; "
                    "a symplectic surface needs positive area",
                    lam, "surface area",
                )
            surfaces.append((f, comp.index != 4))

    interval, state = Interval(lam, next_hi), family
    for _ in range(points_down):
        state, edge = _blow_down_point(state, interval)
        actions.append(edge.action)
        if surfaces:
            surfaces = [(edge.carry(f), up) for f, up in surfaces]
    leftovers = _vanishing(state, *interval._ends[:2])
    if leftovers:
        raise WalkError(
            f"exceptional class {state.lattice.name_of(state.frame.falling[leftovers[0]][0])} "
            "vanishes here but no matching coindex-2 component is declared",
            lam, "leftover vanishing class",
        )
    # K.K = 9 - blow-ups must stay positive; a surface shift keeps the lattice
    if state.frame.k + points_up > 8:
        raise WalkError(
            f"the crossing leaves {state.frame.k + points_up} blow-ups; beyond 8 "
            "the reduced space has infinitely many exceptional classes",
            lam, "blow-up limit",
        )
    if surfaces:
        state = _shift_surfaces(state, interval, surfaces, False, actions)
    for _ in range(points_up):
        state, edge = _blow_up_point(state, interval)
        actions.append(edge.action)
        if surfaces:
            surfaces = [(edge.carry(f), up) for f, up in surfaces]
    if surfaces:
        state = _shift_surfaces(state, interval, surfaces, True, actions)
    return _screen_interval(state), CrossingEvent(lam, tuple(actions))


# ---------------------------------------------------------------------------
# extremal levels
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _plane_above_minimum() -> AffineClassFamily:
    """The family above an isolated minimum at ``[0, 0]``: base ``0`` and slope ``B = L``
    on the plane, with its frame and row, built once."""
    lat = default_lattice(0)
    line = lat.basis(0)
    frame = walk_frame(lat, line)
    return AffineClassFamily._at(lat, lat.cls(0), line, Interval(0, 0), frame, frame.row_of((0,)))


def init_from_minimum(data: FixedPointData) -> tuple[AffineClassFamily, bool]:
    """The screened family over the first regular interval.

    Isolated minimum: the reduction just above the bottom is the Hopf
    fibration over the plane, Euler class the negative line generator, line
    area ``t``.  A declared 4-dimensional minimum is taken at face value
    (second return value flags the trace as uncertified) and presented like
    every blow-up (``canonical_presentation``): a default or hyperbolic gram is
    relabelled ``L, E1, ...`` or ``A, B`` in place, any other gram is moved
    onto the default or ruling basis; validation refused every declared lattice
    without one (``declared_lattice_problem``).  A codimension-4 surface at
    either extremum is out of scope, and refused at its wall before any work.
    """
    if len(data.levels) < 2:
        raise PreconditionError("scenario needs at least two levels")
    first = data.levels[0]
    next_hi = data.levels[1].value
    comp = first.components[0]
    if first.value != 0:
        raise PreconditionError("minimum critical value must be normalised to 0")
    for extremum in (first, data.levels[-1]):
        if extremum.components[0].kind is ComponentKind.SURFACE:
            raise WalkError(
                "codimension-4 surface extremum: reduced spaces near it are sphere bundles, "
                "which this engine does not model",
                extremum.value, "surface extremum",
            )
    interval = Interval(first.value, next_hi)
    if comp.kind is ComponentKind.POINT:
        return _screen_interval(_plane_above_minimum().with_interval(interval)), False
    state = declared_family(comp, first.value).with_interval(interval)  # a fourfold
    change = canonical_presentation(state.lattice)
    if change is not None:
        state = AffineClassFamily._at(change.target, change.apply(state.base),
                                      change.apply(state.slope), interval)
    return _screen_interval(state), True


def finalize_at_maximum(family: AffineClassFamily, level: CriticalLevel) -> FinalReport:
    """Check the arriving family against the declared maximum.

    On valid data every failure is a report entry, never an exception.  An
    isolated maximum needs the reduced space collapsed to a plane of
    vanishing line area with Euler class the positive generator (the sign
    flip relative to the minimum): the class at ``lam_max = p/q`` is built
    once from the rank-one numerators, ``(b*q + s*den*p) / (den*q)``, and
    paired with the line, and the Euler class is the frame's.  A declared
    4-dimensional maximum (``declared_family``, a lattice validation passed)
    needs the arriving lattice type, then the arriving state fingerprint; the
    first field that differs is named.  A surface maximum never gets here:
    ``init_from_minimum`` refuses it at its wall.
    """
    lam_max = level.value
    checks: list[FinalCheck] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append(FinalCheck(name, ok, detail))

    comp = level.components[0]
    lat = family.lattice
    if comp.kind is ComponentKind.POINT:
        collapsed = lat.rank == 1 and lat.gram == ((1,),)
        remains = "" if collapsed else f"rank {lat.rank} lattice remains at the maximum"
        check("reduced space must collapse", collapsed, remains)
        if collapsed:
            line, e = _plane_above_minimum().slope, family.euler  # both built once
            (b,), den, (s,) = family.base.nums, family.base.den, family.slope.nums
            p, q = lam_max.numerator, lam_max.denominator
            area = lat.pair(LatticeClass._of((b * q + s * den * p,), den * q), line)
            check("line area vanishes at the maximum", area == 0,
                  f"area(L)({fmt_q(lam_max)}) = {fmt_q(area)}")
            check("final Euler class is the positive generator", e == line,
                  f"e = {lat.name_of(e)}")
    elif comp.kind is ComponentKind.FOURFOLD:
        declared = declared_family(comp, lam_max)
        decl_type, arr_type = declared.frame.lattice_type, family.frame.lattice_type
        check("maximum lattice type matches", decl_type == arr_type,
              f"declared {decl_type}, arrived {arr_type}")
        if decl_type == arr_type:
            diff = state_fingerprint(declared, lam_max).first_difference(
                state_fingerprint(family, lam_max))
            check("maximum fingerprint matches", diff is None,
                  "" if diff is None else f"{diff} differs")
    return FinalReport(lam_max, tuple(checks))


# ---------------------------------------------------------------------------
# full walks
# ---------------------------------------------------------------------------


def _restricted(family: AffineClassFamily, lo, hi) -> AffineClassFamily:
    """The same family over ``(lo, hi)``, a part of its screened interval or the union
    of two whose seam fingerprints agree, with its rigidity: no moving cone area
    has a root there, so the screened cone verdict stands."""
    family = family.with_interval(Interval(lo, hi))
    set_field(family, "_rigidity", lookup(family, True))
    return family


def run_walk(data: FixedPointData) -> WalkTrace:
    """Validate, initialise at the minimum, cross every level in order, finalise.

    Raises ``PreconditionError`` naming every issue of ``validate_structure``
    (the data's one report, built on the first call); deterministic; raises a
    ``WalkError`` naming the failing wall when a crossing is impossible or an
    extremum is a codimension-4 surface, and returns a trace whose final
    report may fail when only the maximum data is inconsistent.
    """
    report = validate_structure(data)
    if not report.ok:
        raise PreconditionError(
            f"scenario {data.name!r} fails validation: " + "; ".join(report.lines())
        )
    family, declared_extremum = init_from_minimum(data)
    intervals = [family]
    events: list[CrossingEvent] = []
    for i in range(1, len(data.levels) - 1):
        family, event = cross_level(family, data.levels[i], data.levels[i + 1].value)
        events.append(event)
        intervals.append(family)
    final = finalize_at_maximum(family, data.levels[-1])
    return WalkTrace(data.name, tuple(intervals), tuple(events), final, declared_extremum)


def split_trace(trace: WalkTrace, t) -> tuple[WalkTrace, WalkTrace]:
    """Cut a trace at a regular value strictly inside one of its intervals."""
    t = exact_rational(t)
    for idx, family in enumerate(trace.intervals):
        if family.interval.lo < t < family.interval.hi:
            break
        if family.interval.lo == t or family.interval.hi == t:
            raise PreconditionError(
                f"cannot split at {fmt_q(t)}: seams must be regular values, not walls"
            )
    else:
        raise PreconditionError(f"{fmt_q(t)} lies outside the moment interval")
    left = WalkTrace(
        f"{trace.name}[<{fmt_q(t)}]",
        trace.intervals[:idx] + (_restricted(family, family.interval.lo, t),),
        trace.events[:idx],
        None,
        trace.declared_extremum,
    )
    right = WalkTrace(
        f"{trace.name}[>{fmt_q(t)}]",
        (_restricted(family, t, family.interval.hi),) + trace.intervals[idx + 1 :],
        trace.events[idx:],
        trace.final_report,
        trace.declared_extremum,
    )
    return left, right


def compose_traces(left: WalkTrace, right: WalkTrace) -> WalkTrace:
    """Glue two traces along a common regular seam.

    The seam fingerprints must agree exactly; a ``PreconditionError`` names the
    first divergent component.  The boundary intervals merge into one regular
    interval, so recomposing a split reproduces the original fingerprints.
    """
    if left.final_report is not None:
        raise PreconditionError("left trace is closed at its maximum; nothing to glue")
    seam = left.intervals[-1].interval.hi
    if right.intervals[0].interval.lo != seam:
        raise PreconditionError(
            f"seam mismatch: left ends at {fmt_q(seam)}, right starts at "
            f"{fmt_q(right.intervals[0].interval.lo)}"
        )
    if left.events and left.events[-1].value >= seam:
        raise PreconditionError("seam coincides with a critical value of the left trace")
    if right.events and right.events[0].value <= seam:
        raise PreconditionError("seam coincides with a critical value of the right trace")
    diff = state_fingerprint(left.intervals[-1], seam).first_difference(
        state_fingerprint(right.intervals[0], seam)
    )
    if diff is not None:
        raise PreconditionError(f"seam fingerprints diverge at {fmt_q(seam)}: {diff}")
    family = left.intervals[-1]
    merged = _restricted(family, family.interval.lo, right.intervals[0].interval.hi)
    return WalkTrace(
        f"{left.name}+{right.name}",
        left.intervals[:-1] + (merged,) + right.intervals[1:],
        left.events + right.events,
        right.final_report,
        left.declared_extremum or right.declared_extremum,
    )
