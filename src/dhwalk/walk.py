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

Everything is exact and deterministic; identical scenarios give
byte-identical traces.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    DomainError,
    GluingError,
    InconsistentDataError,
    InternalInvariantError,
    PreconditionError,
    SurfaceRankError,
    UnsupportedExtremumError,
    WallMismatchError,
    WalkError,
    EulerInconsistencyError,
)
from .family import (
    AffineClassFamily,
    Interval,
    QuadraticPolynomial,
    symplectic_cone_check,
    walk_frame,
)
from .formatting import exact_rational, fmt_q
from .lattice import (
    IntersectionLattice,
    LatticeClass,
    LatticeMap,
    _require_finite,
    blow_down_data,
    blow_up_lattice,
    canonical_presentation,
    class_with_areas,
    default_lattice,
    exceptional_classes,  # noqa: F401  (callers reach it as walk.exceptional_classes)
    general_lattice,
)
from .record import Record
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


def _lattice_type(lat: IntersectionLattice) -> tuple:
    return (lat.rank, "even" if lat.is_even else "odd", lat.signature)


def state_fingerprint(family: AffineClassFamily, t) -> Fingerprint:
    """The fingerprint of ``family`` at ``t`` (endpoints allowed); raises
    ``PreconditionError`` where the marked classes need not be finite."""
    t = exact_rational(t)
    if not family.interval.contains(t):
        raise DomainError(f"moment value {fmt_q(t)} outside interval {family.interval}")
    lat, table = family.lattice, family.areas
    vol = table.volume
    return Fingerprint(
        _lattice_type(lat),
        lat.pair(lat.canonical, lat.canonical),
        vol(t),
        vol.c1 + 2 * vol.c2 * t,
        tuple(sorted((m.at(t), m.euler) for m in table.fingerprinted)),
        table.euler_self,
        table.euler_canonical,
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


class IntervalRecord(Record):
    """One regular interval of a trace: the family over it and its rigidity."""

    __slots__ = ("family", "rigidity")

    @property
    def volume(self) -> QuadraticPolynomial:
        return self.family.areas.volume

    @property
    def interval(self) -> Interval:
        return self.family.interval

    @property
    def lattice(self) -> IntersectionLattice:
        return self.family.lattice

    @property
    def k(self) -> int:
        """Rank minus one; the blow-up count on a default basis."""
        return self.family.lattice.rank - 1


class CrossingAction(Record):
    # kind: blow_up | blow_down | euler_shift_up | euler_shift_down; a blow-down
    # carries the pairing it checked and its map, other actions None.
    # class_name uses the basis the walk holds right after the action (for a
    # blow-down, right before it); a blow-up is presented only after it is
    # named, so two blow-ups of A/B read blow_up(E1), blow_up(E3).
    __slots__ = ("kind", "class_name", "euler_pairing", "blow_down_map")


class CrossingEvent(Record):
    __slots__ = ("value", "actions")


class FinalCheck(Record):
    __slots__ = ("name", "ok", "detail")


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
    """The full log of a walk: intervals, crossing events, final checks."""

    __slots__ = ("name", "intervals", "events", "final_report", "declared_extremum")

    @property
    def k_sequence(self) -> tuple[int, ...]:
        return tuple(rec.k for rec in self.intervals)

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
        return tuple(state_fingerprint(rec.family, rec.interval.midpoint) for rec in self.intervals)

    def volume_integral(self) -> Fraction:
        """Exact integral of the piecewise volume over the moment interval."""
        total = Fraction(0)
        for rec in self.intervals:
            total += rec.volume.integrate(rec.interval.lo, rec.interval.hi)
        return total


# ---------------------------------------------------------------------------
# crossing primitives (raw: no canonicalisation, no cone checks)
# ---------------------------------------------------------------------------


class _Raw(Record):
    """State parts between actions inside one critical level: the lattice, the
    base and the slope ``B = -e``, as ``AffineClassFamily`` holds them."""

    __slots__ = ("lattice", "base", "slope")


def _vanishing_classes(raw: _Raw, lam: Fraction) -> list[LatticeClass]:
    """Exceptional classes whose area hits zero at the wall from above, sorted.

    Only classes of negative slope pairing can: the frame's ``falling`` ones,
    in coefficient order.  The base is paired with just those, and an area
    ``(c + s*den*t) / den`` vanishes at ``t = p/q`` when ``c*q + s*den*p == 0``.
    """
    dot, (bn, den) = raw.lattice.dot, (raw.base.nums, raw.base.den)
    q, p = lam.denominator, lam.numerator * den
    return [x for x, s in walk_frame(raw.lattice, raw.slope).falling
            if dot(bn, x.nums) * q + s * p == 0]


def _blow_up_point(raw: _Raw, lam: Fraction):
    """``e' = inc(e) + E`` (so ``B' = inc(B) - E``) and ``A' = inc(A) + lam*E``, on numerators."""
    inclusion = blow_up_lattice(raw.lattice)
    (bn, den), b = (raw.base.nums, raw.base.den), raw.slope
    q = lam.denominator
    slope_new = LatticeClass._of(b.nums + (-b.den,), b.den)
    base_new = LatticeClass._of(tuple(n * q for n in bn) + (lam.numerator * den,), den * q)
    action = CrossingAction("blow_up", inclusion.target.labels[-1], None, None)
    return _Raw(inclusion.target, base_new, slope_new), action, inclusion


def _blow_down_point(raw: _Raw, lam: Fraction) -> tuple[_Raw, CrossingAction]:
    vanishing = _vanishing_classes(raw, lam)
    if not vanishing:
        raise WallMismatchError(
            "declared coindex-2 level, but no exceptional area vanishes here "
            "(critical values are forced by the class areas)",
            wall=lam,
        )
    c = vanishing[0]
    pairing = -raw.lattice.pair(raw.slope, c)  # pair(e, C) = -pair(B, C)
    if pairing != 1:
        raise EulerInconsistencyError(
            f"blow-down of {raw.lattice.name_of(c)} needs pair(e,C) = 1, got {fmt_q(pairing)}",
            wall=lam,
        )
    bdm = blow_down_data(raw.lattice, c)
    # numerators of the wall class A + lam*B over den*q (B is integral here)
    (bn, den), sn = (raw.base.nums, raw.base.den), raw.slope.nums
    q, p = lam.denominator, lam.numerator * den
    wall = tuple(q * b + p * s for b, s in zip(bn, sn))
    if raw.lattice.dot(wall, c.nums) != 0:
        raise InternalInvariantError("wall class not orthogonal to the vanishing class")
    # e' = push(e + C), so B' = push(B - C) and A' = push(wall) - lam*B'
    sn_new = bdm.push(tuple(s - x for s, x in zip(sn, c.nums)))
    base_new = LatticeClass._of(tuple(w - p * s for w, s in zip(bdm.push(wall), sn_new)), den * q)
    action = CrossingAction("blow_down", raw.lattice.name_of(c), pairing, bdm)
    return _Raw(bdm.target, base_new, LatticeClass._of(sn_new, 1)), action


def _shift_surface(
    raw: _Raw, lam: Fraction, f: LatticeClass, up: bool
) -> tuple[_Raw, CrossingAction]:
    slope_new = raw.slope - f if up else raw.slope + f  # e shifts by +f or -f
    base_new = raw.base + lam * (raw.slope - slope_new)
    kind = "euler_shift_up" if up else "euler_shift_down"
    return _Raw(raw.lattice, base_new, slope_new), CrossingAction(
        kind, raw.lattice.name_of(f), None, None
    )


# ---------------------------------------------------------------------------
# level crossing with consistency screening
# ---------------------------------------------------------------------------


def _canonicalize(raw: _Raw) -> tuple[_Raw, LatticeMap | None]:
    change = canonical_presentation(raw.lattice)
    if change is None:
        return raw, None
    return _Raw(change.target, change.apply(raw.base), change.apply(raw.slope)), change


def _screen_interval(raw: _Raw, interval: Interval) -> IntervalRecord:
    """Assemble the family over a regular interval, screen it and record it.

    Raises when the family visibly leaves the symplectic cone at the interval
    midpoint or when some marked area has a root strictly inside the
    interval, which would be a wall the scenario failed to declare.  The
    rigidity lookup reuses the cone verdict.
    """
    family = AffineClassFamily(raw.lattice, raw.base, raw.slope, interval)
    check = symplectic_cone_check(family, interval.midpoint)
    if check.failed:
        name = raw.lattice.name_of(check.witness) if check.witness else "volume"
        raise InconsistentDataError(
            f"symplectic cone violated on {interval}: {check.reason} ({name})",
            wall=interval.lo,
        )
    root = family.areas.first_root_inside(interval.lo, interval.hi)
    if root is not None:
        raise InconsistentDataError(
            f"area of {raw.lattice.name_of(root[0])} vanishes at {fmt_q(root[1])} "
            "inside a regular interval: an undeclared wall",
            wall=interval.lo,
        )
    return IntervalRecord(family, lookup(family, check.status is True))


def cross_level(
    family: AffineClassFamily, level: CriticalLevel, next_hi
) -> tuple[IntervalRecord, CrossingEvent]:
    """Cross one critical level, simple or not.

    All coindex-2 actions run first (point blow-downs in ascending vanishing
    class order, then surface down-shifts), then all index-2 actions (point
    blow-ups, then surface up-shifts).  Declared surface classes are
    transported through the level's own blow-downs and blow-ups; each must
    pass the rank check, adjunction (when a genus is declared) and have
    positive area at the wall.  Every lattice a walk reaches is default or
    hyperbolic: blow-downs land on one (``blow_down_data``), each blow-up is
    presented at once (``canonical_presentation``), and a level leaving
    K.K <= 0 (more than eight blow-ups) is refused at its wall.
    """
    lam = level.value
    if family.interval.hi != lam:
        raise PreconditionError(
            f"state interval {family.interval} does not end at the wall {fmt_q(lam)}"
        )
    raw = _Raw(family.lattice, family.base, family.slope)
    actions: list[CrossingAction] = []
    transported: dict[int, LatticeClass] = {}

    def transport(f: LatticeMap) -> None:
        for key, cls_ in transported.items():
            transported[key] = f.apply(cls_)

    surfaces_down: list[tuple] = []
    surfaces_up: list[tuple] = []
    points_down = 0
    points_up = 0
    for i, comp in enumerate(level.components):
        if comp.kind is ComponentKind.POINT:
            if comp.index == 4:
                points_down += 1
            elif comp.index == 2:
                points_up += 1
            else:
                raise WalkError(
                    f"cannot cross an interior point of index {comp.index}", wall=lam
                )
        elif comp.kind is ComponentKind.SURFACE:
            if comp.reduced_class is None:
                raise WalkError("surface component without a reduced class", wall=lam)
            if comp.reduced_class.rank != raw.lattice.rank:
                raise SurfaceRankError(
                    f"surface class rank {comp.reduced_class.rank} does not match the "
                    f"reduced space rank {raw.lattice.rank}",
                    wall=lam,
                )
            f, lat = comp.reduced_class, raw.lattice
            adjunction = lat.pair(f, f) + lat.pair(lat.canonical, f)
            if comp.genus is not None and adjunction != 2 * comp.genus - 2:
                raise WalkError(
                    f"surface of genus {comp.genus} in class {lat.name_of(f)} breaks "
                    f"adjunction: F.F + K.F = {fmt_q(adjunction)}, not {2 * comp.genus - 2}",
                    wall=lam,
                )
            area = lat.pair(raw.base + lam * raw.slope, f)
            if area <= 0:
                raise WalkError(
                    f"surface in class {lat.name_of(f)} has area {fmt_q(area)} at its wall; "
                    "a symplectic surface needs positive area",
                    wall=lam,
                )
            transported[i] = comp.reduced_class
            (surfaces_down if comp.index == 4 else surfaces_up).append(i)
        else:
            raise WalkError("codimension-2 component at an interior level", wall=lam)

    for _ in range(points_down):
        raw, action = _blow_down_point(raw, lam)
        actions.append(action)
        transport(action.blow_down_map)
    leftovers = _vanishing_classes(raw, lam)
    if leftovers:
        raise WallMismatchError(
            f"exceptional class {raw.lattice.name_of(leftovers[0])} vanishes here but "
            "no matching coindex-2 component is declared",
            wall=lam,
        )
    for i in sorted(surfaces_down, key=lambda i: transported[i].coeffs):
        raw, action = _shift_surface(raw, lam, transported[i], up=False)
        actions.append(action)
    for _ in range(points_up):
        raw, action, inclusion = _blow_up_point(raw, lam)
        actions.append(action)
        transport(inclusion)
        raw, change = _canonicalize(raw)
        if change is not None:
            transport(change)
    for i in sorted(surfaces_up, key=lambda i: transported[i].coeffs):
        raw, action = _shift_surface(raw, lam, transported[i], up=True)
        actions.append(action)

    try:
        _require_finite(raw.lattice.gram, raw.lattice.canonical.nums)
    except PreconditionError:
        raise WalkError(
            f"the crossing leaves {raw.lattice.blowup_count} blow-ups; beyond 8 the "
            "reduced space has infinitely many exceptional classes",
            wall=lam,
        ) from None
    return _screen_interval(raw, Interval(lam, next_hi)), CrossingEvent(lam, tuple(actions))


# ---------------------------------------------------------------------------
# extremal levels
# ---------------------------------------------------------------------------


def init_from_minimum(data: FixedPointData) -> tuple[IntervalRecord, bool]:
    """The record of the first regular interval.

    Isolated minimum: the reduction just above the bottom is the Hopf
    fibration over the plane, Euler class the negative line generator, line
    area ``t``.  A declared 4-dimensional minimum is taken at face value
    (second return value flags the trace as uncertified) and presented like
    every blow-up (``_canonicalize``): a default or hyperbolic gram is
    relabelled ``L, E1, ...`` or ``A, B`` in place, any other gram is moved
    onto the default or ruling basis.  A declared lattice with K.K <= 0, with
    K.K other than 10 - rank (refused before any search) or with no such
    presentation is refused at its wall.  Codimension-4 surface extrema are
    out of scope.
    """
    if len(data.levels) < 2:
        raise PreconditionError("scenario needs at least two levels")
    first = data.levels[0]
    next_hi = data.levels[1].value
    comp = first.components[0]
    if first.value != 0:
        raise PreconditionError("minimum critical value must be normalised to 0")
    if comp.kind is ComponentKind.POINT:
        lat = default_lattice(0)
        raw = _Raw(lat, lat.cls(0), lat.basis(0))
        return _screen_interval(raw, Interval(0, next_hi)), False
    if comp.kind is ComponentKind.FOURFOLD:
        declared = declared_family(comp, 0)
        try:
            raw, _ = _canonicalize(_Raw(declared.lattice, declared.base, declared.slope))
        except PreconditionError as err:
            raise UnsupportedExtremumError(f"declared minimum: {err}", wall=first.value) from None
        return _screen_interval(raw, Interval(0, next_hi)), True
    raise UnsupportedExtremumError(
        "codimension-4 surface extremum: reduced spaces near it are sphere bundles, "
        "which this engine does not model",
        wall=first.value,
    )


def finalize_at_maximum(family: AffineClassFamily, level: CriticalLevel) -> FinalReport:
    """Check the arriving family against the declared maximum.

    All failures are report entries, never exceptions.  An isolated maximum
    needs the reduced space collapsed to a plane of vanishing line area with
    Euler class the positive generator (the sign flip relative to the
    minimum).  A declared 4-dimensional maximum (``declared_family``) needs
    the arriving lattice type, then the arriving state fingerprint; the
    first field that differs is named.
    """
    lam_max = level.value
    checks: list[FinalCheck] = []
    comp = level.components[0]
    lat, e = family.lattice, family.euler
    if comp.kind is ComponentKind.POINT:
        collapsed = lat.rank == 1 and lat.gram == ((1,),)
        checks.append(
            FinalCheck(
                "reduced space must collapse",
                collapsed,
                "" if collapsed else f"rank {lat.rank} lattice remains at the maximum",
            )
        )
        if collapsed:
            area = family.area(lat.basis(0), lam_max)
            checks.append(
                FinalCheck(
                    "line area vanishes at the maximum",
                    area == 0,
                    f"area(L)({fmt_q(lam_max)}) = {fmt_q(area)}",
                )
            )
            positive = e == lat.basis(0)
            checks.append(
                FinalCheck(
                    "final Euler class is the positive generator",
                    positive,
                    f"e = {lat.name_of(e)}",
                )
            )
    elif comp.kind is ComponentKind.FOURFOLD:
        declared = declared_family(comp, lam_max)
        decl_type, arr_type = _lattice_type(declared.lattice), _lattice_type(lat)
        checks.append(
            FinalCheck(
                "maximum lattice type matches",
                decl_type == arr_type,
                f"declared {decl_type}, arrived {arr_type}",
            )
        )
        if decl_type == arr_type:
            try:
                decl_fp = state_fingerprint(declared, lam_max)
            except PreconditionError as err:
                checks.append(FinalCheck("maximum marked classes are finite", False, str(err)))
            else:
                diff = decl_fp.first_difference(state_fingerprint(family, lam_max))
                checks.append(
                    FinalCheck(
                        "maximum fingerprint matches",
                        diff is None,
                        "" if diff is None else f"{diff} differs",
                    )
                )
    else:
        checks.append(
            FinalCheck(
                "maximum component shape supported",
                False,
                "codimension-4 surface maximum is out of scope",
            )
        )
    return FinalReport(lam_max, tuple(checks))


# ---------------------------------------------------------------------------
# full walks
# ---------------------------------------------------------------------------


def _restricted(rec: IntervalRecord, lo, hi) -> IntervalRecord:
    """The record of the same family over the interval ``(lo, hi)``."""
    family = rec.family.with_interval(Interval(lo, hi))
    return IntervalRecord(family, lookup(family))


def run_walk(data: FixedPointData, *, validated: bool = False) -> WalkTrace:
    """Initialise at the minimum, cross every level in order, finalise.

    Deterministic; raises a ``WalkError`` naming the failing wall when a
    crossing is impossible, and returns a trace whose final report may fail
    when only the maximum data is inconsistent.  Callers that have already
    run ``validate_structure`` on ``data`` pass ``validated=True``.
    """
    if not validated:
        report = validate_structure(data)
        if not report.ok:
            raise PreconditionError(
                f"scenario {data.name!r} fails validation: " + "; ".join(report.lines())
            )
    rec, declared_extremum = init_from_minimum(data)
    intervals = [rec]
    events: list[CrossingEvent] = []
    for i in range(1, len(data.levels) - 1):
        rec, event = cross_level(rec.family, data.levels[i], data.levels[i + 1].value)
        events.append(event)
        intervals.append(rec)
    final = finalize_at_maximum(rec.family, data.levels[-1])
    return WalkTrace(data.name, tuple(intervals), tuple(events), final, declared_extremum)


def split_trace(trace: WalkTrace, t) -> tuple[WalkTrace, WalkTrace]:
    """Cut a trace at a regular value strictly inside one of its intervals."""
    t = exact_rational(t)
    idx = None
    for i, rec in enumerate(trace.intervals):
        if rec.interval.lo < t < rec.interval.hi:
            idx = i
            break
        if rec.interval.lo == t or rec.interval.hi == t:
            raise PreconditionError(
                f"cannot split at {fmt_q(t)}: seams must be regular values, not walls"
            )
    if idx is None:
        raise PreconditionError(f"{fmt_q(t)} lies outside the moment interval")
    rec = trace.intervals[idx]
    left = WalkTrace(
        f"{trace.name}[<{fmt_q(t)}]",
        trace.intervals[:idx] + (_restricted(rec, rec.interval.lo, t),),
        trace.events[:idx],
        None,
        trace.declared_extremum,
    )
    right = WalkTrace(
        f"{trace.name}[>{fmt_q(t)}]",
        (_restricted(rec, t, rec.interval.hi),) + trace.intervals[idx + 1 :],
        trace.events[idx:],
        trace.final_report,
        trace.declared_extremum,
    )
    return left, right


def compose_traces(left: WalkTrace, right: WalkTrace) -> WalkTrace:
    """Glue two traces along a common regular seam.

    The seam fingerprints must agree exactly; the first divergent component
    is named in the error.  The boundary intervals merge into one regular
    interval, so recomposing a split reproduces the original fingerprints.
    """
    if left.final_report is not None:
        raise PreconditionError("left trace is closed at its maximum; nothing to glue")
    seam = left.intervals[-1].interval.hi
    if right.intervals[0].interval.lo != seam:
        raise GluingError(
            f"seam mismatch: left ends at {fmt_q(seam)}, right starts at "
            f"{fmt_q(right.intervals[0].interval.lo)}"
        )
    if left.events and left.events[-1].value >= seam:
        raise PreconditionError("seam coincides with a critical value of the left trace")
    if right.events and right.events[0].value <= seam:
        raise PreconditionError("seam coincides with a critical value of the right trace")
    diff = state_fingerprint(left.intervals[-1].family, seam).first_difference(
        state_fingerprint(right.intervals[0].family, seam)
    )
    if diff is not None:
        raise GluingError(f"seam fingerprints diverge at {fmt_q(seam)}: {diff}")
    rec = left.intervals[-1]
    merged = _restricted(rec, rec.interval.lo, right.intervals[0].interval.hi)
    return WalkTrace(
        f"{left.name}+{right.name}",
        left.intervals[:-1] + (merged,) + right.intervals[1:],
        left.events + right.events,
        right.final_report,
        left.declared_extremum or right.declared_extremum,
    )
