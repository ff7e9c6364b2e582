"""Citable rigidity facts for 4-dimensional reduced spaces.

Rigidity of a pair (reduced space, family of forms) means: cohomologous
deformations can be homotoped to isotopies, and the symplectomorphisms inside
the identity diffeomorphism component form a path-connected group.  Those are
deep external theorems of four-dimensional symplectic topology, so this
module is a lookup table of cited facts, not a computation; nothing outside
the table is ever asserted.

Statuses are ordered: certification of a walk needs every regular interval to
be rigid, possibly via the homology-restricted symplectomorphism group.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache

from .family import AffineClassFamily
from .record import Record


class RigidityStatus(enum.Enum):
    RIGID = "rigid"
    RIGID_VIA_H_RESTRICTED_SYMP = "rigid_via_H_restricted_symp"
    NOT_RIGID = "not_rigid"
    UNKNOWN = "unknown"

    @property
    def certifies(self) -> bool:
        return self in (
            RigidityStatus.RIGID,
            RigidityStatus.RIGID_VIA_H_RESTRICTED_SYMP,
        )


class RigidityFact(Record):
    __slots__ = ("key", "status", "citation", "scope")


# Citations point at the 4-dimensional symplectic topology literature the
# facts come from.  No uncited facts are admitted.
FACTS: tuple[RigidityFact, ...] = (
    RigidityFact(
        "plane",
        RigidityStatus.RIGID,
        "McDuff, From deformation to isotopy (rational surfaces); "
        "Gromov, Pseudo-holomorphic curves (Symp of the plane is connected)",
        "projective plane, any positive line area",
    ),
    RigidityFact(
        "plane-one-blowup",
        RigidityStatus.RIGID,
        "McDuff, From deformation to isotopy; Gromov; Abreu-McDuff, "
        "Topology of symplectomorphism groups of rational ruled surfaces",
        "one-point blow-up of the plane, positive areas",
    ),
    RigidityFact(
        "sphere-product",
        RigidityStatus.RIGID,
        "McDuff, From deformation to isotopy (rational ruled surfaces); "
        "Gromov (equal areas); Abreu-McDuff (unequal areas)",
        "product of two spheres, positive ruling areas",
    ),
    RigidityFact(
        "small-blowup-distinct-areas",
        RigidityStatus.RIGID_VIA_H_RESTRICTED_SYMP,
        "McDuff, From deformation to isotopy; Lalonde-Pinsonnault; Pinsonnault; "
        "Evans, Symplectic mapping class groups (homology-acting-trivially "
        "symplectomorphisms are path connected, at most three blow-ups)",
        "plane with two or three blow-ups, pairwise distinct exceptional areas",
    ),
    RigidityFact(
        "small-blowup-equal-areas",
        RigidityStatus.RIGID_VIA_H_RESTRICTED_SYMP,
        "Pinsonnault; Evans (symplectomorphisms permuting equal-area "
        "exceptional classes live in the connected identity component of the "
        "diffeomorphism group)",
        "plane with two or three blow-ups, some exceptional areas coincide",
    ),
    RigidityFact(
        "monotone-five-blowup",
        RigidityStatus.NOT_RIGID,
        "Seidel, Lectures on four-dimensional Dehn twists (a Dehn twist is "
        "smoothly but not symplectically isotopic to the identity on the "
        "monotone five-point blow-up)",
        "five-point blow-up carrying the anticanonical (monotone) class",
    ),
)

_FACTS_BY_KEY = {f.key: f for f in FACTS}


class RigidityResult(Record):
    __slots__ = ("status", "fact", "detail")


def _monotone_moment(family: AffineClassFamily) -> Fraction | None:
    """Moment value in the closed interval at which the family is ``s(-K)``, s > 0.

    Only asked on the default basis of five blow-ups, where ``-K = 3L - E1 -
    ... - E5``: ``w = A + tB`` is such a multiple exactly when ``3 w_i + w_0
    = 0`` for i = 1..5 and ``w_0 > 0``.  The first of those equations that
    moves with t fixes t; when none moves, the midpoint, then ``lo``, then
    ``hi`` are tried.  Returns the witness, else None.
    """
    a, b, interval = family.base.coeffs, family.slope.coeffs, family.interval
    i = next((i for i in range(1, 6) if 3 * b[i] + b[0]), None)
    if i is None:
        candidates = (interval.midpoint, interval.lo, interval.hi)
    else:
        candidates = (-(3 * a[i] + a[0]) / (3 * b[i] + b[0]),)
    for t in candidates:
        w = [x + t * y for x, y in zip(a, b)]
        if w[0] > 0 and interval.contains(t) and all(3 * x + w[0] == 0 for x in w[1:]):
            return t
    return None


def _result(key: str | None, detail: str) -> RigidityResult:
    """The result citing the fact ``key``; a key of ``None`` is an unknown status."""
    fact = _FACTS_BY_KEY.get(key)
    return RigidityResult(fact.status if fact else RigidityStatus.UNKNOWN, fact, detail)


#: one result per fixed (key, detail) pair of ``lookup``, shared by every interval given it
_fixed = lru_cache(maxsize=None)(_result)


def lookup(family: AffineClassFamily, in_cone: bool = False) -> RigidityResult:
    """Look up the rigidity status of a reduced-space family.

    Pure in basis-independent data: any canonical-class-preserving change of
    coordinates gives the same answer, and so does a relabelling.  Anything
    outside the table is ``UNKNOWN``; the table is never extrapolated.  The
    lattice's ``form`` decides first, before any enumeration: the tables
    cover the ruling form and the default form with at most eight blow-ups.
    The other facts are the blow-up count ``k`` and, at two or three
    blow-ups, the walk frame's ``same_slope`` groups, inside which two equal
    row entries are two coinciding exceptional areas.  The positivity test is
    the cone witness of the family's pass (``AffineClassFamily.screen``) over
    its interval; a caller whose screen found the family in the cone says so
    with ``in_cone``, and no pass runs here.
    """
    form, k = family.lattice.form, family.lattice.blowup_count
    if form is None or form == "default" and k > 8:
        return _fixed(None, "reduced space outside the rigidity tables")
    positive = in_cone or family.screen(family.interval)[0].witness is None
    if form == "ruling":  # positive on the rulings A and B
        if positive:
            return _fixed("sphere-product", "sphere product")
        return _fixed(None, "degenerate ruling areas on a sphere product")
    if not positive:
        return _fixed(None, "family leaves the symplectic cone")
    if k <= 1:
        return _fixed("plane", "plane") if k == 0 else _fixed("plane-one-blowup", "one blow-up")
    if k in (2, 3):
        row = family.row  # over the one denominator base.den
        if any(len({row[j] for j in group}) < len(group) for group in family.frame.same_slope):
            return _fixed("small-blowup-equal-areas", f"{k} blow-ups, coinciding exceptional areas")
        return _fixed("small-blowup-distinct-areas", f"{k} blow-ups, distinct exceptional areas")
    t_mono = _monotone_moment(family) if k == 5 else None
    if t_mono is not None:
        return _result("monotone-five-blowup", f"family carries the monotone class at t = {t_mono}")
    return _fixed(None, f"{k} blow-ups outside the certified tables")


class Certification(Record):
    __slots__ = ("level", "statuses", "reason")  # level: "certified" | "uncertified"

    @property
    def certified(self) -> bool:
        return self.level == "certified"


def certify(trace) -> Certification:
    """Minimum rigidity status over all regular intervals of a walk.

    Certified only when every interval is rigid (possibly via the restricted
    symplectomorphism group) and the walk did not start from declared
    extremal data taken at face value.
    """
    results = tuple(family.rigidity for family in trace.intervals)
    if trace.declared_extremum:
        return Certification(
            "uncertified", results, "extremal reduced data declared, taken at face value"
        )
    for family, res in zip(trace.intervals, results):
        if not res.status.certifies:
            return Certification(
                "uncertified",
                results,
                f"interval {family.interval} has rigidity status {res.status.value}: {res.detail}",
            )
    return Certification("certified", results, "all regular intervals rigid")


def citation_table() -> str:
    """Human-readable table of every admitted fact, for the CLI."""
    lines = ["rigidity facts (status | scope | citation)", "-" * 44]
    for fact in FACTS:
        lines.append(f"{fact.key}: {fact.status.value}")
        lines.append(f"    scope: {fact.scope}")
        lines.append(f"    cite:  {fact.citation}")
    return "\n".join(lines)
