"""Affine-in-t families of reduced cohomology classes: the walk's state.

Over an interval of regular moment values the reduced symplectic class moves
along an affine path ``[w(t)] = A + t*B`` (Duistermaat-Heckman).  The slope
``B`` is pinned to the Euler class of the reduction bundle by the single
global sign convention of this package:

    area-slope(C) = -pair(e, C)   for every class C,

equivalently ``B = -e``.  An ``AffineClassFamily`` (lattice, base, slope,
interval) is all the walk carries over one interval: the Euler class is
stored once per walk frame, as ``WalkFrame.euler = -B``, and
``AffineClassFamily.euler`` reads it there.  With the minimum normalised to 0
and the initial bundle the Hopf fibration (Euler class the negative
generator), this makes the line-class area equal to ``t`` and the area of a
fresh exceptional class equal to ``t - wall``; growing areas, as they must be.

Areas are kept as integers over the base's denominator: a marked area is
``(c + s*den*t) / den`` with integer pairings ``c`` (of the base's
numerators) and ``s`` (of the integral slope).  Between walls only the base
moves, so a ``WalkFrame``, built once per (lattice, ``B = -e``), holds all
an interval needs that does not depend on its base: the marked classes with
their ``s`` in table order, the rigidity lookup's facts, the trace row's
templates and the walk's crossing edges out of it.  A family pairs its base
once, into one row of ``c``, with the frame the walk hands it; the frame, the
row and volume numerators are built on first read, shared by ``with_interval``.
One integer pass over that row (``AffineClassFamily.screen``) at the ends an
``Interval`` reads once decides the cone check at the midpoint, the
undeclared-wall screen and the rigidity lookup's positivity test, with the
volume's sign at the unreduced midpoint, so an ``Interval`` builds its
midpoint ``Fraction`` only when one is read.  The emitters and the
fingerprint read the same row and numerators; a volume becomes one
``Fraction`` only where its value is read (``AffineClassFamily.volume``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul

from .formatting import exact_rational, fmt_q, fmt_term
from .lattice import (
    IntersectionLattice,
    LatticeClass,
    exceptional_classes,
    ruling_classes,
)
from .record import Record, set_field


class Interval(Record):
    """A rational interval of moment values.  The uncompared ``_ends`` holds the
    ends' numerators and denominators ``(p1, q1, p2, q2)``, read once here;
    ``_mid`` caches the midpoint, built on first read."""

    __slots__ = ("lo", "hi", "_ends", "_mid")

    def __init__(self, lo, hi):
        a, b = exact_rational(lo), exact_rational(hi)
        ends = p1, q1, p2, q2 = a.numerator, a.denominator, b.numerator, b.denominator
        if p1 * q2 > p2 * q1:
            raise ValueError(f"empty interval ({lo}, {hi})")
        set_field(self, "lo", a)
        set_field(self, "hi", b)
        set_field(self, "_ends", ends)
        set_field(self, "_mid", None)

    def contains(self, t) -> bool:
        """Membership in the closed interval: the endpoints are admitted."""
        t = exact_rational(t)
        (p1, q1, p2, q2), p, q = self._ends, t.numerator, t.denominator
        return p1 * q <= p * q1 and p * q2 <= p2 * q

    @property
    def midpoint(self) -> Fraction:
        if self._mid is None:
            set_field(self, "_mid", (self.lo + self.hi) / 2)
        return self._mid

    def __repr__(self) -> str:
        return f"({fmt_q(self.lo)},{fmt_q(self.hi)})"


class AffineClassFamily(Record):
    """The reduced class ``A + t*B`` over an interval of regular values.

    What does not depend on the interval is built on first read and kept in
    uncompared slots, which ``with_interval`` shares: ``frame``, the walk frame
    of the lattice and slope; ``row``, the base's numerators paired with every
    marked class in the frame's order (over the denominator ``base.den``);
    and ``volume_nums``, ``2*den^2`` times the volume's coefficients ``c0,
    c1, c2``, which ``volume`` evaluates.  The walk builds its
    families with ``_at``, which skips the checks and takes the frame, and the
    row when a crossing built it.  The uncompared ``rigidity`` is the lookup
    the walk made when it screened the family; a walk trace's intervals are
    these screened families.
    """

    __slots__ = ("lattice", "base", "slope", "interval", "_frame", "_row", "_volume_nums",
                 "_rigidity")

    def __init__(self, lattice: IntersectionLattice, base: LatticeClass, slope: LatticeClass,
                 interval: Interval):
        if base.rank != lattice.rank or slope.rank != lattice.rank:
            raise ValueError("family classes must match the lattice rank")
        if not slope.is_integral:
            raise ValueError("family slope must be integral (it is minus an Euler class)")
        _fill(self, lattice, base, slope, interval, None, None, None)

    @classmethod
    def _at(cls, lattice, base, slope, interval, frame=None, row=None) -> "AffineClassFamily":
        """The family without ``__init__``'s checks, which the walk's surgeries keep,
        and with the frame and row its caller holds."""
        return _fill(object.__new__(cls), lattice, base, slope, interval, frame, row, None)

    @property
    def euler(self) -> LatticeClass:
        """The frame's Euler class ``e = -B``; ``PreconditionError`` where ``frame`` raises it."""
        return self.frame.euler

    @property
    def rigidity(self):
        """The walk's ``rigidity.lookup`` of the family on its interval; ``None`` if unscreened."""
        return self._rigidity

    def with_interval(self, interval: Interval) -> "AffineClassFamily":
        """The family over another interval, sharing the frame, row and volume, not the rigidity."""
        return _fill(object.__new__(AffineClassFamily), self.lattice, self.base, self.slope,
                     interval, self._frame, self._row, self._volume_nums)

    @property
    def frame(self) -> "WalkFrame":
        """The walk frame of the lattice and slope, looked up on first read."""
        if self._frame is None:
            set_field(self, "_frame", walk_frame(self.lattice, self.slope))
        return self._frame

    @property
    def row(self) -> tuple[int, ...]:
        """The pairings ``c`` of the base's numerators, in the frame's order."""
        if self._row is None:
            set_field(self, "_row", self.frame.row_of(self.base.nums))
        return self._row

    @property
    def volume_nums(self) -> tuple[int, int, int]:
        """``2*den^2`` times the volume's coefficients ``c0, c1, c2``."""
        if self._volume_nums is None:
            dot, bn, den = self.lattice.dot, self.base.nums, self.base.den
            set_field(self, "_volume_nums", (dot(bn, bn), 2 * dot(bn, self.slope.nums) * den,
                                             self.frame.ss * den * den))
        return self._volume_nums

    def volume(self, t) -> Fraction:
        """The volume ``c0 + c1*t + c2*t^2`` at ``t``, exact."""
        t = exact_rational(t)
        return Fraction(self._volume_num(t.numerator, t.denominator),
                        2 * (self.base.den * t.denominator) ** 2)

    def screen(self, interval: Interval) -> tuple[ConeCheck, tuple[LatticeClass, Fraction] | None]:
        """The one sign pass over the row on ``interval``: the cone verdict at its
        midpoint, and the first class of ``walls`` whose area has a root strictly
        inside, with the root.

        The ends ``p1/q1`` and ``p2/q2`` come from ``interval._ends``.  At the
        unreduced midpoint ``P/Q = (p1*q2 + p2*q1) / (2*q1*q2)`` an area has the
        sign of ``c*Q + s*den*P``; the verdict is the first class of ``cone``
        where that is not positive, then the volume's sign there; unknown off
        the default and ruling bases (``cone`` is ``None``).  At the ends an
        area is ``a/(den*q1)`` and ``b/(den*q2)`` with ``a = c*q1 + s*den*p1``
        and ``b = c*q2 + s*den*p2``, and it has a root strictly inside where
        ``a*b < 0``.  Each loop reads only its own classes.
        """
        p1, q1, p2, q2 = interval._ends
        frame, row, den = self.frame, self.row, self.base.den
        slopes, cone = frame.slopes, frame.cone
        if cone is None:
            check = _UNKNOWN
        else:
            mid, m = p1 * q2 + p2 * q1, 2 * q1 * q2
            n = den * mid
            for j in cone:
                if row[j] * m + slopes[j] * n <= 0:
                    kind = ("line" if j in frame.line else
                            "ruling" if j in frame.rulings else "exceptional")
                    check = ConeCheck(False, frame.classes[j], f"{kind} area not positive")
                    break
            else:
                check = (_IN_CONE if self.volume_sign_at(mid, m) > 0 else
                         ConeCheck(False, None, "volume not positive"))
        d1, d2 = den * p1, den * p2
        for j in frame.walls:
            c, s = row[j], slopes[j]
            if (c * q1 + s * d1) * (c * q2 + s * d2) < 0:
                return check, (frame.classes[j], Fraction(-c, den * s))
        return check, None

    def volume_sign_at(self, p: int, q: int) -> int:
        """The sign of the volume at ``t = p/q`` (``q > 0``, not necessarily in
        lowest terms), from ``2*den^2*q^2`` times it."""
        n = self._volume_num(p, q)
        return (n > 0) - (n < 0)

    def _volume_num(self, p: int, q: int) -> int:
        """``2*den^2*q^2`` times the volume at ``t = p/q``."""
        bb, bs, ss = self.volume_nums
        return bb * q * q + bs * p * q + ss * p * p


def _fill(family, lattice, base, slope, interval, frame, row, volume_nums):
    """Set the four fields, the three caches (``None``: built on first read) and no rigidity."""
    set_field(family, "lattice", lattice)
    set_field(family, "base", base)
    set_field(family, "slope", slope)
    set_field(family, "interval", interval)
    set_field(family, "_frame", frame)
    set_field(family, "_row", row)
    set_field(family, "_volume_nums", volume_nums)
    set_field(family, "_rigidity", None)
    return family


class WalkFrame(Record):
    """The part of a family's areas fixed by its lattice and slope ``B = -e``.

    The marked classes in table order (the line, the rulings, then the
    exceptional classes), the gram applied to each (``duals``: a base pairs
    with all of them in one matrix product) and their slope pairings ``s``;
    the index ranges ``line`` (empty off the default form) and ``rulings``
    (the exceptional classes start at ``rulings.stop``), and the indices
    ``AffineClassFamily.screen`` reads, ``cone`` (the Li-Liu bounds of the
    lattice's ``form``, ``None`` off both forms) and ``walls`` (the moving
    areas, ``s != 0``);
    ``falling``, the exceptional ``(class, s, i)`` with ``s < 0`` by
    coefficients (``i`` its index in a row); ``euler``, the Euler class
    ``e = -B`` itself, built once; ``ss = B.B`` and constants, the
    lattice's type and ``K.K`` among them; ``k``, the rank minus one.  The
    rigidity lookup's ``same_slope``: the exceptional indices grouped by
    equal ``s`` in groups of two or more.  The trace row's templates:
    ``reported`` holds ``(i, "name=", s, term)`` per class a row
    reports (the line, or else the rulings, then the exceptional classes),
    ``term`` its unsigned ``t`` term such as ``2*t``; ``volume_head`` is the
    volume's ``t^2`` term (``c2 = ss/2``) and ``euler_text`` the Euler
    fingerprint ``e.e=..|e.K=..|e.C=[..]``.  A frame is a node of the walk's
    graph: the uncompared ``_up`` holds its one blow-up edge and ``_down`` one
    blow-down edge per ``falling`` class, each ``None`` until the walk's first
    visit builds it.
    """

    __slots__ = ("classes", "duals", "slopes", "line", "rulings", "cone", "walls", "falling",
                 "euler", "ss", "euler_self", "euler_canonical", "lattice_type", "canonical_self",
                 "k", "same_slope", "reported", "volume_head", "euler_text", "_up", "_down")

    def row_of(self, nums) -> tuple[int, ...]:
        """The pairings of a base's numerators with every marked class, in table order."""
        return tuple(sum(map(mul, d, nums)) for d in self.duals)


@lru_cache(maxsize=None)
def walk_frame(lattice: IntersectionLattice, slope: LatticeClass) -> WalkFrame:
    """The frame of a lattice and a slope, built once per process and shared by
    every family on them (``AffineClassFamily.frame``)."""
    sn, dot, kn, form = slope.nums, lattice.dot, lattice.canonical.nums, lattice.form
    line = (lattice.basis(0),) if form == "default" else ()
    rulings, exceptional = ruling_classes(lattice), exceptional_classes(lattice)
    classes = line + rulings + exceptional
    duals = tuple(tuple(sum(map(mul, row, x.nums)) for row in lattice.gram) for x in classes)
    slopes = tuple(sum(map(mul, d, sn)) for d in duals)
    n, r, end = len(line), len(line) + len(rulings), len(classes)
    # Li-Liu: the line and exceptional areas bound the cone, on the ruling form the rulings
    cone = (*range(n), *range(r, end)) if form == "default" else (
        tuple(range(n, r)) if form else None)
    # the exceptional classes and the line, else the rulings; a constant area has no root
    walls = tuple(j for j in (*range(r, end), *range(n)) or range(n, r) if slopes[j])
    falling = sorted(((x, s, i) for i, (x, s) in enumerate(zip(exceptional, slopes[r:]), r)
                      if s < 0), key=lambda m: m[0].nums)
    groups: dict[int, list[int]] = {}
    for j in range(r, end):
        groups.setdefault(slopes[j], []).append(j)
    ss, ek = dot(sn, sn), -dot(sn, kn)
    shown = (*(range(n) or range(n, r)), *range(r, end))  # the line or the rulings
    reported = tuple((j, f"{lattice.name_of(classes[j])}=", slopes[j],
                      fmt_term(abs(slopes[j]), 1, "t")) for j in shown)
    # the Euler pairings of the exceptional and ruling classes: all but the line
    euler_text = f"e.e={ss}|e.K={ek}|e.C=[{','.join(map(str, sorted(-s for s in slopes[n:])))}]"
    frame = WalkFrame(classes, duals, slopes, range(n), range(n, r), cone, walls,
                      tuple(falling), -slope, ss, Fraction(ss), Fraction(ek),
                      (lattice.rank, "even" if lattice.is_even else "odd", lattice.signature),
                      Fraction(dot(kn, kn)), lattice.blowup_count,
                      tuple(tuple(g) for g in groups.values() if len(g) > 1), reported,
                      fmt_term(ss, 2, "t^2"), euler_text)
    set_field(frame, "_up", None)
    set_field(frame, "_down", [None] * len(falling))
    return frame


class ConeCheck(Record):
    """Outcome of a symplectic-cone membership test.

    ``status`` is True/False on the default and ruling forms and ``None``
    ("unknown") elsewhere; a False carries the violating class (``None``
    when only the volume fails).
    """

    __slots__ = ("status", "witness", "reason")


_IN_CONE = ConeCheck(True, None, "ok")
_UNKNOWN = ConeCheck(None, None, "non-default basis")


def symplectic_cone_check(family: AffineClassFamily, t) -> ConeCheck:
    """The criterion of Li-Liu (J. Differential Geom. 58, 2001) at ``t``.

    On a default form the symplectic cone of a rational surface with the
    standard canonical class is the set of classes of positive square
    (positive volume), in the forward cone (positive line area), positive on
    every exceptional class (a complete list; ``PreconditionError`` where
    K.K <= 0 makes it infinite).  On the sphere product's ruling form
    (K = -2A-2B) it is the set of classes positive on both rulings A and B.
    The witness is the first class of non-positive area; off both forms
    (``lattice.form is None``) "unknown"; ``ValueError`` when ``t`` lies
    outside the family's interval.
    The verdict is ``AffineClassFamily.screen``'s on the point interval ``[t, t]``.
    """
    t = exact_rational(t)
    if not family.interval.contains(t):
        raise ValueError(f"moment value {fmt_q(t)} outside interval {family.interval}")
    if family.lattice.form is None:  # unknown, before any enumeration
        return _UNKNOWN
    return family.screen(Interval(t, t))[0]
