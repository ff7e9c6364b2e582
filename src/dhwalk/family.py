"""Affine-in-t families of reduced cohomology classes: the walk's state.

Over an interval of regular moment values the reduced symplectic class moves
along an affine path ``[w(t)] = A + t*B`` (Duistermaat-Heckman).  The slope
``B`` is pinned to the Euler class of the reduction bundle by the single
global sign convention of this package:

    area-slope(C) = -pair(e, C)   for every class C,

equivalently ``B = -e``.  An ``AffineClassFamily`` (lattice, base, slope,
interval) is all the walk carries over one interval: the Euler class is
stored once, as the slope, and ``AffineClassFamily.euler`` gives it back as
``-B``.  With the minimum normalised to 0 and the initial bundle the Hopf
fibration (Euler class the negative generator), this makes the line-class
area equal to ``t`` and the area of a fresh exceptional class equal to
``t - wall``; growing areas, as they must be.

Areas are kept as integers over the base's denominator: a marked area is
``(c + s*den*t) / den`` with integer pairings ``c`` (of the base's
numerators) and ``s`` (of the integral slope).  Between walls only the base
moves, so a ``WalkFrame``, built once per (lattice, ``B = -e``), holds the
marked classes and their ``s`` in table order; an ``AreaTable`` pairs the
base once, into one row of ``c``.  Every sign test (the cone check, the
undeclared-wall screen, the rigidity lookup's positivity test) cross-
multiplies that row with the frame's slopes against ``t = p/q``.  The
``MarkedArea`` records, the volume polynomial and every other ``Fraction``
are built only where a value is emitted or fingerprinted.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul

from .errors import DimensionError, DomainError
from .formatting import exact_rational, fmt_q, fmt_quadratic
from .lattice import (
    IntersectionLattice,
    LatticeClass,
    exceptional_classes,
    ruling_classes,
)
from .record import Record, set_field


class Interval(Record):
    """A rational interval of moment values; ``_mid`` holds the midpoint."""

    __slots__ = ("lo", "hi", "_mid")

    def __init__(self, lo, hi):
        set_field(self, "lo", exact_rational(lo))
        set_field(self, "hi", exact_rational(hi))
        set_field(self, "_mid", (self.lo + self.hi) / 2)
        if self.lo > self.hi:
            raise ValueError(f"empty interval ({lo}, {hi})")

    def contains(self, t) -> bool:
        """Membership in the closed interval: the endpoints are admitted."""
        return self.lo <= exact_rational(t) <= self.hi

    @property
    def midpoint(self) -> Fraction:
        return self._mid

    def __repr__(self) -> str:
        return f"({fmt_q(self.lo)},{fmt_q(self.hi)})"


class QuadraticPolynomial(Record):
    """``c0 + c1*t + c2*t^2`` with rational coefficients."""

    __slots__ = ("c0", "c1", "c2")

    def __init__(self, c0, c1, c2):
        set_field(self, "c0", exact_rational(c0))
        set_field(self, "c1", exact_rational(c1))
        set_field(self, "c2", exact_rational(c2))

    def __call__(self, t) -> Fraction:
        t = exact_rational(t)
        return self.c0 + self.c1 * t + self.c2 * t * t

    def integrate(self, lo, hi) -> Fraction:
        """Exact definite integral via the closed-form antiderivative."""
        lo, hi = exact_rational(lo), exact_rational(hi)

        def anti(t: Fraction) -> Fraction:
            return self.c0 * t + self.c1 * t * t / 2 + self.c2 * t * t * t / 3

        return anti(hi) - anti(lo)

    def __str__(self) -> str:
        return fmt_quadratic(self.c0, self.c1, self.c2)


class AffineClassFamily(Record):
    """The reduced class ``A + t*B`` over an interval of regular values.

    ``_areas`` caches the marked-class area table, which does not depend on
    the interval; it is not compared.
    """

    __slots__ = ("lattice", "base", "slope", "interval", "_areas")

    def __init__(self, lattice: IntersectionLattice, base: LatticeClass, slope: LatticeClass,
                 interval: Interval):
        if base.rank != lattice.rank or slope.rank != lattice.rank:
            raise DimensionError("family classes must match the lattice rank")
        if not slope.is_integral:
            raise ValueError("family slope must be integral (it is minus an Euler class)")
        set_field(self, "lattice", lattice)
        set_field(self, "base", base)
        set_field(self, "slope", slope)
        set_field(self, "interval", interval)
        set_field(self, "_areas", None)

    @property
    def euler(self) -> LatticeClass:
        """The Euler class ``e = -B`` of the reduction bundle."""
        return -self.slope

    def area_affine(self, c: LatticeClass) -> tuple[Fraction, Fraction]:
        """The affine area function of ``c`` as ``(constant, slope)``."""
        return self.lattice.pair(self.base, c), self.lattice.pair(self.slope, c)

    def area(self, c: LatticeClass, t) -> Fraction:
        """Symplectic area of ``c`` at moment value ``t`` (endpoints allowed)."""
        t = exact_rational(t)
        if not self.interval.contains(t):
            raise DomainError(f"moment value {fmt_q(t)} outside interval {self.interval}")
        const, slope = self.area_affine(c)
        return const + t * slope

    @property
    def areas(self) -> "AreaTable":
        """The marked-class area table, built on first use."""
        if self._areas is None:
            set_field(self, "_areas", AreaTable.of(self))
        return self._areas

    def with_interval(self, interval: Interval) -> "AffineClassFamily":
        """The same family over another interval, sharing the area table."""
        family = AffineClassFamily(self.lattice, self.base, self.slope, interval)
        set_field(family, "_areas", self._areas)
        return family


class MarkedArea(Record):
    """The affine area ``const + slope*t = (c + s*den*t) / den`` of one marked class.

    ``c`` pairs the family base's numerators with the class, ``s`` pairs the
    integral slope with it and ``den`` is the base's denominator; ``const``,
    ``slope``, ``euler`` and ``at`` are the ``Fraction`` values that emitters
    and fingerprints read.
    """

    __slots__ = ("cls", "c", "s", "den")

    def __init__(self, cls: LatticeClass, c: int, s: int, den: int):
        set_field(self, "cls", cls)
        set_field(self, "c", c)
        set_field(self, "s", s)
        set_field(self, "den", den)

    @property
    def const(self) -> Fraction:
        return Fraction(self.c, self.den)

    @property
    def slope(self) -> Fraction:
        return Fraction(self.s)

    @property
    def euler(self) -> Fraction:
        """``pair(e, C)``, which the slope convention makes minus the area slope."""
        return Fraction(-self.s)

    def at(self, t) -> Fraction:
        return self.const + t * self.slope


class WalkFrame(Record):
    """The part of an area table fixed by its lattice and slope ``B = -e``.

    The marked classes in table order, the gram applied to each (``duals``:
    a base pairs with all of them in one matrix product) and their slope
    pairings ``s``; the index ranges ``line`` (empty off a default basis),
    ``rulings`` and ``exceptional``; ``falling``, the exceptional ``(class,
    s)`` pairs with ``s < 0`` by coefficients; ``ss = B.B`` and constants.
    """

    __slots__ = ("classes", "duals", "slopes", "line", "rulings", "exceptional", "falling", "ss",
                 "half_ss", "euler_self", "euler_canonical")


@lru_cache(maxsize=None)
def walk_frame(lattice: IntersectionLattice, slope: LatticeClass) -> WalkFrame:
    """The frame of a lattice and a slope, built once per process."""
    sn, dot = slope.nums, lattice.dot
    line = (lattice.basis(0),) if lattice.is_default else ()
    rulings, exceptional = ruling_classes(lattice), exceptional_classes(lattice)
    classes = line + rulings + exceptional
    duals = tuple(tuple(sum(map(mul, row, x.nums)) for row in lattice.gram) for x in classes)
    slopes = tuple(sum(map(mul, d, sn)) for d in duals)
    n, r = len(line), len(line) + len(rulings)
    falling = sorted(((x, s) for x, s in zip(exceptional, slopes[r:]) if s < 0),
                     key=lambda m: m[0].nums)
    ss = dot(sn, sn)
    return WalkFrame(classes, duals, slopes, range(n), range(n, r), range(r, len(classes)),
                     tuple(falling), ss, Fraction(ss, 2), Fraction(ss),
                     Fraction(-dot(sn, lattice.canonical.nums)))


class AreaTable(Record):
    """Areas and Euler pairings of every marked class of one family.

    The marked classes are the line (default basis only), the ruling classes
    and the exceptional classes, each group in enumeration order.  Together
    with the volume polynomial and the Euler self- and canonical pairings
    (``e = -B``) this is what the interval screens, the rigidity lookup, the
    fingerprints and the emitters read, so each pairing is computed once per
    family.  Nothing here depends on the interval's endpoints, and all but the
    base's pairings come from the ``WalkFrame``.  ``of`` pairs the base once,
    into ``_row`` (its pairings ``c`` in table order, over ``_den``) and
    ``_volume`` (``2*den^2`` times the volume's coefficients): all that the
    sign tests read.  The fields are filled in when one is first read
    (``__getattr__`` runs only while their slots are empty); the ``_`` slots
    are not compared.
    """

    __slots__ = (
        "line", "rulings", "exceptional", "volume", "euler_self", "euler_canonical",
        "_frame", "_row", "_den", "_volume",
    )

    @classmethod
    def of(cls, family: AffineClassFamily) -> "AreaTable":
        lat, slope, bn, den = family.lattice, family.slope, family.base.nums, family.base.den
        frame, bb, bs = walk_frame(lat, slope), lat.dot(bn, bn), lat.dot(bn, slope.nums)
        table = object.__new__(cls)
        set_field(table, "_frame", frame)
        set_field(table, "_row", tuple(sum(map(mul, d, bn)) for d in frame.duals))
        set_field(table, "_den", den)
        set_field(table, "_volume", (bb, 2 * bs * den, frame.ss * den * den))
        return table

    def __getattr__(self, name: str):
        if name not in self._fields:
            raise AttributeError(name)
        frame, den, (bb, bs2, _) = self._frame, self._den, self._volume
        marked = tuple(MarkedArea(x, c, s, den)
                       for x, c, s in zip(frame.classes, self._row, frame.slopes))
        n, r, den2 = frame.rulings.start, frame.exceptional.start, 2 * den * den
        volume = QuadraticPolynomial(Fraction(bb, den2), Fraction(bs2, den2), frame.half_ss)
        for field, value in zip(self._fields, (marked[0] if n else None, marked[n:r], marked[r:],
                                               volume, frame.euler_self, frame.euler_canonical)):
            set_field(self, field, value)
        return getattr(self, name)

    def _signs_at(self, t: Fraction) -> list[int]:
        """``den*q`` times every marked area at ``t = p/q``: ``c*q + s*den*p``, in table order."""
        q, p = t.denominator, t.numerator * self._den
        return [c * q + s * p for c, s in zip(self._row, self._frame.slopes)]

    def first_nonpositive(self, t: Fraction, *groups: str) -> LatticeClass | None:
        """The first class of the named frame ranges (``"line"``, ``"rulings"``,
        ``"exceptional"``) whose area at ``t`` is not positive."""
        n, frame = self._signs_at(t), self._frame
        return next((frame.classes[j] for g in groups for j in getattr(frame, g) if n[j] <= 0),
                    None)

    def first_root_inside(self, lo: Fraction, hi: Fraction) -> tuple[LatticeClass, Fraction] | None:
        """The first exceptional class, then the line, whose area has strictly
        opposite signs at ``lo`` and ``hi``, with the root between them.

        The ruling basis of a sphere product has neither, so there the rulings
        are screened: their areas bound its symplectic cone (Li-Liu).
        """
        a, b, frame = self._signs_at(lo), self._signs_at(hi), self._frame
        screened = (*frame.exceptional, *frame.line) or frame.rulings
        j = next((j for j in screened if a[j] * b[j] < 0), None)
        return None if j is None else (
            frame.classes[j], Fraction(-self._row[j], self._den * frame.slopes[j]))

    def affines(self, group: str) -> tuple[tuple[int, int], ...]:
        """The ``(c, s)`` pairs of one frame range, all over the base's denominator."""
        return tuple((self._row[j], self._frame.slopes[j]) for j in getattr(self._frame, group))

    def volume_sign_at(self, t: Fraction) -> int:
        """The sign of the volume at ``t = p/q``, from ``2*den^2*q^2`` times it."""
        bb, bs, ss = self._volume
        p, q = t.numerator, t.denominator
        n = bb * q * q + bs * p * q + ss * p * p
        return (n > 0) - (n < 0)

    @property
    def fingerprinted(self) -> tuple[MarkedArea, ...]:
        """Exceptional then ruling classes: the classes every fingerprint records."""
        return self.exceptional + self.rulings


class ConeCheck(Record):
    """Outcome of a symplectic-cone membership test.

    ``status`` is True/False on default and ruling bases and ``None``
    ("unknown") elsewhere; a False carries the violating class (``None``
    when only the volume fails).
    """

    __slots__ = ("status", "witness", "reason")

    @property
    def failed(self) -> bool:
        return self.status is False


def symplectic_cone_check(family: AffineClassFamily, t) -> ConeCheck:
    """The criterion of Li-Liu (J. Differential Geom. 58, 2001) at ``t``.

    On a default basis the symplectic cone of a rational surface with the
    standard canonical class is the set of classes of positive square
    (positive volume), in the forward cone (positive line area), positive on
    every exceptional class (a complete list; ``PreconditionError`` where
    K.K <= 0 makes it infinite).  On the sphere product's ruling basis
    (K = -2A-2B) it is the set of classes positive on both rulings A and B.
    The witness is the first class of non-positive area; elsewhere "unknown".
    """
    t = exact_rational(t)
    if not family.interval.contains(t):
        raise DomainError(f"moment value {fmt_q(t)} outside interval {family.interval}")
    lat = family.lattice
    ruled = lat.is_hyperbolic_plane  # its rulings are A and B
    if not (ruled or lat.is_default):
        return ConeCheck(None, None, "non-default basis")
    table = family.areas
    groups = ("rulings",) if ruled else ("line", "exceptional")
    witness = table.first_nonpositive(t, *groups)
    if witness is not None:
        kind = "ruling" if ruled else "line" if witness == lat.basis(0) else "exceptional"
        return ConeCheck(False, witness, f"{kind} area not positive")
    if table.volume_sign_at(t) <= 0:
        return ConeCheck(False, None, "volume not positive")
    return ConeCheck(True, None, "ok")
