"""Affine-in-t families of reduced cohomology classes.

Over an interval of regular moment values the reduced symplectic class moves
along an affine path ``[w(t)] = A + t*B``.  The slope ``B`` is pinned to the
Euler class of the reduction bundle by the single global sign convention of
this package:

    area-slope(C) = -pair(e, C)   for every class C,

equivalently ``B = -e``.  With the minimum normalised to 0 and the initial
bundle the Hopf fibration (Euler class the negative generator), this makes
the line-class area equal to ``t`` and the area of a fresh exceptional class
equal to ``t - wall``; growing areas, as they must be.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .errors import DimensionError, DomainError
from .formatting import fmt_affine, fmt_q, fmt_quadratic
from .lattice import (
    FINITE_BLOWUP_LIMIT,
    IntersectionLattice,
    LatticeClass,
    exceptional_classes,
    ruling_classes,
)

@dataclass(frozen=True)
class Interval:
    """A rational interval of moment values."""

    lo: Fraction
    hi: Fraction

    def __init__(self, lo, hi):
        object.__setattr__(self, "lo", Fraction(lo))
        object.__setattr__(self, "hi", Fraction(hi))
        if self.lo > self.hi:
            raise ValueError(f"empty interval ({lo}, {hi})")

    def contains(self, t) -> bool:
        """Membership in the closed interval: the endpoints are admitted."""
        return self.lo <= Fraction(t) <= self.hi

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __repr__(self) -> str:
        return f"({fmt_q(self.lo)},{fmt_q(self.hi)})"


@dataclass(frozen=True)
class QuadraticPolynomial:
    """``c0 + c1*t + c2*t^2`` with rational coefficients."""

    c0: Fraction
    c1: Fraction
    c2: Fraction

    def __init__(self, c0, c1, c2):
        object.__setattr__(self, "c0", Fraction(c0))
        object.__setattr__(self, "c1", Fraction(c1))
        object.__setattr__(self, "c2", Fraction(c2))

    def __call__(self, t) -> Fraction:
        t = Fraction(t)
        return self.c0 + self.c1 * t + self.c2 * t * t

    def integrate(self, lo, hi) -> Fraction:
        """Exact definite integral via the closed-form antiderivative."""
        lo, hi = Fraction(lo), Fraction(hi)

        def anti(t: Fraction) -> Fraction:
            return self.c0 * t + self.c1 * t * t / 2 + self.c2 * t * t * t / 3

        return anti(hi) - anti(lo)

    def __str__(self) -> str:
        return fmt_quadratic(self.c0, self.c1, self.c2)


@dataclass(frozen=True)
class EulerClass:
    """The Euler class of the reduction bundle, as an integral lattice class."""

    cls: LatticeClass

    def __post_init__(self):
        if not self.cls.is_integral:
            raise ValueError("Euler class must be integral")

    def __neg__(self) -> "EulerClass":
        return EulerClass(-self.cls)


def slope_from_euler(e: EulerClass, lattice: IntersectionLattice) -> LatticeClass:
    """The unique slope B with pair(B, C) = -pair(e, C) for all C; B = -e."""
    if e.cls.rank != lattice.rank:
        raise DimensionError("Euler class rank does not match lattice rank")
    return -e.cls


@dataclass(frozen=True)
class AffineClassFamily:
    """The reduced class ``A + t*B`` over an interval of regular values."""

    lattice: IntersectionLattice
    base: LatticeClass
    slope: LatticeClass
    interval: Interval

    def __post_init__(self):
        if self.base.rank != self.lattice.rank or self.slope.rank != self.lattice.rank:
            raise DimensionError("family classes must match the lattice rank")
        if not self.slope.is_integral:
            raise ValueError("family slope must be integral (it is minus an Euler class)")

    def class_at(self, t) -> LatticeClass:
        return self.base + Fraction(t) * self.slope

    def area_affine(self, c: LatticeClass) -> tuple[Fraction, Fraction]:
        """The affine area function of ``c`` as ``(constant, slope)``."""
        return self.lattice.pair(self.base, c), self.lattice.pair(self.slope, c)

    def area(self, c: LatticeClass, t) -> Fraction:
        """Symplectic area of ``c`` at moment value ``t`` (endpoints allowed)."""
        t = Fraction(t)
        if not self.interval.contains(t):
            raise DomainError(f"moment value {fmt_q(t)} outside interval {self.interval}")
        const, slope = self.area_affine(c)
        return const + t * slope

    def area_text(self, c: LatticeClass) -> str:
        return fmt_affine(*self.area_affine(c))

    @cached_property
    def areas(self) -> "AreaTable":
        """The marked-class area table, built on first use."""
        return AreaTable.of(self)

    def with_interval(self, interval: Interval) -> "AffineClassFamily":
        return AffineClassFamily(self.lattice, self.base, self.slope, interval)

    def volume_poly(self) -> QuadraticPolynomial:
        """Half the self-pairing of the moving class, expanded in ``t``.

        This is the symplectic volume of the 4-dimensional reduced space, a
        quadratic with leading coefficient ``pair(B, B)/2``.
        """
        return self.areas.volume


@dataclass(frozen=True)
class MarkedArea:
    """The affine area ``const + slope*t`` of one marked class."""

    cls: LatticeClass
    const: Fraction
    slope: Fraction

    @property
    def euler(self) -> Fraction:
        """``pair(e, C)``, which the slope convention makes minus the area slope."""
        return -self.slope

    def at(self, t) -> Fraction:
        return self.const + t * self.slope


@dataclass(frozen=True)
class AreaTable:
    """Areas and Euler pairings of every marked class of one family.

    The marked classes are the line (default basis only), the ruling classes
    and the exceptional classes, each group in enumeration order.  Together
    with the volume polynomial and the Euler self- and canonical pairings
    (``e = -B``) this is what the interval screens, the rigidity lookup, the
    fingerprints and the emitters read, so each pairing is computed once per
    family.  Nothing here depends on the interval's endpoints.
    """

    line: Optional[MarkedArea]
    rulings: tuple[MarkedArea, ...]
    exceptional: tuple[MarkedArea, ...]
    volume: QuadraticPolynomial
    euler_self: Fraction
    euler_canonical: Fraction

    @classmethod
    def of(cls, family: AffineClassFamily) -> "AreaTable":
        lat, base, slope = family.lattice, family.base, family.slope

        def marked(c: LatticeClass) -> MarkedArea:
            return MarkedArea(c, lat.pair(base, c), lat.pair(slope, c))

        slope_self = lat.pair(slope, slope)
        return cls(
            marked(lat.basis(0)) if lat.is_default else None,
            tuple(marked(c) for c in ruling_classes(lat)),
            tuple(marked(c) for c in exceptional_classes(lat)),
            QuadraticPolynomial(lat.pair(base, base) / 2, lat.pair(base, slope), slope_self / 2),
            slope_self,
            -lat.pair(slope, lat.canonical),
        )

    @property
    def fingerprinted(self) -> tuple[MarkedArea, ...]:
        """Exceptional then ruling classes: the classes every fingerprint records."""
        return self.exceptional + self.rulings


@dataclass(frozen=True)
class ConeCheck:
    """Outcome of a symplectic-cone membership test.

    ``status`` is True/False on default bases with at most eight blow-ups
    and ``None`` ("unknown") elsewhere; a False carries the violating class
    (``None`` when only the volume fails).
    """

    status: Optional[bool]
    witness: Optional[LatticeClass]
    reason: str

    @property
    def failed(self) -> bool:
        return self.status is False


def symplectic_cone_check(family: AffineClassFamily, t) -> ConeCheck:
    """Positivity of the line area, every exceptional area, and the volume.

    On default bases with at most ``FINITE_BLOWUP_LIMIT`` blow-ups this is
    the criterion of Li-Liu (J. Differential Geom. 58, 2001): the symplectic
    cone of a rational surface with the standard canonical class is the set
    of classes of positive square (positive volume), in the forward cone
    (positive line area), that are positive on every exceptional class, and
    the exceptional list there is complete and closed-form.  Elsewhere the
    check degrades to "unknown" rather than guessing.
    """
    t = Fraction(t)
    if not family.interval.contains(t):
        raise DomainError(f"moment value {fmt_q(t)} outside interval {family.interval}")
    lat = family.lattice
    if not lat.is_default:
        return ConeCheck(None, None, "non-default basis")
    if lat.blowup_count > FINITE_BLOWUP_LIMIT:
        return ConeCheck(None, None, f"more than {FINITE_BLOWUP_LIMIT} blow-ups")
    table = family.areas
    if table.line.at(t) <= 0:
        return ConeCheck(False, table.line.cls, "line area not positive")
    for m in table.exceptional:
        if m.at(t) <= 0:
            return ConeCheck(False, m.cls, "exceptional area not positive")
    if table.volume(t) <= 0:
        return ConeCheck(False, None, "volume not positive")
    return ConeCheck(True, None, "ok")
