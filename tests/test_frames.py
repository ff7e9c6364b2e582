"""Walk frames against area tables and vanishing screens built from ``lattice.pair``.

A frame holds what every area table of one lattice and one Euler class
shares: the marked classes with their slope pairings and the Euler
constants.  A table pairs only its base.  Here every table field and the
wall's vanishing screen are rebuilt from first definitions, on default
lattices with k <= 5, the sphere product and its one-point blow-up, with
random rational bases and integral Euler classes.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from dhwalk.errors import DimensionError, InternalInvariantError
from dhwalk.family import (
    AffineClassFamily,
    AreaTable,
    EulerClass,
    Interval,
    MarkedArea,
    QuadraticPolynomial,
    walk_frame,
)
from dhwalk.lattice import (
    LatticeClass,
    blow_up_lattice,
    default_lattice,
    exceptional_classes,
    hyperbolic_lattice,
    ruling_classes,
)
from dhwalk.walk import WalkState, _Raw, _vanishing_classes
from testutil import vanishes_from_above

LATTICES = [default_lattice(k) for k in range(6)] + [
    hyperbolic_lattice(),
    blow_up_lattice(hyperbolic_lattice()).upstairs,
]
coefficients = st.fractions(min_value=-12, max_value=12, max_denominator=8)
times = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def families(draw) -> tuple[AffineClassFamily, LatticeClass]:
    """A family on a sampled lattice with a random base and Euler class ``e``."""
    lat = draw(st.sampled_from(LATTICES))
    base = LatticeClass(draw(st.lists(coefficients, min_size=lat.rank, max_size=lat.rank)))
    e = LatticeClass(draw(st.lists(st.integers(-3, 3), min_size=lat.rank, max_size=lat.rank)))
    return AffineClassFamily(lat, base, -e, Interval(0, 1)), e


def reference_area(family: AffineClassFamily, x: LatticeClass) -> MarkedArea:
    lat, base = family.lattice, family.base
    c, s = lat.pair(base, x) * base.den, lat.pair(family.slope, x)
    assert c.denominator == 1 and s.denominator == 1
    return MarkedArea(x, c.numerator, s.numerator, base.den)


def reference_table(family: AffineClassFamily) -> AreaTable:
    lat, base, slope = family.lattice, family.base, family.slope
    return AreaTable(
        reference_area(family, lat.basis(0)) if lat.is_default else None,
        tuple(reference_area(family, x) for x in ruling_classes(lat)),
        tuple(reference_area(family, x) for x in exceptional_classes(lat)),
        QuadraticPolynomial(lat.pair(base, base) / 2, lat.pair(base, slope),
                            lat.pair(slope, slope) / 2),
        lat.pair(slope, slope),
        -lat.pair(slope, lat.canonical),
    )


def sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


@seed(8)
@settings(max_examples=100, deadline=None)
@given(families(), times)
def test_area_table_matches_the_pairings(drawn, t):
    family, _ = drawn
    table, expected = family.areas, reference_table(family)
    assert table == expected
    marked = table.fingerprinted + ((table.line,) if table.line else ())
    assert all(type(v) is int for m in marked for v in (m.c, m.s, m.den))
    vol = table.volume
    values = (table.euler_self, table.euler_canonical, vol.c0, vol.c1, vol.c2)
    assert all(type(v) is Fraction for v in values)
    assert table.volume_sign_at(t) == sign(expected.volume(t))


@seed(8)
@settings(max_examples=150, deadline=None)
@given(families(), st.data())
def test_vanishing_screen_matches_the_marked_area_predicate(drawn, data):
    family, e = drawn
    marked = [reference_area(family, x) for x in exceptional_classes(family.lattice)]
    roots = [-m.const / m.slope for m in marked if m.s]
    if roots and data.draw(st.integers(0, 2)) == 0:
        lam = data.draw(st.sampled_from(roots))
    else:
        lam = data.draw(times)
    expected = sorted((m.cls for m in marked if vanishes_from_above(m, lam)), key=lambda c: c.nums)
    assert _vanishing_classes(_Raw(family.lattice, family.base, e), lam) == expected


def test_families_share_the_frame_of_their_lattice_and_euler_class():
    lat = default_lattice(3)
    e, other = lat.cls(-1, 1, 1, 1), lat.cls(-1, 1, 1, 0)
    one = AffineClassFamily(lat, lat.cls(3, 0, 1, 2), -e, Interval(0, 1))
    two = AffineClassFamily(lat, lat.cls(Fraction(7, 2), Fraction(1, 3), 0, 1), -e, Interval(1, 2))
    three = AffineClassFamily(lat, lat.cls(3, 0, 1, 2), -other, Interval(0, 1))
    frame = walk_frame(lat, one.slope)
    assert walk_frame(lat, two.slope) is frame
    assert walk_frame(lat, three.slope) is not frame
    assert walk_frame(lat, three.slope) != frame
    # the tables hold the frame's constants and classes, not copies
    assert one.areas.euler_self is two.areas.euler_self is frame.euler_self
    assert one.areas.volume.c2 is frame.half_ss
    assert all(a.cls is b.cls for a, b in zip(one.areas.exceptional, two.areas.exceptional))


def test_state_keeps_the_euler_convention_errors():
    lat = default_lattice(1)
    e = EulerClass(lat.cls(-1, 1))
    family = AffineClassFamily(lat, lat.cls(2, 1), -e.cls, Interval(0, 1))
    assert WalkState(lat, family, e).euler is e
    with pytest.raises(InternalInvariantError, match="Euler convention"):
        WalkState(lat, family, EulerClass(lat.cls(-1, 0)))
    with pytest.raises(DimensionError, match="Euler class rank"):
        WalkState(lat, family, EulerClass(LatticeClass((-1,))))


def test_intervals_and_polynomials_keep_fraction_arguments():
    lo, hi = Fraction(1, 3), Fraction(5, 2)
    interval = Interval(lo, hi)
    assert interval.lo is lo and interval.hi is hi
    assert interval.midpoint is interval.midpoint and interval.midpoint == Fraction(17, 12)
    poly = QuadraticPolynomial(lo, 2, hi)
    assert poly.c0 is lo and type(poly.c1) is Fraction and poly(1) == Fraction(29, 6)
