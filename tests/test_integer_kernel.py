"""The integer lattice kernel against an independent rational reference.

``LatticeClass`` stores integer numerators over a shared denominator and
``IntersectionLattice.pair`` sums integer products.  The references here
work on plain tuples of ``Fraction`` (and, for one check, on ``sympy``
matrices) and share no code with the package's arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import sympy
from hypothesis import given, settings, strategies as st

from dhwalk.family import AffineClassFamily, Interval
from dhwalk.lattice import (
    LatticeClass,
    default_lattice,
    exceptional_classes,
    general_lattice,
    hyperbolic_lattice,
    ruling_classes,
)
from testutil import is_zero

# the default k = 2 lattice in the basis (L, L+E1, E2): odd, non-diagonal
NON_DIAGONAL = general_lattice(((1, 1, 0), (1, 0, 0), (0, 0, -1)), canonical=(-4, 1, 1))
LATTICES = [default_lattice(k) for k in range(6)] + [hyperbolic_lattice(), NON_DIAGONAL]

rationals = st.fractions(min_value=-12, max_value=12, max_denominator=8)


def ref_pair(gram, x, y) -> Fraction:
    n = len(gram)
    return sum(
        (Fraction(gram[i][j]) * Fraction(x[i]) * Fraction(y[j]) for i in range(n) for j in range(n)),
        Fraction(0),
    )


def sympy_pair(gram, x, y) -> Fraction:
    value = (
        sympy.Matrix([[sympy.Rational(str(c)) for c in x]])
        * sympy.Matrix(gram)
        * sympy.Matrix([sympy.Rational(str(c)) for c in y])
    )[0]
    return Fraction(int(value.p), int(value.q))


@st.composite
def lattice_with_vectors(draw, count: int):
    lat = draw(st.sampled_from(LATTICES))
    vector = st.lists(rationals, min_size=lat.rank, max_size=lat.rank).map(tuple)
    return lat, [draw(vector) for _ in range(count)]


@settings(max_examples=100)
@given(lattice_with_vectors(2))
def test_pair_matches_the_fraction_reference(drawn):
    lat, (x, y) = drawn
    got = lat.pair(LatticeClass(x), LatticeClass(y))
    assert isinstance(got, Fraction)
    assert got == ref_pair(lat.gram, x, y)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([hyperbolic_lattice(), NON_DIAGONAL]), st.data())
def test_pair_matches_sympy_off_the_diagonal(lat, data):
    vector = st.lists(rationals, min_size=lat.rank, max_size=lat.rank)
    x, y = data.draw(vector), data.draw(vector)
    assert lat.pair(LatticeClass(x), LatticeClass(y)) == sympy_pair(lat.gram, x, y)


@settings(max_examples=100)
@given(lattice_with_vectors(3), rationals, st.booleans())
def test_class_operations_match_fraction_tuples(drawn, s, repeat):
    _, (a, b, c) = drawn
    if repeat:
        b = a
    A, B, C = LatticeClass(a), LatticeClass(b), LatticeClass(c)
    for cls_, ref in ((A, a), (B, b), (C, c)):
        assert cls_.coeffs == ref
        assert cls_.den > 0 and gcd(cls_.den, *cls_.nums) == 1
        assert cls_.is_integral == all(x.denominator == 1 for x in ref)
        assert is_zero(cls_) == all(x == 0 for x in ref)
    assert (A + B).coeffs == tuple(x + y for x, y in zip(a, b))
    assert (A - B).coeffs == tuple(x - y for x, y in zip(a, b))
    assert (-A).coeffs == tuple(-x for x in a)
    assert (s * A).coeffs == tuple(s * x for x in a)
    assert (3 * A).coeffs == tuple(3 * x for x in a)
    # equal values compare and hash equal however they were built
    assert (A == B) == (a == b)
    assert A - B + B == A and hash(A - B + B) == hash(A)
    if s:
        assert (1 / s) * (s * A) == A
    assert len({A, B, C}) == len({a, b, c})
    assert [x.coeffs for x in sorted([A, B, C], key=lambda x: x.coeffs)] == sorted([a, b, c])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(LATTICES), st.data())
def test_area_table_matches_the_fraction_reference(lat, data):
    base = data.draw(st.lists(rationals, min_size=lat.rank, max_size=lat.rank))
    slope = data.draw(st.lists(st.integers(-4, 4), min_size=lat.rank, max_size=lat.rank))
    euler = [-x for x in slope]
    family = AffineClassFamily(lat, LatticeClass(base), LatticeClass(slope), Interval(0, 1))
    table = family.areas
    assert [m.cls for m in table.exceptional] == list(exceptional_classes(lat))
    assert [m.cls for m in table.rulings] == list(ruling_classes(lat))
    assert (table.line is not None) == lat.is_default
    marked = table.exceptional + table.rulings + ((table.line,) if table.line else ())
    for m in marked:
        c = m.cls.coeffs
        assert m.const == ref_pair(lat.gram, base, c)
        assert m.slope == ref_pair(lat.gram, slope, c)
        assert m.euler == ref_pair(lat.gram, euler, c)
    if table.line is not None:
        assert table.line.cls.coeffs == (1,) + (0,) * (lat.rank - 1)
    vol = table.volume
    assert (vol.c0, vol.c1, vol.c2) == (
        ref_pair(lat.gram, base, base) / 2,
        ref_pair(lat.gram, base, slope),
        ref_pair(lat.gram, slope, slope) / 2,
    )
    assert table.euler_self == ref_pair(lat.gram, euler, euler)
    assert table.euler_canonical == ref_pair(lat.gram, euler, lat.canonical.coeffs)
