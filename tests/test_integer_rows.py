"""The package's integer paths against independent ``Fraction`` references.

``LatticeClass`` stores integer numerators over one denominator, the area
tables pair each interval's base into one integer row over a shared walk
frame, and the crossings and blow-down pushforwards run on numerators.  Each
of those paths is checked here against a reference that shares no
arithmetic with it: plain tuples of ``Fraction`` (and, for one check,
``sympy`` matrices), and the per-class sign predicate, the ``MarkedArea``
fingerprint and the ``Fraction`` pushforward formula kept in ``testutil``.
The parts, in order: the lattice kernel; area tables, fingerprints and walk
frames; the marked-area readers; the blow-down pushforward; the interval
screen; crossings; the moment line, whose level values are numerators over
one denominator, against the ``Fraction`` sort, merge and checks kept in
``testutil``; interning.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm

import pytest
import sympy
from hypothesis import example, given, seed, settings, strategies as st

from dhwalk.classify import classify_isolated
from dhwalk.errors import DhwalkError, InternalInvariantError, WalkError
from dhwalk.family import (
    AffineClassFamily,
    Interval,
    symplectic_cone_check,
    walk_frame,
)
from dhwalk.formatting import fmt_q
from dhwalk.lattice import (
    IntersectionLattice,
    LatticeClass,
    _basis_change,
    blow_down_data,
    blow_up_lattice,
    default_lattice,
    exceptional_classes,
    general_lattice,
    hyperbolic_lattice,
    ruling_classes,
)
from dhwalk.rigidity import RigidityResult, lookup
from dhwalk.scenario import (
    CriticalLevel,
    FixedPointData,
    isolated_value_lattice_check,
    point_component,
    three_sphere_product_data,
    validate_structure,
)
from dhwalk.walk import (
    _blow_down_point,
    _blow_up_point,
    _screen_interval,
    _vanishing,
    state_fingerprint,
)
from testutil import (
    MarkedArea,
    area_view,
    cls,
    fraction_build,
    fraction_coeffs,
    fraction_pushforward,
    fraction_value_issues,
    fraction_value_lattice_check,
    is_zero,
    pullback_basis,
    reference_area,
    reference_fingerprint,
    reference_view,
    sign_at,
)

# ---------------------------------------------------------------------------
# lattices, strategies and references shared by every part
# ---------------------------------------------------------------------------

SPHERE = hyperbolic_lattice()
SPHERE_BLOWN_UP = blow_up_lattice(SPHERE).target  # (A, B, E1): not a default gram
# the default k = 2 lattice in the basis (L, L+E1, E2): odd, non-diagonal
NON_DIAGONAL = general_lattice(((1, 1, 0), (1, 0, 0), (0, 0, -1)), canonical=(-4, 1, 1))
DEFAULTS = [default_lattice(k) for k in range(6)]
# what a walk moves through: default lattices, the sphere product and its blow-up
WALK_LATTICES = DEFAULTS + [SPHERE, SPHERE_BLOWN_UP]
# the pairing off the diagonal: the sphere product and a non-diagonal odd gram
PAIRING_LATTICES = DEFAULTS + [SPHERE, NON_DIAGONAL]


def fractions(lo: int, hi: int, max_denominator: int):
    """Every ``p/q`` in ``[lo, hi]`` with ``q <= max_denominator``, the values of
    ``st.fractions`` with those bounds, drawn as a pair ``(q, m)`` and mapped to
    ``lo + (m mod (span*q + 1)) / q``.  One plain strategy: ``st.fractions``
    builds and validates a new strategy on every draw."""
    span = hi - lo
    pairs = st.tuples(st.integers(1, max_denominator), st.integers(0, span * max_denominator))
    return pairs.map(lambda qm: lo + Fraction(qm[1] % (span * qm[0] + 1), qm[0]))


# every strategy is built once, here or in ``vectors``, not on each draw
rationals = fractions(-12, 12, max_denominator=8)
times = fractions(-20, 20, max_denominator=12)
nums = st.integers(-60, 60)
dens = st.integers(1, 12)
slopes = st.integers(-4, 4)
eulers = st.integers(-3, 3)
ways = st.integers(0, 2)
DUMMY = cls(1)


@cache
def vectors(elements, rank: int):
    """Lists of ``rank`` draws from the module-level strategy ``elements``."""
    return st.lists(elements, min_size=rank, max_size=rank)


def sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def ref_pair(gram, x, y) -> Fraction:
    """``x^T gram y`` in ``Fraction``s, over the nonzero gram entries."""
    return sum(
        (Fraction(g) * Fraction(x[i]) * Fraction(y[j])
         for i, row in enumerate(gram) for j, g in enumerate(row) if g),
        Fraction(0),
    )


def sympy_pair(gram, x, y) -> Fraction:
    value = (
        sympy.Matrix([[sympy.Rational(str(c)) for c in x]])
        * sympy.Matrix(gram)
        * sympy.Matrix([sympy.Rational(str(c)) for c in y])
    )[0]
    return Fraction(int(value.p), int(value.q))


# ---------------------------------------------------------------------------
# the lattice kernel
# ---------------------------------------------------------------------------


RATIONAL_TUPLES = {lat.rank: vectors(rationals, lat.rank).map(tuple) for lat in PAIRING_LATTICES}


@st.composite
def lattice_with_vectors(draw, count: int):
    lat = draw(st.sampled_from(PAIRING_LATTICES))
    return lat, [draw(RATIONAL_TUPLES[lat.rank]) for _ in range(count)]


@settings(max_examples=100)
@given(lattice_with_vectors(2))
def test_pair_matches_the_fraction_reference(drawn):
    lat, (x, y) = drawn
    got = lat.pair(LatticeClass(x), LatticeClass(y))
    assert isinstance(got, Fraction)
    assert got == ref_pair(lat.gram, x, y)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([SPHERE, NON_DIAGONAL]), st.data())
def test_pair_matches_sympy_off_the_diagonal(lat, data):
    x, y = data.draw(vectors(rationals, lat.rank)), data.draw(vectors(rationals, lat.rank))
    assert lat.pair(LatticeClass(x), LatticeClass(y)) == sympy_pair(lat.gram, x, y)


@settings(max_examples=100)
@given(lattice_with_vectors(3), rationals, st.booleans())
def test_class_operations_match_fraction_tuples(drawn, s, repeat):
    _, (a, b, c) = drawn
    if repeat:
        b = a
    A, B, C = LatticeClass(a), LatticeClass(b), LatticeClass(c)
    for cls_, ref in ((A, a), (B, b), (C, c)):
        assert fraction_coeffs(cls_) == ref
        assert cls_.den > 0 and gcd(cls_.den, *cls_.nums) == 1
        assert cls_.is_integral == all(x.denominator == 1 for x in ref)
        assert is_zero(cls_) == all(x == 0 for x in ref)
    assert fraction_coeffs(A + B) == tuple(x + y for x, y in zip(a, b))
    assert fraction_coeffs(A - B) == tuple(x - y for x, y in zip(a, b))
    assert fraction_coeffs(-A) == tuple(-x for x in a)
    assert fraction_coeffs(s * A) == tuple(s * x for x in a)
    assert fraction_coeffs(3 * A) == tuple(3 * x for x in a)
    # equal values compare and hash equal however they were built
    assert (A == B) == (a == b)
    assert A - B + B == A and hash(A - B + B) == hash(A)
    if s:
        assert (1 / s) * (s * A) == A
    assert len({A, B, C}) == len({a, b, c})
    assert [fraction_coeffs(x) for x in sorted([A, B, C], key=fraction_coeffs)] == sorted([a, b, c])


# ---------------------------------------------------------------------------
# area tables and walk frames
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(PAIRING_LATTICES), st.data())
def test_area_table_matches_the_fraction_reference(lat, data):
    base = data.draw(vectors(rationals, lat.rank))
    slope = data.draw(vectors(slopes, lat.rank))
    euler = [-x for x in slope]
    family = AffineClassFamily(lat, LatticeClass(base), LatticeClass(slope), Interval(0, 1))
    table = area_view(family)
    assert [m.cls for m in table.exceptional] == list(exceptional_classes(lat))
    assert [m.cls for m in table.rulings] == list(ruling_classes(lat))
    assert (table.line is not None) == (lat.form == "default")
    marked = table.exceptional + table.rulings + ((table.line,) if table.line else ())
    for m in marked:
        c = fraction_coeffs(m.cls)
        assert m.const == ref_pair(lat.gram, base, c)
        assert m.slope == ref_pair(lat.gram, slope, c)
        assert m.euler == ref_pair(lat.gram, euler, c)
    if table.line is not None:
        assert fraction_coeffs(table.line.cls) == (1,) + (0,) * (lat.rank - 1)
    vol = table.volume
    assert (vol.c0, vol.c1, vol.c2) == (
        ref_pair(lat.gram, base, base) / 2,
        ref_pair(lat.gram, base, slope),
        ref_pair(lat.gram, slope, slope) / 2,
    )
    assert table.euler_self == ref_pair(lat.gram, euler, euler)
    assert table.euler_canonical == ref_pair(lat.gram, euler, fraction_coeffs(lat.canonical))


@st.composite
def families(draw) -> AffineClassFamily:
    """A family on a walk lattice with a random base and Euler class ``e``."""
    lat = draw(st.sampled_from(WALK_LATTICES))
    base = LatticeClass(draw(vectors(rationals, lat.rank)))
    e = LatticeClass(draw(vectors(eulers, lat.rank)))
    return AffineClassFamily(lat, base, -e, Interval(0, 1))


@seed(8)
@settings(max_examples=100, deadline=None)
@given(families(), times)
def test_area_table_matches_the_pairings(family, t):
    expected = reference_view(family)
    view = area_view(family)
    assert view == expected
    marked = view.exceptional + view.rulings + ((view.line,) if view.line else ())
    assert all(type(v) is int for m in marked for v in (m.c, m.s, m.den))
    vol = view.volume
    values = (view.euler_self, view.euler_canonical, vol.c0, vol.c1, vol.c2)
    assert all(type(v) is Fraction for v in values)
    assert family.volume_sign_at(t.numerator, t.denominator) == sign(expected.volume(t))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(DEFAULTS[:4] + [SPHERE]), st.data())
def test_volume_sign_matches_the_fraction_volume(lat, data):
    base = data.draw(vectors(times, lat.rank))
    slope = data.draw(vectors(slopes, lat.rank))
    t = data.draw(times)
    family = AffineClassFamily(lat, LatticeClass(base), LatticeClass(slope), Interval(0, 1))
    value = sum(
        (Fraction(lat.gram[i][j]) * (base[i] + t * slope[i]) * (base[j] + t * slope[j])
         for i in range(lat.rank) for j in range(lat.rank)),
        Fraction(0),
    ) / 2
    assert family.volume(t) == value
    assert family.volume_sign_at(t.numerator, t.denominator) == sign(value)


@seed(8)
@settings(max_examples=150, deadline=None)
@given(families(), st.data())
def test_state_fingerprint_matches_the_marked_area_reference(family, data):
    # at both endpoints of the family's interval (0, 1) and inside it
    way = data.draw(ways)
    t = (Fraction(0), Fraction(1))[way] if way < 2 else data.draw(fractions(0, 1, 12))
    got = state_fingerprint(family, t)
    assert got == reference_fingerprint(family, t)
    values = (got.volume, got.volume_slope, got.euler_self, got.euler_canonical,
              *(v for pair in got.marked_areas for v in pair))
    assert all(type(v) is Fraction for v in values)


@seed(8)
@settings(max_examples=150, deadline=None)
@given(families(), st.data())
def test_vanishing_screen_matches_the_fraction_condition(family, data):
    lat = family.lattice
    marked = [reference_area(lat, family.base, family.slope, x) for x in exceptional_classes(lat)]
    roots = [-m.const / m.slope for m in marked if m.s]
    if roots and data.draw(ways) == 0:
        lam = data.draw(st.sampled_from(roots))
    else:
        lam = data.draw(times)
    # zero at lam and decreasing towards it, in Fraction arithmetic
    vanishing = (m.cls for m in marked if m.const + lam * m.slope == 0 and m.slope < 0)
    expected = sorted(vanishing, key=lambda c: c.nums)
    found = _vanishing(family, lam.numerator, lam.denominator)
    assert [family.frame.falling[j][0] for j in found] == expected


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
    # the families hold the frame's constants and classes, not copies
    assert one.frame is two.frame is frame
    assert area_view(one).euler_self is area_view(two).euler_self is frame.euler_self
    assert one.volume_nums[2] == frame.ss * one.base.den ** 2
    assert two.volume_nums[2] == frame.ss * two.base.den ** 2
    assert all(a.cls is b.cls for a, b in zip(area_view(one).exceptional,
                                               area_view(two).exceptional))


def test_intervals_and_polynomials_keep_fraction_arguments():
    lo, hi = Fraction(1, 3), Fraction(5, 2)
    interval = Interval(lo, hi)
    assert interval.lo is lo and interval.hi is hi
    assert interval.midpoint is interval.midpoint and interval.midpoint == Fraction(17, 12)
    lat = default_lattice(0)
    family = AffineClassFamily(lat, lat.cls(lo), lat.cls(1), interval)
    # (lo + t)^2 / 2 at 1: an int argument is read as a rational, the value is one Fraction
    assert type(family.volume(1)) is Fraction and family.volume(1) == Fraction(8, 9)


@settings(max_examples=200)
@given(times, times, times, st.data())
def test_interval_midpoints_and_membership_match_fraction_arithmetic(x, y, other, data):
    lo, hi = min(x, y), max(x, y)
    interval = Interval(lo, hi)
    assert interval.midpoint == (lo + hi) / 2 and type(interval.midpoint) is Fraction
    # the endpoints are admitted; an integer moment value is read as a rational
    t = data.draw(st.sampled_from([lo, hi, interval.midpoint, other, other.numerator]))
    assert interval.contains(t) == (lo <= t <= hi)
    if lo < hi:
        with pytest.raises(ValueError, match="empty interval"):
            Interval(hi, lo)


def reference_cone(family: AffineClassFamily, t: Fraction) -> tuple:
    """The Li-Liu verdict at ``t`` in ``Fraction`` tuples: status, witness, reason."""
    lat = family.lattice
    w = [b + t * s for b, s in zip(fraction_coeffs(family.base), fraction_coeffs(family.slope))]
    if lat.form == "ruling":
        bounds = [(x, "ruling") for x in ruling_classes(lat)]
    elif lat.form == "default":
        bounds = [(lat.basis(0), "line")] + [(x, "exceptional") for x in exceptional_classes(lat)]
    else:
        return None, None, "non-default basis"
    for x, kind in bounds:
        if ref_pair(lat.gram, w, fraction_coeffs(x)) <= 0:
            return False, x, f"{kind} area not positive"
    if ref_pair(lat.gram, w, w) <= 0:
        return False, None, "volume not positive"
    return True, None, "ok"


@seed(8)
@settings(max_examples=200, deadline=None)
@given(st.sampled_from(WALK_LATTICES), st.data())
def test_cone_check_at_any_moment_value_matches_the_fraction_reference(lat, data):
    base = LatticeClass(data.draw(vectors(rationals, lat.rank)))
    e = LatticeClass(data.draw(vectors(eulers, lat.rank)))
    # often at a root of a marked area, where the verdict turns
    classes = [lat.basis(0), *ruling_classes(lat), *exceptional_classes(lat)]
    roots = [-m.const / m.slope for m in (reference_area(lat, base, -e, x) for x in classes) if m.s]
    t = data.draw(st.sampled_from(roots) if roots and data.draw(ways) == 0 else times)
    family = AffineClassFamily(lat, base, -e, Interval(min(t, 0), max(t, 0)))
    check = symplectic_cone_check(family, t)
    assert (check.status, check.witness, check.reason) == reference_cone(family, t)


# ---------------------------------------------------------------------------
# the marked-area readers and the sign predicate
# ---------------------------------------------------------------------------


@settings(max_examples=300)
@given(nums, nums, dens, times)
def test_sign_at_matches_the_fraction_value(c, s, den, t):
    m = MarkedArea(DUMMY, c, s, den)
    const, slope = Fraction(c, den), Fraction(s)
    assert (m.const, m.slope, m.euler) == (const, slope, -slope)
    assert all(type(v) is Fraction for v in (m.const, m.slope, m.euler, m.at(t)))
    assert m.at(t) == const + t * slope
    assert sign_at(m, t) == sign(const + t * slope)


# ---------------------------------------------------------------------------
# the blow-down pushforward
# ---------------------------------------------------------------------------


def assert_pushforwards_agree(lat: IntersectionLattice, c: LatticeClass, xs) -> None:
    bdm = blow_down_data(lat, c)
    for x in xs:
        got = bdm.apply(x)
        assert got == fraction_pushforward(lat, c, x), x
        assert gcd(got.den, *got.nums) == 1  # stored reduced, so equality is by value


def upstairs_probes(lat: IntersectionLattice) -> list[LatticeClass]:
    basis = [lat.basis(i) for i in range(lat.rank)]
    return basis + [lat.canonical, Fraction(1, 3) * lat.canonical + Fraction(5, 2) * basis[-1]]


@pytest.mark.parametrize("k", range(1, 9))
def test_pushforward_of_every_default_contraction_matches_the_fraction_formula(k):
    lat = default_lattice(k)
    probes = upstairs_probes(lat)
    for c in exceptional_classes(lat):
        assert_pushforwards_agree(lat, c, probes + [c])


def test_pushforward_onto_the_sphere_product_matches_the_fraction_formula():
    lat = default_lattice(2)
    c = cls(1, -1, -1)
    assert blow_down_data(lat, c).target == SPHERE
    assert_pushforwards_agree(lat, c, upstairs_probes(lat))


def test_pushforward_off_a_default_gram_matches_the_fraction_formula():
    lat = SPHERE_BLOWN_UP
    assert lat.form is None
    c = cls(1, 0, -1)  # A - E1
    assert blow_down_data(lat, c).target == default_lattice(1)
    assert_pushforwards_agree(lat, c, upstairs_probes(lat) + [c])


CONTRACTIONS = [
    (default_lattice(3), cls(1, -1, -1, 0)),
    (default_lattice(4), cls(0, 0, 0, 0, 1)),
    (default_lattice(2), cls(1, -1, -1)),
    (SPHERE_BLOWN_UP, cls(1, 0, -1)),
]


small_integers = st.integers(-9, 9)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(CONTRACTIONS), st.data())
def test_pushforward_of_random_classes_matches_the_fraction_formula(contraction, data):
    lat, c = contraction
    integral = data.draw(st.booleans())
    x = LatticeClass(data.draw(vectors(small_integers if integral else times, lat.rank)))
    assert_pushforwards_agree(lat, c, [x])


MAPS = [(default_lattice(k), c)
        for k in range(1, 9) for c in exceptional_classes(default_lattice(k))[:4]]
MAPS += [
    (default_lattice(2), cls(1, -1, -1)),  # onto the sphere product
    (SPHERE_BLOWN_UP, cls(1, 0, -1)),  # off the default gram
]


@pytest.mark.parametrize("lat, c", MAPS)
def test_push_matrix_columns_are_fraction_pushforwards_of_the_basis(lat, c):
    bdm = blow_down_data(lat, c)
    columns = [fraction_pushforward(lat, c, lat.basis(j)) for j in range(lat.rank)]
    assert all(col.den == 1 for col in columns)
    assert bdm.push(lat.basis(0).nums) == columns[0].nums
    assert tuple(zip(*bdm.matrix)) == tuple(col.nums for col in columns)


@pytest.mark.parametrize("lat, c", MAPS)
def test_corrupting_any_pullback_column_raises_on_the_first_pushforward(lat, c):
    # the map is checked where it is built, before any pushforward: a corrupted
    # column of the basis (*pullback basis, c) is refused by ``_basis_change``
    good = blow_down_data(lat, c)
    onto = blow_up_lattice(good.target).target
    for i in range(good.target.rank):
        basis = list(pullback_basis(good))
        basis[i] = basis[i] + c
        with pytest.raises(InternalInvariantError, match="does not present"):
            _basis_change(lat, (*basis, c), onto)
        if i == 0:  # the reference sees a corrupted column only through an image that uses it
            with pytest.raises(InternalInvariantError, match="contracted sublattice"):
                fraction_pushforward(lat, c, lat.basis(0), basis)


# ---------------------------------------------------------------------------
# the interval screen
# ---------------------------------------------------------------------------


def reference_screen(family: AffineClassFamily) -> tuple[AffineClassFamily, RigidityResult]:
    """The screen over the family's interval on marked areas built from
    ``lattice.pair``: cone, then roots.

    It returns the family with ``lookup`` asked with no cone verdict, so the
    lookup decides the positivity test itself.
    """
    lat, base, slope, interval = family.lattice, family.base, family.slope, family.interval
    line = [reference_area(lat, base, slope, lat.basis(0))] if lat.form == "default" else []
    exceptional = [reference_area(lat, base, slope, x) for x in exceptional_classes(lat)]
    rulings = [reference_area(lat, base, slope, x) for x in ruling_classes(lat)]
    mid = interval.midpoint
    if lat.form == "ruling":  # Li-Liu on S2xS2: positive on both rulings
        failed = next((m.cls for m in rulings if sign_at(m, mid) <= 0), None)
        if failed is not None:
            raise WalkError(
                f"symplectic cone violated on {interval}: ruling area not positive "
                f"({lat.name_of(failed)})", interval.lo, kind="cone"
            )
    if lat.form == "default" and lat.blowup_count <= 8:
        checks = [(m, "line area not positive") for m in line]
        checks += [(m, "exceptional area not positive") for m in exceptional]
        failed = next(((m.cls, reason) for m, reason in checks if sign_at(m, mid) <= 0), None)
        moving = base + mid * slope
        if failed is None and lat.pair(moving, moving) <= 0:
            failed = (None, "volume not positive")
        if failed is not None:
            name = lat.name_of(failed[0]) if failed[0] else "volume"
            raise WalkError(
                f"symplectic cone violated on {interval}: {failed[1]} ({name})", interval.lo,
                kind="cone"
            )
    root = reference_root(family)
    if root is not None:
        raise WalkError(
            f"area of {lat.name_of(root[0])} vanishes at {fmt_q(root[1])} "
            "inside a regular interval: an undeclared wall",
            interval.lo, kind="undeclared wall",
        )
    return family, lookup(family)


def reference_root(family: AffineClassFamily) -> tuple[LatticeClass, Fraction] | None:
    """The first marked class whose area has a root strictly inside the family's
    interval, with the root, in ``Fraction`` arithmetic; a lattice with neither
    line nor exceptional classes (the ruling basis) screens its rulings."""
    lat, base, slope, interval = family.lattice, family.base, family.slope, family.interval
    line = [reference_area(lat, base, slope, lat.basis(0))] if lat.form == "default" else []
    exceptional = [reference_area(lat, base, slope, x) for x in exceptional_classes(lat)]
    rulings = [reference_area(lat, base, slope, x) for x in ruling_classes(lat)]
    for m in (exceptional + line) or rulings:
        if m.slope and interval.lo < -m.const / m.slope < interval.hi:
            return m.cls, -m.const / m.slope
    return None


def outcome(run):
    try:
        return run()
    except (DhwalkError, ValueError) as err:
        return type(err), getattr(err, "wall", None), getattr(err, "kind", None), str(err)


near_lines = fractions(4, 12, max_denominator=6)
near_exceptionals = fractions(-2, 0, max_denominator=6)
near_values = fractions(0, 6, max_denominator=6)
steps = fractions(0, 3, max_denominator=6)
signs, bits = st.integers(-1, 1), st.integers(0, 1)


@st.composite
def screened(draw) -> AffineClassFamily:
    """A family over an interval whose endpoints are often roots of marked areas,
    or which surrounds one."""
    lat = draw(st.sampled_from(WALK_LATTICES))
    near = draw(st.booleans())  # like a walk's states: small times, areas mostly positive
    if near:
        coeffs = [draw(near_lines)] + [draw(near_exceptionals) for _ in range(lat.rank - 1)]
        euler = [draw(signs)] + [draw(bits) for _ in range(lat.rank - 1)]
    else:
        coeffs = draw(vectors(times, lat.rank))
        euler = draw(vectors(eulers, lat.rank))
    base, e = LatticeClass(coeffs), LatticeClass(euler)
    values = near_values if near else times
    classes = list(exceptional_classes(lat)) + list(ruling_classes(lat))
    classes += [lat.basis(0)] if lat.form == "default" else []
    roots = [-m.const / m.slope for m in (reference_area(lat, base, -e, x) for x in classes) if m.s]
    roots = [r for r in roots if not near or 0 <= r <= 6]
    how = draw(ways) if roots else 0
    if how == 0:  # anywhere
        lo = draw(values)
        hi = lo + draw(steps)
    elif how == 1:  # between two roots
        lo, hi = draw(st.sampled_from(roots)), draw(st.sampled_from(roots))
    else:  # around a root
        root = draw(st.sampled_from(roots))
        lo, hi = root - draw(steps), root + draw(steps)
    return AffineClassFamily(lat, base, -e, Interval(min(lo, hi), max(lo, hi)))


@seed(9)
@settings(max_examples=300, deadline=None)
@given(screened())
# L = 6-t and E1 = t-3 both vanish inside (2, 13/2): the exceptional class is reported first
@example(AffineClassFamily(default_lattice(1), cls(6, 3), cls(-1, -1),
                           Interval(2, Fraction(13, 2))))
# on S2xS2, area(A) = 3-t is positive at the midpoint 2 and vanishes at 3 inside (0, 4)
@example(AffineClassFamily(SPHERE, cls(2, 3), cls(0, -1), Interval(0, 4)))
# ends over unequal denominators: E1 = t-3 vanishes inside (7/3, 11/2), L = 6-t does not
@example(AffineClassFamily(DEFAULTS[1], cls(6, 3), cls(-1, -1),
                           Interval(Fraction(7, 3), Fraction(11, 2))))
# ... and neither vanishes inside (13/4, 17/3): the family is in the cone and rigid
@example(AffineClassFamily(DEFAULTS[1], cls(6, 3), cls(-1, -1),
                           Interval(Fraction(13, 4), Fraction(17, 3))))
# a cone failure and a root in one interval: E1 = t-5 is negative at the midpoint
# 41/12 of (1/3, 13/2) and vanishes at 5 inside, L = 6-t at 6; the cone is reported
@example(AffineClassFamily(DEFAULTS[1], cls(6, 5), cls(-1, -1),
                           Interval(Fraction(1, 3), Fraction(13, 2))))
# on S2xS2 over (-1/3, 7/2): in the cone at the midpoint 19/12, A = 3-t vanishes at 3
@example(AffineClassFamily(SPHERE, cls(2, 3), cls(0, -1),
                           Interval(Fraction(-1, 3), Fraction(7, 2))))
def test_interval_screen_matches_the_marked_area_reference(family):
    # the screened family and the rigidity it stores, which reuses the cone
    # verdict, equal the reference's, whose lookup ran its own positivity test
    def screened():
        walked = _screen_interval(family)
        return walked, walked.rigidity

    assert outcome(screened) == outcome(lambda: reference_screen(family))
    # the root the pass reports beside its verdict, also where the cone fails first
    assert family.screen(family.interval)[1] == reference_root(family)


def test_the_walk_hands_lookup_the_cone_verdict(monkeypatch):
    lat = default_lattice(2)
    # areas t, t-2, t-3, arriving at the wall 3
    state = AffineClassFamily(lat, lat.cls(0, 2, 3), lat.cls(1, -1, -1), Interval(3, 3))
    calls = []
    original = AffineClassFamily.screen

    def spy(family, interval):
        calls.append(interval)
        return original(family, interval)

    monkeypatch.setattr(AffineClassFamily, "screen", spy)
    rec = _screen_interval(state.with_interval(Interval(3, 4)))
    # one pass per screen: its cone verdict, which the lookup reuses
    assert calls == [Interval(3, 4)]
    assert lookup(rec, True) == rec.rigidity
    assert calls == [Interval(3, 4)]  # handed the verdict, lookup runs no pass
    assert rec.rigidity == lookup(rec)
    assert calls == [Interval(3, 4)] * 2  # called on its own, lookup runs one


small_coefficients = fractions(-3, 3, max_denominator=2)  # areas coincide often


@st.composite
def small_rows(draw) -> tuple[IntersectionLattice, LatticeClass, LatticeClass]:
    """A lattice of two or three blow-ups, a base and an Euler class."""
    lat = draw(st.sampled_from([default_lattice(2), default_lattice(3)]))
    base = LatticeClass(draw(vectors(small_coefficients, lat.rank)))
    return lat, base, LatticeClass(draw(vectors(eulers, lat.rank)))


@seed(10)
@settings(max_examples=300, deadline=None)
@given(small_rows())
# E1 = E2 = 1+t: coinciding
@example((default_lattice(2), cls(3, -1, -1), cls(-1, 1, 1)))
# E1 = 1+t and E2 = 1, one constant and two slopes; L-E1-E2 = 2: distinct
@example((default_lattice(2), cls(4, -1, -1), cls(-1, 1, 0)))
# all six exceptional areas 1+t: coinciding
@example((default_lattice(3), cls(3, -1, -1, -1), cls(-3, 1, 1, 1)))
def test_lookup_finds_coinciding_areas_as_the_area_pair_set_rule(drawn):
    lat, base, e = drawn
    family = AffineClassFamily(lat, base, -e, Interval(0, 1))
    # the rule the slope groups replace: two exceptional classes with one (constant, slope)
    pairs = [(lat.pair(base, x), lat.pair(-e, x)) for x in exceptional_classes(lat)]
    coinciding = len(set(pairs)) < len(pairs)
    key, word = ("small-blowup-equal-areas", "coinciding") if coinciding else (
        "small-blowup-distinct-areas", "distinct")
    detail = f"{lat.rank - 1} blow-ups, {word} exceptional areas"
    got = lookup(family, True)
    assert (got.fact.key, got.detail) == (key, detail)
    # another family with the same verdict gets the one shared result
    other = AffineClassFamily(lat, base + base, -e - e, Interval(0, 1))
    assert lookup(other, True) is got


# ---------------------------------------------------------------------------
# crossings
# ---------------------------------------------------------------------------


@seed(9)
@settings(max_examples=200, deadline=None)
@given(st.sampled_from(WALK_LATTICES), st.data())
def test_integer_blow_up_matches_the_class_formulas(lat, data):
    base = LatticeClass(data.draw(vectors(times, lat.rank)))
    # the formulas hold for a fractional e too, which no walk holds: it refuses a
    # fractional surface class
    euler = eulers if data.draw(st.booleans()) else times
    e = LatticeClass(data.draw(vectors(euler, lat.rank)))
    lam = data.draw(times)
    wall = Interval(lam, lam)
    got, edge = _blow_up_point(AffineClassFamily._at(lat, base, -e, wall), wall)
    inclusion, *changes = edge.maps
    up = inclusion.target
    new_class = up.basis(lat.rank)
    expected = (up, inclusion.apply(base) + lam * new_class, -(inclusion.apply(e) + new_class))
    for change in changes:  # the presentation, off the default basis
        expected = (change.target, change.apply(expected[1]), change.apply(expected[2]))
    assert got == AffineClassFamily._at(*expected, wall)
    assert all(gcd(x.den, *x.nums) == 1 for x in (got.base, got.slope))  # stored reduced


def test_two_blow_ups_at_one_wall_follow_two_edges_cached_on_the_frames_they_leave():
    lat = SPHERE  # the first blow-up moves onto the default basis
    wall = Interval(Fraction(5, 2), Fraction(5, 2))
    state = AffineClassFamily(lat, lat.cls(2, 3), lat.cls(-1, -1), wall)
    once, first = _blow_up_point(state, wall)
    twice, second = _blow_up_point(once, wall)
    # two new classes of area t - 5/2, presented on the default basis
    down = default_lattice(3)
    half = Fraction(1, 2)
    assert twice == AffineClassFamily(down, down.cls(15 * half, -11 * half, -9 * half, 5 * half),
                                      down.cls(-3, 2, 2, -1), wall)
    assert [first.action.class_name, second.action.class_name] == ["E1", "E3"]
    assert state.frame._up is first and once.frame._up is second
    assert once.frame is first.frame and twice.frame is second.frame
    again, edge = _blow_up_point(state, wall)
    assert again == once and edge is first  # the next visit follows the cached edge


CONTRACTIBLE = DEFAULTS[1:] + [SPHERE_BLOWN_UP]


@seed(9)
@settings(max_examples=200, deadline=None)
@given(st.sampled_from(CONTRACTIBLE), st.data())
def test_integer_blow_down_matches_the_class_formulas(lat, data):
    c = data.draw(st.sampled_from(exceptional_classes(lat)))
    e0 = LatticeClass(data.draw(vectors(eulers, lat.rank)))
    e = e0 + (lat.pair(e0, c) - 1) * c  # pair(e, c) = 1
    lam = data.draw(times)
    b0 = LatticeClass(data.draw(vectors(times, lat.rank)))
    base = b0 + (lat.pair(b0, c) - lam) * c  # the area of c vanishes at lam
    wall = Interval(lam, lam)
    state = AffineClassFamily(lat, base, -e, wall)
    first = state.frame.falling[_vanishing(state, lam.numerator, lam.denominator)[0]][0]
    if lat.pair(e, first) != 1:
        with pytest.raises(WalkError) as refused:
            _blow_down_point(state, wall)
        assert (refused.value.wall, refused.value.kind) == (lam, "euler pairing")
        return
    bdm = blow_down_data(lat, first)
    e_new = fraction_pushforward(lat, first, e + first)
    base_new = fraction_pushforward(lat, first, base + lam * (-e)) + lam * e_new
    got, edge = _blow_down_point(state, wall)
    assert got == AffineClassFamily(bdm.target, base_new, -e_new, wall)
    assert edge.action.blow_down_map is bdm and edge.maps == (bdm,)


# ---------------------------------------------------------------------------
# the moment line on one denominator
# ---------------------------------------------------------------------------

# values in [-1, 3] with denominators up to 4 coincide often, 1/2 as 2/4 too
level_values = fractions(-1, 3, max_denominator=4)
point_indices = st.sampled_from((0, 2, 4, 6))
level_specs = st.lists(st.tuples(level_values, point_indices, st.integers(0, 4)), max_size=8)


def levels_of(specs) -> list[CriticalLevel]:
    """One point per spec, in drawn order; about one level in five declares Euler data."""
    return [CriticalLevel(v, [point_component(i)], cls(-1, 1) if e == 0 else None)
            for v, i, e in specs]


def assert_on_one_denominator(data: FixedPointData) -> None:
    values = [lv.value for lv in data.levels]
    assert data._den == lcm(*(v.denominator for v in values))
    assert [Fraction(n, data._den) for n in data._nums] == values
    assert all(type(n) is int for n in data._nums)


@seed(21)
@settings(max_examples=150, deadline=None)
@given(level_specs)
def test_build_sorts_and_merges_as_on_fraction_keys(specs):
    levels = levels_of(specs)
    try:
        expected = fraction_build("drawn", 6, "full", levels)
    except ValueError as err:  # two levels at one value declare Euler data
        with pytest.raises(ValueError) as raised:
            FixedPointData.build("drawn", 6, "full", levels)
        assert str(raised.value) == str(err)
        return
    built = FixedPointData.build("drawn", 6, "full", levels)
    assert built == expected
    # a level alone at its value is kept as it is; only a merge builds one
    assert [lv is e for lv, e in zip(built.levels, expected.levels)] == [
        any(lv is given for given in levels) for lv in expected.levels
    ]
    assert_on_one_denominator(built)


@seed(21)
@settings(max_examples=150, deadline=None)
@given(level_specs)
def test_order_and_normalization_issues_match_fraction_comparisons(specs):
    # built directly: unsorted, duplicated, and with a nonzero minimum
    data = FixedPointData("drawn", 6, "full", tuple(levels_of(specs)))
    assert_on_one_denominator(data)
    lines = validate_structure(data).lines()
    assert [x for x in lines if x.startswith(("[values]", "[normalization]"))] == (
        fraction_value_issues(data)
    )


@st.composite
def isolated_points(draw) -> FixedPointData:
    """Points at the value lattice of a drawn triple, then perhaps one value
    moved, one value repeated in place of another, or one index changed;
    built, or constructed directly in a drawn order."""
    a, b, c = (draw(fractions(1, 4, max_denominator=4)) for _ in range(3))
    points = [(0, 0), (a, 2), (b, 2), (c, 2), (a + b, 4), (a + c, 4), (b + c, 4), (a + b + c, 6)]
    way, j, k = draw(st.integers(0, 3)), draw(st.integers(0, 7)), draw(st.integers(0, 7))
    if way == 1:
        points[j] = (draw(fractions(0, 12, max_denominator=4)), points[j][1])
    elif way == 2:
        points[j] = (points[k][0], points[j][1])
    elif way == 3:
        points[j] = (points[j][0], draw(point_indices))
    levels = [CriticalLevel(v, [point_component(i)]) for v, i in points]
    if draw(st.booleans()):
        return FixedPointData.build("drawn", 6, "small", levels)
    return FixedPointData("drawn", 6, "small", tuple(draw(st.permutations(levels))))


@seed(21)
@settings(max_examples=200, deadline=None)
@given(isolated_points())
def test_value_lattice_check_matches_the_fraction_check(data):
    check = isolated_value_lattice_check(data)
    assert check == fraction_value_lattice_check(data)
    if check.lambdas is not None:  # the index-2 levels' own values
        assert all(any(lam is lv.value for lv in data.levels) for lam in check.lambdas)


@seed(21)
@settings(max_examples=150, deadline=None)
@given(families(), times, times, st.integers(1, 12))
def test_volume_sign_reads_unreduced_fractions(family, x, y, m):
    assert family.volume_sign_at(x.numerator * m, x.denominator * m) == sign(family.volume(x))
    # the screen's midpoint of the ends x and y, as it forms it
    p1, q1, p2, q2 = x.numerator, x.denominator, y.numerator, y.denominator
    assert family.volume_sign_at(p1 * q2 + p2 * q1, 2 * q1 * q2) == sign(family.volume((x + y) / 2))


# ---------------------------------------------------------------------------
# interning
# ---------------------------------------------------------------------------


def test_walk_lattices_are_interned():
    for k in range(9):
        assert default_lattice(k) is default_lattice(k)
    assert hyperbolic_lattice() is hyperbolic_lattice()
    for lat in (default_lattice(2), hyperbolic_lattice(), general_lattice(default_lattice(2).gram)):
        assert blow_up_lattice(lat) is blow_up_lattice(lat)
    # keyed on the lattice's value, not on the object
    twin = IntersectionLattice(default_lattice(3).gram, default_lattice(3).labels,
                               default_lattice(3).canonical)
    assert blow_up_lattice(twin) is blow_up_lattice(default_lattice(3))


def test_blow_down_maps_are_cached_and_refusals_are_not():
    lat, c = default_lattice(3), cls(1, -1, -1, 0)
    assert blow_down_data(lat, c) is blow_down_data(lat, c)
    # keyed on the values of the lattice and the class, not on the objects
    twin = IntersectionLattice(lat.gram, lat.labels, lat.canonical)
    assert blow_down_data(twin, LatticeClass((1, -1, -1, 0))) is blow_down_data(lat, c)
    for _ in range(3):
        with pytest.raises(ValueError, match="is not exceptional"):
            blow_down_data(lat, cls(1, 0, 0, 0))


def test_a_warm_classification_builds_no_lattice(monkeypatch):
    data = three_sphere_product_data(2, 3, 4)
    first = classify_isolated(data)
    built = []
    original = IntersectionLattice.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(IntersectionLattice, "__init__", counting)
    second = classify_isolated(data)
    assert built == []
    assert second.trace.fingerprints() == first.trace.fingerprints()


def direct_form(lat: IntersectionLattice) -> str | None:
    k = lat.rank - 1
    gram = tuple(tuple((1 if i == 0 else -1) if i == j else 0 for j in range(k + 1))
                 for i in range(k + 1))
    if lat.gram == gram and lat.canonical.nums == (-3,) + (1,) * k:
        return "default"
    if lat.gram == ((0, 1), (1, 0)) and lat.canonical.nums == (-2, -2):
        return "ruling"
    return None


@pytest.mark.parametrize(
    "lat",
    [default_lattice(3), general_lattice(default_lattice(3).gram), SPHERE,
     general_lattice(SPHERE.gram), SPHERE_BLOWN_UP, NON_DIAGONAL],
    ids=["default", "default-gram-G-labels", "sphere-product", "sphere-product-G-labels",
         "sphere-product-blown-up", "non-diagonal"],
)
def test_default_flags_match_the_direct_comparison(lat):
    # the one presentation field reads the gram and the canonical class, never the labels
    assert lat.form == direct_form(lat)
