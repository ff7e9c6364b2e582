"""The package's integer paths against independent ``Fraction`` references.

``LatticeClass`` stores integer numerators over one denominator, the area
tables pair each interval's base into one integer row over a shared walk
frame, and the crossings and blow-down pushforwards run on numerators.  Each
of those paths is checked here against a reference that shares no
arithmetic with it: plain tuples of ``Fraction`` (and, for one check,
``sympy`` matrices), and the per-class sign predicate and the ``Fraction``
pushforward formula kept in ``testutil``.  The parts, in order: the lattice
kernel; area tables and walk frames; the marked-area readers; the blow-down
pushforward; the interval screen; crossings; interning.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd

import pytest
import sympy
from hypothesis import example, given, seed, settings, strategies as st

from dhwalk.classify import classify_isolated
from dhwalk.errors import (
    DhwalkError,
    EulerInconsistencyError,
    InconsistentDataError,
    InternalInvariantError,
    InvalidBlowDownError,
)
from dhwalk.family import (
    AffineClassFamily,
    AreaTable,
    Interval,
    MarkedArea,
    QuadraticPolynomial,
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
from dhwalk.rigidity import lookup
from dhwalk.scenario import three_sphere_product_data
from dhwalk.walk import (
    IntervalRecord,
    _blow_down_point,
    _blow_up_point,
    _Raw,
    _screen_interval,
    _vanishing_classes,
)
from testutil import cls, fraction_pushforward, is_zero, pullback_basis, sign_at

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


def reference_area(lat: IntersectionLattice, base: LatticeClass, slope: LatticeClass,
                   x: LatticeClass) -> MarkedArea:
    """The marked area of ``x`` built from ``lattice.pair``."""
    c, s = lat.pair(base, x) * base.den, lat.pair(slope, x)
    assert c.denominator == 1 and s.denominator == 1
    return MarkedArea(x, c.numerator, s.numerator, base.den)


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


@st.composite
def families(draw) -> AffineClassFamily:
    """A family on a walk lattice with a random base and Euler class ``e``."""
    lat = draw(st.sampled_from(WALK_LATTICES))
    base = LatticeClass(draw(vectors(rationals, lat.rank)))
    e = LatticeClass(draw(vectors(eulers, lat.rank)))
    return AffineClassFamily(lat, base, -e, Interval(0, 1))


def reference_table(family: AffineClassFamily) -> AreaTable:
    lat, base, slope = family.lattice, family.base, family.slope
    return AreaTable(
        reference_area(lat, base, slope, lat.basis(0)) if lat.is_default else None,
        tuple(reference_area(lat, base, slope, x) for x in ruling_classes(lat)),
        tuple(reference_area(lat, base, slope, x) for x in exceptional_classes(lat)),
        QuadraticPolynomial(lat.pair(base, base) / 2, lat.pair(base, slope),
                            lat.pair(slope, slope) / 2),
        lat.pair(slope, slope),
        -lat.pair(slope, lat.canonical),
    )


@seed(8)
@settings(max_examples=100, deadline=None)
@given(families(), times)
def test_area_table_matches_the_pairings(family, t):
    table, expected = family.areas, reference_table(family)
    assert table == expected
    marked = table.fingerprinted + ((table.line,) if table.line else ())
    assert all(type(v) is int for m in marked for v in (m.c, m.s, m.den))
    vol = table.volume
    values = (table.euler_self, table.euler_canonical, vol.c0, vol.c1, vol.c2)
    assert all(type(v) is Fraction for v in values)
    assert table.volume_sign_at(t) == sign(expected.volume(t))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(DEFAULTS[:4] + [SPHERE]), st.data())
def test_volume_sign_matches_the_fraction_volume(lat, data):
    base = data.draw(vectors(times, lat.rank))
    slope = data.draw(vectors(slopes, lat.rank))
    t = data.draw(times)
    family = AffineClassFamily(lat, LatticeClass(base), LatticeClass(slope), Interval(0, 1))
    table = family.areas
    value = sum(
        (Fraction(lat.gram[i][j]) * (base[i] + t * slope[i]) * (base[j] + t * slope[j])
         for i in range(lat.rank) for j in range(lat.rank)),
        Fraction(0),
    ) / 2
    assert table.volume(t) == value
    assert table.volume_sign_at(t) == sign(value)


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
    assert _vanishing_classes(_Raw(lat, family.base, family.slope), lam) == expected


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


def test_intervals_and_polynomials_keep_fraction_arguments():
    lo, hi = Fraction(1, 3), Fraction(5, 2)
    interval = Interval(lo, hi)
    assert interval.lo is lo and interval.hi is hi
    assert interval.midpoint is interval.midpoint and interval.midpoint == Fraction(17, 12)
    poly = QuadraticPolynomial(lo, 2, hi)
    assert poly.c0 is lo and type(poly.c1) is Fraction and poly(1) == Fraction(29, 6)


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
    assert not lat.has_default_form
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


def reference_screen(raw: _Raw, interval: Interval) -> IntervalRecord:
    """The screen on marked areas built from ``lattice.pair``: cone, then roots.

    Its record asks ``lookup`` with no cone verdict, so the lookup decides the
    positivity test itself.
    """
    lat, base, slope = raw.lattice, raw.base, raw.slope
    family = AffineClassFamily(lat, base, slope, interval)
    line = [reference_area(lat, base, slope, lat.basis(0))] if lat.is_default else []
    exceptional = [reference_area(lat, base, slope, x) for x in exceptional_classes(lat)]
    rulings = [reference_area(lat, base, slope, x) for x in ruling_classes(lat)]
    mid = interval.midpoint
    if lat.is_hyperbolic_plane:  # Li-Liu on S2xS2: positive on both rulings
        failed = next((m.cls for m in rulings if sign_at(m, mid) <= 0), None)
        if failed is not None:
            raise InconsistentDataError(
                f"symplectic cone violated on {interval}: ruling area not positive "
                f"({lat.name_of(failed)})", wall=interval.lo
            )
    if lat.is_default and lat.blowup_count <= 8:
        checks = [(m, "line area not positive") for m in line]
        checks += [(m, "exceptional area not positive") for m in exceptional]
        failed = next(((m.cls, reason) for m, reason in checks if sign_at(m, mid) <= 0), None)
        moving = base + mid * slope
        if failed is None and lat.pair(moving, moving) <= 0:
            failed = (None, "volume not positive")
        if failed is not None:
            name = lat.name_of(failed[0]) if failed[0] else "volume"
            raise InconsistentDataError(
                f"symplectic cone violated on {interval}: {failed[1]} ({name})", wall=interval.lo
            )
    # a root strictly inside, in Fraction arithmetic; a lattice with neither
    # line nor exceptional classes (the ruling basis) screens its rulings
    for m in (exceptional + line) or rulings:
        if m.slope and interval.lo < -m.const / m.slope < interval.hi:
            raise InconsistentDataError(
                f"area of {lat.name_of(m.cls)} vanishes at {fmt_q(-m.const / m.slope)} "
                "inside a regular interval: an undeclared wall",
                wall=interval.lo,
            )
    return IntervalRecord(family, lookup(family))


def outcome(run):
    try:
        return run()
    except (DhwalkError, ValueError) as err:
        return type(err), getattr(err, "wall", None), str(err)


near_lines = fractions(4, 12, max_denominator=6)
near_exceptionals = fractions(-2, 0, max_denominator=6)
near_values = fractions(0, 6, max_denominator=6)
steps = fractions(0, 3, max_denominator=6)
signs, bits = st.integers(-1, 1), st.integers(0, 1)


@st.composite
def screened(draw) -> tuple[_Raw, Interval]:
    """A raw state and an interval whose endpoints are often roots of marked areas,
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
    classes += [lat.basis(0)] if lat.is_default else []
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
    return _Raw(lat, base, -e), Interval(min(lo, hi), max(lo, hi))


@seed(9)
@settings(max_examples=300, deadline=None)
@given(screened())
# L = 6-t and E1 = t-3 both vanish inside (2, 13/2): the exceptional class is reported first
@example((_Raw(default_lattice(1), cls(6, 3), cls(-1, -1)), Interval(2, Fraction(13, 2))))
# on S2xS2, area(A) = 3-t is positive at the midpoint 2 and vanishes at 3 inside (0, 4)
@example((_Raw(SPHERE, cls(2, 3), cls(0, -1)), Interval(0, 4)))
def test_interval_screen_matches_the_marked_area_reference(drawn):
    raw, interval = drawn
    # the screen's record, whose rigidity reuses the cone verdict, equals the
    # reference's, whose lookup ran its own positivity test
    assert outcome(lambda: _screen_interval(raw, interval)) == outcome(
        lambda: reference_screen(raw, interval))


def test_the_walk_hands_lookup_the_cone_verdict(monkeypatch):
    lat = default_lattice(2)
    raw = _Raw(lat, lat.cls(0, 2, 3), lat.cls(1, -1, -1))  # areas t, t-2, t-3
    calls = []
    original = AreaTable.first_nonpositive

    def spy(table, t, *groups):
        calls.append(groups)
        return original(table, t, *groups)

    monkeypatch.setattr(AreaTable, "first_nonpositive", spy)
    rec = _screen_interval(raw, Interval(3, 4))
    # one test per screen: the cone check's, whose verdict the lookup reuses
    assert calls == [("line", "exceptional")]
    assert rec.rigidity == lookup(rec.family)
    assert calls == [("line", "exceptional")] * 2  # called on its own, lookup decides it


# ---------------------------------------------------------------------------
# crossings
# ---------------------------------------------------------------------------


@seed(9)
@settings(max_examples=200, deadline=None)
@given(st.sampled_from(WALK_LATTICES), st.data())
def test_integer_blow_up_matches_the_class_formulas(lat, data):
    base = LatticeClass(data.draw(vectors(times, lat.rank)))
    # a fractional declared surface class can leave e fractional within a level
    euler = eulers if data.draw(st.booleans()) else times
    e = LatticeClass(data.draw(vectors(euler, lat.rank)))
    lam = data.draw(times)
    raw, _, inclusion = _blow_up_point(_Raw(lat, base, -e), lam)
    up = inclusion.target
    new_class = up.basis(lat.rank)
    expected = _Raw(up, inclusion.apply(base) + lam * new_class, -(inclusion.apply(e) + new_class))
    assert raw == expected
    assert all(gcd(x.den, *x.nums) == 1 for x in (raw.base, raw.slope))  # stored reduced


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
    raw = _Raw(lat, base, -e)
    first = _vanishing_classes(raw, lam)[0]
    if lat.pair(e, first) != 1:
        with pytest.raises(EulerInconsistencyError):
            _blow_down_point(raw, lam)
        return
    bdm = blow_down_data(lat, first)
    e_new = fraction_pushforward(lat, first, e + first)
    base_new = fraction_pushforward(lat, first, base + lam * (-e)) + lam * e_new
    got, action = _blow_down_point(raw, lam)
    assert got == _Raw(bdm.target, base_new, -e_new)
    assert action.blow_down_map is bdm


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
        with pytest.raises(InvalidBlowDownError):
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


def direct_default_form(lat: IntersectionLattice) -> bool:
    k = lat.rank - 1
    gram = tuple(tuple((1 if i == 0 else -1) if i == j else 0 for j in range(k + 1))
                 for i in range(k + 1))
    return lat.gram == gram and lat.canonical.nums == (-3,) + (1,) * k


@pytest.mark.parametrize(
    "lat",
    [default_lattice(3), general_lattice(default_lattice(3).gram), SPHERE, SPHERE_BLOWN_UP],
    ids=["default", "default-gram-G-labels", "sphere-product", "sphere-product-blown-up"],
)
def test_default_flags_match_the_direct_comparison(lat):
    k = lat.rank - 1
    labels = ("L",) + tuple(f"E{i}" for i in range(1, k + 1))
    assert lat.has_default_form == direct_default_form(lat)
    assert lat.is_default == (direct_default_form(lat) and lat.labels == labels)
