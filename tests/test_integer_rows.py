"""The walk's integer rows against the per-class predicates and ``LatticeClass`` formulas.

Two parts.  The interval screen (cone check, undeclared-wall screen, and the
rigidity lookup that reuses the cone verdict) against a reference that builds
every marked area from ``lattice.pair`` and runs the relocated predicates of
``testutil`` in the old order.  The crossings (blow-up, blow-down and the
push matrix of a blow-down map) against the ``LatticeClass`` formulas
``include(b) + lam*E`` and ``pushforward(b + lam*B) + lam*e'``, with the
pushforward taken from ``testutil.fraction_pushforward``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from dhwalk.errors import (
    DhwalkError,
    EulerInconsistencyError,
    InconsistentDataError,
    InternalInvariantError,
)
from dhwalk.family import AffineClassFamily, EulerClass, Interval, MarkedArea
from dhwalk.formatting import fmt_q
from dhwalk.lattice import (
    BlowDownMap,
    IntersectionLattice,
    LatticeClass,
    blow_down_data,
    blow_up_lattice,
    cls,
    default_lattice,
    exceptional_classes,
    hyperbolic_lattice,
    ruling_classes,
)
from dhwalk.rigidity import lookup
from dhwalk.walk import (
    WalkState,
    _blow_down_point,
    _blow_up_point,
    _Raw,
    _record,
    _screen_interval,
    _vanishing_classes,
)
from testutil import fraction_pushforward, root_inside, sign_at

LATTICES = [default_lattice(k) for k in range(6)] + [
    hyperbolic_lattice(),
    blow_up_lattice(hyperbolic_lattice()).upstairs,
]
times = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def marked(lat: IntersectionLattice, base: LatticeClass, slope: LatticeClass, x) -> MarkedArea:
    c, s = lat.pair(base, x) * base.den, lat.pair(slope, x)
    return MarkedArea(x, c.numerator, s.numerator, base.den)


# ---------------------------------------------------------------------------
# the interval screen
# ---------------------------------------------------------------------------


def reference_screen(raw: _Raw, interval: Interval) -> WalkState:
    """The screen as it ran on ``MarkedArea`` predicates: cone, then roots."""
    lat, base, slope = raw.lattice, raw.base, -raw.euler_cls
    state = WalkState(lat, AffineClassFamily(lat, base, slope, interval), EulerClass(raw.euler_cls))
    line = [marked(lat, base, slope, lat.basis(0))] if lat.is_default else []
    exceptional = [marked(lat, base, slope, x) for x in exceptional_classes(lat)]
    mid = interval.midpoint
    if lat.is_hyperbolic_plane:  # Li-Liu on S2xS2: positive on both rulings
        rulings = [marked(lat, base, slope, x) for x in ruling_classes(lat)]
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
    for m in exceptional + line:
        if root_inside(m, interval.lo, interval.hi):
            raise InconsistentDataError(
                f"area of {lat.name_of(m.cls)} vanishes at {fmt_q(-m.const / m.slope)} "
                "inside a regular interval: an undeclared wall",
                wall=interval.lo,
            )
    return state


def outcome(run):
    try:
        return run()
    except (DhwalkError, ValueError) as err:
        return type(err), getattr(err, "wall", None), str(err)


@st.composite
def screened(draw) -> tuple[_Raw, Interval]:
    """A raw state and an interval whose endpoints are often roots of marked areas,
    or which surrounds one."""
    lat = draw(st.sampled_from(LATTICES))
    near = draw(st.booleans())  # like a walk's states: small times, areas mostly positive
    if near:
        coeffs = [draw(st.fractions(4, 12, max_denominator=6))] + [
            draw(st.fractions(-2, 0, max_denominator=6)) for _ in range(lat.rank - 1)]
        euler = [draw(st.integers(-1, 1))] + [draw(st.integers(0, 1)) for _ in range(lat.rank - 1)]
    else:
        coeffs = draw(st.lists(times, min_size=lat.rank, max_size=lat.rank))
        euler = draw(st.lists(st.integers(-3, 3), min_size=lat.rank, max_size=lat.rank))
    base, e = LatticeClass(coeffs), LatticeClass(euler)
    values = st.fractions(0, 6, max_denominator=6) if near else times
    classes = list(exceptional_classes(lat)) + list(ruling_classes(lat))
    classes += [lat.basis(0)] if lat.is_default else []
    roots = [-m.const / m.slope for m in (marked(lat, base, -e, x) for x in classes) if m.s]
    roots = [r for r in roots if not near or 0 <= r <= 6]
    step = st.fractions(0, 3, max_denominator=6)
    how = draw(st.integers(0, 2)) if roots else 0
    if how == 0:  # anywhere
        lo = draw(values)
        hi = lo + draw(step)
    elif how == 1:  # between two roots
        lo, hi = draw(st.sampled_from(roots)), draw(st.sampled_from(roots))
    else:  # around a root
        root = draw(st.sampled_from(roots))
        lo, hi = root - draw(step), root + draw(step)
    return _Raw(lat, base, e), Interval(min(lo, hi), max(lo, hi))


@seed(9)
@settings(max_examples=300, deadline=None)
@given(screened())
# L = 6-t and E1 = t-3 both vanish inside (2, 13/2): the exceptional class is reported first
@example((_Raw(default_lattice(1), cls(6, 3), cls(1, 1)), Interval(2, Fraction(13, 2))))
def test_interval_screen_matches_the_marked_area_reference(drawn):
    raw, interval = drawn
    got = outcome(lambda: _screen_interval(raw, interval))
    assert got == outcome(lambda: reference_screen(raw, interval))
    if isinstance(got, WalkState):
        fresh = AffineClassFamily(raw.lattice, raw.base, -raw.euler_cls, interval)
        assert _record(got).rigidity == lookup(raw.lattice, fresh)


def test_the_walk_hands_lookup_the_cone_verdict(monkeypatch):
    lat = default_lattice(2)
    raw = _Raw(lat, lat.cls(0, 2, 3), lat.cls(-1, 1, 1))  # areas t, t-2, t-3
    state = _screen_interval(raw, Interval(3, 4))
    calls = []
    original = type(state.family.areas).first_nonpositive

    def spy(table, t, *groups):
        calls.append(groups)
        return original(table, t, *groups)

    monkeypatch.setattr(type(state.family.areas), "first_nonpositive", spy)
    rigid = _record(state).rigidity
    assert calls == []  # the screen's passed cone check decided the positivity test
    assert rigid == lookup(lat, state.family)
    assert calls == [("line", "exceptional")]  # called on its own, lookup decides it


# ---------------------------------------------------------------------------
# crossings
# ---------------------------------------------------------------------------


@seed(9)
@settings(max_examples=200, deadline=None)
@given(st.sampled_from(LATTICES), st.data())
def test_integer_blow_up_matches_the_class_formulas(lat, data):
    base = LatticeClass(data.draw(st.lists(times, min_size=lat.rank, max_size=lat.rank)))
    # a fractional declared surface class can leave e fractional within a level
    euler = st.integers(-3, 3) if data.draw(st.booleans()) else times
    e = LatticeClass(data.draw(st.lists(euler, min_size=lat.rank, max_size=lat.rank)))
    lam = data.draw(times)
    raw, _, bum = _blow_up_point(_Raw(lat, base, e), lam)
    expected = _Raw(bum.upstairs, bum.include(base) + lam * bum.new_class,
                    bum.include(e) + bum.new_class)
    assert raw == expected
    assert all(gcd(x.den, *x.nums) == 1 for x in (raw.base, raw.euler_cls))  # stored reduced


CONTRACTIBLE = [default_lattice(k) for k in range(1, 6)] + [
    blow_up_lattice(hyperbolic_lattice()).upstairs
]


@seed(9)
@settings(max_examples=200, deadline=None)
@given(st.sampled_from(CONTRACTIBLE), st.data())
def test_integer_blow_down_matches_the_class_formulas(lat, data):
    c = data.draw(st.sampled_from(exceptional_classes(lat)))
    e0 = LatticeClass(data.draw(st.lists(st.integers(-3, 3), min_size=lat.rank, max_size=lat.rank)))
    e = e0 + (lat.pair(e0, c) - 1) * c  # pair(e, c) = 1
    lam = data.draw(times)
    b0 = LatticeClass(data.draw(st.lists(times, min_size=lat.rank, max_size=lat.rank)))
    base = b0 + (lat.pair(b0, c) - lam) * c  # the area of c vanishes at lam
    raw = _Raw(lat, base, e)
    first = _vanishing_classes(raw, lam)[0]
    if lat.pair(e, first) != 1:
        with pytest.raises(EulerInconsistencyError):
            _blow_down_point(raw, lam)
        return
    bdm = blow_down_data(lat, first)
    e_new = fraction_pushforward(bdm, e + first)
    base_new = fraction_pushforward(bdm, base + lam * (-e)) + lam * e_new
    got, action = _blow_down_point(raw, lam)
    assert got == _Raw(bdm.downstairs, base_new, e_new)
    assert action.blow_down_map is bdm


MAPS = [(default_lattice(k), c)
        for k in range(1, 9) for c in exceptional_classes(default_lattice(k))[:4]]
MAPS += [
    (default_lattice(2), cls(1, -1, -1)),  # onto the sphere product
    (blow_up_lattice(hyperbolic_lattice()).upstairs, cls(1, 0, -1)),  # off the default gram
]


@pytest.mark.parametrize("lat, c", MAPS)
def test_push_matrix_columns_are_fraction_pushforwards_of_the_basis(lat, c):
    bdm = blow_down_data(lat, c)
    columns = [fraction_pushforward(bdm, lat.basis(j)) for j in range(lat.rank)]
    assert all(col.den == 1 for col in columns)
    assert bdm.push(lat.basis(0).nums) == columns[0].nums  # builds the matrix if needed
    assert tuple(zip(*bdm._matrix)) == tuple(col.nums for col in columns)


@pytest.mark.parametrize("lat, c", MAPS)
def test_corrupting_any_pullback_column_raises_on_the_first_pushforward(lat, c):
    good = blow_down_data(lat, c)
    for i in range(len(good.pullback_basis)):
        basis = list(good.pullback_basis)
        basis[i] = basis[i] + c
        bad = BlowDownMap(lat, c, good.downstairs, tuple(basis))
        with pytest.raises(InternalInvariantError, match="contracted sublattice"):
            bad.pushforward(lat.basis(0))
