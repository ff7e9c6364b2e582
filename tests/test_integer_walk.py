"""The warm walk's integer paths against ``Fraction`` references.

Three parts: the integer sign predicates (the per-class ones kept in
``testutil`` and ``AreaTable.volume_sign_at``) against ``Fraction``
arithmetic written here; the integer
blow-down pushforward against the ``Fraction`` formula kept in
``testutil.fraction_pushforward``; and the interning of the lattices a walk
moves through.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from dhwalk.classify import classify_isolated
from dhwalk.errors import InternalInvariantError, InvalidBlowDownError
from dhwalk.family import AffineClassFamily, Interval, MarkedArea
from dhwalk.lattice import (
    BlowDownMap,
    IntersectionLattice,
    LatticeClass,
    blow_down_data,
    blow_up_lattice,
    cls,
    default_lattice,
    exceptional_classes,
    general_lattice,
    hyperbolic_lattice,
)
from dhwalk.scenario import three_sphere_product_data
from testutil import fraction_pushforward, root_inside, sign_at, vanishes_from_above

DUMMY = cls(1)
nums = st.integers(-60, 60)
dens = st.integers(1, 12)
times = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


# ---------------------------------------------------------------------------
# integer predicates
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


@st.composite
def area_and_interval(draw):
    """An area with an interval; a third of the draws put the root on an endpoint."""
    c, s, den = draw(nums), draw(nums), draw(dens)
    lo, hi = sorted((draw(times), draw(times)))
    if s and draw(st.integers(0, 2)) == 0:
        root = -Fraction(c, den) / s
        lo, hi = (root, max(hi, root)) if draw(st.booleans()) else (min(lo, root), root)
    return MarkedArea(DUMMY, c, s, den), lo, hi


@settings(max_examples=400)
@given(area_and_interval())
def test_root_screen_matches_the_fraction_root(drawn):
    m, lo, hi = drawn
    const, slope = Fraction(m.c, m.den), Fraction(m.s)
    expected = slope != 0 and lo < -const / slope < hi
    assert root_inside(m, lo, hi) == expected


@settings(max_examples=400)
@given(nums, nums, dens, times, st.booleans())
def test_vanishing_test_matches_the_fraction_condition(c, s, den, lam, at_root):
    if at_root and s:
        lam = -Fraction(c, den) / s
    m = MarkedArea(DUMMY, c, s, den)
    const, slope = Fraction(c, den), Fraction(s)
    assert vanishes_from_above(m, lam) == (const + lam * slope == 0 and slope < 0)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([default_lattice(k) for k in range(4)] + [hyperbolic_lattice()]), st.data())
def test_volume_sign_matches_the_fraction_volume(lat, data):
    base = data.draw(st.lists(times, min_size=lat.rank, max_size=lat.rank))
    slope = data.draw(st.lists(st.integers(-4, 4), min_size=lat.rank, max_size=lat.rank))
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


# ---------------------------------------------------------------------------
# integer pushforward
# ---------------------------------------------------------------------------


def assert_pushforwards_agree(bdm: BlowDownMap, xs) -> None:
    for x in xs:
        got = bdm.pushforward(x)
        assert got == fraction_pushforward(bdm, x), x
        assert gcd(got.den, *got.nums) == 1  # stored reduced, so equality is by value


def upstairs_probes(lat: IntersectionLattice) -> list[LatticeClass]:
    basis = [lat.basis(i) for i in range(lat.rank)]
    return basis + [lat.canonical, Fraction(1, 3) * lat.canonical + Fraction(5, 2) * basis[-1]]


@pytest.mark.parametrize("k", range(1, 9))
def test_pushforward_of_every_default_contraction_matches_the_fraction_formula(k):
    lat = default_lattice(k)
    probes = upstairs_probes(lat)
    for c in exceptional_classes(lat):
        assert_pushforwards_agree(blow_down_data(lat, c), probes + [c])


def test_pushforward_onto_the_sphere_product_matches_the_fraction_formula():
    lat = default_lattice(2)
    bdm = blow_down_data(lat, cls(1, -1, -1))
    assert bdm.downstairs == hyperbolic_lattice()
    assert_pushforwards_agree(bdm, upstairs_probes(lat))


def test_pushforward_off_a_default_gram_matches_the_fraction_formula():
    lat = blow_up_lattice(hyperbolic_lattice()).upstairs  # (A, B, E1): not a default gram
    assert not lat.has_default_form
    c = cls(1, 0, -1)  # A - E1
    bdm = blow_down_data(lat, c)
    assert bdm.downstairs == default_lattice(1)
    assert_pushforwards_agree(bdm, upstairs_probes(lat) + [c])


CONTRACTIONS = [
    (default_lattice(3), cls(1, -1, -1, 0)),
    (default_lattice(4), cls(0, 0, 0, 0, 1)),
    (default_lattice(2), cls(1, -1, -1)),
    (blow_up_lattice(hyperbolic_lattice()).upstairs, cls(1, 0, -1)),
]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(CONTRACTIONS), st.data())
def test_pushforward_of_random_classes_matches_the_fraction_formula(contraction, data):
    lat, c = contraction
    integral = data.draw(st.booleans())
    coeff = st.integers(-9, 9) if integral else times
    x = LatticeClass(data.draw(st.lists(coeff, min_size=lat.rank, max_size=lat.rank)))
    assert_pushforwards_agree(blow_down_data(lat, c), [x])


def test_corrupted_pullback_basis_raises():
    lat, c = default_lattice(3), cls(0, 0, 0, 1)
    good = blow_down_data(lat, c)
    bad_basis = (good.pullback_basis[0] + c,) + good.pullback_basis[1:]
    bad = BlowDownMap(lat, c, good.downstairs, bad_basis)
    x = good.pullback(good.downstairs.basis(0))
    with pytest.raises(InternalInvariantError):
        bad.pushforward(x)
    with pytest.raises(InternalInvariantError):
        fraction_pushforward(bad, x)


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
    [
        default_lattice(3),
        general_lattice(default_lattice(3).gram),
        hyperbolic_lattice(),
        blow_up_lattice(hyperbolic_lattice()).upstairs,
    ],
    ids=["default", "default-gram-G-labels", "sphere-product", "sphere-product-blown-up"],
)
def test_default_flags_match_the_direct_comparison(lat):
    k = lat.rank - 1
    labels = ("L",) + tuple(f"E{i}" for i in range(1, k + 1))
    assert lat.has_default_form == direct_default_form(lat)
    assert lat.is_default == (direct_default_form(lat) and lat.labels == labels)
