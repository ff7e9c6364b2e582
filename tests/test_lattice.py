from fractions import Fraction

import pytest

from hypothesis import given, strategies as st

from dhwalk.errors import DimensionError, InvalidBlowDownError
from dhwalk.lattice import (
    LatticeClass,
    blow_down_data,
    blow_up_lattice,
    canonical_class,
    canonical_presentation,
    default_lattice,
    exceptional_classes,
    general_lattice,
    gram_signature,
    hyperbolic_lattice,
    ruling_classes,
    _simple_reflections,
    _weyl_orbit,
)
from testutil import (
    LatticeIsometry,
    blown_up_sphere_product,
    box_default_presentation,
    brute_force_exceptional,
    cls,
    compose,
    cremona_standard,
    is_identity,
    is_zero,
    marked_classes_by_bounds,
    pullback_basis,
)

K2 = default_lattice(2)
K3 = default_lattice(3)


def names(lattice, classes):
    return {lattice.name_of(c) for c in classes}


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------


def test_pairing_on_generators():
    lat = K2
    L, E1, E2 = lat.basis(0), lat.basis(1), lat.basis(2)
    assert lat.pair(L, L) == 1
    assert lat.pair(E1, E1) == -1
    assert lat.pair(L, E1) == 0
    # expand the bilinear form by hand: 1 - 1 - 1
    assert lat.pair(L - E1 - E2, L - E1 - E2) == -1


def test_pairing_rank_mismatch():
    with pytest.raises(DimensionError):
        K2.pair(cls(1, 0), cls(1, 0, 0))


@given(
    st.tuples(*[st.integers(-9, 9)] * 4),
    st.tuples(*[st.integers(-9, 9)] * 4),
)
def test_pairing_symmetric(xs, ys):
    x, y = LatticeClass(xs), LatticeClass(ys)
    assert K3.pair(x, y) == K3.pair(y, x)


# ---------------------------------------------------------------------------
# canonical class
# ---------------------------------------------------------------------------


def test_canonical_class_coefficients():
    assert canonical_class(0) == cls(-3)
    assert canonical_class(3) == cls(-3, 1, 1, 1)


@pytest.mark.parametrize("k", range(4))
def test_canonical_self_pairing(k):
    lat = default_lattice(k)
    assert lat.pair(lat.canonical, lat.canonical) == 9 - k


# ---------------------------------------------------------------------------
# exceptional classes against the independent box oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", range(4))
def test_exceptional_classes_match_box_oracle(k):
    lat = default_lattice(k)
    got = {c.coeffs for c in exceptional_classes(lat)}
    assert got == brute_force_exceptional(lat)


def test_exceptional_classes_named_sets():
    assert names(default_lattice(1), exceptional_classes(default_lattice(1))) == {"E1"}
    assert names(K2, exceptional_classes(K2)) == {"E1", "E2", "L-E1-E2"}
    k3 = names(K3, exceptional_classes(K3))
    assert k3 == {"E1", "E2", "E3", "L-E1-E2", "L-E1-E3", "L-E2-E3"}
    assert len(exceptional_classes(K3)) == 6


def test_enumeration_certified_range(monkeypatch):
    # the default-basis lists are complete up to the finite limit, and only there
    import dhwalk.lattice
    from dhwalk.errors import PreconditionError

    for k in range(9):
        got = [c.nums for c in exceptional_classes(default_lattice(k))]
        assert got == sorted(marked_classes_by_bounds(k, -1, -1))
    with pytest.raises(PreconditionError):
        exceptional_classes(default_lattice(9))
    searched = []
    enumerate_classes = dhwalk.lattice._solutions

    def recording(gram, *args):
        searched.append(gram)
        return enumerate_classes(gram, *args)

    monkeypatch.setattr(dhwalk.lattice, "_solutions", recording)
    exceptional_classes(default_lattice(8))
    assert searched == []
    hyp = hyperbolic_lattice()
    assert exceptional_classes(hyp) == ()
    assert searched == [hyp.gram]
    k4 = default_lattice(4)
    assert {c.coeffs for c in exceptional_classes(k4)} == brute_force_exceptional(k4)


EXCEPTIONAL_COUNTS = (0, 1, 3, 6, 10, 16, 27, 56, 240)
RULING_COUNTS = (0, 1, 2, 3, 5, 10, 27, 126, 2160)


@pytest.mark.parametrize("k", range(9))
def test_marked_classes_match_bounded_oracle(k):
    lat = default_lattice(k)
    for enumerate_classes, pairs, counts in (
        (exceptional_classes, (-1, -1), EXCEPTIONAL_COUNTS),
        (ruling_classes, (0, -2), RULING_COUNTS),
    ):
        got = [c.nums for c in enumerate_classes(lat)]
        assert got == sorted(marked_classes_by_bounds(k, *pairs))
        assert len(got) == counts[k]


def test_eight_point_list_reaches_past_the_box():
    lat = default_lattice(8)
    assert cls(6, -3, *(-2,) * 7) in exceptional_classes(lat)
    assert max(max(abs(a) for a in c.nums) for c in ruling_classes(lat)) > 3


def test_weyl_reflection_is_the_cremona_involution():
    sigma = cremona_standard(default_lattice(5), 1, 2, 3)
    for t in [(0, 1, 0, 0, 0, 0), (1, -1, 0, 0, 0, 0), (3, -2, -1, -1, -1, -1), (2, 0, 0, 0, -1, -1)]:
        *_, cremona = _simple_reflections(t)
        assert cremona == sigma.apply(LatticeClass(t)).nums


def test_ruling_classes():
    assert names(K2, ruling_classes(K2)) == {"L-E1", "L-E2"}
    hyp = hyperbolic_lattice()
    assert names(hyp, ruling_classes(hyp)) == {"A", "B"}
    assert exceptional_classes(hyp) == ()


# ---------------------------------------------------------------------------
# Cremona involution
# ---------------------------------------------------------------------------


def test_cremona_images():
    sigma = cremona_standard(K3, 1, 2, 3)
    L, E1 = K3.basis(0), K3.basis(1)
    assert sigma.apply(L) == cls(2, -1, -1, -1)
    assert sigma.apply(E1) == cls(1, 0, -1, -1)
    image = sigma.apply(E1)
    assert K3.pair(image, image) == -1
    assert K3.pair(image, K3.canonical) == -1


def test_cremona_is_involution_and_fixes_canonical():
    sigma = cremona_standard(K3, 1, 2, 3)
    assert is_identity(compose(sigma, sigma))
    assert sigma.preserves_canonical
    assert sigma.apply(K3.canonical) == K3.canonical


def test_cremona_needs_three_blowups():
    with pytest.raises(ValueError):
        cremona_standard(K2, 1, 2, 2)
    with pytest.raises(ValueError):
        cremona_standard(K2, 1, 2, 3)


def test_isometry_validation_rejects_non_isometries():
    with pytest.raises(ValueError):
        LatticeIsometry.for_lattice(K2, [[1, 0, 0], [0, 1, 1], [0, 0, 1]])


# ---------------------------------------------------------------------------
# the map laws: pullback is the adjoint of apply, and a right inverse of it
# for presentations and blow-downs
# ---------------------------------------------------------------------------


def probes(lattice):
    basis = [lattice.basis(i) for i in range(lattice.rank)]
    return basis + [Fraction(1, 3) * lattice.canonical]


def assert_map_laws(f, right_inverse):
    for y in probes(f.target):
        pulled = f.pullback(y)
        for x in probes(f.source):
            assert f.target.pair(y, f.apply(x)) == f.source.pair(pulled, x), (x, y)
        if right_inverse:
            assert f.apply(pulled) == y


# the default k = 2 lattice in the bases (L, L+E1, E2) and (L, E1+4E2, E2): unlike
# every lattice a walk holds, their grams are not their own inverses
SKEWED = [
    general_lattice(((1, 1, 0), (1, 0, 0), (0, 0, -1)), (-4, 1, 1)),
    general_lattice(((1, 0, 0), (0, -17, -4), (0, -4, -1)), (-3, 1, -3)),
]


@pytest.mark.parametrize("k", range(1, 4))
def test_presentations_of_blown_up_sphere_products_obey_the_map_laws(k):
    change = canonical_presentation(blown_up_sphere_product(k))
    assert change.target is default_lattice(k + 1)
    assert_map_laws(change, right_inverse=True)


@pytest.mark.parametrize("lat", SKEWED, ids=["L+E1", "E1+4E2"])
def test_presentations_and_contractions_of_skewed_grams_obey_the_map_laws(lat):
    assert_map_laws(canonical_presentation(lat), right_inverse=True)
    for c in exceptional_classes(lat):
        assert_map_laws(blow_down_data(lat, c), right_inverse=True)


def test_blow_ups_obey_the_map_laws():
    for lat in [default_lattice(k) for k in range(9)] + [hyperbolic_lattice()] + SKEWED:
        inclusion = blow_up_lattice(lat)
        assert_map_laws(inclusion, right_inverse=False)
        for x in probes(lat):  # the other way round: pullback undoes the inclusion
            assert inclusion.pullback(inclusion.apply(x)) == x


@pytest.mark.parametrize("k", range(1, 8))
def test_every_contraction_obeys_the_map_laws(k):
    lat = default_lattice(k)
    for c in exceptional_classes(lat):
        assert_map_laws(blow_down_data(lat, c), right_inverse=True)


def test_every_contraction_of_the_blown_up_sphere_product_obeys_the_map_laws():
    lat = blown_up_sphere_product(1)
    for c in exceptional_classes(lat):
        assert_map_laws(blow_down_data(lat, c), right_inverse=True)


# ---------------------------------------------------------------------------
# blow-up
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", range(9))
def test_blow_up_of_a_default_lattice_is_the_interned_default_lattice(k):
    assert blow_up_lattice(default_lattice(k)).target is default_lattice(k + 1)


def test_blow_up_stabilisation():
    inclusion = blow_up_lattice(default_lattice(0))
    up = inclusion.target
    assert up.labels == ("L", "E1")
    assert inclusion.apply(cls(1)) == cls(1, 0)
    L = cls(1)
    assert up.pair(inclusion.apply(L), inclusion.apply(L)) == default_lattice(0).pair(L, L)
    # canonical gains the new exceptional generator, the last basis class
    assert up.canonical == inclusion.apply(default_lattice(0).canonical) + up.basis(1)


@given(st.tuples(*[st.integers(-6, 6)] * 3), st.tuples(*[st.integers(-6, 6)] * 3))
def test_blow_up_preserves_pairing(xs, ys):
    inclusion = blow_up_lattice(K2)
    x, y = LatticeClass(xs), LatticeClass(ys)
    assert inclusion.target.pair(inclusion.apply(x), inclusion.apply(y)) == K2.pair(x, y)


# ---------------------------------------------------------------------------
# blow-down
# ---------------------------------------------------------------------------


def test_blow_down_coordinate_drop():
    bdm = blow_down_data(K2, K2.basis(2))  # contract E2
    assert bdm.target.labels == ("L", "E1")
    assert pullback_basis(bdm) == (cls(1, 0, 0), cls(0, 1, 0))
    assert bdm.apply(cls(2, -1, 5)) == cls(2, -1)


def test_blow_down_line_through_two_points_in_three_blowups():
    c = cls(1, -1, -1, 0)  # L - E1 - E2
    bdm = blow_down_data(K3, c)
    assert bdm.target.is_default
    # line class downstairs pulls back to the conic-type class
    assert pullback_basis(bdm)[0] == cls(2, -1, -1, -1)
    assert set(pullback_basis(bdm)[1:]) == {cls(1, 0, -1, -1), cls(1, -1, 0, -1)}
    # the third exceptional generator maps to the downstairs line difference
    assert bdm.apply(K3.basis(3)) == cls(1, -1, -1)
    assert bdm.target.name_of(bdm.apply(K3.basis(3))) == "L-E1-E2"


def test_blow_down_even_complement_lands_on_sphere_product():
    c = cls(1, -1, -1)  # L - E1 - E2 with only two blow-ups
    bdm = blow_down_data(K2, c)
    assert bdm.target.is_hyperbolic_plane
    assert bdm.target.gram == ((0, 1), (1, 0))
    assert bdm.target.canonical == cls(-2, -2)
    assert pullback_basis(bdm) == (cls(1, -1, 0), cls(1, 0, -1))


def test_blow_down_pushforward_of_contracted_class_is_zero():
    c = cls(1, -1, -1, 0)
    bdm = blow_down_data(K3, c)
    assert is_zero(bdm.apply(c))


def test_blow_down_rejects_non_exceptional():
    with pytest.raises(InvalidBlowDownError):
        blow_down_data(K2, cls(1, 0, 0))
    with pytest.raises(InvalidBlowDownError):
        blow_down_data(K2, cls(0, 1, 1))


def test_blow_down_on_a_skewed_gram_presents_a_coefficient_beyond_three():
    # the two-point blow-up of the plane in the basis (L, E1+4E2, E2): contracting
    # E2 leaves the lattice spanned by L and E1 = (0, 1, -4), a coefficient of 4
    # that a search bounded by |a| <= 3 never reached; the complete enumeration
    # presents it
    skewed = general_lattice(((1, 0, 0), (0, -17, -4), (0, -4, -1)), (-3, 1, -3))
    assert cls(0, 1, -4) in exceptional_classes(skewed)
    bdm = blow_down_data(skewed, cls(0, 0, 1))
    assert pullback_basis(bdm) == (cls(1, 0, 0), cls(0, 1, -4))
    assert bdm.target == default_lattice(1)


@pytest.mark.parametrize(
    "lattice,c",
    [
        (K3, cls(1, -1, -1, 0)),
        (K3, cls(0, 0, 1, 0)),
        (K2, cls(1, -1, -1)),
        (K2, cls(0, 0, 1)),
    ],
)
@given(data=st.data())
def test_blow_down_transfer_operators(lattice, c, data):
    bdm = blow_down_data(lattice, c)
    r_down = bdm.target.rank
    xs = data.draw(st.tuples(*[st.integers(-8, 8)] * r_down))
    ys = data.draw(st.tuples(*[st.integers(-8, 8)] * r_down))
    x, y = LatticeClass(xs), LatticeClass(ys)
    # pullback preserves the pairing and pushforward is its left inverse
    assert lattice.pair(bdm.pullback(x), bdm.pullback(y)) == bdm.target.pair(x, y)
    assert bdm.apply(bdm.pullback(x)) == x
    # pullbacks are orthogonal to the contracted class
    assert lattice.pair(bdm.pullback(x), c) == 0


@pytest.mark.parametrize("k", range(1, 9))
def test_line_orbit_is_every_odd_class_of_a_line(k):
    # with something to contract (k >= 1), the classes with X.X = 1 and
    # X.K = -3 are the W(E_k) orbit of L, except at k = 8 the 240
    # characteristic ones (-K + 2E), whose complement is even
    lines = {c.nums for c in _weyl_orbit(((1,) + (0,) * k,))}
    canonical = default_lattice(k).canonical.nums
    candidates = marked_classes_by_bounds(k, 1, -3)
    characteristic = {x for x in candidates if all((a - b) % 2 == 0 for a, b in zip(x, canonical))}
    assert lines == candidates - characteristic
    assert len(characteristic) == (240 if k == 8 else 0)


@pytest.mark.parametrize("k", range(5))
def test_blow_down_basis_matches_the_box_search(k):
    lat = default_lattice(k)
    for c in exceptional_classes(lat):
        bdm = blow_down_data(lat, c)
        expected = box_default_presentation(lat.gram, lat.canonical.nums, c.nums)
        if expected is None:  # L-E1-E2 at k = 2 contracts to the sphere product
            assert bdm.target.is_hyperbolic_plane
        else:
            assert tuple(b.nums for b in pullback_basis(bdm)) == expected
            assert bdm.target == default_lattice(k - 1)


@pytest.mark.parametrize("k", range(5, 9))
def test_blow_down_basis_is_a_default_presentation(k):
    lat = default_lattice(k)
    default_gram = tuple((1 if i == 0 else -1) if i == j else 0 for j in range(k) for i in range(k))
    for c in exceptional_classes(lat):
        bdm = blow_down_data(lat, c)
        assert bdm.target == default_lattice(k - 1)
        basis = pullback_basis(bdm)
        x0, *fs = basis
        assert tuple(lat.pair(a, b) for a in basis for b in basis) == default_gram
        assert all(lat.pair(b, c) == 0 for b in basis)
        total = -3 * x0
        for f in fs:
            total = total + f
        assert total == lat.canonical - c


def test_relabelled_default_gram_is_relabelled_in_place():
    lat = general_lattice(default_lattice(3).gram)
    assert lat.labels == ("G1", "G2", "G3", "G4") and not lat.is_default
    change = canonical_presentation(lat)
    assert change.target == K3
    identity = box_default_presentation(lat.gram, lat.canonical.nums)
    assert tuple(change.pullback(K3.basis(i)).nums for i in range(4)) == identity
    assert exceptional_classes(lat) == exceptional_classes(K3)


# ---------------------------------------------------------------------------
# signatures and presentations
# ---------------------------------------------------------------------------


def test_gram_signature():
    assert gram_signature(K3.gram) == (1, 3)
    assert gram_signature(((0, 1), (1, 0))) == (1, 1)
    assert hyperbolic_lattice().is_even
    assert not K2.is_even


def test_unimodularity_enforced():
    with pytest.raises(ValueError):
        general_lattice([[2, 0], [0, -1]], canonical=[0, 0])


def test_canonical_presentation_of_blown_up_sphere_product():
    lat = blow_up_lattice(hyperbolic_lattice()).target
    change = canonical_presentation(lat)
    assert change is not None
    assert change.target.is_default
    # the line class of the default presentation is A + B - E
    assert change.pullback(change.target.basis(0)) == cls(1, 1, -1)
    # round trip identity
    x = cls(2, -3, 1)
    assert change.pullback(change.apply(x)) == x


def test_canonical_presentation_noop_on_canonical_bases():
    assert canonical_presentation(K3) is None
    assert canonical_presentation(hyperbolic_lattice()) is None


# the default gram of rank 10 with K = (-3, 1, ..., 1, 0): finite (K.K = 1),
# but every presentation target has K.K = 10 - rank = 0
UNPRESENTABLE = general_lattice(default_lattice(9).gram, canonical=(-3,) + (1,) * 8 + (0,))


def _no_search(monkeypatch):
    import dhwalk.lattice

    def never(*args):
        raise AssertionError("no search may start on a K.K no target has")

    monkeypatch.setattr(dhwalk.lattice, "_solutions", never)


def test_canonical_presentation_refuses_a_wrong_canonical_square_before_searching(monkeypatch):
    from dhwalk.errors import PreconditionError

    _no_search(monkeypatch)
    with pytest.raises(PreconditionError, match="neither a default nor a ruling presentation"):
        canonical_presentation(UNPRESENTABLE)


def test_blow_down_refuses_a_wrong_canonical_square_before_searching(monkeypatch):
    _no_search(monkeypatch)
    with pytest.raises(InvalidBlowDownError, match="contracting G2"):
        blow_down_data(UNPRESENTABLE, UNPRESENTABLE.basis(1))


def test_basis_independent_fingerprint_under_cremona():
    # the multiset of (C.C, C.K) over exceptional classes and the multiset of
    # pairings with a fixed class are isometry invariants
    sigma = cremona_standard(K3, 1, 2, 3)
    e = cls(-1, 1, 1, 1)
    before = sorted(K3.pair(e, c) for c in exceptional_classes(K3))
    after = sorted(
        K3.pair(sigma.apply(e), sigma.apply(c)) for c in exceptional_classes(K3)
    )
    assert before == after
    # the image of the exceptional set is the exceptional set
    image = {sigma.apply(c).coeffs for c in exceptional_classes(K3)}
    assert image == {c.coeffs for c in exceptional_classes(K3)}


def test_enumerations_refuse_more_than_eight_blowups(monkeypatch):
    import dhwalk.lattice
    from dhwalk.errors import PreconditionError

    def never(*args):
        raise AssertionError("no enumeration may start beyond eight blow-ups")

    monkeypatch.setattr(dhwalk.lattice, "_solutions", never)
    for enumerate_classes in (exceptional_classes, ruling_classes):
        with pytest.raises(PreconditionError, match="infinitely many"):
            enumerate_classes(default_lattice(9))
