"""The complete class enumeration and the presentation rule built on it.

``_solutions`` lists every integral x with fixed ``x.x`` and ``x.K``.  Its
oracles are independent of it: the Weyl-orbit lists of the default basis
(generated by reflections, not by enumeration), the same lists moved through
random unimodular changes of basis, and the box search for a default
presentation that the rule replaced (``testutil.box_default_presentation``).
"""

import itertools
import time
from operator import mul

import pytest
from hypothesis import given, seed, settings, strategies as st

from dhwalk import lattice
from dhwalk.errors import PreconditionError
from dhwalk.lattice import (
    LatticeClass,
    _solutions,
    blow_down_data,
    canonical_presentation,
    default_lattice,
    exceptional_classes,
    general_lattice,
    hyperbolic_lattice,
    ruling_classes,
)
from dhwalk.scenario import CriticalLevel, FixedPointData, point_component
from dhwalk.walk import run_walk
from testutil import (
    blown_up_sphere_product,
    box_default_presentation,
    cls,
    column_moves,
    fourfold_component,
    fraction_coeffs,
    marked_classes_by_bounds,
    pullback_basis,
    weyl_orbit,
)

MARKED = ((exceptional_classes, -1, -1), (ruling_classes, 0, -2))


def _nums(classes) -> list:
    return [c.nums for c in classes]


@pytest.mark.parametrize("k", range(9))
def test_solutions_are_the_weyl_lists(k):
    lat = default_lattice(k)
    gram, canonical = lat.gram, lat.canonical.nums
    for enumerate_classes, s, c in MARKED:
        assert _solutions(gram, canonical, s, c) == enumerate_classes(lat)
    if k <= 7:
        assert _solutions(gram, canonical, 1, -3) == weyl_orbit(((1,) + (0,) * k,))


def test_eight_point_line_list_adds_the_characteristic_orbit():
    lat = default_lattice(8)
    lines = _solutions(lat.gram, lat.canonical.nums, 1, -3)
    assert lines == weyl_orbit(((1,) + (0,) * 8, (3,) + (-1,) * 7 + (1,)))  # L and -K + 2E8
    assert len(lines) == len(marked_classes_by_bounds(8, 1, -3)) == 17520
    characteristic = [x for x in lines if all((a - b) % 2 == 0 for a, b in
                                              zip(x.nums, lat.canonical.nums))]
    assert len(characteristic) == 240


@st.composite
def unimodular_changes(draw):
    """``(k, U, U^-1)``: a default rank k+1 <= 6 and column moves ``col_i += m col_j``."""
    k = draw(st.integers(0, 5))
    moves = st.tuples(st.integers(0, k), st.integers(0, k), st.integers(-2, 2))
    return (k, *column_moves(k + 1, draw(st.lists(moves, max_size=6)) if k else ()))


@seed(10)
@settings(max_examples=60, deadline=None)
@given(unimodular_changes())
def test_solutions_follow_a_change_of_basis(change):
    k, u, u_inv = change
    lat = default_lattice(k)
    r = k + 1
    gram = tuple(
        tuple(sum(u[a][i] * lat.gram[a][b] * u[b][j] for a in range(r) for b in range(r))
              for j in range(r))
        for i in range(r)
    )

    def moved(v):
        return tuple(sum(row[t] * v[t] for t in range(r)) for row in u_inv)

    canonical = moved(lat.canonical.nums)
    lines = weyl_orbit(((1,) + (0,) * k,))
    for listed, s, c in ((exceptional_classes(lat), -1, -1), (ruling_classes(lat), 0, -2),
                         (lines, 1, -3)):
        assert _nums(_solutions(gram, canonical, s, c)) == sorted(moved(x.nums) for x in listed)


def test_skewed_gram_lists_a_class_outside_the_box():
    skewed = ((1, 0, 0), (0, -17, -4), (0, -4, -1))
    assert cls(0, 1, -4) in _solutions(skewed, (-3, 1, -3), -1, -1)


@pytest.mark.parametrize(
    "gram,canonical",
    [
        (lattice._default_gram(9), (-3,) + (1,) * 9),  # K.K = 0
        (((1, 0, 0), (0, -1, 0), (0, 0, -1)), (-3, 3, 1)),  # K.K = -1
        (((1, 0, 0), (0, 1, 0), (0, 0, -1)), (3, 0, 0)),  # signature (2, 1)
    ],
    ids=["kk-zero", "kk-negative", "signature-2-1"],
)
def test_solutions_refuse_unbounded_lattices(gram, canonical):
    with pytest.raises(PreconditionError, match="infinitely many"):
        _solutions(gram, canonical, -1, -1)


# ---------------------------------------------------------------------------
# the presentation rule
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", range(1, 4))
def test_presentation_of_blown_up_sphere_products_matches_the_box_search(k):
    lat = blown_up_sphere_product(k)
    change = canonical_presentation(lat)
    assert change.target is default_lattice(k + 1)
    basis = tuple(change.pullback(change.target.basis(i)).nums for i in range(lat.rank))
    assert basis == box_default_presentation(lat.gram, lat.canonical.nums)


@pytest.mark.parametrize("k", range(1, 3))
def test_blow_downs_of_blown_up_sphere_products_match_the_box_search(k):
    lat = blown_up_sphere_product(k)
    for c in exceptional_classes(lat):
        bdm = blow_down_data(lat, c)
        expected = box_default_presentation(lat.gram, lat.canonical.nums, c.nums)
        if expected is None:  # contracting E1 at k = 1 gives back the sphere product
            assert bdm.target is hyperbolic_lattice()
        else:
            assert _nums(pullback_basis(bdm)) == list(expected)
            assert bdm.target is default_lattice(k)


def test_relabelling_in_place_keeps_the_declared_order():
    # a hyperbolic gram under generic labels is relabelled, not re-sorted to (B, A)
    change = canonical_presentation(general_lattice(((0, 1), (1, 0))))
    assert change.target is hyperbolic_lattice()
    assert change.matrix == ((1, 0), (0, 1))


ODD = general_lattice(((1, 0, 0), (0, -1, 0), (0, 0, -1)), (-3, 1, 0))


ODD_REFUSAL = ("rank 3 lattice with K = (-3,1,0): K is not characteristic, K.x - x.x is odd "
               "on basis vector 3 (Wu's formula)")


def test_lattice_without_a_presentation_is_refused():
    # K = (-3, 1, 0) is not characteristic and K.K = 8: its one line class
    # (1, 0, 0) has one exceptional class, (0, 1, 0), orthogonal to it where a
    # default basis needs two, and rank 3 leaves no ruling basis.  Wu's formula
    # refuses it before any search.
    with pytest.raises(PreconditionError) as refusal:
        canonical_presentation(ODD)
    assert str(refusal.value) == ODD_REFUSAL


def test_contraction_on_a_lattice_without_a_presentation_is_refused():
    # (0, 1, 0) is exceptional on the lattice above; had its quotient a presentation,
    # adding the class back would present the lattice.  The lattice's own law refuses it.
    with pytest.raises(PreconditionError) as refusal:
        blow_down_data(ODD, cls(0, 1, 0))
    assert str(refusal.value) == ODD_REFUSAL


# Every odd unimodular lattice of signature (1, n) is diag(1, -1, ..., -1) and the one
# even one of rank at most 9 is the hyperbolic plane, so these boxes of K hold every
# (gram, K) up to isometry within their bounds
LAW_BOXES = [(lattice._default_gram(k), box) for k, box in enumerate((9, 9, 7, 5, 3))]
LAW_BOXES.append((((0, 1), (1, 0)), 9))


def _by_the_laws(presented: bool):
    """Each (gram, K) of the boxes that obeys (``presented``) or breaks Wu's and Noether's
    formulas, decided here from the pairing alone."""
    for gram, box in LAW_BOXES:
        for k in itertools.product(range(-box, box + 1), repeat=len(gram)):
            gk = [sum(map(mul, row, k)) for row in gram]
            characteristic = all((x - row[i]) % 2 == 0 for i, (x, row) in enumerate(zip(gk, gram)))
            if (characteristic and sum(map(mul, k, gk)) == 10 - len(gram)) is presented:
                yield gram, k


def test_every_lattice_that_obeys_the_laws_is_presented():
    found = 0
    for gram, k in _by_the_laws(True):
        lat = general_lattice(gram, k)
        change = canonical_presentation(lat)
        target = default_lattice(len(gram) - 1) if gram[0][0] else hyperbolic_lattice()
        assert change.target is target, (gram, k)
        assert change.apply(lat.canonical) == target.canonical, (gram, k)
        found += 1
    assert found == 120


def test_every_lattice_that_breaks_a_law_is_refused_before_any_search(monkeypatch):
    def never(*args):
        raise AssertionError("no search may start on a lattice that breaks a law")

    monkeypatch.setattr(lattice, "_solutions", never)
    refused = 0
    for gram, k in _by_the_laws(False):
        with pytest.raises(PreconditionError):
            canonical_presentation(general_lattice(gram, k))
        refused += 1
    assert refused == 35444


def test_contraction_beyond_eight_points_is_refused_before_any_work(monkeypatch):
    def never(k):  # on the infinite orbit at k = 9 the closure would not end
        raise AssertionError(f"Weyl-word closure started at k = {k}")

    monkeypatch.setattr(lattice, "_contractions", never)
    lat = default_lattice(9)
    with pytest.raises(PreconditionError, match="infinitely many"):
        blow_down_data(lat, lat.basis(9))


def test_five_points_on_a_sphere_product_walk_fast(cold_lattice_caches):
    hyp = ((0, 1), (1, 0))
    data = FixedPointData.build("five-points", 6, "small", [
        CriticalLevel(0, [fourfold_component(0, hyp, (3, 3))]),
        CriticalLevel(1, [point_component(2)] * 5),
        CriticalLevel(2, [point_component(6)]),
    ])
    start = time.perf_counter()
    trace = run_walk(data)
    assert time.perf_counter() - start < 2
    first, second = trace.intervals[0].lattice, trace.intervals[1].lattice
    assert first is hyperbolic_lattice()
    assert second is default_lattice(6)
    assert second.labels == ("L", "E1", "E2", "E3", "E4", "E5", "E6")
    assert len(exceptional_classes(second)) == 27


def _points_on_a_sphere_product(n: int) -> FixedPointData:
    """A declared S2xS2 minimum with areas 3, 3 and n index-2 points at t = 1."""
    return FixedPointData.build(f"{n}-points", 6, "small", [
        CriticalLevel(0, [fourfold_component(0, ((0, 1), (1, 0)), (3, 3))]),
        CriticalLevel(1, [point_component(2)] * n),
        CriticalLevel(2, [point_component(6)]),
    ])


@pytest.mark.parametrize("k", range(1, 7))
def test_presenting_after_each_blow_up_equals_presenting_once(k):
    # the walk presents after every blow-up; presenting the k-fold blow-up of
    # the sphere product once, by hand, lands on the same basis
    trace = run_walk(_points_on_a_sphere_product(k))
    first, second = trace.intervals[0], trace.intervals[1]
    change = canonical_presentation(blown_up_sphere_product(k))
    ones = (1,) * k  # each blow-up at t = 1 adds E to e and 1*E to the base
    base = LatticeClass(fraction_coeffs(first.base) + ones)
    euler = LatticeClass(fraction_coeffs(first.euler) + ones)
    assert change.target is second.lattice is default_lattice(k + 1)
    assert change.apply(base) == second.base
    assert change.apply(euler) == second.euler


def test_seven_points_on_a_sphere_product_enumerate_no_gram_above_rank_three(
    monkeypatch, cold_lattice_caches
):
    enumerate_classes, ranks = lattice._solutions, []

    def spy(gram, *args):
        ranks.append(len(gram))
        return enumerate_classes(gram, *args)

    monkeypatch.setattr(lattice, "_solutions", spy)
    trace = run_walk(_points_on_a_sphere_product(7))
    assert trace.intervals[1].lattice is default_lattice(8)
    assert ranks and max(ranks) == 3  # the sphere product blown up once
