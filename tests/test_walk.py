import ast
import inspect
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from dhwalk import family as family_module, walk
from dhwalk.classify import classify, compare_fixed_point_data, small_data_bootstrap
from dhwalk.errors import WALK_REFUSALS, PreconditionError, WalkError
from dhwalk.family import AffineClassFamily, Interval, WalkFrame, symplectic_cone_check
from dhwalk.formatting import fmt_q
from dhwalk.io import load_scenario, parse_scenario, serialize_scenario, trace_text
from dhwalk.lattice import (
    IntersectionLattice,
    LatticeClass,
    _default_gram,
    blow_up_lattice,
    canonical_presentation,
    default_lattice,
    hyperbolic_lattice,
)
from dhwalk.rigidity import lookup
from dhwalk.scenario import (
    ComponentKind,
    CriticalLevel,
    FixedComponent,
    FixedPointData,
    point_component,
    three_sphere_product_data,
    time_reversed,
    validate_structure,
)
from dhwalk.walk import (
    CrossingEvent,
    WalkTrace,
    compose_traces,
    cross_level,
    declared_family,
    finalize_at_maximum,
    init_from_minimum,
    run_walk,
    split_trace,
    state_fingerprint,
)
from testutil import (
    area,
    area_text,
    area_view,
    box_slice_area,
    carried_surface_data,
    check_leaves,
    cls,
    column_moves,
    fingerprint_at,
    fourfold_component,
    fraction_value_lattice_check,
    is_zero,
    isolated_scenario,
    moved_fourfold,
    pencil_data,
    random_triple,
    reference_volume,
    small_universe,
    surface_component,
    universe_data,
    with_negated_euler,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def make_state(k, base, euler, lo, hi):
    lat = default_lattice(k)
    return AffineClassFamily(lat, lat.cls(*base), -lat.cls(*euler), Interval(lo, hi))


# ---------------------------------------------------------------------------
# initial states
# ---------------------------------------------------------------------------


def test_init_isolated_minimum_is_hopf_reduction():
    state, declared = init_from_minimum(three_sphere_product_data(2, 3, 4))
    assert not declared
    assert state.frame.k == 0
    assert state.lattice.pair(state.euler, state.lattice.basis(0)) == -1
    assert area(state, state.lattice.basis(0), 1) == 1  # area(L) = t


def product_min():
    """Declared sphere-product extrema at 0 and 4 with areas (1, 2) and no Euler class."""
    return FixedPointData.build("product-min", 6, "small", [
        CriticalLevel(0, [fourfold_component(0, ((0, 1), (1, 0)), (1, 2), 0)]),
        CriticalLevel(4, [fourfold_component(2, ((0, 1), (1, 0)), (1, 2), 0)]),
    ])


def test_init_fourfold_minimum_taken_at_face_value():
    data = product_min()
    state, declared = init_from_minimum(data)
    assert declared
    assert state.lattice.form == "ruling"
    assert is_zero(state.euler)
    trace = run_walk(data)
    assert trace.declared_extremum
    assert trace.final_report.passed


def six_blowup_minimum(areas):
    """A declared fourfold minimum on the default k = 6 gram, maximum one unit up."""
    gram = tuple(tuple((1 if i == 0 else -1) if i == j else 0 for j in range(7)) for i in range(7))
    top = (areas[0] + 1,) + tuple(areas[1:])
    return FixedPointData.build(
        "six-blowup-minimum",
        6,
        "small",
        [
            CriticalLevel(0, [fourfold_component(0, gram, areas, 1)]),
            CriticalLevel(1, [fourfold_component(2, gram, top, 1)]),
        ],
    )


def test_declared_default_minimum_gets_default_labels():
    data = six_blowup_minimum((6,) + (1,) * 6)
    state, declared = init_from_minimum(data)
    assert declared
    assert state.lattice.labels == ("L", "E1", "E2", "E3", "E4", "E5", "E6")
    assert state.lattice == default_lattice(6)
    # the Li-Liu criterion applies on the first interval, not "unknown"
    assert symplectic_cone_check(state, Fraction(1, 2)).status is True
    line = area_view(state).line
    assert line is not None and (line.const, line.slope) == (6, 1)
    first = trace_text(run_walk(data)).splitlines()[2]
    assert first.startswith("interval (0,1): k=6 [L/E1/E2/E3/E4/E5/E6]  areas: L=t+6  E6=1")


def test_declared_default_minimum_outside_the_cone_is_refused():
    # E1 has negative area: the cone check now fails instead of returning "unknown"
    data = six_blowup_minimum((6, -1) + (1,) * 5)
    with pytest.raises(WalkError, match="symplectic cone violated") as refused:
        init_from_minimum(data)
    assert (refused.value.wall, refused.value.kind) == (0, "cone")


def test_init_surface_minimum_unsupported():
    data = FixedPointData.build(
        "surface-min",
        6,
        "small",
        [
            CriticalLevel(0, [surface_component(0, cls(1), genus=0)]),
            CriticalLevel(1, [point_component(6)]),
        ],
    )
    with pytest.raises(WalkError) as refused:
        init_from_minimum(data)
    assert (refused.value.wall, refused.value.kind) == (0, "surface extremum")


# ---------------------------------------------------------------------------
# single crossings against the worked example
# ---------------------------------------------------------------------------


def test_blow_up_crossing_adds_growing_exceptional_area():
    state = make_state(0, base=(0,), euler=(-1,), lo=0, hi=2)
    after = cross_level(state, CriticalLevel(2, [point_component(2)]), 3)[0]
    lat = after.lattice
    assert lat.labels == ("L", "E1")
    assert after.euler == cls(-1, 1)
    assert area_text(after, lat.basis(1)) == "t-2"
    # every old class's area is continuous at the wall
    assert area(after, lat.basis(0), 2) == 2


def test_second_blow_up_matches_the_area_table():
    state = make_state(1, base=(0, 2), euler=(-1, 1), lo=2, hi=3)
    after = cross_level(state, CriticalLevel(3, [point_component(2)]), 4)[0]
    assert after.euler == cls(-1, 1, 1)
    texts = {
        after.lattice.name_of(c): area_text(after, c)
        for c in (after.lattice.basis(i) for i in range(3))
    }
    assert texts == {"L": "t", "E1": "t-2", "E2": "t-3"}


def test_blow_down_crossing_full_worked_example():
    # arriving at the first pairwise-sum wall of the (2,3,4) scenario
    state = make_state(3, base=(0, 2, 3, 4), euler=(-1, 1, 1, 1), lo=4, hi=5)
    assert area(state, cls(1, -1, -1, 0), 5) == 0
    after = cross_level(state, CriticalLevel(5, [point_component(4)]), 6)[0]
    lat = after.lattice
    assert lat == default_lattice(2) and after.frame.k == 2
    assert after.euler == cls(1, -1, -1)  # pushforward of e + C
    texts = {
        lat.name_of(c): area_text(after, c) for c in (lat.basis(i) for i in range(3))
    }
    assert texts == {"L": "9-t", "E1": "7-t", "E2": "6-t"}


def test_iterated_blow_down_to_one_blowup():
    state = make_state(2, base=(9, -7, -6), euler=(1, -1, -1), lo=5, hi=6)
    after = cross_level(state, CriticalLevel(6, [point_component(4)]), 7)[0]
    assert after.frame.k == 1
    assert area_text(after, after.lattice.basis(0)) == "9-t"
    assert area_text(after, after.lattice.basis(1)) == "7-t"


def test_blow_down_without_vanishing_area_is_a_wall_mismatch():
    # declared wall at 9/2, but the only candidate vanishes at 5
    state = make_state(3, base=(0, 2, 3, 4), euler=(-1, 1, 1, 1), lo=4, hi=Fraction(9, 2))
    with pytest.raises(WalkError) as refused:
        cross_level(state, CriticalLevel(Fraction(9, 2), [point_component(4)]), 5)[0]
    assert (refused.value.wall, refused.value.kind) == (Fraction(9, 2), "no vanishing class")


def test_blow_down_with_wrong_euler_pairing_is_rejected():
    # pair(e, E1) = 2 instead of the forced value 1
    state = make_state(1, base=(0, -2), euler=(-1, -2), lo=Fraction(1, 2), hi=1)
    assert area(state, state.lattice.basis(1), 1) == 0
    with pytest.raises(WalkError) as refused:
        cross_level(state, CriticalLevel(1, [point_component(4)]), 2)[0]
    assert (refused.value.wall, refused.value.kind) == (1, "euler pairing")


def test_a_refused_blow_down_is_refused_on_every_visit(monkeypatch, cold_lattice_caches):
    # pair(e, E1) = 2: no edge is kept, so the pairing is checked again
    state = make_state(1, base=(0, -2), euler=(-1, -2), lo=Fraction(1, 2), hi=1)
    for _ in range(2):
        with pytest.raises(WalkError, match="^at wall 1: blow-down of E1") as refused:
            cross_level(state, CriticalLevel(1, [point_component(4)]), 2)
        assert refused.value.kind == "euler pairing"
    assert state.frame._down == [None]
    # a refused contraction leaves no edge either: the next visit builds it
    state = make_state(3, base=(0, 2, 3, 4), euler=(-1, 1, 1, 1), lo=4, hi=5)
    level = CriticalLevel(5, [point_component(4)])

    def refuse(lattice, c):
        raise ValueError("refused")

    with monkeypatch.context() as patch:
        patch.setattr(walk, "blow_down_data", refuse)
        for _ in range(2):
            with pytest.raises(ValueError, match="^refused$"):
                cross_level(state, level, 6)
    assert cross_level(state, level, 6)[0].frame.k == 2
    assert cold_lattice_caches().misses == 1


def test_a_class_left_vanishing_after_the_declared_blow_downs_is_a_wall_mismatch():
    # three blow-ups at 1 leave three classes L-Ei-Ej of area 2-t; one blow-down
    # at 2 contracts the first, and the next, renamed E2, still vanishes there
    data = isolated_scenario({0: [0], 2: [1, 1, 1], 4: [2], 6: [5]})
    with pytest.raises(WalkError) as refused:
        run_walk(data)
    assert (refused.value.wall, refused.value.kind) == (2, "leftover vanishing class")
    assert str(refused.value) == (
        "at wall 2: exceptional class E2 vanishes here but no matching coindex-2 component "
        "is declared")


def test_a_warm_walk_of_points_looks_up_no_lattice_between_walls(monkeypatch):
    # every crossing follows the edges of the frame in hand; the family above
    # an isolated minimum holds its frame, and a declared minimum looks its frame
    # up, which hashes its lattice once
    scenarios = [three_sphere_product_data(*lams) for lams in ((2, 3, 4), (1, 2, 4), (1, 1, 1))]
    scenarios += [time_reversed(data) for data in scenarios]
    traces = [run_walk(data) for data in scenarios]  # warm: every edge built
    calls = Counter()

    def counted(name, fn):
        def spy(*args):
            calls[name] += 1
            return fn(*args)
        return spy

    for module in (walk, family_module):
        for name in ("walk_frame", "blow_up_lattice", "canonical_presentation", "blow_down_data"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    monkeypatch.setattr(IntersectionLattice, "__hash__",
                        counted("IntersectionLattice.__hash__", IntersectionLattice.__hash__))
    for data, trace in zip(scenarios, traces):
        calls.clear()
        assert run_walk(data) == trace
        assert calls["walk_frame"] <= 1
        assert calls["IntersectionLattice.__hash__"] <= calls["walk_frame"]
        assert set(calls) <= {"walk_frame", "IntersectionLattice.__hash__"}


def test_a_warm_walk_pairs_each_base_once_per_interval(monkeypatch):
    # seven intervals, each pairing its base with itself and the slope: 14 dots; the
    # vanishing tests read the arriving rows, and only the maximum check pairs
    # through ``pair``, once: the line with the arriving class at the maximum
    data = load_scenario(SCENARIOS / "three_spheres_2_3_4.json")
    trace = run_walk(data)
    calls = Counter()
    for name in ("dot", "pair"):
        method = getattr(IntersectionLattice, name)

        def spy(*args, _name=name, _method=method):
            calls[_name] += 1
            return _method(*args)

        monkeypatch.setattr(IntersectionLattice, name, spy)
    assert run_walk(data) == trace
    assert calls == {"dot": 15, "pair": 1}  # each pair is one dot


def test_a_level_of_blow_downs_hands_the_leftover_tests_row_to_the_next_interval(monkeypatch):
    # the arriving row finds the vanishing class; the row the leftover test builds on
    # the contracted family is the only one the level builds, and the next interval's
    data = three_sphere_product_data(2, 3, 4)
    trace = run_walk(data)
    i = next(i for i, level in enumerate(data.levels[1:-1], 1)
             if all(c.index == 4 for c in level.components))
    rows, row_of = [], WalkFrame.row_of

    def spy(frame, nums):
        rows.append(row_of(frame, nums))
        return rows[-1]

    monkeypatch.setattr(WalkFrame, "row_of", spy)
    arriving, level = trace.intervals[i - 1], data.levels[i]
    rec, event = cross_level(arriving, level, data.levels[i + 1].value)
    assert [action.kind for action in event.actions] == ["blow_down"]
    assert len(rows) == 1 and rec.row is rows[0]
    assert rec == trace.intervals[i]


def test_a_warm_walk_builds_one_interval_per_trace_interval(monkeypatch):
    # each crossing builds its regular interval once and lands every action's family
    # on it; only the plane above the minimum is carried onto its interval
    data = three_sphere_product_data(2, 3, 4)
    trace = run_walk(data)
    calls = Counter()
    init, with_interval = Interval.__init__, AffineClassFamily.with_interval

    def built(*args):
        calls["Interval"] += 1
        init(*args)

    def carried(*args):
        calls["with_interval"] += 1
        return with_interval(*args)

    monkeypatch.setattr(Interval, "__init__", built)
    monkeypatch.setattr(AffineClassFamily, "with_interval", carried)
    assert run_walk(data) == trace
    assert calls == {"Interval": len(trace.intervals), "with_interval": 1}


def test_a_cold_walk_builds_one_frame_per_node_it_reaches(cold_lattice_caches):
    # the minimum's frame, then one per surgery or surface shift that reaches a new
    # (lattice, slope); three_spheres_1_1_1's level of three blow-ups builds the
    # two frames between its three edges
    misses = {}
    for path in sorted(SCENARIOS.glob("*.json")):
        family_module.walk_frame.cache_clear()
        walk._plane_above_minimum.cache_clear()  # it holds the minimum's frame
        try:
            run_walk(load_scenario(path))
        except WalkError:  # bad_value_lattice, refused at a wall
            pass
        misses[path.stem] = family_module.walk_frame.cache_info().misses
    assert misses == {
        "bad_maximum_8": 7, "bad_value_lattice": 6, "conic_surface_wall": 2,
        "sphere_product_extrema": 2, "three_spheres_1_1_1": 7, "three_spheres_1_2_4": 7,
        "three_spheres_2_3_4": 7,
    }


def test_undeclared_interior_wall_is_inconsistent_data():
    # the (2,3,4) scenario with the first pairwise-sum level left out
    data = FixedPointData.build(
        "missing-wall",
        6,
        "small",
        [CriticalLevel(0, [point_component(0)])]
        + [CriticalLevel(v, [point_component(2)]) for v in (2, 3, 4)]
        + [CriticalLevel(v, [point_component(4)]) for v in (6, 7)]
        + [CriticalLevel(9, [point_component(6)])],
    )
    with pytest.raises(WalkError) as refused:
        run_walk(data)
    # the area of L-E1-E2 vanishes at 5, the midpoint of (4, 6), so the cone check refuses first
    assert (refused.value.wall, refused.value.kind) == (4, "cone")


# ---------------------------------------------------------------------------
# surface crossings
# ---------------------------------------------------------------------------


def test_surface_crossing_shifts_euler_class_up():
    state = make_state(0, base=(0,), euler=(-1,), lo=0, hi=1)
    conic = surface_component(2, cls(2), genus=0)
    after = cross_level(state, CriticalLevel(1, [conic]), 2)[0]
    assert after.euler == cls(1)  # -L + 2L
    assert area_text(after, after.lattice.basis(0)) == "2-t"


def test_surface_crossing_back_down_restores_the_bundle():
    state = make_state(0, base=(2,), euler=(1,), lo=1, hi=Fraction(3, 2))
    down = surface_component(4, cls(2), genus=0)
    after = cross_level(state, CriticalLevel(Fraction(3, 2), [down]), 2)[0]
    assert after.euler == cls(-1)
    assert area_text(after, after.lattice.basis(0)) == "t-1"


def test_surface_crossing_with_exceptional_class():
    state = make_state(1, base=(0, 2), euler=(-1, 1), lo=2, hi=Fraction(5, 2))
    comp = surface_component(2, cls(0, 1), genus=0)
    after = cross_level(state, CriticalLevel(Fraction(5, 2), [comp]), Fraction(11, 4))[0]
    assert after.euler == cls(-1, 2)


@pytest.mark.parametrize("component", [
    surface_component(2, cls(Fraction(1, 2))),
    surface_component(4, cls(Fraction(1, 2))),
    surface_component(2, cls(Fraction(1, 2)), genus=0),
], ids=["index-2", "index-4", "genus-0"])
def test_a_fractional_surface_class_is_refused_at_its_wall(component):
    # validation refuses it too; only a direct library call gets here
    state = make_state(0, base=(0,), euler=(-1,), lo=0, hi=1)
    with pytest.raises(WalkError) as refusal:
        cross_level(state, CriticalLevel(1, [component]), 2)
    assert str(refusal.value) == "at wall 1: surface component needs an integral reduced class"


def test_full_walk_with_surface_wall_and_fourfold_maximum():
    data = FixedPointData.build(
        "conic-capped",
        6,
        "small",
        [
            CriticalLevel(0, [point_component(0)]),
            CriticalLevel(1, [surface_component(2, cls(2), genus=0)]),
            CriticalLevel(
                Fraction(3, 2),
                [fourfold_component(2, ((1,),), (Fraction(1, 2),), normal_euler=1)],
            ),
        ],
    )
    trace = run_walk(data)
    assert trace.k_sequence == (0, 0)
    assert trace.final_report.passed


def blow_down_after_many(k):
    """A declared k-fold blow-up minimum (default gram, generic labels) whose normal
    Euler class -E_k shrinks E_k until an index-4 point contracts it."""
    upper, lower = _default_gram(k), _default_gram(k - 1)
    minimum = fourfold_component(
        0, upper, (10,) + (1,) * (k - 1) + (2,), euler_class=(0,) * k + (-1,)
    )
    maximum = fourfold_component(2, lower, (10,) + (1,) * (k - 1))
    return FixedPointData.build("blow-down-after-many", 6, "small", [
        CriticalLevel(0, [minimum]),
        CriticalLevel(2, [point_component(4)]),
        CriticalLevel(5, [maximum]),
    ])


@pytest.mark.parametrize("k", [6, 8])
def test_blow_down_after_many_blowups_enumerates_no_default_gram(
    k, monkeypatch, cold_lattice_caches
):
    from dhwalk import lattice

    enumerate_classes = lattice._solutions

    def guarded(gram, *args):
        if gram == lattice._default_gram(len(gram) - 1):
            raise AssertionError("no enumeration may run on a default gram")
        return enumerate_classes(gram, *args)

    monkeypatch.setattr(lattice, "_solutions", guarded)
    trace = run_walk(blow_down_after_many(k))
    assert cold_lattice_caches().misses >= 1  # the map was built under the guard
    assert trace.k_sequence == (k, k - 1)
    assert trace.events[0].actions[0].blow_down_map.target == default_lattice(k - 1)
    assert trace.final_report.passed


DECLARED_EXTREMA = {
    "blow-down-after-many": lambda: blow_down_after_many(3),
    "six-blowup-minimum": lambda: six_blowup_minimum((6,) + (1,) * 6),
    "product-min": product_min,
    "sphere-product-extrema": lambda: load_scenario(SCENARIOS / "sphere_product_extrema.json"),
}


@pytest.mark.parametrize("name", DECLARED_EXTREMA)
def test_a_change_of_basis_at_a_declared_extremum_leaves_the_walk_unchanged(name):
    # the data are defined up to isomorphism: each declared extremum moved by
    # seeded column moves (as ``test_enumeration.unimodular_changes`` draws them)
    # walks to the same fingerprints, final report and classification; the
    # trace's bytes follow the declared basis and are not compared
    data = DECLARED_EXTREMA[name]()
    trace, outcome = run_walk(data), classify(data)
    rng = random.Random(name)
    for _ in range(40):
        levels = []
        for lv in data.levels:
            comp = lv.components[0]
            if comp.kind is ComponentKind.FOURFOLD:
                k = len(comp.gram) - 1
                moves = [(rng.randint(0, k), rng.randint(0, k), rng.randint(-2, 2))
                         for _ in range(rng.randint(0, 6))]
                comp = moved_fourfold(comp, *column_moves(k + 1, moves))
            levels.append(CriticalLevel(lv.value, [comp, *lv.components[1:]], lv.euler_minus))
        moved = FixedPointData.build(data.name, 6, data.mode, levels)
        moved_trace, moved_outcome = run_walk(moved), classify(moved)
        assert moved_trace.fingerprints() == trace.fingerprints()
        assert moved_trace.final_report == trace.final_report
        assert (type(moved_outcome), moved_outcome.lines()) == (type(outcome), outcome.lines())


# ---------------------------------------------------------------------------
# whole walks on the product scenarios
# ---------------------------------------------------------------------------


def test_walk_234_matches_the_reduced_space_chain():
    trace = run_walk(three_sphere_product_data(2, 3, 4))
    assert trace.k_sequence == (0, 1, 2, 3, 2, 1, 0)
    assert trace.walls == (2, 3, 4, 5, 6, 7)
    assert trace.moment_range.hi == 9
    assert trace.final_report.passed
    # Euler sign flip between the two ends
    first, last = trace.intervals[0], trace.intervals[-1]
    assert first.lattice.pair(first.euler, first.lattice.basis(0)) == -1
    assert last.lattice.pair(last.euler, last.lattice.basis(0)) == 1


def test_walk_234_exceptional_area_tables():
    trace = run_walk(three_sphere_product_data(2, 3, 4))
    first = trace.intervals[0]
    assert area_text(first, first.lattice.basis(0)) == "t"
    middle = trace.intervals[3]  # the (4,5) interval with three blow-ups
    fam, lat = middle, middle.lattice
    by_name = {lat.name_of(c): area_text(fam, c) for c in (lat.basis(i) for i in range(4))}
    assert by_name == {"L": "t", "E1": "t-2", "E2": "t-3", "E3": "t-4"}
    sums = {
        area_text(fam, cls(1, -1, -1, 0)),
        area_text(fam, cls(1, -1, 0, -1)),
        area_text(fam, cls(1, 0, -1, -1)),
    }
    assert sums == {"5-t", "6-t", "7-t"}


def test_walk_124_passes_through_a_sphere_product():
    trace = run_walk(three_sphere_product_data(1, 2, 4))
    assert trace.k_sequence == (0, 1, 2, 1, 2, 1, 0)
    assert trace.walls == (1, 2, 3, 4, 5, 6)
    middle = trace.intervals[3]
    assert middle.lattice.form == "ruling"
    assert is_zero(middle.euler)
    assert middle.volume(Fraction(7, 2)) == 2  # constant rectangle area
    assert trace.final_report.passed


def test_walk_111_crosses_triple_levels():
    trace = run_walk(three_sphere_product_data(1, 1, 1))
    assert trace.k_sequence == (0, 3, 0)
    assert trace.walls == (1, 2)
    assert len(trace.events[0].actions) == 3
    assert {a.kind for a in trace.events[0].actions} == {"blow_up"}
    assert len(trace.events[1].actions) == 3
    assert {a.kind for a in trace.events[1].actions} == {"blow_down"}
    assert trace.final_report.passed


def test_mixed_point_and_surface_level_composes_both_rules():
    state = make_state(0, base=(0,), euler=(-1,), lo=0, hi=1)
    level = CriticalLevel(
        1, [point_component(2), surface_component(2, cls(2), genus=0)]
    )
    after, event = cross_level(state, level, Fraction(3, 2))
    assert [a.kind for a in event.actions] == ["blow_up", "euler_shift_up"]
    # blow-up then shift: (-L -> -L+E1 -> -L+E1+2L); the swapped composition
    # (shift downstairs, then include and add the generator) lands on the
    # same class, so the level fingerprint is order-independent
    assert after.euler == cls(1, 1)
    swapped = cls(*(cls(-1) + cls(2)).nums, 0) + cls(0, 1)
    assert swapped == after.euler
    assert area(after, after.lattice.basis(1), 1) == 0


def _sphere_product_level(*components) -> FixedPointData:
    """A declared S2xS2 minimum with areas 3, 3, then one level at t = 1."""
    return FixedPointData.build("sphere-product-level", 6, "small", [
        CriticalLevel(0, [fourfold_component(0, ((0, 1), (1, 0)), (3, 3))]),
        CriticalLevel(1, list(components)),
        CriticalLevel(2, [point_component(6)]),
    ])


def test_surface_class_is_carried_through_the_blow_up_and_its_presentation():
    # A/B/E1 is presented as L = A+B-E1, E1 = A-E1, E2 = B-E1, so the ruling A
    # is L-E2 there; left in A/B/E1 coordinates it would read as L
    data = _sphere_product_level(point_component(2), surface_component(2, cls(1, 0), genus=0))
    trace = run_walk(data)
    actions = trace.events[0].actions
    assert [(a.kind, a.class_name) for a in actions] == [
        ("blow_up", "E1"), ("euler_shift_up", "L-E2")]
    change = canonical_presentation(blow_up_lattice(hyperbolic_lattice()).target)
    assert change.apply(cls(1, 0, 0)) == cls(1, 0, -1)
    # e = 0 gains E1 (= L-E1-E2 after the presentation), then the surface L-E2
    assert trace.intervals[1].euler == cls(2, -1, -2)
    assert change.apply(cls(0, 0, 1) + cls(1, 0, 0)) == cls(2, -1, -2)


def test_a_surface_is_carried_through_a_blow_down():
    data = carried_surface_data()
    trace = run_walk(data)
    assert trace.final_report.passed
    assert trace.k_sequence == (0, 1, 1, 1, 0)
    assert [(a.kind, a.class_name) for a in trace.events[-1].actions] == [
        ("blow_down", "E1"), ("euler_shift_down", "L")]  # L-E1 carried to L
    # (t^2, t, 1) coefficients: 1/2*t^2, 3/2*t^2-t, 4, 3/2*t^2-14*t+65/2, 1/2*t^2-5*t+25/2
    half = Fraction(1, 2)
    volumes = [reference_volume(rec) for rec in trace.intervals]
    assert [(v.c2, v.c1, v.c0) for v in volumes] == [
        (half, 0, 0), (3 * half, -1, 0), (0, 0, 4), (3 * half, -14, 65 * half),
        (half, -5, 25 * half)]
    for rec, v in zip(trace.intervals, volumes):
        lo, hi = rec.interval.lo, rec.interval.hi
        assert all(rec.volume(t) == v(t) for t in (lo, (lo + hi) / 2, hi))
    for below, above in zip(trace.intervals, trace.intervals[1:]):
        wall = below.interval.hi
        assert below.volume(wall) == above.volume(wall), wall
    assert trace.volume_integral() == Fraction(25, 3)
    refusal = classify(data)
    assert (refusal.stage, refusal.reason) == ("applicability", "levels at ['1'] are not simple")
    full = small_data_bootstrap(data)
    again = small_data_bootstrap(parse_scenario(serialize_scenario(full)))
    assert serialize_scenario(again) == serialize_scenario(full)
    assert compare_fixed_point_data(data, data).same


def test_the_small_universe_walks_again_and_each_refusal_names_its_wall():
    # every data set of at most 3 interior levels at values 1 to 4, surfaces of
    # genus 0 with classes in [-1, 2]^(k+1), adjunction refusals included; CI
    # runs depth 4 on the adjunctive classes only
    assert check_leaves(small_universe()) == (5, 5, 23719)


def test_trace_names_each_blow_up_in_the_basis_it_is_made_in():
    # the first blow-up is named on A/B/E1, which is then presented onto
    # L/E1/E2 before the second blow-up adds E3
    text = trace_text(run_walk(_sphere_product_level(point_component(2), point_component(2))))
    lines = text.splitlines()
    assert lines[4:7] == [
        "-- wall 1: blow_up(E1), blow_up(E3)",
        "interval (1,2): k=3 [L/E1/E2/E3]  areas: L=7-t  E3=t-1  E2=4-t  E1=4-t  L-E1-E2=t-1  "
        "L-E1-E3=4-t  L-E2-E3=4-t",
        "    euler e.e=-2|e.K=-2|e.C=[-1,-1,0,0,1,1,1,1,2]  volume -t^2+2*t+8  "
        "rigidity rigid_via_H_restricted_symp",
    ]


def test_surviving_class_areas_continuous_across_blow_down():
    trace = run_walk(three_sphere_product_data(2, 3, 4))
    event = trace.events[3]  # the blow-down at the first pairwise sum
    action = event.actions[0]
    bdm = action.blow_down_map
    before = trace.intervals[3]
    after = trace.intervals[4]
    for i in range(after.lattice.rank):
        down = after.lattice.basis(i)
        assert area(before, bdm.pullback(down), event.value) == area(after, down, event.value)


def test_mixed_level_preserves_rank():
    # lambda1 + lambda2 = lambda3 puts an index-2 and an index-4 point together
    trace = run_walk(three_sphere_product_data(1, 2, 3))
    assert trace.k_sequence == (0, 1, 2, 2, 1, 0)
    mixed = trace.events[2]
    assert {a.kind for a in mixed.actions} == {"blow_down", "blow_up"}
    assert trace.final_report.passed


def test_declared_component_order_does_not_change_the_trace():
    base = three_sphere_product_data(1, 1, 2)
    rnd = random.Random(3)
    levels = list(base.levels)
    rnd.shuffle(levels)
    shuffled = FixedPointData.build(base.name, base.dim, base.mode, levels)
    assert run_walk(base).fingerprints() == run_walk(shuffled).fingerprints()


def test_failed_maximum_is_reported_not_raised():
    levels = [CriticalLevel(0, [point_component(0)])]
    levels += [CriticalLevel(v, [point_component(2)]) for v in (2, 3, 4)]
    levels += [CriticalLevel(v, [point_component(4)]) for v in (5, 6, 7)]
    levels += [CriticalLevel(8, [point_component(6)])]
    trace = run_walk(FixedPointData.build("early-max", 6, "small", levels))
    assert not trace.final_report.passed
    report = "\n".join(trace.final_report.lines())
    assert "area(L)(8) = 1" in report


def _isolated_checks(area: str, euler: str) -> list:
    collapse = ("reduced space must collapse", True, "")
    return [collapse, ("line area vanishes at the maximum", area.endswith(" = 0"), area),
            ("final Euler class is the positive generator", euler == "e = L", euler)]


def test_isolated_maximum_checks_of_seeded_triples_pass_with_their_details():
    rnd = random.Random(22)
    for _ in range(20):
        report = run_walk(three_sphere_product_data(*random_triple(rnd))).final_report
        assert [(c.name, c.ok, c.detail) for c in report.checks] == _isolated_checks(
            f"area(L)({fmt_q(report.value)}) = 0", "e = L")


def test_a_maximum_right_after_the_minimum_fails_both_isolated_checks():
    # the line still has area t and e = -L, as just above the minimum
    levels = [CriticalLevel(0, [point_component(0)]), CriticalLevel(5, [point_component(6)])]
    report = run_walk(FixedPointData.build("two-levels", 6, "small", levels)).final_report
    assert [(c.name, c.ok, c.detail) for c in report.checks] == _isolated_checks(
        "area(L)(5) = 5", "e = -L")


def test_a_rank_one_family_whose_euler_class_is_not_the_line_fails_the_euler_check():
    lat = default_lattice(0)
    family = AffineClassFamily(lat, lat.cls(4), lat.cls(-2), Interval(1, 2))  # area 4 - 2t
    report = finalize_at_maximum(family, CriticalLevel(2, [point_component(6)]))
    assert [(c.name, c.ok, c.detail) for c in report.checks] == _isolated_checks(
        "area(L)(2) = 0", "e = 2L")


def test_the_euler_check_names_the_line_by_the_lattice_label():
    # a rank-one lattice of gram (1) under another label: e is its generator, written "e = H"
    lat = IntersectionLattice(((1,),), ("H",), LatticeClass((-3,)))
    family = AffineClassFamily(lat, lat.cls(2), lat.cls(-1), Interval(1, 2))  # area 2 - t
    report = finalize_at_maximum(family, CriticalLevel(2, [point_component(6)]))
    assert [(c.name, c.ok, c.detail) for c in report.checks] == [
        ("reduced space must collapse", True, ""),
        ("line area vanishes at the maximum", True, "area(L)(2) = 0"),
        ("final Euler class is the positive generator", True, "e = H")]


def _with_maximum_at(data: FixedPointData, value) -> FixedPointData:
    """``data`` with its isolated maximum moved to ``value``."""
    return FixedPointData.build(data.name, 6, "small",
                                [*data.levels[:-1], CriticalLevel(value, [point_component(6)])])


def test_failing_isolated_maxima_at_fractions_match_the_reference():
    # each maximum moved by k/6: lowered, the line area there is k/6; raised, the
    # line's root lies inside the last interval, an undeclared wall
    rnd, fractional = random.Random(42), 0
    for _ in range(20):
        data = three_sphere_product_data(*random_triple(rnd))
        lam, shift = data.levels[-1].value, Fraction(rnd.randint(1, 5), 6)
        with pytest.raises(WalkError) as refused:
            run_walk(_with_maximum_at(data, lam + shift))
        assert (refused.value.wall, refused.value.kind) == (data.levels[-2].value,
                                                            "undeclared wall")
        lam -= shift
        trace = run_walk(_with_maximum_at(data, lam))
        family = trace.intervals[-1]
        fractional += lam.denominator > 1
        lat, e = family.lattice, -family.slope
        line = lat.basis(0)
        a = area(family, line, lam)
        assert a == shift
        assert [(c.name, c.ok, c.detail) for c in trace.final_report.checks] == [
            ("reduced space must collapse", True, ""),
            ("line area vanishes at the maximum", False, f"area(L)({fmt_q(lam)}) = {fmt_q(a)}"),
            ("final Euler class is the positive generator", e == line,
             f"e = {lat.name_of(e)}")]
    assert fractional >= 10


def _euler_data_sets():
    """Walked data of every kind: isolated, declared extrema, surfaces, the universe."""
    names = ("bad_maximum_8", "three_spheres_1_1_1", "three_spheres_1_2_4",
             "three_spheres_2_3_4", "sphere_product_extrema", "conic_surface_wall")
    sets = [load_scenario(SCENARIOS / f"{name}.json") for name in names]
    rnd, coincident = random.Random(11), 0
    for _ in range(40):
        sets.append(three_sphere_product_data(*random_triple(rnd)))
        coincident += len(sets[-1].levels) < 8  # equal sums share a level
    assert coincident >= 10
    accepted = [item for item in small_universe() if item.error is None]
    assert len(accepted) == 5
    sets += [universe_data(item, f"universe-{i}") for i, item in enumerate(accepted)]
    return [*sets, carried_surface_data()]


def test_the_euler_class_is_a_constant_of_the_walk_frame():
    for data in _euler_data_sets():
        trace = run_walk(data)
        for family in trace.intervals:
            assert family.euler == -family.slope, data.name
            assert family.euler is family.frame.euler, data.name
        full = small_data_bootstrap(data)
        for level, arriving in zip(full.levels[1:-1], trace.intervals):
            assert level.euler_minus is arriving.frame.euler, (data.name, level.value)


# ---------------------------------------------------------------------------
# volume profiles
# ---------------------------------------------------------------------------


def test_volume_continuity_and_boundary_vanishing():
    trace = run_walk(three_sphere_product_data(2, 3, 4))
    for prev, nxt in zip(trace.intervals, trace.intervals[1:]):
        wall = prev.interval.hi
        assert prev.volume(wall) == nxt.volume(wall)
    assert trace.intervals[0].volume(0) == 0
    assert trace.intervals[-1].volume(9) == 0


def test_volume_integral_is_the_product_of_areas():
    trace = run_walk(three_sphere_product_data(2, 3, 4))
    assert trace.volume_integral() == 24


def test_volume_against_the_box_slice_oracle():
    rnd = random.Random(5)
    for _ in range(8):
        a, b, c = random_triple(rnd)
        trace = run_walk(three_sphere_product_data(a, b, c))
        for rec in trace.intervals:
            t = rec.interval.midpoint
            assert rec.volume(t) == box_slice_area(a, b, c, t), (a, b, c, t)


_AREAS = st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=12)


@seed(29)
@settings(max_examples=60, deadline=None)
@given(_AREAS, _AREAS, _AREAS, st.sampled_from(["distinct", "two equal", "all equal"]))
def test_localization_moment_identities(a, b, c, coincide):
    # Atiyah-Bott / Berline-Vergne localization at isolated fixed points with
    # weights +-1: sum_p (-1)^(index(p)/2) Phi(p)^m is 0 for m = 0, 1, 2 and
    # -6 times the volume for m = 3.  The points are read from the data, the
    # volume from the walk.
    b = a if coincide != "distinct" else b
    c = a if coincide == "all equal" else c
    data = three_sphere_product_data(a, b, c)
    points = [(level.value, point.index) for level in data.levels for point in level.components]
    assert len(points) == 8
    moments = [sum((-1) ** (index // 2) * value**m for value, index in points) for m in range(4)]
    assert moments == [0, 0, 0, -6 * run_walk(data).volume_integral()], (a, b, c)


@st.composite
def isolated_data(draw):
    """Valid isolated data on denominators 1 to 3: a triple's eight values exact, with
    one interior value moved by 1 or 2 steps, with an index-2 value swapped with an
    index-4 value, or with the top moved."""
    den = draw(st.integers(1, 3))
    a, b, c = sorted(draw(st.integers(1, 12)) for _ in range(3))
    nums = {0: [0], 2: [a, b, c], 4: [a + b, a + c, b + c], 6: [a + b + c]}
    kind = draw(st.sampled_from(["exact", "interior moved", "2 and 4 swapped", "top moved"]))
    step = draw(st.sampled_from([-2, -1, 1, 2]))
    i, j = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    if kind == "interior moved":
        nums[draw(st.sampled_from([2, 4]))][i] += step
    elif kind == "2 and 4 swapped":
        nums[2][i], nums[4][j] = nums[4][j], nums[2][i]
    elif kind == "top moved":
        nums[6][0] += step
    data = isolated_scenario({index: [Fraction(n, den) for n in ns] for index, ns in nums.items()})
    assume(validate_structure(data).ok)
    return kind, data


@seed(35)
@settings(max_examples=200, deadline=None)
@given(isolated_data())
def test_the_walk_accepts_isolated_data_exactly_when_its_values_are_a_triples_sums(drawn):
    # the paper: isolated fixed points carry the data of S2 x S2 x S2, whose values are
    # 0, l1, l2, l3, their pairwise sums and the total.  The walk judges that alone.
    kind, data = drawn
    try:
        trace = run_walk(data)
    except WalkError:
        trace = None
    accepted = trace is not None and trace.final_report.passed
    assert accepted == fraction_value_lattice_check(data).passed, (kind, data)
    if accepted:
        points = [(level.value, point.index) for level in data.levels
                  for point in level.components]
        moments = [sum((-1) ** (index // 2) * value**m for value, index in points)
                   for m in range(4)]
        assert moments == [0, 0, 0, -6 * trace.volume_integral()], (kind, data)


# ---------------------------------------------------------------------------
# trace invariants
# ---------------------------------------------------------------------------


def test_blow_down_pairing_law_on_walks():
    for lams in [(2, 3, 4), (1, 2, 4), (1, 1, 1), (2, 2, 5)]:
        trace = run_walk(three_sphere_product_data(*lams))
        downs = [a for ev in trace.events for a in ev.actions if a.kind == "blow_down"]
        assert len(downs) == 3
        assert all(a.euler_pairing == 1 for a in downs)


def test_time_reversal_reverses_fingerprints_and_negates_euler():
    data = three_sphere_product_data(2, 3, 4, mode="small")
    fwd = run_walk(data)
    rev = run_walk(time_reversed(data))
    total = fwd.moment_range.hi
    assert rev.k_sequence == tuple(reversed(fwd.k_sequence))
    for rec in fwd.intervals:
        t = rec.interval.midpoint
        assert fingerprint_at(rev, total - t) == with_negated_euler(fingerprint_at(fwd, t))


def test_split_and_compose_roundtrip():
    trace = run_walk(three_sphere_product_data(2, 3, 4))
    for seam in (Fraction(1), Fraction(9, 2), Fraction(16, 3), Fraction(8)):
        left, right = split_trace(trace, seam)
        glued = compose_traces(left, right)
        assert glued.fingerprints() == trace.fingerprints()
        assert glued.k_sequence == trace.k_sequence
        assert glued.final_report == trace.final_report
        assert glued.volume_integral() == trace.volume_integral()
        # the merged family is the original one, and so is its rigidity
        assert glued.intervals == trace.intervals
        assert [f.rigidity for f in glued.intervals] == [f.rigidity for f in trace.intervals]
        assert glued.events == trace.events
    walked = 0
    for path in sorted(SCENARIOS.glob("*.json")):
        try:
            trace = run_walk(load_scenario(path))
        except WalkError:
            continue
        walked += 1
        for rec in trace.intervals:
            lo, hi = rec.interval.lo, rec.interval.hi
            for seam in (lo + (hi - lo) / 4, rec.interval.midpoint, hi - (hi - lo) / 4):
                glued = compose_traces(*split_trace(trace, seam))
                assert glued.intervals == trace.intervals, (path.name, seam)
                assert glued.events == trace.events, (path.name, seam)
                assert glued.final_report == trace.final_report, (path.name, seam)
    assert walked == 6  # every shipped scenario but bad_value_lattice, refused at a wall


def test_split_and_compose_keep_the_screened_cone_verdict(monkeypatch):
    # a part of a screened interval, and the merged interval of two halves whose
    # seam fingerprints agree, keep the walk's cone verdict: no pass runs again,
    # and every record's rigidity is a fresh lookup's
    rnd = random.Random(30)
    traces = [run_walk(three_sphere_product_data(*random_triple(rnd))) for _ in range(25)]
    for path in sorted(SCENARIOS.glob("*.json")):
        try:
            traces.append(run_walk(load_scenario(path)))
        except WalkError:
            continue
    screen, screens = AffineClassFamily.screen, []

    def counting(family, interval):
        screens.append(interval)
        return screen(family, interval)

    monkeypatch.setattr(AffineClassFamily, "screen", counting)
    pieces = []
    for trace in traces:
        for rec in trace.intervals:
            lo, hi = rec.interval.lo, rec.interval.hi
            for seam in (lo + (hi - lo) / 3, hi - (hi - lo) / 5):
                left, right = split_trace(trace, seam)
                pieces += [left, right, compose_traces(left, right)]
    assert screens == []
    monkeypatch.undo()
    assert len(traces) == 31
    for piece in pieces:
        for rec in piece.intervals:
            assert rec.rigidity == lookup(rec), (piece.name, rec.interval)


def test_a_trace_holds_the_families_the_walk_screened(monkeypatch):
    # each interval of a walk is the very family init_from_minimum or cross_level
    # returned, holding the rigidity a fresh lookup gives; the halves and the
    # recomposition of a split hold theirs too, and a family no walk screened, a
    # declared extremum's or one moved to another interval, holds none
    rnd = random.Random(39)
    datas = [three_sphere_product_data(*random_triple(rnd)) for _ in range(20)]
    shipped = [load_scenario(path) for path in sorted(SCENARIOS.glob("*.json"))
               if path.stem != "bad_value_lattice"]  # refused at a wall
    returned = []

    def spying(step):
        def spy(*args):
            result = step(*args)
            returned.append(result[0])
            return result
        return spy

    monkeypatch.setattr(walk, "init_from_minimum", spying(walk.init_from_minimum))
    monkeypatch.setattr(walk, "cross_level", spying(walk.cross_level))
    traces = []
    for data in datas + shipped:
        returned.clear()
        traces.append(run_walk(data))
        assert len(traces[-1].intervals) == len(returned), data.name
        assert all(a is b for a, b in zip(traces[-1].intervals, returned)), data.name
    monkeypatch.undo()
    assert len(shipped) == 6
    pieces = list(traces)
    for trace in traces:
        for family in trace.intervals:
            left, right = split_trace(trace, family.interval.midpoint)
            pieces += [left, right, compose_traces(left, right)]
    for piece in pieces:
        for family in piece.intervals:
            assert family.rigidity is not None, (piece.name, family.interval)
            assert family.rigidity == lookup(family), (piece.name, family.interval)
            assert family.with_interval(family.interval).rigidity is None
    extrema = load_scenario(SCENARIOS / "sphere_product_extrema.json")
    for level in (extrema.levels[0], extrema.levels[-1]):
        assert declared_family(level.components[0], level.value).rigidity is None


def test_split_at_a_wall_is_rejected():
    trace = run_walk(three_sphere_product_data(2, 3, 4))
    with pytest.raises(PreconditionError):
        split_trace(trace, 5)


def test_library_calls_off_their_domain_are_refused():
    data = three_sphere_product_data(2, 3, 4)
    trace = run_walk(data)
    with pytest.raises(PreconditionError, match="^10 lies outside the moment interval$"):
        split_trace(trace, 10)
    family = trace.intervals[0]  # over (0, 2)
    with pytest.raises(ValueError, match=r"^moment value 5/2 outside interval \(0,2\)$"):
        state_fingerprint(family, Fraction(5, 2))
    # invalid data, which run_walk's validation refuses
    alone = FixedPointData("alone", 6, "small", data.levels[:1])
    with pytest.raises(PreconditionError, match="^scenario needs at least two levels$"):
        init_from_minimum(alone)
    shifted = FixedPointData.build("shifted", 6, "small", [
        CriticalLevel(1, [point_component(0)]), CriticalLevel(2, [point_component(6)])])
    with pytest.raises(PreconditionError, match="^minimum critical value must be normalised to 0$"):
        init_from_minimum(shifted)
    with pytest.raises(PreconditionError,
                       match=r"^state interval \(0,2\) does not end at the wall 3$"):
        cross_level(family, data.levels[2], data.levels[3].value)


def test_run_walk_validates_every_data_set_it_is_given():
    # no argument skips validation: levels out of order are a refusal, not a bare ValueError
    data = three_sphere_product_data(2, 3, 4)
    levels = list(data.levels)
    levels[1], levels[2] = levels[2], levels[1]
    swapped = FixedPointData(data.name, data.dim, data.mode, tuple(levels))
    with pytest.raises(PreconditionError, match=r"\[values\] critical values out of order: 3 "
                                                r"before 2$"):
        run_walk(swapped)
    assert list(inspect.signature(run_walk).parameters) == ["data"]


@pytest.mark.parametrize("component, text", [
    (point_component(0), "a point of index 0"),
    (FixedComponent(ComponentKind.SURFACE, 2), "a surface of index 2"),
    (fourfold_component(2, ((0, 1), (1, 0)), (1, 2)), "a fourfold of index 2"),
], ids=["extremal-point", "surface-without-class", "fourfold"])
def test_cross_level_refuses_an_interior_component_that_validation_refuses(component, text):
    # only a direct library call on a level that validation refuses gets here
    family = run_walk(three_sphere_product_data(2, 3, 4)).intervals[0]  # over (0, 2)
    with pytest.raises(PreconditionError) as refusal:
        cross_level(family, CriticalLevel(2, [component]), 3)
    assert str(refusal.value) == (
        f"cannot cross {text} at 2; an interior component is a point or a surface with its "
        "class, of index 2 or 4"
    )


def test_library_moment_values_refuse_floats():
    # 0.1 is the binary 3602879701896397/36028797018963968, never the tenth meant
    trace = run_walk(three_sphere_product_data(2, 3, 4))
    family = trace.intervals[0]
    refusals = [
        lambda: split_trace(trace, 4.5),
        lambda: state_fingerprint(family, 0.1),
        lambda: area(family, cls(1), 0.1),
        lambda: family.interval.contains(0.1),
        lambda: symplectic_cone_check(family, 0.1),
        lambda: trace.intervals[0].volume(0.1),
        lambda: Interval(0.1, 1),
    ]
    for refused in refusals:
        with pytest.raises(ValueError, match="floating-point"):
            refused()
    left, _ = split_trace(trace, Fraction(9, 2))
    assert left.intervals[-1].interval.hi == Fraction(9, 2)


def test_composing_mismatched_seams_is_a_gluing_error():
    left, _ = split_trace(run_walk(three_sphere_product_data(2, 3, 4)), Fraction(9, 2))
    _, right = split_trace(run_walk(three_sphere_product_data(2, 3, 5)), Fraction(9, 2))
    with pytest.raises(PreconditionError, match="^seam fingerprints diverge at 9/2: "):
        compose_traces(left, right)


def test_compose_refuses_a_closed_left_trace_a_seam_mismatch_and_a_seam_at_a_wall():
    trace = run_walk(three_sphere_product_data(2, 3, 4))
    left, right = split_trace(trace, Fraction(9, 2))
    with pytest.raises(PreconditionError, match="left trace is closed at its maximum"):
        compose_traces(trace, right)
    mismatch = "^seam mismatch: left ends at 9/2, right starts at 11/2"
    with pytest.raises(PreconditionError, match=mismatch):
        compose_traces(left, split_trace(trace, Fraction(11, 2))[1])
    # traces whose events reach the seam: split_trace never makes one, so by hand
    wall = (CrossingEvent(Fraction(9, 2), ()),)
    late_left = WalkTrace(left.name, left.intervals, left.events + wall, None, False)
    with pytest.raises(PreconditionError, match="critical value of the left trace"):
        compose_traces(late_left, right)
    early_right = WalkTrace(right.name, right.intervals, wall + right.events,
                            right.final_report, False)
    with pytest.raises(PreconditionError, match="critical value of the right trace"):
        compose_traces(left, early_right)
    assert compose_traces(left, right).intervals == trace.intervals


def test_fingerprint_is_blind_to_the_walk_presentation():
    # the same regular value reached through different coordinate histories
    trace_a = run_walk(three_sphere_product_data(1, 2, 4))
    trace_b = run_walk(time_reversed(three_sphere_product_data(1, 2, 4)))
    t = Fraction(7, 2)  # in the sphere-product interval for both
    assert fingerprint_at(trace_a, t) == with_negated_euler(fingerprint_at(trace_b, 7 - t))


def test_state_fingerprint_includes_volume():
    trace = run_walk(three_sphere_product_data(2, 3, 4))
    fp = state_fingerprint(trace.intervals[0], 1)
    assert fp.volume == Fraction(1, 2)
    for rec in trace.intervals:
        family, t = rec, rec.interval.midpoint
        h = (rec.interval.hi - rec.interval.lo) / 4
        volume = rec.volume
        slope = state_fingerprint(family, t).volume_slope
        # the central difference is exact on a quadratic
        assert slope == (volume(t + h) - volume(t - h)) / (2 * h)
        # Duistermaat-Heckman: d vol/dt = -pair(A_t, e)
        assert slope == -family.lattice.pair(family.base + t * family.slope, family.euler)


# ---------------------------------------------------------------------------
# scaling and time reversal on the scenario files
# ---------------------------------------------------------------------------


def scaled(data: FixedPointData, q: Fraction) -> FixedPointData:
    """The data of the form scaled by ``q``: every level value and declared
    fourfold area times ``q``; the classes and the Euler data stay."""
    def component(c):
        if c.areas is None:
            return c
        fields = {f: getattr(c, f) for f in c._fields}
        return type(c)(**{**fields, "areas": tuple(q * a for a in c.areas)})

    return FixedPointData.build(data.name, data.dim, data.mode, [
        CriticalLevel(q * lv.value, map(component, lv.components), lv.euler_minus)
        for lv in data.levels
    ])


def _walk(data):
    try:
        return run_walk(data), None
    except WalkError as err:
        return None, err


@pytest.mark.parametrize("q", [Fraction(3, 2), Fraction(2), Fraction(1, 7)], ids=str)
@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
def test_scaling_the_form_scales_the_walk(path, q):
    data = load_scenario(path)
    big = scaled(data, q)
    outcome, big_outcome = classify(data), classify(big)
    assert type(outcome) is type(big_outcome)
    assert getattr(outcome, "stage", None) == getattr(big_outcome, "stage", None)
    (trace, err), (big_trace, big_err) = _walk(data), _walk(big)
    if err is not None:
        assert big_err.kind == err.kind and big_err.wall == q * err.wall
        return
    assert big_err is None
    assert big_trace.k_sequence == trace.k_sequence
    assert big_trace.final_report.passed == trace.final_report.passed
    for rec, big_rec in zip(trace.intervals, big_trace.intervals, strict=True):
        assert big_rec.rigidity.status == rec.rigidity.status
        assert (big_rec.interval.lo, big_rec.interval.hi) == (q * rec.interval.lo,
                                                              q * rec.interval.hi)
        m = rec.interval.midpoint
        assert big_rec.volume(q * m) == q * q * rec.volume(m)
    assert big_trace.volume_integral() == q**3 * trace.volume_integral()


def plane_surfaces(top, *surfaces):
    """Point extrema at 0 and ``top``, and one genus-0 surface of each
    ``(value, index, L-coefficient)`` between them."""
    return FixedPointData.build("plane-surfaces", 6, "small", [
        CriticalLevel(0, [point_component(0)]),
        *(CriticalLevel(v, [surface_component(index, cls(d))]) for v, index, d in surfaces),
        CriticalLevel(top, [point_component(6)]),
    ])


CONIC_PAIR = plane_surfaces(3, (1, 2, 2), (Fraction(3, 2), 4, 2), (2, 2, 2))


@pytest.mark.parametrize("data", [
    load_scenario(SCENARIOS / "conic_surface_wall.json"),
    load_scenario(SCENARIOS / "sphere_product_extrema.json"),
    CONIC_PAIR,
    plane_surfaces(Fraction(5, 2), (1, 2, 2), (Fraction(3, 2), 4, 1), (2, 2, 1)),
], ids=["conic_surface_wall", "sphere_product_extrema", "conic-pair", "line-pair"])
def test_time_reversal_of_declared_classes(data):
    # an interior surface keeps its index and class: its Euler shift has one sign both ways
    fwd, rev = run_walk(data), run_walk(time_reversed(data))
    total = fwd.moment_range.hi
    assert rev.k_sequence == tuple(reversed(fwd.k_sequence))
    for rec in fwd.intervals:
        t = rec.interval.midpoint
        assert fingerprint_at(rev, total - t) == with_negated_euler(fingerprint_at(fwd, t))
    assert rev.volume_integral() == fwd.volume_integral()


def test_time_reversal_keeps_a_plane_surface_and_refuses_one_it_cannot_carry():
    assert time_reversed(CONIC_PAIR, CONIC_PAIR.name) == CONIC_PAIR
    # a class is written in the basis arriving from below: beside a point, or on
    # a lattice of rank above 1, reversing it would need the walk carried across
    for data, value in ((carried_surface_data(), 4), (pencil_data(), "5/2")):
        assert run_walk(data)
        with pytest.raises(PreconditionError, match=(
                f"^level {value}: a surface beside a point, or of class rank above 1, "
                "reverses only with the walk carried across$")):
            time_reversed(data)


# ---------------------------------------------------------------------------
# the walk's refusals: one WalkError, one kind per refusal site
# ---------------------------------------------------------------------------


def test_every_walk_refusal_site_names_a_wall_and_a_kind_of_the_closed_set():
    kinds = []
    for path in sorted(Path(walk.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "WalkError":
                args = dict(enumerate(node.args))
                args.update({k.arg: k.value for k in node.keywords})
                wall, kind = args.get(1, args.get("wall")), args.get(2, args.get("kind"))
                where = f"{path.name}:{node.lineno}"
                assert wall is not None, where
                assert isinstance(kind, ast.Constant) and kind.value in WALK_REFUSALS, where
                kinds.append(kind.value)
    assert sorted(kinds) == sorted(WALK_REFUSALS)  # each kind is raised at one site


def _surface_at_one(comp):
    """Point extrema at 0 and 2 around the surface ``comp`` at 1."""
    return FixedPointData.build("surface-at-one", 6, "small", [
        CriticalLevel(0, [point_component(0)]), CriticalLevel(1, [comp]),
        CriticalLevel(2, [point_component(6)]),
    ])


def _cross_at_one(comp):
    state = make_state(0, base=(0,), euler=(-1,), lo=0, hi=1)
    return cross_level(state, CriticalLevel(1, [comp]), 2)


def _ruling_root_inside():
    # area(A) = 3 - t is positive at the midpoint 2 but vanishes at 3 inside (0, 4)
    gram = ((0, 1), (1, 0))
    return FixedPointData.build("ruling-root-inside", 6, "small", [
        CriticalLevel(0, [fourfold_component(0, gram, (3, 2), euler_class=(0, 1))]),
        CriticalLevel(4, [fourfold_component(2, gram, (-1, 2), euler_class=(0, 1))]),
    ])


REFUSALS = {
    "no vanishing class": (Fraction(9, 2), lambda: cross_level(
        make_state(3, base=(0, 2, 3, 4), euler=(-1, 1, 1, 1), lo=4, hi=Fraction(9, 2)),
        CriticalLevel(Fraction(9, 2), [point_component(4)]), 5)),
    "euler pairing": (1, lambda: cross_level(
        make_state(1, base=(0, -2), euler=(-1, -2), lo=Fraction(1, 2), hi=1),
        CriticalLevel(1, [point_component(4)]), 2)),
    "cone": (0, lambda: run_walk(six_blowup_minimum((6, -1) + (1,) * 5))),
    "undeclared wall": (0, lambda: run_walk(_ruling_root_inside())),
    "surface rank": (1, lambda: _cross_at_one(surface_component(2, cls(1, 0)))),
    "surface class": (1, lambda: _cross_at_one(surface_component(2, cls(Fraction(1, 2))))),
    "adjunction": (1, lambda: run_walk(_surface_at_one(surface_component(2, cls(2), genus=7)))),
    "surface area": (1, lambda: run_walk(_surface_at_one(
        surface_component(2, cls(-2), genus=None)))),
    "leftover vanishing class": (2, lambda: run_walk(
        isolated_scenario({0: [0], 2: [1, 1, 1], 4: [2], 6: [5]}))),
    "blow-up limit": (10, lambda: run_walk(isolated_scenario({0: [0], 2: [10] * 9, 6: [100]}))),
    "surface extremum": (0, lambda: run_walk(FixedPointData.build("surface-min", 6, "small", [
        CriticalLevel(0, [surface_component(0, cls(1), genus=0)]),
        CriticalLevel(1, [point_component(6)])]))),
}


@pytest.mark.parametrize("kind", WALK_REFUSALS, ids=lambda kind: kind.replace(" ", "-"))
def test_each_kind_of_walk_refusal_is_reached(kind):
    wall, refuse = REFUSALS[kind]
    with pytest.raises(WalkError) as refused:
        refuse()
    assert (refused.value.wall, refused.value.kind) == (wall, kind)
    assert str(refused.value).startswith(f"at wall {fmt_q(wall)}: ")
