import random
from fractions import Fraction
from pathlib import Path

import pytest

from dhwalk.errors import (
    EulerInconsistencyError,
    GluingError,
    InconsistentDataError,
    PreconditionError,
    UnsupportedExtremumError,
    WalkError,
    WallMismatchError,
)
from dhwalk.family import AffineClassFamily, Interval, symplectic_cone_check
from dhwalk.io import load_scenario, trace_text
from dhwalk.lattice import blow_up_lattice, canonical_presentation, default_lattice, hyperbolic_lattice
from dhwalk.scenario import (
    CriticalLevel,
    FixedPointData,
    point_component,
    three_sphere_product_data,
    time_reversed,
)
from dhwalk.walk import (
    compose_traces,
    cross_level,
    init_from_minimum,
    run_walk,
    split_trace,
    state_fingerprint,
)
from testutil import (
    area_text,
    box_slice_area,
    cls,
    fingerprint_at,
    fourfold_component,
    is_zero,
    random_triple,
    surface_component,
    with_negated_euler,
)


def make_state(k, base, euler, lo, hi):
    lat = default_lattice(k)
    return AffineClassFamily(lat, lat.cls(*base), -lat.cls(*euler), Interval(lo, hi))


# ---------------------------------------------------------------------------
# initial states
# ---------------------------------------------------------------------------


def test_init_isolated_minimum_is_hopf_reduction():
    state, declared = init_from_minimum(three_sphere_product_data(2, 3, 4))
    assert not declared
    assert state.k == 0
    assert state.lattice.pair(state.family.euler, state.lattice.basis(0)) == -1
    assert state.family.area(state.lattice.basis(0), 1) == 1  # area(L) = t


def test_init_fourfold_minimum_taken_at_face_value():
    data = FixedPointData.build(
        "product-min",
        6,
        "small",
        [
            CriticalLevel(0, [fourfold_component(0, ((0, 1), (1, 0)), (1, 2), 0)]),
            CriticalLevel(4, [fourfold_component(2, ((0, 1), (1, 0)), (1, 2), 0)]),
        ],
    )
    state, declared = init_from_minimum(data)
    assert declared
    assert state.lattice.is_hyperbolic_plane
    assert is_zero(state.family.euler)
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
    assert state.lattice.is_default
    # the Li-Liu criterion applies on the first interval, not "unknown"
    assert symplectic_cone_check(state.family, Fraction(1, 2)).status is True
    line = state.family.areas.line
    assert line is not None and (line.const, line.slope) == (6, 1)
    first = trace_text(run_walk(data)).splitlines()[2]
    assert first.startswith("interval (0,1): k=6 [L/E1/E2/E3/E4/E5/E6]  areas: L=t+6  E6=1")


def test_declared_default_minimum_outside_the_cone_is_refused():
    # E1 has negative area: the cone check now fails instead of returning "unknown"
    data = six_blowup_minimum((6, -1) + (1,) * 5)
    with pytest.raises(InconsistentDataError, match="symplectic cone violated"):
        init_from_minimum(data)


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
    with pytest.raises(UnsupportedExtremumError):
        init_from_minimum(data)


# ---------------------------------------------------------------------------
# single crossings against the worked example
# ---------------------------------------------------------------------------


def test_blow_up_crossing_adds_growing_exceptional_area():
    state = make_state(0, base=(0,), euler=(-1,), lo=0, hi=2)
    after = cross_level(state, CriticalLevel(2, [point_component(2)]), 3)[0]
    lat = after.lattice
    assert lat.labels == ("L", "E1")
    assert after.family.euler == cls(-1, 1)
    assert area_text(after.family, lat.basis(1)) == "t-2"
    # every old class's area is continuous at the wall
    assert after.family.area(lat.basis(0), 2) == 2


def test_second_blow_up_matches_the_area_table():
    state = make_state(1, base=(0, 2), euler=(-1, 1), lo=2, hi=3)
    after = cross_level(state, CriticalLevel(3, [point_component(2)]), 4)[0]
    assert after.family.euler == cls(-1, 1, 1)
    texts = {
        after.lattice.name_of(c): area_text(after.family, c)
        for c in (after.lattice.basis(i) for i in range(3))
    }
    assert texts == {"L": "t", "E1": "t-2", "E2": "t-3"}


def test_blow_down_crossing_full_worked_example():
    # arriving at the first pairwise-sum wall of the (2,3,4) scenario
    state = make_state(3, base=(0, 2, 3, 4), euler=(-1, 1, 1, 1), lo=4, hi=5)
    assert state.area(cls(1, -1, -1, 0), 5) == 0
    after = cross_level(state, CriticalLevel(5, [point_component(4)]), 6)[0]
    lat = after.lattice
    assert lat.is_default and after.k == 2
    assert after.family.euler == cls(1, -1, -1)  # pushforward of e + C
    texts = {
        lat.name_of(c): area_text(after.family, c) for c in (lat.basis(i) for i in range(3))
    }
    assert texts == {"L": "9-t", "E1": "7-t", "E2": "6-t"}


def test_iterated_blow_down_to_one_blowup():
    state = make_state(2, base=(9, -7, -6), euler=(1, -1, -1), lo=5, hi=6)
    after = cross_level(state, CriticalLevel(6, [point_component(4)]), 7)[0]
    assert after.k == 1
    assert area_text(after.family, after.lattice.basis(0)) == "9-t"
    assert area_text(after.family, after.lattice.basis(1)) == "7-t"


def test_blow_down_without_vanishing_area_is_a_wall_mismatch():
    # declared wall at 9/2, but the only candidate vanishes at 5
    state = make_state(3, base=(0, 2, 3, 4), euler=(-1, 1, 1, 1), lo=4, hi=Fraction(9, 2))
    with pytest.raises(WallMismatchError):
        cross_level(state, CriticalLevel(Fraction(9, 2), [point_component(4)]), 5)[0]


def test_blow_down_with_wrong_euler_pairing_is_rejected():
    # pair(e, E1) = 2 instead of the forced value 1
    state = make_state(1, base=(0, -2), euler=(-1, -2), lo=Fraction(1, 2), hi=1)
    assert state.area(state.lattice.basis(1), 1) == 0
    with pytest.raises(EulerInconsistencyError):
        cross_level(state, CriticalLevel(1, [point_component(4)]), 2)[0]


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
    with pytest.raises(InconsistentDataError):
        run_walk(data)


# ---------------------------------------------------------------------------
# surface crossings
# ---------------------------------------------------------------------------


def test_surface_crossing_shifts_euler_class_up():
    state = make_state(0, base=(0,), euler=(-1,), lo=0, hi=1)
    conic = surface_component(2, cls(2), genus=0)
    after = cross_level(state, CriticalLevel(1, [conic]), 2)[0]
    assert after.family.euler == cls(1)  # -L + 2L
    assert area_text(after.family, after.lattice.basis(0)) == "2-t"


def test_surface_crossing_back_down_restores_the_bundle():
    state = make_state(0, base=(2,), euler=(1,), lo=1, hi=Fraction(3, 2))
    down = surface_component(4, cls(2), genus=0)
    after = cross_level(state, CriticalLevel(Fraction(3, 2), [down]), 2)[0]
    assert after.family.euler == cls(-1)
    assert area_text(after.family, after.lattice.basis(0)) == "t-1"


def test_surface_crossing_with_exceptional_class():
    state = make_state(1, base=(0, 2), euler=(-1, 1), lo=2, hi=Fraction(5, 2))
    comp = surface_component(2, cls(0, 1), genus=0)
    after = cross_level(state, CriticalLevel(Fraction(5, 2), [comp]), Fraction(11, 4))[0]
    assert after.family.euler == cls(-1, 2)


def test_surface_class_of_wrong_rank_is_a_dimension_error():
    from dhwalk.errors import DimensionError

    state = make_state(0, base=(0,), euler=(-1,), lo=0, hi=1)
    with pytest.raises(DimensionError):
        cross_level(state, CriticalLevel(1, [surface_component(2, cls(1, 0))]), 2)


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


@pytest.mark.parametrize("k", [6, 8])
def test_blow_down_after_many_blowups_enumerates_no_default_gram(
    k, monkeypatch, cold_lattice_caches
):
    # a declared k-fold blow-up minimum (default gram, generic labels) whose
    # normal Euler class -E_k shrinks E_k until an index-4 point contracts it
    from dhwalk import lattice

    enumerate_classes = lattice._solutions

    def guarded(gram, *args):
        if gram == lattice._default_gram(len(gram) - 1):
            raise AssertionError("no enumeration may run on a default gram")
        return enumerate_classes(gram, *args)

    monkeypatch.setattr(lattice, "_solutions", guarded)
    upper, lower = lattice._default_gram(k), lattice._default_gram(k - 1)
    minimum = fourfold_component(
        0, upper, (10,) + (1,) * (k - 1) + (2,), euler_class=(0,) * k + (-1,)
    )
    maximum = fourfold_component(2, lower, (10,) + (1,) * (k - 1))
    data = FixedPointData.build(
        "blow-down-after-many",
        6,
        "small",
        [
            CriticalLevel(0, [minimum]),
            CriticalLevel(2, [point_component(4)]),
            CriticalLevel(5, [maximum]),
        ],
    )
    trace = run_walk(data)
    assert cold_lattice_caches().misses >= 1  # the map was built under the guard
    assert trace.k_sequence == (k, k - 1)
    assert trace.events[0].actions[0].blow_down_map.target == default_lattice(k - 1)
    assert trace.final_report.passed


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
    assert first.lattice.pair(first.family.euler, first.lattice.basis(0)) == -1
    assert last.lattice.pair(last.family.euler, last.lattice.basis(0)) == 1


def test_walk_234_exceptional_area_tables():
    trace = run_walk(three_sphere_product_data(2, 3, 4))
    first = trace.intervals[0]
    assert area_text(first.family, first.lattice.basis(0)) == "t"
    middle = trace.intervals[3]  # the (4,5) interval with three blow-ups
    fam, lat = middle.family, middle.lattice
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
    assert middle.lattice.is_hyperbolic_plane
    assert is_zero(middle.family.euler)
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
    assert after.family.euler == cls(1, 1)
    swapped = cls(*((cls(-1) + cls(2)).coeffs), 0) + cls(0, 1)
    assert swapped == after.family.euler
    assert after.family.area(after.lattice.basis(1), 1) == 0


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
    assert trace.intervals[1].family.euler == cls(2, -1, -2)
    assert change.apply(cls(0, 0, 1) + cls(1, 0, 0)) == cls(2, -1, -2)


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
        assert before.family.area(bdm.pullback(down), event.value) == after.family.area(
            down, event.value
        )


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


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_split_and_compose_roundtrip():
    trace = run_walk(three_sphere_product_data(2, 3, 4))
    for seam in (Fraction(1), Fraction(9, 2), Fraction(16, 3), Fraction(8)):
        left, right = split_trace(trace, seam)
        glued = compose_traces(left, right)
        assert glued.fingerprints() == trace.fingerprints()
        assert glued.k_sequence == trace.k_sequence
        assert glued.final_report == trace.final_report
        assert glued.volume_integral() == trace.volume_integral()
        # the merged record is the original one: family and rigidity
        assert glued.intervals == trace.intervals
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


def test_split_at_a_wall_is_rejected():
    trace = run_walk(three_sphere_product_data(2, 3, 4))
    with pytest.raises(PreconditionError):
        split_trace(trace, 5)


def test_library_moment_values_refuse_floats():
    # 0.1 is the binary 3602879701896397/36028797018963968, never the tenth meant
    trace = run_walk(three_sphere_product_data(2, 3, 4))
    family = trace.intervals[0].family
    refusals = [
        lambda: split_trace(trace, 4.5),
        lambda: state_fingerprint(family, 0.1),
        lambda: family.area(cls(1), 0.1),
        lambda: family.interval.contains(0.1),
        lambda: symplectic_cone_check(family, 0.1),
        lambda: trace.intervals[0].volume(0.1),
        lambda: trace.intervals[0].volume.integrate(0, 0.5),
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
    with pytest.raises(GluingError):
        compose_traces(left, right)


def test_fingerprint_is_blind_to_the_walk_presentation():
    # the same regular value reached through different coordinate histories
    trace_a = run_walk(three_sphere_product_data(1, 2, 4))
    trace_b = run_walk(time_reversed(three_sphere_product_data(1, 2, 4)))
    t = Fraction(7, 2)  # in the sphere-product interval for both
    assert fingerprint_at(trace_a, t) == with_negated_euler(fingerprint_at(trace_b, 7 - t))


def test_state_fingerprint_includes_volume():
    trace = run_walk(three_sphere_product_data(2, 3, 4))
    fp = state_fingerprint(trace.intervals[0].family, 1)
    assert fp.volume == Fraction(1, 2)
    for rec in trace.intervals:
        family, t = rec.family, rec.interval.midpoint
        h = (rec.interval.hi - rec.interval.lo) / 4
        volume = rec.volume
        slope = state_fingerprint(family, t).volume_slope
        # the central difference is exact on a quadratic
        assert slope == (volume(t + h) - volume(t - h)) / (2 * h)
        # Duistermaat-Heckman: d vol/dt = -pair(A_t, e)
        assert slope == -family.lattice.pair(family.base + t * family.slope, family.euler)
