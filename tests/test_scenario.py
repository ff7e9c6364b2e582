import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dhwalk.classify import classify, compare_fixed_point_data, small_data_bootstrap
from dhwalk.errors import PreconditionError
from dhwalk.lattice import LatticeClass
from dhwalk.scenario import (
    ComponentKind,
    CriticalLevel,
    FixedComponent,
    FixedPointData,
    isolated_value_lattice_check,
    point_component,
    three_sphere_product_data,
    time_reversed,
    validate_structure,
)
from dhwalk.walk import run_walk
from testutil import (
    cls,
    fourfold_component,
    index_multiset,
    isolated_scenario,
    level_at,
    surface_component,
)


def codes(report):
    return {issue.code for issue in report.issues}


# ---------------------------------------------------------------------------
# structural validation
# ---------------------------------------------------------------------------


def test_product_scenario_validates_clean():
    report = validate_structure(three_sphere_product_data(2, 3, 4))
    assert report.ok, report.lines()


def test_maximum_must_have_coindex_zero():
    data = isolated_scenario({0: [0], 2: [1, 2, 3], 4: [3, 4, 5]})
    # replace the top level by an index-4 point
    levels = list(data.levels) + [CriticalLevel(6, [point_component(4)])]
    bad = FixedPointData.build("bad-max", 6, "small", levels)
    report = validate_structure(bad)
    assert any("coindex 0" in str(i) for i in report.issues)


def test_multi_component_same_index_level_passes():
    report = validate_structure(three_sphere_product_data(1, 1, 1))
    assert report.ok


def test_disconnected_extremum_flagged():
    levels = [
        CriticalLevel(0, [point_component(0), point_component(0)]),
        CriticalLevel(1, [point_component(6)]),
    ]
    report = validate_structure(FixedPointData.build("two-minima", 6, "small", levels))
    assert any("connected" in str(i) for i in report.issues)


def test_odd_and_out_of_range_indices_flagged():
    levels = [
        CriticalLevel(0, [point_component(0)]),
        CriticalLevel(1, [FixedComponent(ComponentKind.POINT, 3)]),
        CriticalLevel(2, [FixedComponent(ComponentKind.POINT, 8)]),
        CriticalLevel(3, [point_component(6)]),
    ]
    report = validate_structure(FixedPointData.build("odd-index", 6, "small", levels))
    assert sum(1 for i in report.issues if i.code == "index") == 2


def test_normal_split_semi_free_consistency():
    bad = FixedComponent(ComponentKind.POINT, 2, normal_split=(2, 1))
    levels = [
        CriticalLevel(0, [point_component(0)]),
        CriticalLevel(1, [bad]),
        CriticalLevel(2, [point_component(6)]),
    ]
    report = validate_structure(FixedPointData.build("bad-split", 6, "small", levels))
    assert "semi-free" in codes(report)


def test_minimum_must_be_normalised_to_zero():
    levels = [
        CriticalLevel(1, [point_component(0)]),
        CriticalLevel(2, [point_component(6)]),
    ]
    report = validate_structure(FixedPointData.build("shifted", 6, "small", levels))
    assert "normalization" in codes(report)


def test_surface_needs_reduced_class_and_point_takes_no_genus():
    levels = [
        CriticalLevel(0, [point_component(0)]),
        CriticalLevel(1, [FixedComponent(ComponentKind.SURFACE, 2, genus=0)]),
        CriticalLevel(2, [FixedComponent(ComponentKind.POINT, 6, genus=1)]),
    ]
    report = validate_structure(FixedPointData.build("fields", 6, "small", levels))
    assert sum(1 for i in report.issues if i.code == "fields") == 2


def test_fourfold_fields_on_a_surface_are_flagged():
    surface = FixedComponent(
        ComponentKind.SURFACE, 2, genus=0, reduced_class=cls(2), normal_euler=1,
        gram=((1,),), areas=(Fraction(1),), canonical=(-3,), euler_class=(1,),
    )
    levels = [
        CriticalLevel(0, [point_component(0)]),
        CriticalLevel(1, [surface]),
        CriticalLevel(2, [point_component(6)]),
    ]
    report = validate_structure(FixedPointData.build("surface-fields", 6, "small", levels))
    assert report.lines() == [  # a surface keeps its normal Euler number
        f"[fields] level 1: {name} declared on a surface"
        for name in ("gram", "areas", "canonical", "euler class")
    ]


HYPERBOLIC = ((0, 1), (1, 0))


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"euler_class": (0, -1, 0)}, "euler_class: expected one integer per gram row"),
        ({"canonical": (-2, -2, 0)}, "gram: canonical class must be integral of matching rank"),
        ({"canonical": (-2,)}, "gram: canonical class must be integral of matching rank"),
        ({"gram": ((2, 1), (1, 2)), "canonical": (0, 0)}, "gram: gram matrix must be unimodular"),
        # once truncated to the hyperbolic plane, and walked as one
        ({"gram": ((Fraction(1, 2), 1), (1, 0))}, "gram: gram matrix must have integer entries"),
        ({"euler_class": (Fraction(1, 2), 0)}, "euler_class: expected one integer per gram row"),
        ({"normal_euler": Fraction(1, 2)}, "normal_euler: expected an integer"),
    ],
    ids=["euler-class-rank", "canonical-too-long", "canonical-too-short", "not-unimodular",
         "gram-not-integral", "euler-class-not-integral", "normal-euler-not-integral"],
)
def test_declared_fourfold_lattice_faults_are_validation_issues(fields, message):
    # library-built data that the parser would refuse: once a bare exception in the walk
    fields = dict(fields)
    minimum = fourfold_component(0, fields.pop("gram", HYPERBOLIC), (1, 2), **fields)
    data = FixedPointData.build("declared-fault", 6, "small", [
        CriticalLevel(0, [minimum]),
        CriticalLevel(4, [fourfold_component(2, HYPERBOLIC, (1, 2))]),
    ])
    assert validate_structure(data).lines() == [f"[fields] level 0: fourfold {message}"]
    with pytest.raises(PreconditionError, match="fails validation"):
        run_walk(data)
    refusal = classify(data)
    assert (refusal.stage, refusal.reason) == (
        "structure validation", f"[fields] level 0: fourfold {message}"
    )


def test_fractional_surface_class_is_a_validation_issue():
    # library-built data that the parser would refuse: once a bare exception in classify
    data = FixedPointData.build("half-conic", 6, "small", [
        CriticalLevel(0, [point_component(0)]),
        CriticalLevel(1, [surface_component(2, cls(Fraction(1, 2)))]),
        CriticalLevel(2, [point_component(6)]),
    ])
    message = "[fields] level 1: surface component needs an integral reduced class"
    assert validate_structure(data).lines() == [message]
    refusal = classify(data)
    assert (refusal.stage, refusal.reason) == ("structure validation", message)


def test_validation_idempotent_and_component_order_blind():
    a = three_sphere_product_data(1, 1, 2)
    assert validate_structure(a).issues == validate_structure(a).issues
    # rebuilding with shuffled level/component declarations validates the same
    rnd = random.Random(7)
    levels = list(a.levels)
    rnd.shuffle(levels)
    b = FixedPointData.build(a.name, a.dim, a.mode, levels)
    assert validate_structure(b).issues == validate_structure(a).issues
    assert b == a


def test_small_mode_rejects_bundle_data_at_construction():
    with pytest.raises(ValueError):
        FixedPointData.build(
            "smuggled",
            6,
            "small",
            [
                CriticalLevel(0, [point_component(0)]),
                CriticalLevel(1, [point_component(2)], euler_minus=cls(-1)),
                CriticalLevel(2, [point_component(6)]),
            ],
        )


def test_equal_values_merge_into_one_level():
    data = three_sphere_product_data(1, 1, 1)
    assert [lv.value for lv in data.levels] == [0, 1, 2, 3]
    assert index_multiset(level_at(data, 1)) == (2, 2, 2)
    assert not level_at(data, 1).simple or True  # simple: common index 2
    assert level_at(data, 1).simple


def test_a_level_keeps_a_fraction_and_refuses_a_float():
    value = Fraction(7, 2)
    assert CriticalLevel(value, [point_component(2)]).value is value
    assert type(CriticalLevel(3, [point_component(2)]).value) is Fraction
    with pytest.raises(ValueError, match="floating-point"):
        CriticalLevel(3.5, [point_component(2)])


def test_sphere_areas_refuse_floats():
    with pytest.raises(ValueError, match="floating-point"):
        three_sphere_product_data(0.1, 2, 3)
    exact = three_sphere_product_data(Fraction(1, 10), 2, 3)
    assert exact.levels[1].value == Fraction(1, 10)


def split_levels(data: FixedPointData) -> list[CriticalLevel]:
    """Every component as a level of its own, each with its level's Euler data."""
    return [CriticalLevel(lv.value, [c], lv.euler_minus if i == 0 else None)
            for lv in data.levels for i, c in enumerate(lv.components)]


# multi-component levels: a triple one at 1, and double ones at 1, 2 and 3 with Euler data
COINCIDENT = three_sphere_product_data(1, 1, 1, mode="small")
DOUBLE = small_data_bootstrap(three_sphere_product_data(1, 1, 2, mode="small"))
SPLIT = {data.name: (data, split_levels(data)) for data in (COINCIDENT, DOUBLE)}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SPLIT)), st.data())
def test_build_is_blind_to_the_order_of_its_levels(name, data):
    whole, levels = SPLIT[name]
    shuffled = data.draw(st.permutations(levels))
    ordered = sorted(levels, key=lambda lv: lv.value)
    built = FixedPointData.build(name, 6, whole.mode, shuffled)
    assert built == FixedPointData.build(name, 6, whole.mode, ordered) == whole
    values = [lv.value for lv in built.levels]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_build_keeps_ordered_levels_as_they_are():
    levels = three_sphere_product_data(2, 3, 4).levels
    built = FixedPointData.build("kept", 6, "full", levels)
    assert all(a is b for a, b in zip(built.levels, levels, strict=True))


def test_build_merges_equal_values_with_one_euler_class_at_most():
    euler = CriticalLevel(1, [point_component(2)], cls(-1, 1))
    plain = CriticalLevel(1, [point_component(2)])
    ends = [CriticalLevel(0, [point_component(0)]), CriticalLevel(2, [point_component(6)])]
    merged = FixedPointData.build("one", 6, "full", [plain, *ends, euler])
    assert level_at(merged, 1).euler_minus == cls(-1, 1)
    assert len(level_at(merged, 1).components) == 2
    with pytest.raises(ValueError, match="conflicting Euler data at merged level 1"):
        FixedPointData.build("two", 6, "full", [euler, *ends, euler])


# ---------------------------------------------------------------------------
# the isolated value lattice
# ---------------------------------------------------------------------------


def test_value_lattice_accepts_sum_pattern():
    check = isolated_value_lattice_check(
        isolated_scenario({0: [0], 2: [2, 3, 4], 4: [5, 6, 7], 6: [9]})
    )
    assert check.passed
    assert check.lambdas == (2, 3, 4)


def test_value_lattice_rejects_perturbed_sum():
    check = isolated_value_lattice_check(
        isolated_scenario({0: [0], 2: [2, 3, 4], 4: [5, 6, 8], 6: [9]})
    )
    assert check.status == "fail"
    assert "8" in check.message


def test_value_lattice_equal_lambdas():
    check = isolated_value_lattice_check(
        isolated_scenario({0: [0], 2: [1, 1, 1], 4: [2, 2, 2], 6: [3]})
    )
    assert check.passed
    assert check.lambdas == (1, 1, 1)


def test_value_lattice_not_applicable_with_surfaces():
    levels = [
        CriticalLevel(0, [point_component(0)]),
        CriticalLevel(1, [surface_component(2, cls(2))]),
        CriticalLevel(2, [point_component(6)]),
    ]
    data = FixedPointData.build("conic", 6, "small", levels)
    assert isolated_value_lattice_check(data).status == "not-applicable"


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def test_compare_blind_to_declaration_order():
    a = three_sphere_product_data(2, 3, 4)
    rnd = random.Random(11)
    levels = list(a.levels)
    rnd.shuffle(levels)
    b = FixedPointData.build("shuffled", a.dim, a.mode, levels)
    result = compare_fixed_point_data(a, b)
    assert result.same


def test_compare_different_values():
    result = compare_fixed_point_data(
        three_sphere_product_data(2, 3, 4), three_sphere_product_data(2, 3, 5)
    )
    assert not result.same
    assert result.witness == "value multiset"


def test_compare_corrupted_euler_class():
    from dhwalk.classify import small_data_bootstrap

    full = small_data_bootstrap(three_sphere_product_data(2, 3, 4, mode="full"))
    # at the second wall the arriving bundle class is -L+E1; drop the +E1
    corrupted_levels = []
    for lv in full.levels:
        if lv.value == 3:
            corrupted_levels.append(
                CriticalLevel(lv.value, lv.components, LatticeClass((-1, 0)))
            )
        else:
            corrupted_levels.append(lv)
    corrupted = FixedPointData.build(full.name, 6, "full", corrupted_levels)
    result = compare_fixed_point_data(full, corrupted)
    assert not result.same
    assert "Euler fingerprint" in result.witness


def test_compare_requires_matching_modes():
    with pytest.raises(PreconditionError):
        compare_fixed_point_data(
            three_sphere_product_data(1, 2, 3, mode="small"),
            three_sphere_product_data(1, 2, 3, mode="full"),
        )


def test_compare_is_an_equivalence_relation():
    triples = [(2, 3, 4), (1, 2, 4), (1, 1, 1), (2, 3, 4)]
    datas = [three_sphere_product_data(*t) for t in triples]
    for d in datas:
        assert compare_fixed_point_data(d, d).same  # reflexive
    for a in datas:
        for b in datas:
            assert compare_fixed_point_data(a, b).same == compare_fixed_point_data(b, a).same
    for a in datas:
        for b in datas:
            for c in datas:
                ab = compare_fixed_point_data(a, b).same
                bc = compare_fixed_point_data(b, c).same
                ac = compare_fixed_point_data(a, c).same
                if ab and bc:
                    assert ac  # transitive


# ---------------------------------------------------------------------------
# time reversal at the data level
# ---------------------------------------------------------------------------


def test_time_reversal_complements_indices():
    data = three_sphere_product_data(1, 2, 4)
    rev = time_reversed(data)
    assert [lv.value for lv in rev.levels] == [0, 1, 2, 3, 4, 5, 6, 7]
    assert rev.levels[0].components[0].index == 0
    assert rev.levels[-1].components[0].index == 6
    # the index-2 points of the reversal sit at total minus the index-4 values
    idx2_values = [
        lv.value for lv in rev.levels for c in lv.components if c.index == 2
    ]
    assert idx2_values == [1, 2, 4]


def test_time_reversal_is_an_involution():
    data = three_sphere_product_data(2, 3, 4)
    back = time_reversed(time_reversed(data), name=data.name)
    assert back == data


def test_time_reversal_orders_levels_built_out_of_order():
    levels = three_sphere_product_data(1, 2, 4).levels
    shuffled = (levels[0], levels[3], levels[1], levels[5], levels[2], levels[4], levels[6],
                levels[-1])
    rev = time_reversed(FixedPointData("unordered", 6, "full", shuffled))
    assert [lv.value for lv in rev.levels] == [0, 1, 2, 3, 4, 5, 6, 7]
    assert rev == time_reversed(three_sphere_product_data(1, 2, 4), name="unordered-reversed")
