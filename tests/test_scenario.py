import itertools
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
    expected_split,
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
    fraction_coeffs,
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


@pytest.mark.parametrize("position", ["minimum", "interior", "maximum"])
@pytest.mark.parametrize("index", range(7))
def test_a_shared_point_validates_as_an_equal_point_of_its_own(index, position):
    # validation skips a shared point's split and field checks, which hold by construction
    shared = point_component(index)
    own = FixedComponent(ComponentKind.POINT, index,
                         normal_split=expected_split(ComponentKind.POINT, index))
    assert own == shared and own is not shared

    def report(component):
        levels = [point_component(0), point_component(2), point_component(6)]
        levels[["minimum", "interior", "maximum"].index(position)] = component
        data = FixedPointData.build("point", 6, "small",
                                    [CriticalLevel(v, [c]) for v, c in enumerate(levels)])
        return validate_structure(data).lines()

    assert report(shared) == report(own)


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


def test_dimension_other_than_six_is_an_issue():
    levels = three_sphere_product_data(2, 3, 4).levels
    report = validate_structure(FixedPointData("four-dim", 4, "full", levels))
    assert report.lines() == ["[dim] ambient dimension must be 6, got 4"]


def test_no_levels_and_a_single_level_are_issues():
    empty = validate_structure(FixedPointData("empty", 6, "small", ()))
    assert empty.lines() == ["[levels] scenario has no critical levels"]
    alone = FixedPointData("alone", 6, "small", (CriticalLevel(0, [point_component(0)]),))
    assert validate_structure(alone).lines() == [
        "[extrema] scenario needs distinct minimum and maximum levels"
    ]


def test_duplicated_and_unordered_values_are_issues_in_level_order():
    # built directly, past the sort and merge of ``build``
    at = {v: CriticalLevel(v, [point_component(i)]) for v, i in ((0, 0), (1, 2), (2, 6))}
    levels = (at[0], at[2], at[1], at[1], CriticalLevel(Fraction(7, 2), [point_component(6)]))
    report = validate_structure(FixedPointData("unmerged", 6, "small", levels))
    assert [line for line in report.lines() if line.startswith("[values]")] == [
        "[values] critical values out of order: 2 before 1",
        "[values] duplicated critical value 1 (levels must be merged)",
    ]


def test_maximum_with_several_components_is_flagged():
    levels = [
        CriticalLevel(0, [point_component(0)]),
        CriticalLevel(1, [point_component(6), point_component(6)]),
    ]
    report = validate_structure(FixedPointData.build("two-maxima", 6, "small", levels))
    assert report.lines() == [
        "[extrema] extremal fixed point sets are connected: maximum has several components"
    ]


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


@pytest.mark.parametrize("field, value", [
    ("genus", 0), ("reduced_class", cls(1, 0)), ("normal_euler", -1), ("gram", ((1,),)),
    ("areas", (Fraction(1),)), ("canonical", (-3,)), ("euler_class", (1,)),
])
def test_each_field_foreign_to_a_point_keeps_its_issue_line(field, value):
    point = FixedComponent(ComponentKind.POINT, 2, normal_split=(1, 2), **{field: value})
    levels = [
        CriticalLevel(0, [point_component(0)]),
        CriticalLevel(1, [point]),
        CriticalLevel(2, [point_component(6)]),
    ]
    report = validate_structure(FixedPointData.build("point-fields", 6, "small", levels))
    name = field.replace("_", " ")
    assert report.lines() == [f"[fields] level 1: {name} declared on a point"]


def test_build_puts_its_levels_on_one_denominator_once(monkeypatch):
    from dhwalk import scenario

    calls = []
    original = scenario._over_one_denominator

    def spy(values):
        calls.append(list(values))
        return original(values)

    levels = [CriticalLevel(v, [point_component(2)])
              for v in (Fraction(3, 2), 0, Fraction(1, 3), Fraction(3, 2), 2)]
    monkeypatch.setattr(scenario, "_over_one_denominator", spy)
    data = FixedPointData.build("line", 6, "small", levels)
    assert len(calls) == 1  # the sort's numerators are the constructor's line
    assert [lv.value for lv in data.levels] == [0, Fraction(1, 3), Fraction(3, 2), 2]
    assert (data._den, data._nums) == (6, (0, 2, 9, 12))
    assert len(data.levels[2].components) == 2  # the two levels at 3/2 merged
    calls.clear()
    again = FixedPointData(data.name, data.dim, data.mode, data.levels)
    assert (again._den, again._nums) == (data._den, data._nums) and len(calls) == 1


def test_time_reversal_maps_shared_points_to_shared_points():
    data = three_sphere_product_data(2, 3, 4, mode="small")
    reversed_data = time_reversed(data)
    for lv in reversed_data.levels:
        for c in lv.components:
            assert c is point_component(c.index)
    assert [c.index for lv in reversed_data.levels for c in lv.components] == [
        0, 2, 2, 2, 4, 4, 4, 6]
    assert time_reversed(reversed_data, data.name) == data


def test_time_reversal_of_an_odd_point_keeps_its_swapped_split():
    odd = point_component(3)  # a shared record, but its reversal is no shared point
    data = FixedPointData.build("odd", 6, "small", [
        CriticalLevel(0, [point_component(0)]), CriticalLevel(1, [odd]),
        CriticalLevel(2, [point_component(6)])])
    reversed_odd = time_reversed(data).levels[1].components[0]
    assert reversed_odd == FixedComponent(ComponentKind.POINT, 3, normal_split=(2, 1))
    assert reversed_odd != point_component(3)


HYPERBOLIC = ((0, 1), (1, 0))


@pytest.mark.parametrize("minimum, interior, line", [
    (point_component(0), surface_component(6, cls(1)),
     "[index] level 1: surface index 6 exceeds the codimension"),
    (point_component(0), fourfold_component(2, HYPERBOLIC, (1, 2)),
     "[extrema] level 1: codimension-2 component must be extremal"),
    (point_component(0), surface_component(2, cls(2), genus=-1),
     "[fields] level 1: negative genus"),
    (FixedComponent(ComponentKind.FOURFOLD, 0, normal_split=(0, 1)), point_component(2),
     "[fields] level 0: fourfold component needs declared gram and areas"),
    # library-built indices that the parser refuses: equal to an int, but not one
    (FixedComponent(ComponentKind.POINT, False), point_component(2),
     "[index] level 0: index False is not an integer"),
    (point_component(0), FixedComponent(ComponentKind.POINT, 2.0),
     "[index] level 1: index 2.0 is not an integer"),
], ids=["surface-index", "interior-fourfold", "negative-genus", "bare-fourfold", "bool-index",
        "float-index"])
def test_a_component_fault_is_one_issue_line(minimum, interior, line):
    data = FixedPointData.build("fault", 6, "small", [
        CriticalLevel(0, [minimum]),
        CriticalLevel(1, [interior]),
        CriticalLevel(2, [point_component(6)]),
    ])
    assert validate_structure(data).lines() == [line]
    with pytest.raises(PreconditionError, match="fails validation"):
        run_walk(data)


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
        # the laws of a rational surface, checked where the lattice is declared
        ({"canonical": (2, -2)}, "canonical: rank 2 lattice with K.K = -8 and signature (1, 1): "
         "its marked classes can be infinitely many (they are finite when K.K > 0 in "
         "signature (1, n))"),
        ({"canonical": (-1, -2)}, "canonical: rank 2 lattice with K = (-1,-2): K is not "
         "characteristic, K.x - x.x is odd on basis vector 2 (Wu's formula)"),
        ({"canonical": (-2, -4)}, "canonical: rank 2 lattice with K = (-2,-4): K.K = 16, not "
         "10 - rank = 8 (Noether's formula)"),
    ],
    ids=["euler-class-rank", "canonical-too-long", "canonical-too-short", "not-unimodular",
         "gram-not-integral", "euler-class-not-integral", "normal-euler-not-integral",
         "canonical-unbounded", "canonical-not-characteristic", "canonical-square"],
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


def test_point_components_are_shared_records_equal_to_fresh_ones():
    for index in (0, 2, 4, 6):
        shared = point_component(index)
        assert point_component(index) is shared
        fresh = FixedComponent(ComponentKind.POINT, index, normal_split=(index // 2, 3 - index // 2))
        assert shared == fresh and hash(shared) == hash(fresh) and shared is not fresh
        with pytest.raises(AttributeError):
            shared.index = 4 - index  # shared, so it must stay immutable


def test_a_level_keeps_one_component_and_sorts_several():
    point, surface = point_component(2), surface_component(2, cls(1, 0), genus=0)
    assert CriticalLevel(1, [point]).components[0] is point
    ordered = CriticalLevel(1, [point, surface]).components
    assert CriticalLevel(1, iter([surface, point])).components == ordered
    assert list(ordered) == sorted([surface, point], key=FixedComponent.sort_key)


def test_a_level_orders_integral_surface_classes_by_their_fraction_coefficients():
    """Seeded levels mixing points with surfaces of rank 1 to 4: the component order
    is the one of a key that reads each class as ``Fraction`` coefficients."""

    def reference_key(c):
        return (c.kind.value, c.index, -1 if c.genus is None else c.genus,
                () if c.reduced_class is None else fraction_coeffs(c.reduced_class),
                0 if c.normal_euler is None else c.normal_euler)

    rnd, decided_by_class = random.Random(7), 0
    for _ in range(300):
        components = [
            point_component(rnd.choice((2, 4))) if rnd.random() < 0.3 else surface_component(
                rnd.choice((2, 4)),
                LatticeClass(tuple(rnd.randint(-3, 3) for _ in range(rnd.randint(1, 4)))),
                genus=rnd.randint(0, 1),
                normal_euler=rnd.choice((None, -1, 2)),
            )
            for _ in range(rnd.randint(2, 6))
        ]
        expected = sorted(components, key=reference_key)
        assert list(CriticalLevel(1, components).components) == expected
        decided_by_class += sum(
            a.reduced_class != b.reduced_class and reference_key(a)[:3] == reference_key(b)[:3]
            for a, b in zip(expected, expected[1:]))
    assert decided_by_class >= 100, decided_by_class


def test_a_level_is_the_same_under_every_order_of_its_components():
    # pairs that tie on every field but one of normal_split, canonical, euler_class
    lone = FixedComponent(ComponentKind.SURFACE, 2, genus=0, reduced_class=cls(1))
    split = FixedComponent(ComponentKind.SURFACE, 2, genus=0, reduced_class=cls(1),
                           normal_split=(1, 1))
    gram, areas = [[1, 0], [0, -1]], [3, 1]
    plain = fourfold_component(0, gram, areas)
    canonical = fourfold_component(0, gram, areas, canonical=[-3, 1])
    euler = fourfold_component(0, gram, areas, euler_class=[1, 0])
    for group in ([lone, split], [plain, canonical], [plain, euler], [lone, split, plain, euler]):
        levels = {CriticalLevel(1, order) for order in itertools.permutations(group)}
        assert len(levels) == 1, group
        (level,) = levels
        assert len(set(level.components)) == len(group)


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


def test_constructors_refuse_malformed_data():
    with pytest.raises(ValueError, match="sphere areas must be positive"):
        three_sphere_product_data(0, 1, 2)
    with pytest.raises(ValueError, match="mode must be 'full' or 'small', got 'odd'"):
        FixedPointData("odd-mode", 6, "odd", (CriticalLevel(0, [point_component(0)]),))
    with pytest.raises(ValueError, match="critical level needs at least one component"):
        CriticalLevel(0, [])
    with pytest.raises(ValueError, match="declared Euler class must be integral"):
        CriticalLevel(1, [point_component(2)], euler_minus=cls(Fraction(1, 2), 0))


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


def test_value_lattice_refuses_an_index_multiset_first():
    check = isolated_value_lattice_check(
        isolated_scenario({0: [0], 2: [1, 2, 3, 4], 4: [5, 6], 6: [7]})
    )
    assert (check.status, check.lambdas) == ("fail", None)
    assert check.message == "index multiset [0, 2, 2, 2, 2, 4, 4, 6] is not (0,2,2,2,4,4,4,6)"


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
