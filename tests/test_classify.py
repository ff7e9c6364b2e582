import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dhwalk.classify import (
    Certificate,
    ComparisonResult,
    Refusal,
    WeakVerdict,
    classify,
    classify_isolated,
    compare_fixed_point_data,
    small_data_bootstrap,
    weak_classification_check,
)
from dhwalk import scenario
from dhwalk.errors import PreconditionError, WalkError
from dhwalk.lattice import LatticeClass, class_with_areas, default_lattice
from dhwalk.scenario import (
    CriticalLevel,
    FixedPointData,
    point_component,
    three_sphere_product_data,
)
from dhwalk.io import parse_scenario, serialize_scenario
from dhwalk.walk import run_walk
from testutil import (
    carried_surface_data,
    cls,
    cremona_standard,
    fourfold_component,
    isolated_scenario,
    level_at,
    pencil_data,
    surface_component,
)

areas = st.fractions(min_value=Fraction(1, 3), max_value=Fraction(8), max_denominator=6)


# ---------------------------------------------------------------------------
# the isolated certificate
# ---------------------------------------------------------------------------


def test_certificate_for_the_generic_triple():
    outcome = classify_isolated(three_sphere_product_data(2, 3, 4))
    assert isinstance(outcome, Certificate)
    assert outcome.lambdas == (2, 3, 4)
    assert outcome.certification.certified
    text = "\n".join(outcome.lines())
    assert "sphere areas (2,3,4)" in text
    assert "McDuff" in text


def test_certificate_for_the_thin_triple():
    outcome = classify_isolated(three_sphere_product_data(1, 2, 4))
    assert isinstance(outcome, Certificate)
    assert outcome.trace.k_sequence == (0, 1, 2, 1, 2, 1, 0)
    # the sphere-product interval contributes its own rigidity citation
    assert any(
        r.fact is not None and r.fact.key == "sphere-product"
        for r in outcome.certification.statuses
    )


def test_certificate_for_the_equal_triple_uses_the_equal_area_branch():
    outcome = classify_isolated(three_sphere_product_data(1, 1, 1))
    assert isinstance(outcome, Certificate)
    assert any(
        r.fact is not None and r.fact.key == "small-blowup-equal-areas"
        for r in outcome.certification.statuses
    )


def test_refusal_on_perturbed_value_multiset():
    data = isolated_scenario({0: [0], 2: [2, 3, 4], 4: [5, 6, 8], 6: [9]})
    outcome = classify_isolated(data)
    assert isinstance(outcome, Refusal)
    assert outcome.stage == "critical value lattice"


def test_refusal_names_a_value_declared_more_often_than_its_sums():
    # 3 is expected twice (l3 and l1 + l2) but declared once, and 4 declared twice
    data = isolated_scenario({0: [0], 2: [1, 2, 3], 4: [4, 4, 5], 6: [6]})
    assert scenario.validate_structure(data).ok
    outcome = classify(data)
    assert isinstance(outcome, Refusal) and outcome.stage == "critical value lattice"
    assert outcome.reason == (
        "value multiset does not match sums of (1,2,3): unexpected values ['4']"
    )


def test_refusal_on_non_isolated_data():
    levels = [
        CriticalLevel(0, [point_component(0)]),
        CriticalLevel(1, [surface_component(2, cls(2), genus=0)]),
        CriticalLevel(2, [point_component(6)]),
    ]
    outcome = classify_isolated(FixedPointData.build("conic", 6, "small", levels))
    assert isinstance(outcome, Refusal)
    assert outcome.stage == "applicability"


@settings(max_examples=30, deadline=None)
@given(a=areas, b=areas, c=areas)
def test_every_positive_triple_certifies(a, b, c):
    lams = tuple(sorted((a, b, c)))
    outcome = classify_isolated(three_sphere_product_data(*lams))
    assert isinstance(outcome, Certificate), getattr(outcome, "reason", None)
    assert outcome.lambdas == lams


# ---------------------------------------------------------------------------
# the determined-by-data certificate for scenarios with surfaces
# ---------------------------------------------------------------------------


def conic_wall_scenario():
    levels = [
        CriticalLevel(0, [point_component(0)]),
        CriticalLevel(1, [surface_component(2, cls(2), genus=0)]),
        CriticalLevel(2, [point_component(6)]),
    ]
    return FixedPointData.build("conic-wall", 6, "small", levels)


def test_general_certificate_for_a_surface_scenario():
    outcome = classify(conic_wall_scenario())
    assert isinstance(outcome, Certificate)
    assert outcome.lambdas is None
    assert "small fixed point data" in "\n".join(outcome.lines())


def test_package_attribute_is_the_classify_module():
    import inspect

    import dhwalk

    assert inspect.ismodule(dhwalk.classify)
    assert dhwalk.classify.classify is classify


def test_general_path_refuses_uncertified_extrema():
    prod = FixedPointData.build(
        "face-value-product",
        6,
        "small",
        [
            CriticalLevel(0, [fourfold_component(0, ((0, 1), (1, 0)), (1, 2), 0)]),
            CriticalLevel(4, [fourfold_component(2, ((0, 1), (1, 0)), (1, 2), 0)]),
        ],
    )
    outcome = classify(prod)
    assert isinstance(outcome, Refusal)
    assert outcome.stage == "rigidity certification"


def test_surface_of_nonpositive_wall_area_is_a_refusal():
    levels = [
        CriticalLevel(0, [point_component(0)]),
        CriticalLevel(1, [surface_component(2, cls(-2), genus=None)]),
        CriticalLevel(2, [point_component(6)]),
    ]
    outcome = classify(FixedPointData.build("negative-conic", 6, "small", levels))
    assert isinstance(outcome, Refusal)
    assert outcome.stage == "wall crossing"
    assert outcome.reason.startswith("at wall 1:") and "area -2" in outcome.reason


def test_declared_minimum_beyond_eight_blowups_is_a_refusal():
    gram = tuple(tuple((1 if i == 0 else -1) if i == j else 0 for j in range(10)) for i in range(10))
    areas = (10,) + (1,) * 9
    data = FixedPointData.build(
        "rank-ten-minimum",
        6,
        "small",
        [
            CriticalLevel(0, [fourfold_component(0, gram, areas, 0)]),
            CriticalLevel(4, [fourfold_component(2, gram, areas, 0)]),
        ],
    )
    # K.K = 0 breaks the finiteness law where the lattice is declared, before any walk
    outcome = classify(data)
    assert isinstance(outcome, Refusal)
    assert outcome.stage == "structure validation"
    assert outcome.reason == (
        "[fields] level 0: fourfold canonical: rank 10 lattice with K.K = 0 and signature "
        "(1, 9): its marked classes can be infinitely many (they are finite when K.K > 0 in "
        "signature (1, n))"
    )


def test_general_path_refuses_non_simple_levels():
    # a line and a conic meet the reduced space at one level, with index 2 and 4
    levels = [
        CriticalLevel(0, [point_component(0)]),
        CriticalLevel(
            1, [surface_component(2, cls(2), genus=0), surface_component(4, cls(1), genus=0)]
        ),
        CriticalLevel(2, [point_component(6)]),
    ]
    outcome = classify(FixedPointData.build("mixed-surfaces", 6, "small", levels))
    assert isinstance(outcome, Refusal)
    assert outcome.stage == "applicability"
    # an isolated triple with a mixed level takes the value-lattice branch instead
    isolated = classify(three_sphere_product_data(1, 2, 3))
    assert isinstance(isolated, Certificate)
    assert isolated.lambdas == (1, 2, 3)


# ---------------------------------------------------------------------------
# structural validation builds one report per data set
# ---------------------------------------------------------------------------


@pytest.fixture
def validations(monkeypatch) -> list[str]:
    """The names of the scenarios whose validation report is built."""
    original, calls = scenario._structure_report, []

    def counting(data):
        calls.append(data.name)
        return original(data)

    monkeypatch.setattr(scenario, "_structure_report", counting)
    return calls


def test_classify_and_bootstrap_validate_once(validations):
    assert isinstance(classify(three_sphere_product_data(2, 3, 4)), Certificate)
    assert validations == ["three-spheres-2-3-4"]
    small_data_bootstrap(three_sphere_product_data(1, 2, 4, mode="small"))
    assert validations[1:] == ["three-spheres-1-2-4"]
    validations.clear()
    data, same = (three_sphere_product_data(2, 3, 4, mode="full") for _ in range(2))
    assert compare_fixed_point_data(data, same).same
    assert validations == [data.name] * 2
    validations.clear()
    walked = three_sphere_product_data(1, 2, 4)
    run_walk(walked)
    small_data_bootstrap(walked)  # reads the report the walk built
    assert validations == [walked.name]


def test_invalid_data_keeps_its_refusal_texts(validations):
    data = FixedPointData.build(
        "shifted", 6, "small",
        [CriticalLevel(1, [point_component(0)]), CriticalLevel(3, [point_component(6)])],
    )
    reason = "[normalization] minimum critical value must be 0, got 1"
    assert classify(data) == Refusal("shifted", "structure validation", reason, None)
    # the bootstrap refuses with the walk's own text
    with pytest.raises(PreconditionError) as err:
        small_data_bootstrap(data)
    assert str(err.value) == f"scenario 'shifted' fails validation: {reason}"
    assert validations == ["shifted"]  # the bootstrap reads the report classify built
    with pytest.raises(PreconditionError) as walked:
        run_walk(data)
    assert str(walked.value) == str(err.value)


# ---------------------------------------------------------------------------
# the bootstrap
# ---------------------------------------------------------------------------


def test_bootstrap_recovers_bundle_classes():
    full = small_data_bootstrap(three_sphere_product_data(2, 3, 4, mode="small"))
    assert full.mode == "full"
    # the state arriving at the first pairwise-sum wall carries -L+E1+E2+E3
    assert level_at(full, 5).euler_minus == cls(-1, 1, 1, 1)
    assert level_at(full, 2).euler_minus == cls(-1)
    # extremal levels carry no bundle data
    assert full.levels[0].euler_minus is None
    assert full.levels[-1].euler_minus is None


def test_bootstrap_is_idempotent():
    once = small_data_bootstrap(three_sphere_product_data(2, 3, 4, mode="small"))
    twice = small_data_bootstrap(once)
    assert compare_fixed_point_data(once, twice).same
    assert serialize_scenario(once) == serialize_scenario(twice)


def test_bootstrap_shifts_bundle_class_above_a_surface_level():
    levels = [
        CriticalLevel(0, [point_component(0)]),
        CriticalLevel(1, [surface_component(2, cls(2), genus=0)]),
        CriticalLevel(Fraction(5, 4), [point_component(2)]),
        CriticalLevel(
            Fraction(3, 2),
            [fourfold_component(2, ((1, 0), (0, -1)), (Fraction(1, 2), Fraction(1, 4)))],
        ),
    ]
    data = FixedPointData.build("conic-then-point", 6, "small", levels)
    full = small_data_bootstrap(data)
    # below the surface the bundle is the negative generator; above, shifted by 2L
    assert level_at(full, 1).euler_minus == cls(-1)
    assert level_at(full, Fraction(5, 4)).euler_minus == cls(1)


def test_bootstrap_refusal_names_the_failing_wall():
    data = isolated_scenario({0: [0], 2: [2, 3, 4], 4: [5, 6, 8], 6: [9]})
    with pytest.raises(WalkError) as walked:
        run_walk(data)
    with pytest.raises(WalkError) as refused:
        small_data_bootstrap(data)
    assert (refused.value.wall, refused.value.kind) == (6, "cone")
    assert str(refused.value) == str(walked.value)  # the walk's own text, no second prefix


# ---------------------------------------------------------------------------
# the weak classification check
# ---------------------------------------------------------------------------


def full_product(*lams):
    return small_data_bootstrap(three_sphere_product_data(*lams, mode="full"))


def test_weak_check_matching_certified_data():
    verdict = weak_classification_check(full_product(2, 3, 4), full_product(2, 3, 4))
    assert verdict.kind == "isomorphic (certified)"


def test_weak_check_distinct_data():
    verdict = weak_classification_check(full_product(2, 3, 4), full_product(2, 3, 6))
    assert verdict.kind == "distinct data"


def euler_corruption():
    """The (2,3,4) full data with one generator of the Euler class at 3 dropped."""
    good = full_product(2, 3, 4)
    return FixedPointData.build(good.name, 6, "full", [
        CriticalLevel(lv.value, lv.components, LatticeClass((-1, 0))) if lv.value == 3 else lv
        for lv in good.levels
    ])


def test_weak_check_corrupted_euler_is_distinct():
    verdict = weak_classification_check(full_product(2, 3, 4), euler_corruption())
    assert verdict.kind == "distinct data"
    assert "Euler fingerprint" in verdict.detail


def test_bundle_data_that_its_walk_contradicts_is_refused():
    good = full_product(2, 3, 4)
    corrupted = FixedPointData.build(good.name, 6, "full", [
        CriticalLevel(lv.value, lv.components, cls(5, 5)) if lv.value == 3 else lv
        for lv in good.levels
    ])
    refusal = classify(corrupted)
    assert isinstance(refusal, Refusal)
    assert refusal.stage == "bundle data"
    assert refusal.reason == "level 3: declared euler_minus (5,5), the walk derives (-1,1)"
    # equal data, but not the data of any walk: the theorem does not apply
    verdict = weak_classification_check(corrupted, corrupted)
    assert verdict.kind == "not applicable"
    assert verdict.detail == f"{good.name} contradicts its walk: {refusal.reason}"
    assert isinstance(classify(good), Certificate)


def test_weak_check_symmetric():
    d1, d2 = full_product(2, 3, 4), full_product(2, 3, 6)
    assert (
        weak_classification_check(d1, d2).kind == weak_classification_check(d2, d1).kind
    )


def face_value_product():
    """Declared hyperbolic fourfold extrema at 0 and 4, taken at face value."""
    return FixedPointData.build("face-value-product", 6, "full", [
        CriticalLevel(0, [fourfold_component(0, ((0, 1), (1, 0)), (1, 2), 0)]),
        CriticalLevel(4, [fourfold_component(2, ((0, 1), (1, 0)), (1, 2), 0)]),
    ])


def test_weak_check_inconclusive_over_uncertified_intervals():
    prod = face_value_product()
    verdict = weak_classification_check(prod, prod)
    assert verdict.kind == "inconclusive"
    assert "face value" in verdict.detail


HYPERBOLIC = ((0, 1), (1, 0))
SKEWED = ((0, 1), (1, 2))  # the ruling basis again: A = G1, B = G2 - G1


def capped_minimum(gram, areas, mode="small", **fields):
    """A declared fourfold minimum capped by the hyperbolic maximum ``[1, 2]`` at 4."""
    return FixedPointData.build("capped-minimum", 6, mode, [
        CriticalLevel(0, [fourfold_component(0, gram, areas, **fields)]),
        CriticalLevel(4, [fourfold_component(2, HYPERBOLIC, (1, 2))]),
    ])


def test_isometric_declared_minima_compare_as_the_same():
    skewed = capped_minimum(SKEWED, (1, 3), canonical=(0, -2))
    plain = capped_minimum(HYPERBOLIC, (1, 2))
    assert run_walk(skewed).fingerprints() == run_walk(plain).fingerprints()
    assert compare_fixed_point_data(skewed, plain) == ComparisonResult(True, None)


def test_declared_minima_with_different_euler_classes_compare_as_different():
    minus_b = capped_minimum(HYPERBOLIC, (1, 2), euler_class=(0, -1))
    # -B = G1 - G2 on the skewed basis: the same data
    same = capped_minimum(SKEWED, (1, 3), canonical=(0, -2), euler_class=(1, -1))
    assert compare_fixed_point_data(minus_b, same).same
    minus_a = capped_minimum(HYPERBOLIC, (1, 2), euler_class=(-1, 0))
    assert compare_fixed_point_data(minus_b, minus_a) == ComparisonResult(
        False, "level 0: component fingerprints"
    )


DEFAULT_3 = default_lattice(3)


def cubic_pencil(areas=(20, 5, 6, 7), euler_class=(-1, 0, 0, 0), f=cls(1, -1, 0, 0)):
    """A declared default-gram fourfold minimum at k = 3, a genus-0 sphere of
    index 2 in class ``f`` at 1 and the fourfold maximum the walk arrives at
    by 3 (``e = -E1``)."""
    gram = DEFAULT_3.gram
    return FixedPointData.build("cubic-pencil", 6, "full", [
        CriticalLevel(0, [fourfold_component(0, gram, areas, euler_class=euler_class)]),
        CriticalLevel(1, [surface_component(2, f)]),
        CriticalLevel(3, [fourfold_component(2, gram, (21, 3, 6, 7), euler_class=(0, 1, 0, 0))]),
    ])


def cremona_image():
    """``cubic_pencil()`` moved by the standard Cremona transformation on E1, E2, E3."""
    cremona = cremona_standard(DEFAULT_3, 1, 2, 3)
    assert cremona.preserves_canonical
    moved = cremona.apply(class_with_areas(DEFAULT_3.gram, (20, 5, 6, 7)))
    moved_areas = tuple(DEFAULT_3.pair(moved, DEFAULT_3.basis(i)) for i in range(4))
    moved_euler = cremona.apply(cls(-1, 0, 0, 0)).integer_coeffs()
    return cubic_pencil(moved_areas, moved_euler, cremona.apply(cls(1, -1, 0, 0)))


def test_a_cremona_image_of_the_declared_data_compares_as_the_same():
    data, image = cubic_pencil(), cremona_image()
    moved_areas = image.levels[0].components[0].areas
    moved_euler = image.levels[0].components[0].euler_class
    assert (moved_areas, moved_euler) == ((22, 7, 8, 9), (-2, 1, 1, 1))  # L - E1 is fixed
    assert compare_fixed_point_data(data, image) == ComparisonResult(True, None)
    other_line = cubic_pencil(moved_areas, moved_euler, cls(1, 0, -1, 0))
    assert compare_fixed_point_data(data, other_line) == ComparisonResult(
        False, "level 1: component fingerprints"
    )
    verdict = weak_classification_check(data, image)
    assert verdict.kind == "inconclusive"  # the declared extrema are taken at face value
    assert verdict == weak_classification_check(data, data) == weak_classification_check(
        image, image
    )


def test_declared_lattice_with_unbounded_marked_classes_has_no_fingerprint():
    # K.K = 9 - 25 <= 0: the marked classes need not be finite, which validation
    # refuses before either call fingerprints anything
    flat = capped_minimum(((1, 0), (0, -1)), (2, 1), mode="full", canonical=(-3, 5))
    with pytest.raises(PreconditionError, match="K.K = -16"):
        compare_fixed_point_data(flat, flat)
    verdict = weak_classification_check(flat, flat)
    assert verdict.kind == "not applicable"
    assert "K.K = -16" in verdict.detail


def test_weak_check_not_applicable_for_small_mode():
    small = three_sphere_product_data(2, 3, 4, mode="small")
    assert weak_classification_check(small, small).kind == "not applicable"


def test_weak_check_not_applicable_for_non_simple_levels():
    # isolated data is certified whether or not its levels are simple (3 = 1 + 2)
    verdict = weak_classification_check(full_product(1, 2, 3), full_product(1, 2, 3))
    assert verdict.kind == "isomorphic (certified)"
    carried = small_data_bootstrap(carried_surface_data())
    refusal = classify(carried)
    assert (refusal.stage, refusal.reason) == ("applicability", "levels at ['1'] are not simple")
    assert weak_classification_check(carried, carried) == WeakVerdict(
        "not applicable", f"carried-surface: {refusal.reason}"
    )


def full_mode_pool():
    return [full_product(2, 3, 4), full_product(1, 2, 3), full_product(1, 1, 1),
            euler_corruption(), cubic_pencil(), conic(), negative_conic(cls(-2)),
            small_data_bootstrap(carried_surface_data()), face_value_product()]


def test_the_weak_check_of_data_against_themselves_reads_their_classification():
    kinds = set()
    for data in full_mode_pool():
        outcome, verdict = classify(data), weak_classification_check(data, data)
        if isinstance(outcome, Certificate):
            expected = "isomorphic (certified)"
        elif outcome.stage == "rigidity certification":
            expected = "inconclusive"
        else:
            expected = "not applicable"
        assert verdict.kind == expected, data.name
        kinds.add(expected)
    assert len(kinds) == 3  # the pool reaches every answer


# ---------------------------------------------------------------------------
# every branch of the comparison
# ---------------------------------------------------------------------------

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def mixed_genus_data():
    """Two lines of index 2 at one level, one with genus 0 and one with no genus."""
    return FixedPointData.build("mixed-genus", 6, "small", [
        CriticalLevel(0, [point_component(0)]),
        CriticalLevel(1, [surface_component(2, cls(1), genus=0),
                          surface_component(2, cls(1), genus=None)]),
        CriticalLevel(2, [point_component(6)]),
    ])


def surface_maximum_data(mode="small"):
    return FixedPointData.build("surface-maximum", 6, mode, [
        CriticalLevel(0, [point_component(0)]),
        CriticalLevel(1, [point_component(2)]),
        CriticalLevel(3, [surface_component(4, cls(1, -1), genus=0)]),
    ])


def with_euler(data, value, euler_minus):
    return FixedPointData.build(data.name, 6, data.mode, [
        CriticalLevel(lv.value, lv.components, euler_minus) if lv.value == value else lv
        for lv in data.levels
    ])


def test_a_level_compares_its_components_as_a_multiset():
    data = mixed_genus_data()
    assert isinstance(classify(data), Certificate)
    assert compare_fixed_point_data(data, data) == ComparisonResult(True, None)
    both_genus_zero = FixedPointData.build("mixed-genus", 6, "small", [
        data.levels[0],
        CriticalLevel(1, [surface_component(2, cls(1), genus=0)] * 2),
        data.levels[2],
    ])
    assert compare_fixed_point_data(data, both_genus_zero) == ComparisonResult(
        False, "level 1: component fingerprints"
    )


@pytest.mark.parametrize("changed", [
    pencil_data(genus=None),
    pencil_data(cls(1, 0, -1)),
    pencil_data(normal_euler=1),
], ids=["genus", "class-of-equal-pairings", "normal-euler"])
def test_one_changed_surface_field_is_named_at_its_level(changed):
    data = pencil_data()
    assert run_walk(data) and run_walk(changed)  # both sides walk
    assert compare_fixed_point_data(data, data) == ComparisonResult(True, None)
    assert compare_fixed_point_data(data, changed) == ComparisonResult(
        False, "level 5/2: component fingerprints"
    )


def test_one_changed_euler_entry_is_named_at_its_level():
    good = full_product(2, 3, 4)
    assert level_at(good, 4).euler_minus == cls(-1, 1, 1)
    assert compare_fixed_point_data(good, with_euler(good, 4, cls(-1, 1, 2))) == ComparisonResult(
        False, "level 4: Euler fingerprint {pair(e,C)}"
    )


def test_euler_data_on_one_side_only_is_named_at_its_level():
    good = full_product(2, 3, 4)
    assert compare_fixed_point_data(good, with_euler(good, 4, None)) == ComparisonResult(
        False, "level 4: Euler data present on one side only"
    )


def test_the_comparison_refuses_invalid_data_and_mixed_modes():
    shifted = FixedPointData.build(
        "shifted", 6, "small",
        [CriticalLevel(1, [point_component(0)]), CriticalLevel(3, [point_component(6)])],
    )
    good = three_sphere_product_data(2, 3, 4, mode="small")
    with pytest.raises(PreconditionError,
                       match=r"scenario 'shifted' fails validation: \[normalization\]"):
        compare_fixed_point_data(good, shifted)
    with pytest.raises(PreconditionError, match="different modes"):
        compare_fixed_point_data(good, full_product(2, 3, 4))
    # the weak check answers not applicable where the comparison raises
    shifted_full = FixedPointData.build("shifted", 6, "full", shifted.levels)
    assert weak_classification_check(full_product(2, 3, 4), shifted_full) == WeakVerdict(
        "not applicable", "shifted: [normalization] minimum critical value must be 0, got 1"
    )


def conic(c=cls(2), name="conic"):
    """A surface of index 2 in the plane class ``c`` at 1: it walks when ``c`` is positive."""
    return FixedPointData.build(name, 6, "full", [
        CriticalLevel(0, [point_component(0)]),
        CriticalLevel(1, [surface_component(2, c, genus=None)]),
        CriticalLevel(2, [point_component(6)]),
    ])


def negative_conic(c):
    return conic(c, "negative-conic")


def test_data_that_does_not_walk_is_not_compared():
    data = negative_conic(cls(-2))
    # not the data of any manifold: the walk's own error, naming its wall
    for pair in ((data, data), (conic(), data)):
        with pytest.raises(WalkError, match="at wall 1: surface in class -2L has area -2"):
            compare_fixed_point_data(*pair)
    verdict = weak_classification_check(data, data)
    assert verdict.lines() == [
        "VERDICT: not applicable",
        f"  negative-conic: {classify(data).reason}",
    ]
    assert run_walk(conic())  # the other side walks
    for pair in ((conic(), data), (data, conic())):
        assert weak_classification_check(*pair) == verdict


def test_only_walked_data_is_compared_across_a_pool():
    pool = [full_product(2, 3, 4), full_product(2, 3, 6), euler_corruption(), cubic_pencil(),
            cremona_image(), negative_conic(cls(-2)), conic(),
            small_data_bootstrap(carried_surface_data())]
    same, kind = {}, {}
    for i, a in enumerate(pool):
        for j, b in enumerate(pool):
            verdict = weak_classification_check(a, b)
            kind[i, j] = verdict.kind
            try:
                same[i, j] = compare_fixed_point_data(a, b).same
            except WalkError:
                assert verdict.kind == "not applicable", (i, j)
            else:  # a walked side is never refused at a wall
                assert "at wall" not in verdict.detail, (i, j)
    for i, j in kind:
        assert kind[i, j] == kind[j, i], (i, j)
        if (i, j) in same:
            assert same[i, j] == same[j, i], (i, j)
    # the negative conic is the one side that does not walk
    assert kind.keys() - same.keys() == {pair for pair in kind if 5 in pair}


def test_weak_check_of_data_that_fails_its_maximum_check_is_not_applicable():
    # a twice blown-up plane at the minimum cannot arrive at the declared S2 x S2 maximum
    doc = json.loads((SCENARIOS / "sphere_product_extrema.json").read_text(encoding="utf-8"))
    doc["levels"][0]["components"][0].update(
        gram=[[1, 0, 0], [0, -1, 0], [0, 0, -1]], areas=[10, 3, 2], canonical=[-3, 1, 1])
    full = small_data_bootstrap(parse_scenario(json.dumps(doc)))
    refusal = classify(full)
    assert refusal.stage == "maximum check" and refusal.trace is not None  # its walk finished
    assert weak_classification_check(full, full) == WeakVerdict(
        "not applicable",
        "sphere-product-extrema contradicts its walk: FAIL: maximum lattice type matches "
        "(declared (2, 'even', (1, 1)), arrived (3, 'odd', (1, 2)))",
    )


def test_weak_check_of_a_surface_maximum_is_not_applicable():
    data = surface_maximum_data("full")
    refusal = classify(data)
    assert (refusal.stage, refusal.reason) == ("wall crossing", (
        "at wall 3: codimension-4 surface extremum: reduced spaces near it are sphere "
        "bundles, which this engine does not model"
    ))
    with pytest.raises(WalkError) as refused:
        small_data_bootstrap(surface_maximum_data())
    assert (refused.value.wall, refused.value.kind) == (3, "surface extremum")
    assert str(refused.value) == refusal.reason
    verdict = weak_classification_check(data, data)
    assert verdict == WeakVerdict(
        "not applicable", f"surface-maximum: {refusal.reason}"
    )
