import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dhwalk.classify import (
    Certificate,
    ComparisonResult,
    Refusal,
    classify,
    classify_isolated,
    compare_fixed_point_data,
    small_data_bootstrap,
    weak_classification_check,
)
from dhwalk import scenario
from dhwalk.errors import BootstrapError, PreconditionError
from dhwalk.lattice import LatticeClass
from dhwalk.scenario import (
    CriticalLevel,
    FixedPointData,
    point_component,
    three_sphere_product_data,
)
from dhwalk.io import serialize_scenario
from dhwalk.walk import run_walk
from testutil import cls, fourfold_component, isolated_scenario, level_at, surface_component

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
    outcome = classify(data)
    assert isinstance(outcome, Refusal)
    assert outcome.stage == "wall crossing"
    assert outcome.reason.startswith("at wall 0:") and "rank 10" in outcome.reason


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
# structural validation runs once per entry point
# ---------------------------------------------------------------------------


@pytest.fixture
def validations(monkeypatch) -> list[str]:
    """The names of the scenarios validated, through every module that holds the function."""
    original, calls = scenario.validate_structure, []

    def counting(data):
        calls.append(data.name)
        return original(data)

    for name, module in list(sys.modules.items()):
        if name.startswith("dhwalk.") and getattr(module, "validate_structure", None) is original:
            monkeypatch.setattr(module, "validate_structure", counting)
    return calls


def test_classify_and_bootstrap_validate_once(validations):
    assert isinstance(classify(three_sphere_product_data(2, 3, 4)), Certificate)
    assert validations == ["three-spheres-2-3-4"]
    small_data_bootstrap(three_sphere_product_data(1, 2, 4, mode="small"))
    assert validations[1:] == ["three-spheres-1-2-4"]
    validations.clear()
    data = three_sphere_product_data(2, 3, 4, mode="full")
    assert compare_fixed_point_data(data, data).same
    assert validations == [data.name] * 2


def test_invalid_data_keeps_its_refusal_texts(validations):
    data = FixedPointData.build(
        "shifted", 6, "small",
        [CriticalLevel(1, [point_component(0)]), CriticalLevel(3, [point_component(6)])],
    )
    reason = "[normalization] minimum critical value must be 0, got 1"
    assert classify(data) == Refusal("shifted", "structure validation", reason)
    with pytest.raises(BootstrapError) as err:
        small_data_bootstrap(data)
    assert str(err.value) == f"scenario fails validation: {reason}"
    assert validations == ["shifted"] * 2
    with pytest.raises(PreconditionError, match=r"'shifted' fails validation: \[normalization\]"):
        run_walk(data)


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
    with pytest.raises(BootstrapError):
        small_data_bootstrap(data)


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


def test_weak_check_corrupted_euler_is_distinct():
    good = full_product(2, 3, 4)
    corrupted_levels = [
        CriticalLevel(lv.value, lv.components, LatticeClass((-1, 0)))
        if lv.value == 3
        else lv
        for lv in good.levels
    ]
    corrupted = FixedPointData.build(good.name, 6, "full", corrupted_levels)
    verdict = weak_classification_check(good, corrupted)
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


def test_weak_check_inconclusive_over_uncertified_intervals():
    prod = FixedPointData.build(
        "face-value-product",
        6,
        "full",
        [
            CriticalLevel(0, [fourfold_component(0, ((0, 1), (1, 0)), (1, 2), 0)]),
            CriticalLevel(4, [fourfold_component(2, ((0, 1), (1, 0)), (1, 2), 0)]),
        ],
    )
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


def test_declared_lattice_with_unbounded_marked_classes_has_no_fingerprint():
    # K.K = 9 - 25 <= 0: the marked classes need not be finite
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
    verdict = weak_classification_check(full_product(1, 2, 3), full_product(1, 2, 3))
    assert verdict.kind == "not applicable"
    assert "non-simple" in verdict.detail
