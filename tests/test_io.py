import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from dhwalk.errors import ScenarioFormatError
from dhwalk.io import (
    parse_scenario,
    profile_csv,
    profile_rows,
    profile_svg,
    serialize_scenario,
    trace_csv,
)
from dhwalk.scenario import (
    CriticalLevel,
    FixedComponent,
    FixedPointData,
    point_component,
    three_sphere_product_data,
)
from dhwalk.classify import small_data_bootstrap
from dhwalk.walk import run_walk
from testutil import cls, fourfold_component, level_at, scenario_payload, surface_component

SCENARIOS = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.json"))
BOOTSTRAP_GOLDENS = sorted((Path(__file__).resolve().parent / "golden").glob("*/bootstrap.json"))


MINIMAL = """
{
  "name": "tiny",
  "dim": 6,
  "mode": "small",
  "levels": [
    {"value": 0, "components": [{"kind": "point", "index": 0}]},
    {"value": "7/2", "components": [{"kind": "point", "index": 6}]}
  ]
}
"""


def test_parse_minimal_scenario():
    data = parse_scenario(MINIMAL)
    assert data.name == "tiny"
    assert data.levels[1].value == Fraction(7, 2)


def test_round_trip_is_identity():
    for source in (
        three_sphere_product_data(2, 3, 4, mode="small"),
        three_sphere_product_data(Fraction(1, 2), Fraction(3, 2), 4, mode="small"),
        small_data_bootstrap(three_sphere_product_data(2, 3, 4, mode="full")),
    ):
        text = serialize_scenario(source)
        again = parse_scenario(text)
        assert again == source
        assert serialize_scenario(again) == text


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_every_scenario_file_round_trips_byte_for_byte(path):
    text = path.read_text(encoding="utf-8")
    assert serialize_scenario(parse_scenario(text)) == text


def every_field_data(name: str = "every-field") -> FixedPointData:
    """Full data that declares every optional component field at least once."""
    minimum = fourfold_component(
        0, ((1, 0), (0, -1)), (Fraction(5, 2), Fraction(1, 2)),
        normal_euler=-1, canonical=(-3, 1), euler_class=(-1, 1),
    )
    return FixedPointData.build(name, 6, "full", [
        CriticalLevel(0, [minimum]),
        CriticalLevel(Fraction(3, 2), [surface_component(2, cls(1, -1), genus=1)], cls(-1, 0)),
        CriticalLevel(4, [point_component(6)]),
    ])


def test_round_trip_covers_every_component_field():
    data = every_field_data()
    declared = {
        name for _, c in data.all_components for name in FixedComponent._fields
        if getattr(c, name) is not None
    }
    assert declared == set(FixedComponent._fields)
    text = serialize_scenario(data)
    again = parse_scenario(text)
    assert again == data
    assert serialize_scenario(again) == text


def assert_writes_the_indented_payload(data: FixedPointData) -> None:
    assert serialize_scenario(data) == json.dumps(scenario_payload(data), indent=2) + "\n"


@pytest.mark.parametrize("path", SCENARIOS + BOOTSTRAP_GOLDENS,
                         ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_the_writer_matches_the_indented_payload_on_every_file(path):
    assert_writes_the_indented_payload(parse_scenario(path.read_text(encoding="utf-8")))


def test_the_writer_matches_the_indented_payload_on_library_data():
    for data in (
        three_sphere_product_data(1, 1, 2, mode="small"),  # a level of two components
        small_data_bootstrap(three_sphere_product_data(Fraction(1, 2), 3, 4, mode="full")),
    ):
        assert_writes_the_indented_payload(data)
    # empty lists close on their line, as ``indent=2`` writes them
    hollow = fourfold_component(0, (), (), canonical=())
    assert_writes_the_indented_payload(FixedPointData("hollow", 6, "full", (
        CriticalLevel(0, [hollow]), CriticalLevel(1, [point_component(6)]))))


@settings(max_examples=60, deadline=None)
@given(st.text(max_size=12))
@example('quote " backslash \\ slash /')
@example("control \x00\x1f\t\n\r\x7f")
@example("non-ASCII é ∂ 三 \U0001F600")
def test_the_writer_escapes_names_as_json_does(name):
    # on the data that declares every ``_FIELDS`` entry
    data = every_field_data(name)
    assert_writes_the_indented_payload(data)
    assert parse_scenario(serialize_scenario(data)) == data


def test_unknown_keys_rejected_with_path():
    bad = MINIMAL.replace('"dim": 6,', '"dim": 6, "dimension": 6,')
    with pytest.raises(ScenarioFormatError, match="unknown key"):
        parse_scenario(bad)
    bad = MINIMAL.replace('"index": 0', '"index": 0, "weight": 1')
    with pytest.raises(ScenarioFormatError, match=r"components\[0\]"):
        parse_scenario(bad)


def test_float_literals_rejected():
    bad = MINIMAL.replace('"7/2"', "3.5")
    with pytest.raises(ScenarioFormatError, match="floating-point"):
        parse_scenario(bad)


def test_malformed_rational_rejected():
    bad = MINIMAL.replace('"7/2"', '"7/0"')
    with pytest.raises(ScenarioFormatError, match="malformed rational '7/0': zero denominator"):
        parse_scenario(bad)


@pytest.mark.parametrize("text", [
    "3.5e0",   # a float in a string
    "2.0",     # a decimal point
    "1_0/5",   # digit separators
    " 2 ",     # surrounding spaces
    "+2",      # an explicit plus sign
    "1/-2",    # a signed denominator
    "1/2/3",   # two slashes
    "٣",       # a non-ASCII digit
    "",        # nothing
    # more digits than int() reads
    pytest.param("1" * 5000, id="long-numerator"),
    pytest.param("1/" + "1" * 5000, id="long-denominator"),
])
def test_only_strict_p_q_strings_are_rationals(text):
    bad = MINIMAL.replace('"7/2"', json.dumps(text))
    with pytest.raises(ScenarioFormatError, match="levels\\[1\\].value: malformed rational"):
        parse_scenario(bad)


def test_an_integer_literal_too_long_for_int_is_invalid_json():
    bad = MINIMAL.replace('"7/2"', "1" * 5000)
    with pytest.raises(ScenarioFormatError, match="invalid JSON"):
        parse_scenario(bad)


@pytest.mark.parametrize("text, value", [
    ("7/2", Fraction(7, 2)), ("-7/2", Fraction(-7, 2)), ("6/4", Fraction(3, 2)),
    ("-0", Fraction(0)), ("007", Fraction(7)), ("12/1", Fraction(12)),
])
def test_strict_p_q_strings_read_exactly(text, value):
    data = parse_scenario(MINIMAL.replace('"7/2"', json.dumps(text)))
    assert value in [lv.value for lv in data.levels]
    assert all(type(lv.value) is Fraction for lv in data.levels)


def test_json_syntax_error_carries_position():
    with pytest.raises(ScenarioFormatError, match="line"):
        parse_scenario('{"name": "x",,}')


def test_small_mode_euler_rejected_at_parse():
    bad = MINIMAL.replace(
        '{"value": 0, "components": [{"kind": "point", "index": 0}]}',
        '{"value": 0, "components": [{"kind": "point", "index": 0}], "euler_minus": [1]}',
    )
    with pytest.raises(ScenarioFormatError, match="small-mode"):
        parse_scenario(bad)


def test_equal_values_merge_at_parse():
    text = """
    {"name": "merge", "dim": 6, "mode": "small", "levels": [
      {"value": 0, "components": [{"kind": "point", "index": 0}]},
      {"value": 1, "components": [{"kind": "point", "index": 2}]},
      {"value": 1, "components": [{"kind": "point", "index": 2}]},
      {"value": 2, "components": [{"kind": "point", "index": 6}]}
    ]}
    """
    data = parse_scenario(text)
    assert len(data.levels) == 3
    assert len(level_at(data, 1).components) == 2


def test_trace_csv_shape_and_determinism():
    trace = run_walk(three_sphere_product_data(2, 3, 4))
    text = trace_csv(trace)
    lines = text.strip().splitlines()
    assert lines[0] == (
        "interval_lo,interval_hi,k,exc_areas,euler_fingerprint,volume_poly,rigidity_status"
    )
    assert len(lines) == 8  # header + seven intervals
    ks = [line.split(",")[2] for line in lines[1:]]
    assert ks == ["0", "1", "2", "3", "2", "1", "0"]
    assert text == trace_csv(run_walk(three_sphere_product_data(2, 3, 4)))


def test_profile_rows_are_exact():
    trace = run_walk(three_sphere_product_data(2, 3, 4))
    rows = profile_rows(trace, 9)
    assert rows[0] == (0, 0, 0)
    assert rows[-1] == (9, 0, 0)
    assert rows[1] == (1, Fraction(1, 2), 0)
    # at a wall the row reports the interval to the right
    assert profile_csv(trace, 9).splitlines()[3] == "2,2,1"


def test_profile_svg_is_a_static_plot_with_wall_markers():
    trace = run_walk(three_sphere_product_data(2, 3, 4))
    svg = profile_svg(trace, 18)
    assert svg.startswith("<svg")
    assert svg.count("stroke-dasharray") == 6  # one marker per wall
    assert svg == profile_svg(run_walk(three_sphere_product_data(2, 3, 4)), 18)
