from fractions import Fraction
from pathlib import Path

import pytest

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
from testutil import cls, fourfold_component, level_at, surface_component

SCENARIOS = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.json"))


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


def test_round_trip_covers_every_component_field():
    minimum = fourfold_component(
        0, ((1, 0), (0, -1)), (Fraction(5, 2), Fraction(1, 2)),
        normal_euler=-1, canonical=(-3, 1), euler_class=(-1, 1),
    )
    data = FixedPointData.build("every-field", 6, "full", [
        CriticalLevel(0, [minimum]),
        CriticalLevel(Fraction(3, 2), [surface_component(2, cls(1, -1), genus=1)], cls(-1, 0)),
        CriticalLevel(4, [point_component(6)]),
    ])
    declared = {
        name for _, c in data.all_components for name in FixedComponent._fields
        if getattr(c, name) is not None
    }
    assert declared == set(FixedComponent._fields)
    text = serialize_scenario(data)
    again = parse_scenario(text)
    assert again == data
    assert serialize_scenario(again) == text


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
    with pytest.raises(ScenarioFormatError, match="malformed rational"):
        parse_scenario(bad)


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
