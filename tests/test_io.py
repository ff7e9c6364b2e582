import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from dhwalk.errors import ScenarioFormatError, WalkError
from dhwalk.io import (
    dump_scenario,
    load_scenario,
    parse_scenario,
    profile_csv,
    profile_rows,
    profile_svg,
    serialize_scenario,
    trace_csv,
)
from dhwalk.lattice import LatticeClass
from dhwalk.scenario import (
    ComponentKind,
    CriticalLevel,
    FixedComponent,
    FixedPointData,
    point_component,
    three_sphere_product_data,
)
from dhwalk.classify import small_data_bootstrap
from dhwalk.walk import compose_traces, run_walk, split_trace
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


def test_a_scenario_file_is_named_by_a_str_or_a_path_like_not_a_descriptor(tmp_path):
    data = three_sphere_product_data(2, 3, 4)
    for path in (tmp_path / "path.json", str(tmp_path / "str.json")):
        dump_scenario(data, path)
        assert load_scenario(path) == data
    with open(tmp_path / "fd.json", "w+", encoding="utf-8") as f:
        for call in (lambda: load_scenario(f.fileno()), lambda: dump_scenario(data, f.fileno())):
            with pytest.raises(TypeError):
                call()
        assert f.read() == ""  # nothing was written through the descriptor


def test_a_failed_serialization_leaves_no_file(tmp_path):
    data = three_sphere_product_data(2, 3, 4)
    unnamed = FixedPointData(object(), data.dim, data.mode, data.levels)
    with pytest.raises(TypeError, match="not JSON serializable"):
        dump_scenario(unnamed, tmp_path / "never.json")
    assert not (tmp_path / "never.json").exists()


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
        name for lv in data.levels for c in lv.components for name in FixedComponent._fields
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


#: equals ``point_component(2)`` but is another object, so the writer renders its fields
POINT_TWIN = FixedComponent(ComponentKind.POINT, 2, normal_split=(1, 2))
sphere_areas = st.fractions(min_value=Fraction(1, 6), max_value=6, max_denominator=6)
#: level values of about 4,000 digits, under the 4,300-digit limit of ``int()`` on read
huge_values = st.builds(lambda n, d, sign: Fraction(sign * (10**3999 + n), d),
                        st.integers(0, 10**6), st.integers(1, 99), st.sampled_from([1, -1]))


@st.composite
def sphere_data(draw) -> FixedPointData:
    """Small or bootstrapped sphere data, its triple often coincident (merged levels), and
    its index-2 points sometimes equal records of their own."""
    a, b, c = draw(st.tuples(sphere_areas, sphere_areas, sphere_areas))
    data = three_sphere_product_data(*draw(st.sampled_from([(a, b, c), (a, a, b), (a, b, a + b)])),
                                     mode="small")
    if draw(st.booleans()):
        data = small_data_bootstrap(data)
    if draw(st.booleans()):
        data = FixedPointData(data.name, 6, data.mode, tuple(
            CriticalLevel(lv.value, [POINT_TWIN if comp is point_component(2) else comp
                                     for comp in lv.components], lv.euler_minus)
            for lv in data.levels))
    return data


@st.composite
def drawn_levels_data(draw) -> FixedPointData:
    """Points at distinct values, some huge, with Euler data of any sign (empty too) in full mode."""
    mode = draw(st.sampled_from(["small", "full"]))
    values = draw(st.lists(st.one_of(st.fractions(-50, 50, max_denominator=12), huge_values),
                           min_size=1, max_size=5, unique=True))
    points = st.sampled_from([point_component(i) for i in range(7)] + [POINT_TWIN])
    eulers = st.none() if mode == "small" else st.none() | st.builds(
        LatticeClass, st.lists(st.integers(-10**6, 10**6), max_size=4))
    return FixedPointData.build("drawn", 6, mode, [
        CriticalLevel(value, draw(st.lists(points, min_size=1, max_size=3)), draw(eulers))
        for value in values])


@seed(11)
@settings(max_examples=150, deadline=None)
@given(st.one_of(sphere_data(), drawn_levels_data(), st.builds(every_field_data)))
def test_the_writer_matches_the_indented_payload_and_round_trips(data):
    assert_writes_the_indented_payload(data)
    assert parse_scenario(serialize_scenario(data)) == data


def test_unknown_keys_rejected_with_path():
    bad = MINIMAL.replace('"dim": 6,', '"dim": 6, "dimension": 6,')
    with pytest.raises(ScenarioFormatError, match="unknown key"):
        parse_scenario(bad)
    bad = MINIMAL.replace('"index": 0', '"index": 0, "weight": 1')
    with pytest.raises(ScenarioFormatError, match=r"components\[0\]"):
        parse_scenario(bad)


@pytest.mark.parametrize("where, value, message", [
    (("levels", 0, "components", 0, "gram", 1, 1), True,
     "levels[0].components[0].gram[1][1]: expected an integer, got True"),
    (("levels", 0, "components", 0, "gram", 1), 3,
     "levels[0].components[0].gram[1]: expected a list of integers"),
    (("levels", 0, "components", 0, "areas", 1), [1],
     "levels[0].components[0].areas[1]: expected an integer or 'p/q' string, got [1]"),
    (("levels", 1, "euler_minus", 1), "1",
     "levels[1].euler_minus[1]: expected an integer, got '1'"),
    (("levels", 1, "components", 0, "reduced_class", 0), None,
     "levels[1].components[0].reduced_class[0]: expected an integer, got None"),
], ids=["gram-entry", "gram-row", "areas-entry", "euler-entry", "class-entry"])
def test_a_bad_list_entry_is_named_by_its_path(where, value, message):
    payload = json.loads(serialize_scenario(every_field_data()))
    parent = payload
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = value
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario(json.dumps(payload))
    assert str(err.value) == message


DROP = object()  # the key is deleted
COMPONENT = ("levels", 1, "components", 0)


@pytest.mark.parametrize("where, value, message", [
    ((), [], "top level must be an object"),
    (("name",), DROP, "top level: missing key 'name'"),
    (("name",), 3, "name: expected a string"),
    (("dim",), 4, "dim: this engine handles dimension 6, got 4"),
    (("levels",), [], "levels: expected a nonempty list"),
    (("levels", 1), 7, "levels[1]: level must be an object"),
    (("levels", 1, "components"), DROP, "levels[1]: level needs 'value' and 'components'"),
    (("levels", 1, "components"), [], "levels[1].components: expected a nonempty list"),
    (COMPONENT, "point", "levels[1].components[0]: component must be an object"),
    ((*COMPONENT, "kind"), "line",
     "levels[1].components[0].kind: expected 'point', 'surface' or 'fourfold', got 'line'"),
    ((*COMPONENT, "index"), DROP, "levels[1].components[0]: component needs an index"),
    (("levels", 1, "value"), True, "levels[1].value: expected a rational, got a boolean"),
    ((*COMPONENT, "normal_split"), [1, 1, 0],
     "levels[1].components[0].normal_split: expected two integers"),
], ids=["not-an-object", "no-name", "name-type", "dim", "no-levels", "level-type",
        "level-keys", "no-components", "component-type", "kind", "no-index", "boolean-value",
        "split-length"])
def test_the_schema_refuses_a_malformed_structure_with_its_path(where, value, message):
    payload = json.loads(MINIMAL)
    if not where:
        payload = value
    else:
        parent = payload
        for key in where[:-1]:
            parent = parent[key]
        if value is DROP:
            del parent[where[-1]]
        else:
            parent[where[-1]] = value
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario(json.dumps(payload))
    assert str(err.value) == message


def test_nesting_too_deep_for_the_json_reader_is_a_format_error():
    with pytest.raises(ScenarioFormatError, match="invalid JSON: .* nested too deeply"):
        parse_scenario("[" * 200000 + "]" * 200000)


@pytest.mark.parametrize("old, new, key", [
    ('"value": "7/2"', '"value": 1, "value": "7/2"', "value"),  # the last would win silently
    ('"dim": 6', '"dim": 6, "dim": 6', "dim"),  # even with equal values
    ('"index": 6', '"index": 6, "kind": "point"', "kind"),  # inside a component
])
def test_a_duplicate_key_is_refused_not_overwritten(old, new, key):
    with pytest.raises(ScenarioFormatError, match=f"^duplicate key '{key}'$"):
        parse_scenario(MINIMAL.replace(old, new, 1))


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


def parse_point(point: dict):
    """The component parsed from ``point`` at the first interior level of MINIMAL plus a wall."""
    payload = json.loads(MINIMAL)
    payload["levels"].insert(1, {"value": 1, "components": [point]})
    return parse_scenario(json.dumps(payload)).levels[1].components[0]


@pytest.mark.parametrize("point", [
    {"kind": "point", "index": 2},
    {"index": 4, "kind": "point"},
    {"kind": "point", "index": 2, "normal_split": [1, 2]},
    {"kind": "point", "index": 3},
], ids=["plain", "key-order", "stated-split", "odd-index"])
def test_a_plain_point_parses_to_the_shared_record(point):
    assert parse_point(point) is point_component(point["index"])


@pytest.mark.parametrize("point, message", [
    ({"kind": "point", "index": True},
     "levels[1].components[0].index: expected an integer, got True"),
    ({"kind": "point", "index": 1, "normal_split": [False, True]},
     "levels[1].components[0].normal_split[0]: expected an integer, got False"),
    ({"kind": "point", "index": 0, "normal_split": [0, 3], "genus": False},
     "levels[1].components[0].genus: expected an integer, got False"),
    ({"kind": "point", "index": 2, "weight": 1},
     "levels[1].components[0]: unknown key(s) ['weight']"),
    ({"kind": ["point"], "index": 2},
     "levels[1].components[0].kind: expected 'point', 'surface' or 'fourfold', got ['point']"),
], ids=["boolean-index", "boolean-split", "boolean-genus", "unknown-key", "kind-list"])
def test_a_point_with_a_boolean_or_foreign_entry_is_refused_as_before(point, message):
    with pytest.raises(ScenarioFormatError) as err:
        parse_point(point)
    assert str(err.value) == message


@pytest.mark.parametrize("point, kept", [
    ({"kind": "point", "index": 2, "normal_split": [2, 1]},
     FixedComponent(ComponentKind.POINT, 2, normal_split=(2, 1))),
    ({"kind": "point", "index": 8},
     FixedComponent(ComponentKind.POINT, 8)),
    ({"kind": "point", "index": -2, "normal_split": [0, 3]},
     FixedComponent(ComponentKind.POINT, -2, normal_split=(0, 3))),
    ({"kind": "point", "index": 0, "genus": 1},
     FixedComponent(ComponentKind.POINT, 0, genus=1, normal_split=(0, 3))),
], ids=["unexpected-split", "index-8", "negative-index", "foreign-field"])
def test_a_point_unlike_a_shared_record_is_kept_as_declared(point, kept):
    got = parse_point(point)
    assert got == kept and got is not point_component(point["index"])


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
    with pytest.raises(ValueError, match="need at least one sample step"):
        profile_rows(trace, 0)


def scanned_profile_rows(trace, samples: int) -> list:
    """The profile with each sample's interval found by a scan from the first one."""
    rng, rows = trace.moment_range, []
    for j in range(samples + 1):
        t = rng.lo + (rng.hi - rng.lo) * Fraction(j, samples)
        family = next((f for f in trace.intervals if f.interval.lo <= t < f.interval.hi),
                      trace.intervals[-1])
        rows.append((t, family.volume(t), family.lattice.rank - 1))
    return rows


def test_profile_rows_find_each_interval_as_a_scan_from_the_first_does():
    # 9 and 18 steps over (2,3,4) put samples on every wall and on the maximum; the
    # left half of a split ends at a regular seam, which its last interval holds
    traces = []
    for path in SCENARIOS:
        try:
            traces.append(run_walk(load_scenario(path)))
        except WalkError:
            continue
    assert len(traces) == 6  # all but bad_value_lattice, refused at a wall
    trace = run_walk(three_sphere_product_data(2, 3, 4))
    sampled = {t for t, _, _ in profile_rows(trace, 9)}
    assert set(trace.walls) | {Fraction(9)} <= sampled
    for seam in (Fraction(9, 2), Fraction(1, 3)):
        left, right = split_trace(trace, seam)
        traces += [left, right, compose_traces(left, right)]
    for trace in traces:
        for samples in (1, 2, 3, 7, 9, 18, 64):
            assert profile_rows(trace, samples) == scanned_profile_rows(trace, samples), (
                trace.name, samples)


def test_profile_svg_is_a_static_plot_with_wall_markers():
    trace = run_walk(three_sphere_product_data(2, 3, 4))
    svg = profile_svg(trace, 18)
    assert svg.startswith("<svg")
    assert svg.count("stroke-dasharray") == 6  # one marker per wall
    assert svg == profile_svg(run_walk(three_sphere_product_data(2, 3, 4)), 18)
