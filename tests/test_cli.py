import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dhwalk import cli, lattice
from dhwalk.io import dump_scenario, load_scenario, serialize_scenario
from dhwalk.scenario import three_sphere_product_data, time_reversed
from testutil import level_at

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def good_file(tmp_path):
    path = tmp_path / "good.json"
    dump_scenario(three_sphere_product_data(2, 3, 4, mode="small"), path)
    return str(path)


def test_validate_ok(capsys, good_file):
    code, out, _ = run(capsys, "validate", good_file)
    assert code == 0
    assert "structurally valid" in out


def test_validate_reports_violations(capsys, tmp_path):
    payload = json.loads(serialize_scenario(three_sphere_product_data(2, 3, 4, mode="small")))
    payload["levels"][-1]["components"][0]["index"] = 4
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 2
    assert "coindex 0" in out


def test_walk_csv_rows(capsys, good_file):
    code, out, _ = run(capsys, "walk", good_file, "--trace", "csv")
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 8
    assert [r.split(",")[2] for r in rows[1:]] == ["0", "1", "2", "3", "2", "1", "0"]


def test_walk_output_is_byte_stable(capsys, good_file):
    code1, out1, _ = run(capsys, "walk", good_file, "--trace", "csv")
    code2, out2, _ = run(capsys, "walk", good_file, "--trace", "csv")
    assert (code1, out1) == (code2, out2)


def test_classify_certificate_exit_zero(capsys, good_file):
    code, out, _ = run(capsys, "classify", good_file)
    assert code == 0
    assert "CERTIFICATE" in out
    assert "(2,3,4)" in out


def test_classify_refusal_exit_two(capsys):
    code, out, _ = run(capsys, "classify", str(SCENARIOS / "bad_value_lattice.json"))
    assert code == 2
    assert "REFUSAL" in out


def test_classify_takes_the_general_path_for_surface_data(capsys):
    code, out, _ = run(capsys, "classify", str(SCENARIOS / "conic_surface_wall.json"))
    assert code == 0
    assert "determined up to equivariant" in out


def test_walk_refuses_bad_maximum(capsys):
    code, _, err = run(capsys, "walk", str(SCENARIOS / "bad_maximum_8.json"))
    assert code == 2
    assert "maximum" in err


def test_strict_walk_fails_on_uncertified_extrema(capsys):
    code, _, err = run(capsys, "walk", str(SCENARIOS / "sphere_product_extrema.json"), "--strict")
    assert code == 3
    assert "face value" in err
    code, _, _ = run(capsys, "walk", str(SCENARIOS / "sphere_product_extrema.json"))
    assert code == 0


def test_parse_error_exit_one(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{this is not json")
    code, _, err = run(capsys, "walk", str(bad))
    assert code == 1
    assert "error" in err
    code, _, _ = run(capsys, "walk", str(tmp_path / "missing.json"))
    assert code == 1


def test_unknown_schema_key_exit_one(capsys, tmp_path):
    payload = json.loads(serialize_scenario(three_sphere_product_data(1, 2, 4, mode="small")))
    payload["surprise"] = True
    bad = tmp_path / "extra.json"
    bad.write_text(json.dumps(payload))
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert "unknown key" in err


def test_a_rational_that_is_not_p_q_exit_one(capsys, tmp_path):
    payload = json.loads(serialize_scenario(three_sphere_product_data(1, 2, 4, mode="small")))
    payload["levels"][1]["value"] = "1.0"
    bad = tmp_path / "decimal.json"
    bad.write_text(json.dumps(payload))
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert "malformed rational '1.0'" in err


@pytest.mark.parametrize("value, message", [
    pytest.param(json.dumps("1/" + "1" * 5000), "malformed rational", id="p/q-string"),
    pytest.param("1" * 5000, "invalid JSON", id="integer-literal"),
])
def test_a_number_too_long_for_int_exit_one(capsys, tmp_path, value, message):
    payload = json.loads(serialize_scenario(three_sphere_product_data(1, 2, 4, mode="small")))
    payload["levels"][1]["value"] = "LONG"
    bad = tmp_path / "long.json"
    bad.write_text(json.dumps(payload).replace('"LONG"', value))
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert message in err


def test_bad_command_line_exit_one(capsys):
    assert cli.main(["walk"]) == 1
    capsys.readouterr()
    assert cli.main(["no-such-command"]) == 1
    capsys.readouterr()


def test_internal_errors_map_to_exit_four(capsys, monkeypatch, good_file):
    from dhwalk.errors import InternalInvariantError

    def boom(path):
        raise InternalInvariantError("synthetic")

    monkeypatch.setattr(cli, "load_scenario", boom)
    code, _, err = run(capsys, "walk", good_file)
    assert code == 4
    assert "bug" in err


def test_dh_profile_csv(capsys, good_file):
    code, out, _ = run(capsys, "dh-profile", good_file, "--samples", "9", "--emit", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,volume,k"
    assert lines[1] == "0,0,0"
    assert lines[-1] == "9,0,0"


def test_dh_profile_svg(capsys, good_file):
    code, out, _ = run(capsys, "dh-profile", good_file, "--samples", "18", "--emit", "svg")
    assert code == 0
    assert out.startswith("<svg")


def test_lattice_exc(capsys):
    code, out, _ = run(capsys, "lattice", "exc", "-k", "2")
    assert code == 0
    assert "3 exceptional classes" in out
    assert "L-E1-E2" in out
    for k in range(9):
        code, out, _ = run(capsys, "lattice", "exc", "-k", str(k))
        assert code == 0
        assert "uncertified" not in out
    assert out.startswith("# 240 exceptional classes")
    assert "6L-3E1-2E2-2E3-2E4-2E5-2E6-2E7-2E8 = (6, -3, -2, -2, -2, -2, -2, -2, -2)" in out


def test_bootstrap_writes_full_mode(capsys, tmp_path, good_file):
    out_path = tmp_path / "full.json"
    code, out, _ = run(capsys, "bootstrap", good_file, "-o", str(out_path))
    assert code == 0
    full = load_scenario(out_path)
    assert full.mode == "full"
    assert level_at(full, 5).euler_minus is not None


def test_rigidity_table(capsys):
    code, out, _ = run(capsys, "rigidity-table")
    assert code == 0
    assert "Seidel" in out
    assert "sphere-product" in out


def _variant(tmp_path, scenario: str, edit) -> str:
    """A copy of a shipped scenario with one field changed by ``edit``."""
    payload = json.loads((SCENARIOS / scenario).read_text(encoding="utf-8"))
    edit(payload)
    path = tmp_path / f"variant-{scenario}"
    path.write_text(json.dumps(payload))
    return str(path)


def _set_surface_class(value):
    def edit(payload):
        payload["levels"][1]["components"][0]["reduced_class"] = value

    return edit


def test_surface_class_of_wrong_rank_is_refused(capsys, tmp_path):
    path = _variant(tmp_path, "conic_surface_wall.json", _set_surface_class([2, 0]))
    code, _, err = run(capsys, "walk", path)
    assert code == 2
    assert err.startswith("refused:") and "rank" in err
    code, out, _ = run(capsys, "classify", path)
    assert code == 2
    assert "REFUSAL" in out


def test_surface_of_nonpositive_wall_area_is_refused_at_its_wall(capsys, tmp_path):
    def negative_conic(payload):
        component = payload["levels"][1]["components"][0]
        component["reduced_class"] = [-2]
        del component["genus"]

    path = _variant(tmp_path, "conic_surface_wall.json", negative_conic)
    code, _, err = run(capsys, "walk", path)
    assert code == 2
    assert err.startswith("refused: at wall 1:") and "area -2" in err
    code, out, _ = run(capsys, "classify", path)
    assert code == 2
    assert "failing check: wall crossing" in out


def test_empty_surface_class_is_a_parse_error(capsys, tmp_path):
    path = _variant(tmp_path, "conic_surface_wall.json", _set_surface_class([]))
    code, _, err = run(capsys, "walk", path)
    assert code == 1
    assert "reduced_class" in err


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"gram": [[0, 1], [1]], "canonical": [-2, -2]}, "gram: gram matrix must be square"),
        ({"gram": [[0, 2], [2, 0]], "canonical": [-2, -2]}, "gram: gram matrix must be unimodular"),
        ({"gram": [[1, 0], [0, 1]]}, "gram: canonical class required"),
        ({"euler_class": [1, 0, 0]}, "euler_class: expected one integer per gram row"),
    ],
    ids=["ragged", "not-unimodular", "nonstandard-without-canonical", "euler-class-rank"],
)
def test_malformed_fourfold_data_is_a_parse_error(capsys, tmp_path, fields, message):
    def edit(payload):
        payload["levels"][0]["components"][0].update(fields)

    path = _variant(tmp_path, "sphere_product_extrema.json", edit)
    code, _, err = run(capsys, "walk", path)
    assert code == 1
    assert f"levels[0].components[0].{message}" in err


def test_fourfold_fields_on_a_point_are_refused(capsys, tmp_path):
    # fields that mean nothing on a point are validation issues, not silently ignored
    fields = {"gram": [[1]], "areas": [2], "canonical": [-3], "euler_class": [-1], "normal_euler": 1}

    def edit(payload):
        payload["levels"][1]["components"][0].update(fields)  # the index-2 point at t = 2

    path = _variant(tmp_path, "three_spheres_2_3_4.json", edit)
    code, out, _ = run(capsys, "validate", path)
    assert code == 2
    names = ("normal euler", "gram", "areas", "canonical", "euler class")
    assert out.splitlines() == [f"[fields] level 2: {name} declared on a point" for name in names]
    assert run(capsys, "walk", path)[0] == 2
    assert run(capsys, "classify", path)[0] == 2


def test_lattice_exc_refuses_infinite_enumeration(capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the enumeration must not start for k >= 9")

    monkeypatch.setattr(cli, "exceptional_classes", never)
    for k in ("9", "12"):
        code, out, err = run(capsys, "lattice", "exc", "-k", k)
        assert code == 1
        assert out == ""
        assert "infinitely many exceptional classes" in err


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_dh_profile_refuses_nonpositive_samples(capsys, good_file, samples):
    code, out, err = run(capsys, "dh-profile", good_file, "--samples", samples)
    assert code == 1
    assert out == ""
    assert "sample count must be positive" in err


def _write(tmp_path, payload) -> str:
    path = tmp_path / f"{payload['name']}.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_crossing_beyond_eight_blowups_is_refused(capsys, tmp_path, monkeypatch, cold_lattice_caches):
    enumerate_classes = lattice._solutions

    def guarded(gram, *args):
        if len(gram) > 9:
            raise AssertionError("no enumeration may start beyond eight blow-ups")
        return enumerate_classes(gram, *args)

    monkeypatch.setattr(lattice, "_solutions", guarded)
    path = _write(tmp_path, {
        "name": "nine-points", "dim": 6, "mode": "small", "levels": [
            {"value": 0, "components": [{"kind": "point", "index": 0}]},
            {"value": 10, "components": [{"kind": "point", "index": 2}] * 9},
            {"value": 100, "components": [{"kind": "point", "index": 6}]},
        ],
    })
    start = time.perf_counter()
    code, _, err = run(capsys, "walk", path, "--trace", "csv")
    assert code == 2
    assert err.startswith("refused: at wall 10:") and "9 blow-ups" in err
    assert time.perf_counter() - start < 5


def test_surface_breaking_adjunction_is_refused(capsys, tmp_path):
    def genus(value):
        def edit(payload):
            component = payload["levels"][1]["components"][0]
            if value is None:
                del component["genus"]
            else:
                component["genus"] = value

        return edit

    path = _variant(tmp_path, "conic_surface_wall.json", genus(7))
    code, _, err = run(capsys, "walk", path)
    assert code == 2
    assert err.startswith("refused: at wall 1:") and "adjunction" in err
    code, out, _ = run(capsys, "classify", path)
    assert code == 2
    assert "failing check: wall crossing" in out
    # without a declared genus there is nothing to check
    code, out, _ = run(capsys, "classify", _variant(tmp_path, "conic_surface_wall.json", genus(None)))
    assert code == 0
    assert out.startswith("CERTIFICATE")


def _skewed_fourfold(maximum_areas) -> dict:
    """A declared minimum on a skewed rank-3 gram, one blow-down, a rank-2 maximum."""
    return {
        "name": "skew-fourfold", "dim": 6, "mode": "small", "levels": [
            {"value": 0, "components": [{
                "kind": "fourfold", "index": 0, "gram": [[1, 0, 0], [0, -17, -4], [0, -4, -1]],
                "canonical": [-3, 1, -3], "areas": [10, 14, 3], "euler_class": [0, 0, -1],
            }]},
            {"value": 3, "components": [{"kind": "point", "index": 4}]},
            {"value": 6, "components": [{
                "kind": "fourfold", "index": 2, "gram": [[1, 0], [0, -1]], "areas": maximum_areas,
            }]},
        ],
    }


def test_skewed_fourfold_minimum_is_presented_and_blows_down(capsys, tmp_path):
    # a coefficient-bounded search once refused this minimum; the complete
    # enumeration presents the lattice and the walk goes through
    path = _write(tmp_path, _skewed_fourfold([10, 2]))
    # the minimum is presented as L/E1/E2 with E1 = (0, 1, -4), so E2 blows down
    code, out, err = run(capsys, "walk", path, "--trace", "csv")
    assert code == 0 and err == ""
    assert out.splitlines()[1:] == [
        "0,3,2,L=10;E2=3-t;E1=2;L-E1-E2=t+5,e.e=-1|e.K=1|e.C=[-1,-1,0,0,1],"
        "-1/2*t^2+3*t+87/2,rigid_via_H_restricted_symp",
        "3,6,1,L=10;E1=2,e.e=0|e.K=0|e.C=[0,0],48,rigid",
    ]
    code, out, _ = run(capsys, "walk", path)
    assert "-- wall 3: blow_down(E2)" in out and "FAIL" not in out
    # a declared extremum is taken at face value, so nothing certifies it
    code, out, _ = run(capsys, "classify", path)
    assert code == 2
    assert "failing check: rigidity certification" in out


def test_declared_minimum_without_a_presentation_is_refused_at_its_wall(capsys, tmp_path):
    # K = (-3, 1, 0) has K.K = 8, but it is not characteristic and the lattice has
    # neither a default nor a ruling basis: refused data (exit 2), never a bug (exit 4)
    path = _write(tmp_path, {
        "name": "non-characteristic", "dim": 6, "mode": "small", "levels": [
            {"value": 0, "components": [{
                "kind": "fourfold", "index": 0, "gram": [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
                "canonical": [-3, 1, 0], "areas": [10, 1, 1], "euler_class": [0, 0, -1],
            }]},
            {"value": 1, "components": [{"kind": "point", "index": 4}]},
            {"value": 6, "components": [{
                "kind": "fourfold", "index": 2, "gram": [[1, 0], [0, -1]], "areas": [10, 2],
            }]},
        ],
    })
    code, out, err = run(capsys, "walk", path, "--trace", "csv")
    assert code == 2 and out == ""
    assert err.startswith("refused: at wall 0:") and "neither a default nor a ruling" in err
    code, out, _ = run(capsys, "classify", path)
    assert code == 2
    assert "failing check: wall crossing" in out and "at wall 0:" in out


def test_declared_maximum_with_unbounded_marked_classes_fails_its_check(capsys, tmp_path):
    # K.K = 9 - 25 <= 0: the maximum's marked classes need not be finite
    path = _write(tmp_path, {
        "name": "flat-maximum", "dim": 6, "mode": "small", "levels": [
            {"value": 0, "components": [{"kind": "point", "index": 0}]},
            {"value": 1, "components": [{"kind": "point", "index": 2}]},
            {"value": 2, "components": [{
                "kind": "fourfold", "index": 2, "gram": [[1, 0], [0, -1]], "canonical": [-3, 5],
                "areas": [2, 1],
            }]},
        ],
    })
    code, out, err = run(capsys, "walk", path)
    assert code == 2
    assert "FAIL: maximum marked classes are finite" in out and "K.K = -16" in out
    assert err == "walk refused: maximum data inconsistent\n"


def test_fourfold_areas_need_one_entry_per_gram_row(capsys, tmp_path):
    # three areas on a rank-2 maximum: an extra area was once dropped unread
    path = _write(tmp_path, _skewed_fourfold([10, 2, 5]))
    code, out, _ = run(capsys, "validate", path)
    assert code == 2
    assert out == "[fields] level 6: fourfold areas need one entry per gram row\n"
    code, out, err = run(capsys, "walk", path)
    assert (code, out) == (2, "")
    assert "fourfold areas need one entry per gram row" in err


def test_maximum_with_a_wrong_euler_class_fails_its_check(capsys, tmp_path):
    def wrong_euler(payload):
        payload["levels"][-1]["components"][0]["euler_class"] = [5, -7]

    code, out, err = run(capsys, "walk", _variant(tmp_path, "sphere_product_extrema.json",
                                                  wrong_euler))
    assert code == 2
    assert "FAIL: maximum fingerprint matches" in out
    assert err == "walk refused: maximum data inconsistent\n"


@pytest.mark.parametrize("euler_minus", [[5, 5], [5, 5, 5, 5]], ids=["rank-2", "rank-4"])
def test_classify_refuses_bundle_data_that_its_walk_contradicts(capsys, tmp_path, euler_minus):
    # the bootstrap golden with level 3's euler_minus replaced: the walk derives -L+E1
    golden = SCENARIOS.parent / "tests" / "golden" / "three_spheres_2_3_4" / "bootstrap.json"
    payload = json.loads(golden.read_text(encoding="utf-8"))
    level = next(lv for lv in payload["levels"] if lv["value"] == 3)
    assert level["euler_minus"] == [-1, 1]
    level["euler_minus"] = euler_minus
    code, out, _ = run(capsys, "classify", _write(tmp_path, payload))
    assert code == 2
    assert out.splitlines() == [
        "REFUSAL: three-spheres-2-3-4",
        "  failing check: bundle data",
        f"  level 3: declared euler_minus ({','.join(map(str, euler_minus))}), "
        "the walk derives (-1,1)",
    ]
    code, out, _ = run(capsys, "classify", str(golden))
    assert code == 0 and out.startswith("CERTIFICATE")


def test_sphere_product_with_an_euler_class_passes_its_maximum_check(capsys, tmp_path):
    # e = -B at the minimum makes area(A) = 1 + t; the bundle arrives at the
    # maximum with e = -B, which the maximum declares as euler_class B
    def fourfold(index, split, areas, euler_class):
        return {"kind": "fourfold", "index": index, "normal_split": split,
                "gram": [[0, 1], [1, 0]], "areas": areas, "euler_class": euler_class}

    path = _write(tmp_path, {
        "name": "sphere-product-bundle", "dim": 6, "mode": "small", "levels": [
            {"value": 0, "components": [fourfold(0, [0, 1], [1, 2], [0, -1])]},
            {"value": 4, "components": [fourfold(2, [1, 0], [5, 2], [0, 1])]},
        ],
    })
    reversed_path = tmp_path / "reversed.json"
    dump_scenario(time_reversed(load_scenario(path)), reversed_path)
    for scenario in (path, str(reversed_path)):
        code, out, err = run(capsys, "walk", scenario)
        assert (code, err) == (0, ""), scenario
        assert "pass: maximum fingerprint matches" in out and "FAIL" not in out


def test_declared_minimum_beyond_eight_blowups_is_refused_at_its_wall(capsys, tmp_path):
    gram = [[(1 if i == 0 else -1) if i == j else 0 for j in range(10)] for i in range(10)]

    def fourfold(index, split):
        return {"kind": "fourfold", "index": index, "normal_split": split, "normal_euler": 0,
                "gram": gram, "areas": [10] + [1] * 9}

    path = _write(tmp_path, {
        "name": "rank-ten-minimum", "dim": 6, "mode": "small", "levels": [
            {"value": 0, "components": [fourfold(0, [0, 1])]},
            {"value": 4, "components": [fourfold(2, [1, 0])]},
        ],
    })
    code, _, err = run(capsys, "walk", path)
    assert code == 2
    assert err.startswith("refused: at wall 0:") and "rank 10" in err
    # no rank test: presenting the declared gram applies the K.K > 0 law
    assert err.startswith("refused: at wall 0: declared minimum: rank 10 lattice with K.K = 0")
    code, out, _ = run(capsys, "classify", path)
    assert code == 2
    assert "failing check: wall crossing" in out
    assert "at wall 0: declared minimum: rank 10 lattice with K.K = 0" in out


def test_sphere_product_leaving_the_cone_is_refused(capsys, tmp_path):
    # e = B makes area(A) = 1 - t, which vanishes at t = 1 inside (0, 4): the
    # rulings row decides the cone there (Li-Liu), so the walk is refused
    # instead of reporting rigidity "unknown"
    def fourfold(index, split, areas):
        return {"kind": "fourfold", "index": index, "normal_split": split,
                "gram": [[0, 1], [1, 0]], "areas": areas, "euler_class": [0, 1]}

    path = _write(tmp_path, {
        "name": "ruling-vanishes", "dim": 6, "mode": "small", "levels": [
            {"value": 0, "components": [fourfold(0, [0, 1], [1, 2])]},
            {"value": 4, "components": [fourfold(2, [1, 0], [-3, 2])]},
        ],
    })
    reason = "at wall 0: symplectic cone violated on (0,4): ruling area not positive (A)"
    code, out, err = run(capsys, "walk", path)
    assert (code, out, err) == (2, "", f"refused: {reason}\n")
    code, out, _ = run(capsys, "classify", path)
    assert code == 2
    assert "failing check: wall crossing" in out and reason in out


def test_sphere_product_ruling_root_inside_the_interval_is_refused(capsys, tmp_path):
    # area(A) = 3 - t is positive at the midpoint 2, so the cone check passes,
    # but it vanishes at t = 3 inside (0, 4): on the ruling basis the rulings
    # are screened for roots, as exceptional classes and the line are elsewhere
    def fourfold(index, split, areas):
        return {"kind": "fourfold", "index": index, "normal_split": split,
                "gram": [[0, 1], [1, 0]], "areas": areas, "euler_class": [0, 1]}

    path = _write(tmp_path, {
        "name": "ruling-root-inside", "dim": 6, "mode": "small", "levels": [
            {"value": 0, "components": [fourfold(0, [0, 1], [3, 2])]},
            {"value": 4, "components": [fourfold(2, [1, 0], [-1, 2])]},
        ],
    })
    reason = "at wall 0: area of A vanishes at 3 inside a regular interval: an undeclared wall"
    code, out, err = run(capsys, "walk", path)
    assert (code, out, err) == (2, "", f"refused: {reason}\n")
    code, out, _ = run(capsys, "classify", path)
    assert code == 2
    assert "failing check: wall crossing" in out and reason in out


def _cli_subprocess(argv, stdout):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "dhwalk.cli", *argv], stdout=stdout, stderr=subprocess.PIPE,
        env=env, timeout=60,
    )


def test_closed_stdout_is_a_usage_error():
    read_end, write_end = os.pipe()
    os.close(read_end)  # nobody will ever read: every write gets EPIPE
    try:
        proc = _cli_subprocess(["lattice", "exc", "-k", "5"], write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr.decode().splitlines() == [
        "error: cannot write to standard output: Broken pipe"
    ]


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_full_stdout_is_a_usage_error():
    with open("/dev/full", "wb") as full:
        proc = _cli_subprocess(["rigidity-table"], full)
    assert proc.returncode == 1
    assert len(proc.stderr.decode().splitlines()) == 1
    assert "cannot write to standard output" in proc.stderr.decode()
