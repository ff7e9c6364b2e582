import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from dhwalk import cli, io, lattice
from dhwalk.formatting import fmt_q
from dhwalk.io import dump_scenario, load_scenario, serialize_scenario
from dhwalk.scenario import three_sphere_product_data, time_reversed
from dhwalk.walk import run_walk, state_fingerprint
from testutil import level_at, small_universe, universe_data

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


def test_a_file_that_is_not_utf8_exit_one(capsys, tmp_path):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(serialize_scenario(three_sphere_product_data(1, 2, 4)).encode()
                    .replace(b'"name": "', b'"name": "\xe9'))
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 1 and out == ""
    assert err == f"error: {bad}: not UTF-8 text: byte 13 (invalid continuation byte)\n"


def test_nesting_too_deep_for_the_json_reader_exit_one(capsys, tmp_path):
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 200000 + "]" * 200000)
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 1 and out == ""
    assert err == "error: invalid JSON: arrays or objects nested too deeply\n"


def test_a_directory_in_place_of_the_file_exit_one(capsys, tmp_path):
    code, _, err = run(capsys, "validate", str(tmp_path))
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


def test_an_unreadable_file_exit_one(capsys, monkeypatch, good_file):
    # file modes do not stop every user (root reads them all), so the refusal
    # is raised in-process, by the ``open`` that ``dhwalk.io`` calls
    def refuse(file, *args, **kwargs):
        raise PermissionError(13, "Permission denied", file)

    monkeypatch.setattr(io, "open", refuse, raising=False)
    code, out, err = run(capsys, "walk", good_file)
    assert code == 1 and out == ""
    assert err == f"error: [Errno 13] Permission denied: {good_file!r}\n"


def test_an_unwritable_bootstrap_output_exit_one(capsys, monkeypatch, tmp_path, good_file):
    target = tmp_path / "full.json"

    def refuse(file, mode="r", **kwargs):  # the scenario file is still read
        if mode == "r":
            return open(file, mode, **kwargs)
        raise PermissionError(13, "Permission denied", file)

    monkeypatch.setattr(io, "open", refuse, raising=False)
    code, out, err = run(capsys, "bootstrap", good_file, "-o", str(target))
    assert code == 1 and out == ""
    assert err == f"error: [Errno 13] Permission denied: {str(target)!r}\n"
    assert not target.exists()


def test_unknown_schema_key_exit_one(capsys, tmp_path):
    payload = json.loads(serialize_scenario(three_sphere_product_data(1, 2, 4, mode="small")))
    payload["surprise"] = True
    bad = tmp_path / "extra.json"
    bad.write_text(json.dumps(payload))
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert "unknown key" in err


def test_a_duplicate_key_exit_one(capsys, tmp_path):
    text = serialize_scenario(three_sphere_product_data(1, 2, 4, mode="small"))
    bad = tmp_path / "twice.json"
    bad.write_text(text.replace('"value": 1,', '"value": 1, "value": 2,', 1))
    out_file = str(tmp_path / "full.json")
    for command in ("validate", "walk", "classify", "dh-profile", "bootstrap"):
        extra = ("-o", out_file) if command == "bootstrap" else ()
        code, out, err = run(capsys, command, str(bad), *extra)
        assert code == 1 and out == ""
        assert err == "error: duplicate key 'value'\n"
    assert not Path(out_file).exists()


def test_a_structural_refusal_of_the_schema_exit_one(capsys, tmp_path):
    payload = json.loads(serialize_scenario(three_sphere_product_data(1, 2, 4, mode="small")))
    payload["dim"] = 4
    bad = tmp_path / "fourfold.json"
    bad.write_text(json.dumps(payload))
    for command in ("validate", "walk", "classify"):
        code, out, err = run(capsys, command, str(bad))
        assert code == 1 and out == ""
        assert err == "error: dim: this engine handles dimension 6, got 4\n"


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


@pytest.mark.parametrize("argv", [
    ["validate"], ["classify"], ["walk"], ["walk", "--trace", "csv"],
    ["dh-profile"], ["dh-profile", "--emit", "csv"], ["dh-profile", "--emit", "svg"],
    ["bootstrap", "-o", "full.json"],
], ids=lambda argv: "-".join(argv[:1] + argv[2:]))
def test_values_derived_past_the_digit_limit_are_emitted(capsys, tmp_path, argv):
    # every literal in the file is under the limit of int() on read, but
    # products of the level denominators are not
    q = 10**1000 + 1
    r, s = q + 2, q + 6
    data = three_sphere_product_data(Fraction(2 * q + 1, q), Fraction(3 * r + 1, r),
                                     Fraction(4 * s + 1, s), mode="small")
    path = tmp_path / "long.json"
    dump_scenario(data, path)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()  # none before 3.10.7
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, err) == (0, "")
    assert out
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_bad_command_line_exit_one(capsys):
    assert cli.main(["walk"]) == 1
    capsys.readouterr()
    assert cli.main(["no-such-command"]) == 1
    capsys.readouterr()


# each parse is what the argparse parser that the command table replaced gave
@pytest.mark.parametrize("argv, runner, expected", [
    (["walk", "f"], "walk", {"file": "f", "trace": "text", "strict": False}),
    (["walk", "--strict", "--trace", "csv", "f"], "walk",
     {"file": "f", "trace": "csv", "strict": True}),
    (["walk", "--trace", "csv", "f", "--strict"], "walk",
     {"file": "f", "trace": "csv", "strict": True}),
    (["walk", "f", "--trace=csv"], "walk", {"file": "f", "trace": "csv", "strict": False}),
    (["walk", "f", "--st", "--tr", "csv"], "walk", {"file": "f", "trace": "csv", "strict": True}),
    (["walk", "--", "-f"], "walk", {"file": "-f", "trace": "text", "strict": False}),
    (["walk", "--trace", "csv", "--", "--strict"], "walk",
     {"file": "--strict", "trace": "csv", "strict": False}),
    (["lattice", "exc", "-k4"], "lattice_exc", {"k": 4}),
    (["lattice", "exc", "-k=4"], "lattice_exc", {"k": 4}),
    (["lattice", "exc", "-k", "4", "-k", "5"], "lattice_exc", {"k": 5}),
    (["lattice", "exc", "-k", "-1"], "lattice_exc", {"k": -1}),
    (["bootstrap", "-ofile", "f"], "bootstrap", {"file": "f", "output": "file"}),
    (["bootstrap", "f", "--out", "g"], "bootstrap", {"file": "f", "output": "g"}),
    (["bootstrap", "f", "-o", "-"], "bootstrap", {"file": "f", "output": "-"}),
    (["dh-profile", "--samp", "8", "f"], "profile", {"file": "f", "samples": 8, "emit": "text"}),
    (["dh-profile", "f", "--samples", "3", "--emit", "svg", "--samples=5"], "profile",
     {"file": "f", "samples": 5, "emit": "svg"}),
    (["dh-profile", "f", "--samples", "-3"], "profile", {"file": "f", "samples": -3, "emit": "text"}),
    (["validate", "-3"], "validate", {"file": "-3"}),
    (["rigidity-table"], "rigidity_table", {}),
])
def test_the_command_table_parses_as_argparse_did(argv, runner, expected):
    run, args = cli._parse(argv)
    assert (run.__name__, vars(args)) == (f"_cmd_{runner}", expected)


def test_negative_values_reach_the_commands_own_refusals(capsys, good_file):
    code, out, err = run(capsys, "lattice", "exc", "-k", "-1")
    assert (code, out, err) == (1, "", "blow-up count must be nonnegative\n")
    code, out, err = run(capsys, "dh-profile", good_file, "--samples", "-3")
    assert (code, out, err) == (1, "", "sample count must be positive\n")


# every command, and what its help must name
HELP = {
    "validate": ["file"],
    "walk": ["file", "--trace", "text", "csv", "--strict"],
    "classify": ["file"],
    "dh-profile": ["file", "--samples", "--emit", "csv", "svg", "text"],
    "lattice exc": ["-k"],
    "bootstrap": ["file", "-o", "--output"],
    "rigidity-table": [],
}


@pytest.mark.parametrize("argv", [
    [], ["lattice"], ["lattice", "nope"], ["nope"], ["--nope"],
    ["walk"], ["walk", "f", "g"], ["rigidity-table", "x"], ["lattice", "exc", "4"],
    ["walk", "f", "--nope"], ["walk", "-x", "f"],
    ["walk", "f", "--trace", "xml"], ["dh-profile", "f", "--emit", "pdf"],
    ["dh-profile", "f", "--samples", "many"], ["dh-profile", "f", "--samples", "2.5"],
    ["lattice", "exc"], ["bootstrap", "f"], ["bootstrap", "-o", "g"],
    ["walk", "f", "--trace"], ["walk", "f", "--trace", "--strict"], ["walk", "f", "--strict=1"],
    ["bootstrap", "f", "-o"],
], ids=lambda argv: " ".join(argv) or "no-command")
def test_a_usage_error_is_a_usage_line_and_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    usage, error = err.splitlines()
    prog = usage.split(" [-h]")[0].removeprefix("usage: ")
    assert usage.startswith("usage: dhwalk") and prog in ("dhwalk", *(f"dhwalk {c}" for c in HELP))
    assert error.startswith(f"{prog}: error: ")
    assert err.count("error:") == 1


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
def test_an_over_long_blow_up_count_is_a_usage_error(capsys):
    code, out, err = run(capsys, "lattice", "exc", "-k", "1" * 5000)
    assert (code, out) == (1, "")
    assert err.splitlines()[1].startswith("dhwalk lattice exc: error: argument -k: invalid int value")


@pytest.mark.parametrize("argv", [["--help"], ["-h"], *([*c.split(), "--help"] for c in HELP)],
                         ids=" ".join)
def test_help_names_every_command_and_option(argv):
    proc = _cli_subprocess(argv, subprocess.PIPE)
    assert (proc.returncode, proc.stderr) == (0, b"")
    out = proc.stdout.decode()
    command = " ".join(argv[:-1])
    assert out.startswith(f"usage: {f'dhwalk {command}'.strip()} [-h]")
    for name in HELP.get(command, HELP):
        assert name in out, name


def test_internal_errors_map_to_exit_four(capsys, monkeypatch, good_file):
    from dhwalk.errors import InternalInvariantError

    def boom(path):
        raise InternalInvariantError("synthetic")

    monkeypatch.setattr(io, "load_scenario", boom)
    code, _, err = run(capsys, "walk", good_file)
    assert code == 4
    assert "bug" in err


def test_any_other_exception_maps_to_exit_four(capsys, monkeypatch, good_file):
    def boom(path):
        raise RuntimeError("synthetic")

    monkeypatch.setattr(io, "load_scenario", boom)
    code, out, err = run(capsys, "walk", good_file)
    assert (code, out) == (4, "")
    assert err == "internal error (this is a bug): RuntimeError('synthetic')\n"

    # a library argument outside its function's domain is a ValueError: no command
    # passes one, so one that escapes is a bug
    def outside(path):
        return state_fingerprint(run_walk(three_sphere_product_data(2, 3, 4)).intervals[0], 9)

    monkeypatch.setattr(io, "load_scenario", outside)
    code, out, err = run(capsys, "walk", good_file)
    assert (code, out) == (4, "")
    assert err == ("internal error (this is a bug): "
                   "ValueError('moment value 9 outside interval (0,2)')\n")


def test_dh_profile_csv(capsys, good_file):
    code, out, _ = run(capsys, "dh-profile", good_file, "--samples", "9", "--emit", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,volume,k"
    assert lines[1] == "0,0,0"
    assert lines[-1] == "9,0,0"


def test_dh_profile_text_is_the_default_emitter(capsys):
    code, out, err = run(capsys, "dh-profile", str(SCENARIOS / "three_spheres_2_3_4.json"),
                         "--samples", "6")
    assert (code, err) == (0, "")
    assert out == (
        "volume profile: three-spheres-2-3-4\n"
        "t =    0   k = 0   volume = 0\n"
        "t =  3/2   k = 0   volume = 9/8\n"
        "t =    3   k = 2   volume = 4\n"
        "t =  9/2   k = 3   volume = 23/4\n"
        "t =    6   k = 1   volume = 4\n"
        "t = 15/2   k = 0   volume = 9/8\n"
        "t =    9   k = 0   volume = 0\n"
    )


def test_dh_profile_text_right_aligns_the_moment_values_across_fractional_walls(
        capsys, tmp_path):
    path = tmp_path / "fractional.json"
    dump_scenario(three_sphere_product_data(Fraction(7, 2), 4, Fraction(9, 2), mode="small"), path)
    code, out, _ = run(capsys, "dh-profile", str(path), "--samples", "8", "--emit", "text")
    assert code == 0
    assert out == (
        "volume profile: three-spheres-7_2-4-9_2\n"
        "t =    0   k = 0   volume = 0\n"
        "t =  3/2   k = 0   volume = 9/8\n"
        "t =    3   k = 0   volume = 9/2\n"
        "t =  9/2   k = 3   volume = 19/2\n"
        "t =    6   k = 3   volume = 47/4\n"
        "t = 15/2   k = 2   volume = 19/2\n"
        "t =    9   k = 0   volume = 9/2\n"
        "t = 21/2   k = 0   volume = 9/8\n"
        "t =   12   k = 0   volume = 0\n"
    )


def test_dh_profile_svg(capsys, good_file):
    code, out, _ = run(capsys, "dh-profile", good_file, "--samples", "18", "--emit", "svg")
    assert code == 0
    assert out.startswith("<svg")
    # one step samples only the two extrema, where the volume is 0: the scale stays finite
    code, out, err = run(capsys, "dh-profile", good_file, "--samples", "1", "--emit", "svg")
    assert (code, err) == (0, "")
    assert '<polyline points="45.00,315.00 595.00,315.00"' in out


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


def test_the_small_universe_through_every_command(capsys, tmp_path):
    # the tier-1 slice's accepted sets and 30 seeded refused prefixes, each closed by an
    # isolated maximum where its refused crossing was aimed, so the walk refuses it again
    leaves = small_universe()
    accepted = [item for item in leaves if item.error is None]
    refused = random.Random(7).sample([item for item in leaves if item.error is not None], 30)
    assert len(accepted) == 5
    for i, item in enumerate(accepted + refused):
        data = universe_data(item, f"universe-{i}")
        path, out = str(tmp_path / f"{i}.json"), str(tmp_path / f"{i}-full.json")
        dump_scenario(data, path)
        codes = {name: run(capsys, *argv) for name, argv in {
            "validate": ("validate", path), "walk": ("walk", path, "--trace", "csv"),
            "classify": ("classify", path), "dh-profile": ("dh-profile", path, "--emit", "csv"),
            "bootstrap": ("bootstrap", path, "-o", out)}.items()}
        assert all(code in (0, 2) for code, _, _ in codes.values()), (i, codes)
        walked = ("walk", "dh-profile", "bootstrap")
        if item.error is None:
            assert all(codes[name][0] == 0 for name in ("validate", *walked)), (i, codes)
            continue
        with pytest.raises(type(item.error)) as again:
            run_walk(data)
        assert (str(again.value), again.value.kind) == (str(item.error), item.error.kind)
        for name in walked:
            code, _, err = codes[name]
            assert (code, err) == (2, f"refused: {item.error}\n"), (i, name)
            assert f"at wall {fmt_q(item.error.wall)}: " in err


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
        ({"gram": [[1, 1], [1, 1]], "canonical": [-2, -2]}, "gram: gram matrix must be unimodular"),
        ({"gram": [[1, 1], [0, -1]], "canonical": [-3, 1]}, "gram: gram matrix must be symmetric"),
        ({"gram": [[1, 0], [0, 1]]}, "gram: canonical class required"),
        ({"canonical": [-1, -2]}, "canonical: rank 2 lattice with K = (-1,-2): K is not "
         "characteristic, K.x - x.x is odd on basis vector 2 (Wu's formula)"),
        ({"canonical": [-2, -4]}, "canonical: rank 2 lattice with K = (-2,-4): K.K = 16, not "
         "10 - rank = 8 (Noether's formula)"),
        ({"euler_class": [1, 0, 0]}, "euler_class: expected one integer per gram row"),
    ],
    ids=["ragged", "not-unimodular", "singular", "not-symmetric", "nonstandard-without-canonical",
         "not-characteristic", "canonical-square", "euler-class-rank"],
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


def _refused_where_declared(capsys, tmp_path, path, message):
    """Every file command refuses ``path`` as a parse error (exit 1) with ``message``."""
    output = tmp_path / "full.json"
    for command in ("validate", "walk", "classify", "dh-profile", "bootstrap"):
        argv = [command, path] + (["-o", str(output)] if command == "bootstrap" else [])
        assert run(capsys, *argv) == (1, "", f"error: {message}\n"), command
    assert not output.exists()


def test_declared_minimum_without_a_presentation_is_refused_at_its_wall(capsys, tmp_path):
    # K = (-3, 1, 0) has K.K = 8 but is not characteristic (Wu's formula), so the
    # lattice has no default or ruling basis: the parser refuses it where it is
    # declared (exit 1), before any walk, never as a bug (exit 4)
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
    _refused_where_declared(capsys, tmp_path, path, (
        "levels[0].components[0].canonical: rank 3 lattice with K = (-3,1,0): K is not "
        "characteristic, K.x - x.x is odd on basis vector 3 (Wu's formula)"
    ))


def test_declared_maximum_with_unbounded_marked_classes_fails_its_check(capsys, tmp_path):
    # K.K = 9 - 25 <= 0: the maximum's marked classes need not be finite, which
    # the parser refuses where the lattice is declared
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
    _refused_where_declared(capsys, tmp_path, path, (
        "levels[2].components[0].canonical: rank 2 lattice with K.K = -16 and signature "
        "(1, 1): its marked classes can be infinitely many (they are finite when K.K > 0 in "
        "signature (1, n))"
    ))


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
    code, out, err = run(capsys, "classify", _variant(tmp_path, "sphere_product_extrema.json",
                                                      wrong_euler))
    assert (code, err) == (2, "")
    assert out.splitlines() == [
        "REFUSAL: sphere-product-extrema",
        "  failing check: maximum check",
        "  FAIL: maximum fingerprint matches (volume slope differs)",
    ]


def test_a_surface_maximum_is_valid_data_whose_walk_is_refused_at_the_maximum(capsys, tmp_path):
    path = _write(tmp_path, {
        "name": "surface-maximum", "dim": 6, "mode": "small", "levels": [
            {"value": 0, "components": [{"kind": "point", "index": 0}]},
            {"value": 1, "components": [{"kind": "point", "index": 2}]},
            {"value": 3, "components": [
                {"kind": "surface", "index": 4, "genus": 0, "reduced_class": [1, -1]}]},
        ],
    })
    code, out, _ = run(capsys, "validate", path)
    assert (code, out) == (0, "surface-maximum: structurally valid (3 levels)\n")
    reason = ("at wall 3: codimension-4 surface extremum: reduced spaces near it are sphere "
              "bundles, which this engine does not model")
    # refused at the maximum's wall before any crossing, as a surface minimum is at its own
    for command in (["walk", path], ["dh-profile", path],
                    ["bootstrap", path, "-o", str(tmp_path / "full.json")]):
        code, out, err = run(capsys, *command)
        assert (code, out) == (2, ""), command
        assert err.startswith("refused: ") and err.endswith(f"{reason}\n"), command
    assert not (tmp_path / "full.json").exists()
    code, out, err = run(capsys, "classify", path)
    assert (code, err) == (2, "")
    assert out.splitlines() == [
        "REFUSAL: surface-maximum",
        "  failing check: wall crossing",
        f"  {reason}",
    ]


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
    # no rank test: the declaration check applies the K.K > 0 law first
    _refused_where_declared(capsys, tmp_path, path, (
        "levels[0].components[0].canonical: rank 10 lattice with K.K = 0 and signature "
        "(1, 9): its marked classes can be infinitely many (they are finite when K.K > 0 in "
        "signature (1, n))"
    ))


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
