import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cohom.cech import MAX_DECLARED_FACES, CoverNerve, cover_to_json
from cohom.cli import main
from cohom.complexes import complex_to_json
from cohom.generators import random_cochain_complex, random_function_sheaf
from cohom.grid import double_complex_to_json
from cohom.linalg import MAX_DECLARED_DIM, LabeledSpace
from cohom.generators import nonzero_d2_double_complex


GOLDEN = Path(__file__).resolve().parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_complex_subcommand_table_and_json(tmp_path, capsys):
    rng = random.Random(1)
    cx, h = random_cochain_complex(rng)
    path = write(tmp_path, "cx.json", complex_to_json(cx))
    code, out, _ = run(capsys, "complex", path)
    assert code == 0
    assert "cohomology" in out
    code, jout, _ = run(capsys, "complex", path, "--format", "json")
    assert code == 0
    report = json.loads(jout)
    assert report["schema_version"] == "1"
    assert tuple(report["cohomology_dims"]) == h


def test_json_output_is_byte_identical(tmp_path, capsys):
    rng = random.Random(2)
    cx, _ = random_cochain_complex(rng)
    path = write(tmp_path, "cx.json", complex_to_json(cx))
    _, out1, _ = run(capsys, "complex", path, "--format", "json")
    _, out2, _ = run(capsys, "complex", path, "--format", "json")
    assert out1 == out2


def test_table_and_json_dims_agree(tmp_path, capsys):
    rng = random.Random(3)
    sheaf = random_function_sheaf(rng, max_opens=3, max_points=5)
    path = write(tmp_path, "cover.json", cover_to_json(sheaf.nerve, sheaf))
    code, jout, _ = run(capsys, "cech", path, "--format", "json")
    assert code == 0
    dims = json.loads(jout)["cohomology_dims"]
    code, tout, _ = run(capsys, "cech", path)
    assert code == 0
    assert ("Cech cohomology: " + " ".join(str(d) for d in dims)) in tout


def test_malformed_input_exit_code_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "complex", str(bad))
    assert code == 1
    assert "invalid JSON" in err
    code, _, err = run(capsys, "complex", str(tmp_path / "missing.json"))
    assert code == 1


def test_input_is_read_as_utf8_under_any_locale(tmp_path):
    """JSON text is UTF-8 (RFC 8259): under the C locale a file with full-width
    digits, which int() reads, gives the same report as under a UTF-8 one."""
    path = tmp_path / "wide.json"
    path.write_text('{"lo": 0, "hi": 1, "dims": [1, 1], "diffs": [[["\uff11\uff12"]]]}',
                    encoding="utf-8")
    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = []
    for locale in ({"LC_ALL": "C.UTF-8", "PYTHONUTF8": "1"},
                   {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}):
        env = dict(os.environ, PYTHONPATH=src, **locale)
        proc = subprocess.run([sys.executable, "-m", "cohom.cli", "complex", str(path),
                               "--format", "json"], capture_output=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["cohomology_dims"] == [0, 0]


def test_input_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"lo": 0, "hi": 0, "dims": ["\xb9"], "diffs": []}')
    code, out, err = run(capsys, "complex", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path}: not UTF-8 (invalid start byte at byte 29)\n"


@pytest.mark.parametrize("command", ["complex", "cech", "hyper", "spectral"])
def test_deeply_nested_json_is_an_input_error(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path}: JSON nested too deeply\n"


@pytest.mark.parametrize("command", ["complex", "cech", "hyper", "spectral"])
def test_a_file_that_is_not_a_json_object_is_malformed(tmp_path, capsys, command):
    """Every loader reads fields of one object: a top-level list is refused
    naming the file, not by a failed subscript deep in the loader."""
    path = write(tmp_path, "list.json", [1])
    code, out, err = run(capsys, command, path)
    assert (code, out) == (1, "")
    assert err == f"error: {path}: the top level must be a JSON object\n"


def test_schema_error_exit_code_1(tmp_path, capsys):
    data = {"lo": 0, "hi": 1, "dims": [1, 1], "diffs": [[["1", "2"]]]}  # wrong shape
    path = write(tmp_path, "shape.json", data)
    code, _, err = run(capsys, "complex", path)
    assert code == 1
    assert "wrong shape" in err


@pytest.mark.parametrize("entry", [0.1, True])
def test_float_and_boolean_entries_are_malformed(tmp_path, capsys, entry):
    data = {"lo": 0, "hi": 1, "dims": [1, 1], "diffs": [[[entry]]]}
    path = write(tmp_path, "float.json", data)
    code, out, err = run(capsys, "complex", path)
    assert code == 1 and out == ""
    assert "row 0, column 0" in err


@pytest.mark.parametrize("command, data, field", [
    ("spectral", {"P": 1, "Q": 0, "dims": [[1], [1]], "horiz": [], "vert": [[], []]}, "horiz"),
    ("cech", {"opens": 1, "faces": [{"idx": [0], "dim": -1}], "restrict": []}, "faces[0].dim"),
    ("hyper", {"opens": 1, "levels": 1, "faces": [{"idx": [0], "dims": [-2]}]},
     "faces[0].dims[0]"),
    ("complex", {"lo": 0, "hi": 0, "dims": [-3], "diffs": []}, "dims[0]"),
    ("complex", {"lo": 0, "hi": 0, "dims": [1.9], "diffs": []}, "dims[0]"),
    ("complex", {"lo": True, "hi": 1, "dims": [1], "diffs": []}, "lo"),
    ("spectral", {"P": 0, "Q": 0, "dims": [[-1]], "horiz": [], "vert": [[]]}, "dims[0][0]"),
], ids=["spectral_horiz_shape", "cech_negative_dim", "hyper_negative_dims",
        "complex_negative_dims", "complex_float_dims", "complex_boolean_lo",
        "spectral_negative_dims"])
def test_bad_count_fields_are_malformed(tmp_path, capsys, command, data, field):
    path = write(tmp_path, "bad.json", data)
    code, out, err = run(capsys, command, path)
    assert code == 1 and out == ""
    assert "Traceback" not in err
    assert f"malformed input: {field} " in err


_PAIR = [{"idx": [0], "dim": 1}, {"idx": [1], "dim": 1}]


@pytest.mark.parametrize("command, data, field", [
    ("cech", {"opens": 1, "faces": [{"idx": "0", "dim": 1}], "restrict": []}, "faces[0].idx"),
    ("cech", {"opens": 1, "faces": [{"idx": [True], "dim": 1}], "restrict": []},
     "faces[0].idx[0]"),
    ("cech", {"opens": 2, "faces": [{"idx": [1.9], "dim": 1}], "restrict": []},
     "faces[0].idx[0]"),
    ("cech", {"opens": 2, "faces": [*_PAIR, {"idx": [1, 0], "dim": 1}], "restrict": []},
     "faces[2].idx"),
    ("cech", {"opens": 2, "faces": _PAIR,
              "restrict": [{"from": [0], "to": [0, 1], "matrix": [["1"]]}]},
     "restrict[0].to: face (0, 1) is not declared"),
    ("cech", {"opens": 2, "faces": _PAIR,
              "restrict": [{"from": "0", "to": [0, 1], "matrix": [["1"]]}]}, "restrict[0].from"),
    ("hyper", {"opens": 1, "levels": 2, "faces": [{"idx": [0], "dims": [1, 1]}],
               "level_maps": [{"idx": [5], "maps": [[["0"]]]}]},
     "level_maps[0].idx: face (5,) is not declared"),
    ("cech", {"opens": 0, "faces": [], "restrict": []}, "faces"),
    ("hyper", {"opens": 0, "levels": 1, "faces": [], "restrict": []}, "faces"),
    ("cech", {"opens": 1, "faces": [{"idx": [0], "dim": 1}, {"idx": [0], "dim": 3}],
              "restrict": []}, "faces[1].idx: (0,) is declared twice"),
    ("cech", {"opens": 2, "faces": [*_PAIR, {"idx": [0, 1], "dim": 1}],
              "restrict": [{"from": [0], "to": [0, 1], "matrix": [["1"]]},
                           {"from": [0], "to": [0, 1], "matrix": [["2"]]}]},
     "restrict[1]: ((0,), (0, 1)) is declared twice"),
    ("hyper", {"opens": 1, "levels": 1,
               "faces": [{"idx": [0], "dims": [1]}, {"idx": [0], "dims": [2]}]},
     "faces[1].idx: (0,) is declared twice"),
    ("hyper", {"opens": 2, "levels": 1,
               "faces": [{"idx": [0], "dims": [1]}, {"idx": [1], "dims": [1]},
                         {"idx": [0, 1], "dims": [1]}],
               "restrict": [{"from": [1], "to": [0, 1], "matrices": [[["1"]]]},
                            {"from": [1], "to": [0, 1], "matrices": [[["1"]]]}]},
     "restrict[1]: ((1,), (0, 1)) is declared twice"),
    ("hyper", {"opens": 1, "levels": 2, "faces": [{"idx": [0], "dims": [1, 1]}],
               "level_maps": [{"idx": [0], "maps": [[["0"]]]}, {"idx": [0], "maps": [[["1"]]]}]},
     "level_maps[1].idx: (0,) is declared twice"),
    ("cech", {"opens": 1, "faces": 5, "restrict": []}, "faces: must be a list\n"),
    ("hyper", {"opens": 1, "levels": 1, "faces": 5}, "faces: must be a list\n"),
], ids=["cech_string_idx", "cech_boolean_idx", "cech_float_idx", "cech_unsorted_idx",
        "cech_undeclared_to", "cech_string_from", "hyper_undeclared_level_map",
        "cech_empty_cover", "hyper_empty_cover", "cech_repeated_face",
        "cech_repeated_restriction", "hyper_repeated_face", "hyper_repeated_restriction",
        "hyper_repeated_level_map", "cech_faces_not_a_list", "hyper_faces_not_a_list"])
def test_bad_faces_are_malformed(tmp_path, capsys, command, data, field):
    path = write(tmp_path, "bad.json", data)
    code, out, err = run(capsys, command, path)
    assert code == 1 and out == ""
    assert "Traceback" not in err
    assert f"malformed input: {field}" in err


@pytest.mark.parametrize("command, data, message", [
    ("cech", {"opens": 2, "faces": [*_PAIR, {"idx": [0, 1], "dim": 1}],
              "restrict": [{"from": [0], "to": [0, 1], "matrix": [["1"]]}]},
     "restrict: no restriction from (1,) to (0, 1)"),
    ("hyper", {"opens": 2, "levels": 1,
               "faces": [{"idx": [0], "dims": [1]}, {"idx": [1], "dims": [1]},
                         {"idx": [0, 1], "dims": [1]}],
               "restrict": [{"from": [1], "to": [0, 1], "matrices": [[["1"]]]}]},
     "restrict: no restriction from (0,) to (0, 1)"),
    ("hyper", {"opens": 1, "levels": 2, "faces": [{"idx": [0], "dims": [1, 1]}]},
     "level_maps: no entry for face (0,)"),
    ("hyper", {"opens": 2, "levels": 2,
               "faces": [{"idx": [0], "dims": [1, 1]}, {"idx": [1], "dims": [1, 1]}],
               "level_maps": [{"idx": [1], "maps": [[["1"]]]}]},
     "level_maps: no entry for face (0,)"),
    ("hyper", {"opens": 1, "levels": 0, "faces": [{"idx": [0], "dims": []}]},
     "levels: must be at least 1, got 0"),
], ids=["cech_missing_restriction", "hyper_missing_restriction", "hyper_no_level_maps",
        "hyper_missing_level_map", "hyper_zero_levels"])
def test_incomplete_covers_are_malformed(tmp_path, capsys, command, data, message):
    """A cover missing a drop or a level map, or with no level, is malformed
    input (exit 1, naming the missing item), not a violated law."""
    code, out, err = run(capsys, command, write(tmp_path, "incomplete.json", data))
    assert (code, out) == (1, "")
    assert err == f"error: malformed input: {message}\n"


@pytest.mark.parametrize("command, face, message", [
    ("cech", [5], "faces[1].idx: open 5 is out of range for 1 opens"),
    ("cech", [], "faces[1].idx: a face needs at least one open"),
    ("hyper", [3], "faces[1].idx: open 3 is out of range for 1 opens"),
    ("hyper", [], "faces[1].idx: a face needs at least one open"),
], ids=["cech_past_opens", "cech_empty", "hyper_past_opens", "hyper_empty"])
def test_a_face_lies_in_the_cover(tmp_path, capsys, command, face, message):
    """A face index past `opens`, or a face with no index, is refused by the
    loader naming its entry, not left to the nerve."""
    if command == "cech":
        data = {"opens": 1, "faces": [{"idx": [0], "dim": 1}, {"idx": face, "dim": 1}],
                "restrict": []}
    else:
        data = {"opens": 1, "levels": 1,
                "faces": [{"idx": [0], "dims": [1]}, {"idx": face, "dims": [1]}]}
    code, out, err = run(capsys, command, write(tmp_path, "face.json", data))
    assert (code, out) == (1, "")
    assert err == f"error: malformed input: {message}\n"


def _declaring(command, n):
    """The smallest input of each loader whose spaces hold n basis vectors in all."""
    return {
        "complex": {"lo": 0, "hi": 1, "dims": [0, n], "diffs": [[]]},
        "spectral": {"P": 0, "Q": 0, "dims": [[n]], "horiz": [], "vert": [[]]},
        "cech": {"opens": 1, "faces": [{"idx": [0], "dim": n}], "restrict": []},
        "hyper": {"opens": 1, "levels": 1, "faces": [{"idx": [0], "dims": [n]}]},
    }[command]


@pytest.mark.parametrize("command", ["complex", "spectral", "cech", "hyper"])
def test_declared_dimension_over_the_budget_is_refused_before_any_space(
        tmp_path, capsys, monkeypatch, command):
    def no_space(self):
        raise AssertionError("a space was built")

    monkeypatch.setattr(LabeledSpace, "__post_init__", no_space)
    n = MAX_DECLARED_DIM + 1
    code, out, err = run(capsys, command, write(tmp_path, "big.json", _declaring(command, n)))
    assert code == 1 and out == ""
    assert f"declares {n} basis vectors in all, over the limit of {MAX_DECLARED_DIM}" in err


@pytest.mark.parametrize("command", ["spectral", "hyper"])
def test_declared_dimension_at_the_budget_is_accepted(tmp_path, capsys, command):
    path = write(tmp_path, "edge.json", _declaring(command, MAX_DECLARED_DIM))
    assert run(capsys, command, path)[0] == 0


def _disjoint_opens(command, n):
    """n opens that do not meet: n faces of dimension 0, holding no basis vectors."""
    if command == "cech":
        return {"opens": n, "faces": [{"idx": [i], "dim": 0} for i in range(n)], "restrict": []}
    return {"opens": n, "levels": 1, "faces": [{"idx": [i], "dims": [0]} for i in range(n)]}


@pytest.mark.parametrize("command", ["cech", "hyper"])
def test_face_count_over_the_budget_is_refused_before_any_nerve(
        tmp_path, capsys, monkeypatch, command):
    def no_nerve(self):
        raise AssertionError("a nerve was built")

    monkeypatch.setattr(CoverNerve, "__post_init__", no_nerve)
    n = MAX_DECLARED_FACES + 1
    path = write(tmp_path, "faces.json", _disjoint_opens(command, n))
    code, out, err = run(capsys, command, path)
    assert code == 1 and out == ""
    assert f"faces: {n} declared, over the limit of {MAX_DECLARED_FACES}" in err


@pytest.mark.parametrize("command", ["cech", "hyper"])
def test_face_count_at_the_budget_is_accepted(tmp_path, capsys, command):
    path = write(tmp_path, "faces.json", _disjoint_opens(command, MAX_DECLARED_FACES))
    assert run(capsys, command, path)[0] == 0


@pytest.mark.parametrize("command, data, message", [
    ("spectral", {"P": 17, "Q": 0, "dims": [[0]] * 18, "horiz": [[[]]] * 17, "vert": [[]] * 18},
     "bounds (17, 0) exceed 16"),
    ("hyper", {"opens": 1, "levels": 18, "faces": [{"idx": [0], "dims": [0] * 18}],
               "level_maps": [{"idx": [0], "maps": [[]] * 17}]},
     "levels: 18 declared, over the limit of 17"),
], ids=["spectral", "hyper"])
def test_a_grid_over_the_bound_is_refused_before_any_space(tmp_path, capsys, monkeypatch,
                                                           command, data, message):
    """grid.MAX_BOUND (16) is a budget like the others: exit 1, not a violated law."""
    def no_space(self):
        raise AssertionError("a space was built")

    monkeypatch.setattr(LabeledSpace, "__post_init__", no_space)
    code, out, err = run(capsys, command, write(tmp_path, "big.json", data))
    assert code == 1 and out == ""
    assert "Traceback" not in err and "invariant violation" not in err
    assert f"malformed input: {message}" in err


def test_a_failed_selftest_prints_its_report_and_exits_2(capsys, monkeypatch):
    import cohom.forms

    def broken(spec):
        raise AssertionError("broken on purpose")

    monkeypatch.setattr(cohom.forms, "derham_cohomology", broken)
    code, out, _ = run(capsys, "selftest", "--format", "json")
    report = json.loads(out)
    assert code == 2 and report["ok"] is False
    assert (report["schema_version"], report["command"]) == ("1", "selftest")
    assert [c["name"] for c in report["checks"] if not c["ok"]] == ["torus de Rham dims"]


def test_failed_self_check_exits_2_naming_the_law(capsys, monkeypatch):
    """A broken column reducer, which reports every column as a zero column
    with V_j = e_j, makes the cocycle self-check fail: exit 2, no traceback."""
    import cohom.complexes
    from cohom.exact import ONE

    monkeypatch.setattr(cohom.complexes, "reduce_columns",
                        lambda m, order, key=None: [(j, {}, {j: ONE}, None) for j in order])
    code, out, err = run(capsys, "preset", "circle")
    assert code == 2 and out == ""
    assert "law 'cohomology representatives are cocycles' fails" in err


def test_invariant_violation_exit_code_2(tmp_path, capsys):
    data = {"lo": 0, "hi": 2, "dims": [1, 1, 1],
            "diffs": [[["1"]], [["1"]]]}  # identity twice: not a complex
    path = write(tmp_path, "bad_complex.json", data)
    code, _, err = run(capsys, "complex", path)
    assert code == 2
    assert "invariant violation" in err


def test_spectral_subcommand(tmp_path, capsys):
    dc = nonzero_d2_double_complex()
    path = write(tmp_path, "dc.json", double_complex_to_json(dc))
    code, jout, _ = run(capsys, "spectral", path, "--pages", "3",
                        "--filtration", "first", "--format", "json")
    assert code == 0
    pages = json.loads(jout)["pages"]
    assert pages[1]["d_r_ranks"] != []
    ranks = {(e["p"], e["q"]): e["rank"] for e in pages[1]["d_r_ranks"]}
    assert ranks[(0, 1)] == 1
    code, _, _ = run(capsys, "spectral", path, "--filtration", "second")
    assert code == 0


@pytest.mark.parametrize("pages", ["0", "99"])
def test_spectral_pages_out_of_range_names_the_flag(monkeypatch, capsys, pages):
    """tensor_seed12 has P + Q = 5, so --pages runs over 1..7; no page is built."""
    import cohom.spectral

    monkeypatch.setattr(cohom.spectral, "first_pages", lambda *a: pytest.fail("page built"))
    code, out, err = run(capsys, "spectral", str(GOLDEN / "tensor_seed12.dc.json"),
                         "--pages", pages)
    assert code == 1 and out == ""
    assert err == f"error: --pages must be in 1..7, got {pages}\n"


def test_derham_subcommand_with_reduce(capsys):
    code, jout, _ = run(capsys, "derham", "--n", "1", "--invert", "1",
                        "--window", "4", "--reduce", "z1^-2 dz1",
                        "--format", "json")
    assert code == 0
    report = json.loads(jout)
    assert report["dims"] == [1, 1]
    assert report["reduce"]["log_coefficients"] == []
    assert report["reduce"]["witness"] == "-z1^-1"


def test_derham_rejects_bad_form(capsys):
    code, _, err = run(capsys, "derham", "--n", "1", "--invert", "1",
                       "--reduce", "zoo")
    assert code == 1


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("invert, form, message", [
    ("1", "z1^2", "the form is not closed"),
    ("0", "z1^-1", "negative exponent on non-inverted variable z1"),
    ("1", "1/0 dz1", "zero denominator in '1/0'"),
    ("1", "*", "term with no factor"),
], ids=["not_closed", "pole_off_the_inverted_axes", "zero_denominator", "no_factor"])
def test_derham_reduce_refuses_bad_forms_as_input(capsys, fmt, invert, form, message):
    code, out, err = run(capsys, "derham", "--n", "1", "--invert", invert,
                         "--reduce", form, "--format", fmt)
    assert code == 1 and out == ""
    assert err == f"error: --reduce: {message}\n"


def test_preset_torus_json(capsys):
    code, jout, _ = run(capsys, "preset", "torus:2,2", "--format", "json")
    assert code == 0
    report = json.loads(jout)
    assert report["dims"] == [1, 2, 1]
    assert report["hyper_dims"] == [1, 2, 1]


def test_preset_circle_and_p1(capsys):
    code, jout, _ = run(capsys, "preset", "circle", "--format", "json")
    assert code == 0
    assert json.loads(jout)["dims"] == [1, 1]
    code, jout, _ = run(capsys, "preset", "p1", "--format", "json")
    assert code == 0
    report = json.loads(jout)
    assert (report["window"], report["dims"]) == (4, [1, 0, 1])
    pattern = {(e["p"], e["q"]): e["dim"] for e in report["e1_second"] if e["dim"]}
    assert pattern == {(0, 0): 1, (1, 1): 1}


def test_preset_unknown_name(capsys):
    code, _, err = run(capsys, "preset", "klein-bottle")
    assert code == 1


@pytest.mark.parametrize("argv", [["torus:3,1"], ["p1", "--window", "2"], ["torus:4,4"],
                                  ["torus:1,-1"]],
                         ids=["torus_3_1", "p1_window_2", "torus_4_4", "torus_1_-1"])
def test_preset_out_of_range_is_malformed(capsys, argv):
    code, out, err = run(capsys, "preset", *argv)
    assert code == 1 and out == ""
    assert "Traceback" not in err and "invariant violation" not in err


@pytest.mark.parametrize("name", ["circle", "torus:2,2", "torus:0,0"])
def test_preset_window_is_p1_only(capsys, name):
    """Only p1 has a window; --window on any other preset is a usage error."""
    code, out, err = run(capsys, "preset", name, "--window", "4")
    assert (code, out) == (1, "")
    assert err == f"error: --window applies to the p1 preset only, not {name!r}\n"
    assert run(capsys, "preset", name)[0] == 0


def test_selftest_deterministic(capsys):
    code, out1, _ = run(capsys, "selftest", "--seed", "11", "--format", "json")
    assert code == 0
    code, out2, _ = run(capsys, "selftest", "--seed", "11", "--format", "json")
    assert out1 == out2
    assert all(c["ok"] for c in json.loads(out1)["checks"])


@pytest.mark.parametrize("argv,message", [
    (["derham", "--n", "x", "--invert", "1"], "argument --n: invalid int value: 'x'"),
    (["complex"], "the following arguments are required: file"),
    (["spectral", "f", "--filtration", "third"], "argument --filtration: invalid choice"),
    (["complex", "f", "--seed", "1"], "unrecognized arguments: --seed 1"),
], ids=["derham_n_not_int", "complex_without_file", "spectral_third_filtration",
        "seed_outside_selftest"])
def test_usage_errors_exit_1(capsys, argv, message):
    """Exit 2 is reserved for a violated law, so a command-line usage error is
    malformed input: exit 1 with an `error:` line and no usage dump."""
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main([flag])
    assert exc.value.code == 0 and capsys.readouterr().out


def test_hyper_subcommand(tmp_path, capsys):
    # one open set, two levels Q --id--> Q : cohomology (0, 0)
    data = {
        "opens": 1,
        "levels": 2,
        "faces": [{"idx": [0], "dims": [1, 1]}],
        "restrict": [],
        "level_maps": [{"idx": [0], "maps": [[["1"]]]}],
    }
    path = write(tmp_path, "hyper.json", data)
    code, jout, _ = run(capsys, "hyper", path, "--format", "json")
    assert code == 0
    report = json.loads(jout)
    assert report["total_dims"] == [0, 0]


def test_hyper_level_maps_that_do_not_compose_to_zero_exit_2(tmp_path, capsys):
    # one open set, three levels Q --id--> Q --id--> Q: d.d != 0 vertically
    data = {
        "opens": 1,
        "levels": 3,
        "faces": [{"idx": [0], "dims": [1, 1, 1]}],
        "restrict": [],
        "level_maps": [{"idx": [0], "maps": [[["1"]], [["1"]]]}],
    }
    code, out, err = run(capsys, "hyper", write(tmp_path, "hyper.json", data))
    assert code == 2 and out == ""
    assert "vertical differential squares to zero fails at cell (0, 0)" in err


def test_preset_p1_refuses_oversized_window_before_any_work(capsys, monkeypatch):
    import cohom.presets as presets
    from cohom.presets import MAX_P1_WINDOW, check_p1_window

    def no_work(*args):
        raise AssertionError("the p1 computation started")

    monkeypatch.setattr(presets, "build_p1", no_work)
    code, out, err = run(capsys, "preset", "p1", "--window", "1000000", "--format", "json")
    assert code == 1 and out == ""
    assert "1000000" in err and str(MAX_P1_WINDOW) in err
    # the library entry point refuses too, before building anything
    with pytest.raises(ValueError, match=str(MAX_P1_WINDOW)):
        presets.p1_report(MAX_P1_WINDOW + 1)
    monkeypatch.setattr(presets, "p1_report", no_work)
    code, _, err = run(capsys, "preset", "p1", "--window", str(MAX_P1_WINDOW + 1))
    assert code == 1 and str(MAX_P1_WINDOW + 1) in err
    check_p1_window(MAX_P1_WINDOW)


def test_derham_refuses_oversized_window_before_any_work(capsys, monkeypatch):
    import cohom.forms as forms
    from cohom.forms import MAX_MULTIDEGREES, TorusSpec, check_window_budget, multidegree_count

    def no_work(spec):
        raise AssertionError("the de Rham computation started")

    monkeypatch.setattr(forms, "derham_cohomology", no_work)
    code, out, err = run(capsys, "derham", "--n", "9", "--invert", "9", "--format", "json")
    assert code == 1 and out == ""
    assert str(multidegree_count(TorusSpec(9, 9, 4))) in err
    assert str(MAX_MULTIDEGREES) in err
    # the n = 4 models at W = 3 and at the default W = 4 stay within the budget
    assert multidegree_count(TorusSpec(4, 4, 3)) == 1296
    assert multidegree_count(TorusSpec(4, 4, 4)) == 4096
    check_window_budget(TorusSpec(4, 4, 4))


ENTRY = "entry at row 0, column 0 is not an integer or a 'p/q' string"


MALFORMED_MATRICES = [
    ("complex", "complex_seed1.json", ("diffs", 0), [["x"], []], f"differential 0: {ENTRY}: 'x'"),
    ("cech", "cover_seed3.json", ("restrict", 0, "matrix", 0, 0), 1.5,
     f"restrict[0].matrix: {ENTRY}: 1.5"),
    ("cech", "cover_seed3.json", ("restrict", 0, "matrix"), [["1"]],
     "restrict[0].matrix: matrix has wrong shape (expected 1 x 2)"),
    ("hyper", "p1_w4.hyper.json", ("restrict", 0, "matrices", 0, 0, 0), "x",
     f"restrict[0].matrices[0]: {ENTRY}: 'x'"),
    ("hyper", "p1_w4.hyper.json", ("level_maps", 0, "maps", 0, 0, 0), "x",
     f"level_maps[0].maps[0]: {ENTRY}: 'x'"),
    ("spectral", "nonzero_d2.dc.json", ("horiz", 1, 0, 0, 0), "x", f"horiz[1][0]: {ENTRY}: 'x'"),
    ("spectral", "nonzero_d2.dc.json", ("vert", 1, 0, 0, 0), True, f"vert[1][0]: {ENTRY}: True"),
]


# one wrong shape at every other call site of the matrix reader; a row of zeros
# is entries to the [] rule for a zero-dimensional side
WRONG_SHAPES = [
    ("complex", "complex_seed1.json", ("diffs", 0), [["0"], ["0"]],
     "differential 0: expected a 2 x 0 matrix, got entries"),
    ("hyper", "p1_w4.hyper.json", ("restrict", 0, "matrices", 0), [["1"]],
     "restrict[0].matrices[0]: matrix has wrong shape (expected 9 x 5)"),
    ("hyper", "p1_w4.hyper.json", ("level_maps", 0, "maps", 0), [["1"]],
     "level_maps[0].maps[0]: matrix has wrong shape (expected 4 x 5)"),
    ("spectral", "nonzero_d2.dc.json", ("horiz", 1, 0), [["1", "1"]],
     "horiz[1][0]: matrix has wrong shape (expected 1 x 1)"),
]


@pytest.mark.parametrize("command,file,path,value,message", MALFORMED_MATRICES + WRONG_SHAPES,
                         ids=[f"{c[0]}:{c[4].split(': ')[0]}" for c in MALFORMED_MATRICES]
                         + [f"{c[0]}:{c[4].split(': ')[0]} shape" for c in WRONG_SHAPES])
def test_malformed_matrix_names_its_field(tmp_path, capsys, command, file, path, value, message):
    data = json.loads((GOLDEN / file).read_text())
    *head, last = path
    target = data
    for key in head:
        target = target[key]
    target[last] = value
    code, out, err = run(capsys, command, write(tmp_path, "bad.json", data))
    assert code == 1 and out == ""
    assert message in err


LOADER_INPUTS = {"complex": "complex_seed1.json", "cech": "cover_seed3.json",
                 "hyper": "p1_w4.hyper.json", "spectral": "nonzero_d2.dc.json"}
DROP = object()
TYPE_CHANGES = [None, "x", 1.5, True, [], {}, "wrap"]  # "wrap": a list around the value
REPLACEMENTS = TYPE_CHANGES + [-1, 10 ** 6]


def _paths(value, path=()):
    """Every position in a JSON value, the root excluded."""
    if path:
        yield path
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _is_number(value) -> bool:
    """A JSON integer, or a string the loaders read as a rational."""
    if isinstance(value, str):
        try:
            Fraction(value)
        except (ValueError, ZeroDivisionError):
            return False
        return True
    return isinstance(value, int) and not isinstance(value, bool)


@st.composite
def _mutated_input(draw):
    command = draw(st.sampled_from(sorted(LOADER_INPUTS)))
    data = json.loads((GOLDEN / LOADER_INPUTS[command]).read_text())
    *head, last = draw(st.sampled_from(list(_paths(data))))
    parent = data
    for key in head:
        parent = parent[key]
    original = parent[last]
    new = draw(st.sampled_from(REPLACEMENTS + [DROP] if isinstance(parent, dict) else REPLACEMENTS))
    if new is DROP:
        del parent[last]
    else:
        parent[last] = [original] if new == "wrap" else new
    return command, data, original, new


@settings(max_examples=200, deadline=None)
@given(_mutated_input())
def test_a_mutated_golden_input_exits_cleanly(tmp_path_factory, case):
    """One dropped key or replaced value in a loader input: no exception escapes,
    the exit code is 0, 1 or 2, and a number replaced by another type is exit 1."""
    command, data, original, new = case
    path = tmp_path_factory.mktemp("mutated") / "input.json"
    path.write_text(json.dumps(data))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, str(path)])
    assert code in (0, 1, 2)
    if _is_number(original) and new in TYPE_CHANGES:
        assert code == 1
