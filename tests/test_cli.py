import json
import random

import pytest

from cohom.cech import cover_to_json
from cohom.cli import main
from cohom.complexes import complex_to_json
from cohom.generators import random_cochain_complex, random_function_sheaf
from cohom.grid import double_complex_to_json
from cohom.generators import nonzero_d2_double_complex


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


def test_failed_self_check_exits_2_naming_the_law(capsys, monkeypatch):
    """A broken kernel makes the cocycle self-check fail: exit 2, no traceback."""
    import cohom.complexes
    from cohom.linalg import Subspace

    monkeypatch.setattr(cohom.complexes, "kernel_basis", lambda m: Subspace.full(m.domain))
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
    assert report["dims"] == [1, 0, 1]
    pattern = {(e["p"], e["q"]): e["dim"] for e in report["e1_second"] if e["dim"]}
    assert pattern == {(0, 0): 1, (1, 1): 1}


def test_preset_unknown_name(capsys):
    code, _, err = run(capsys, "preset", "klein-bottle")
    assert code == 1


def test_preset_out_of_range_is_invariant_error(capsys):
    code, _, err = run(capsys, "preset", "torus:3,1")
    assert code == 2


def test_selftest_deterministic(capsys):
    code, out1, _ = run(capsys, "selftest", "--seed", "11", "--format", "json")
    assert code == 0
    code, out2, _ = run(capsys, "selftest", "--seed", "11", "--format", "json")
    assert out1 == out2
    assert all(c["ok"] for c in json.loads(out1)["checks"])


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


def test_derham_refuses_oversized_window_before_any_work(capsys, monkeypatch):
    import cohom.cli as cli
    from cohom.forms import MAX_MULTIDEGREES, TorusSpec, check_window_budget, multidegree_count

    def no_work(spec):
        raise AssertionError("the de Rham computation started")

    monkeypatch.setattr(cli, "derham_cohomology", no_work)
    code, out, err = run(capsys, "derham", "--n", "9", "--invert", "9", "--format", "json")
    assert code == 1 and out == ""
    assert str(multidegree_count(TorusSpec(9, 9, 4))) in err
    assert str(MAX_MULTIDEGREES) in err
    # the n = 4 models at W = 3 and at the default W = 4 stay within the budget
    assert multidegree_count(TorusSpec(4, 4, 3)) == 1296
    assert multidegree_count(TorusSpec(4, 4, 4)) == 4096
    check_window_budget(TorusSpec(4, 4, 4))
