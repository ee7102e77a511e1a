"""What the `cohom` modules import, and what a `cohom` run loads.

A stdlib `ast` scan checks that every imported name is used, so deleting
a function must not leave behind an import that only it needed.  Child
processes check that each subcommand and each module import loads only
its own modules, that `fractions` loads only for a non-integral entry,
that no entry point loads more source lines than its pinned budget, and
that the benchmark's layer tracer still sees the calls they make.
"""

import ast
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cohom"
MODULES = sorted(SRC.glob("*.py"))


def _imported_names(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(_imported_names(tree) - used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_spectral_pages_are_counted_not_eliminated():
    """Page dims and d_r ranks are counts on the pairing, which spectral.py
    takes from the shared column reducer exact.reduce_columns; it imports
    no other elimination routine, so the convergence certificate still
    cross-checks the pages against the separate rank count of
    complexes.cohomology_dims."""
    tree = ast.parse((SRC / "spectral.py").read_text())
    names = _imported_names(tree)
    eliminations = {"rank", "rank_of_rows", "rref", "_echelon", "kernel_basis",
                    "image_basis", "solve", "Subspace"}
    assert not names & eliminations
    assert {"cohomology_dims", "reduce_columns"} <= names


def test_cohomology_representatives_come_from_the_column_reducer():
    """complexes.cohomology reads its representatives off exact.reduce_columns,
    not off the dense Gauss-Jordan family."""
    names = _imported_names(ast.parse((SRC / "complexes.py").read_text()))
    assert not names & {"kernel_basis", "image_basis", "subquotient", "rref", "Subspace"}
    assert "reduce_columns" in names


def test_no_entry_is_divided_with_a_true_division():
    """Entries are ints or Fractions; `/` on two ints gives a float, so every
    division of entries is written as `Fraction(a, b)` or `exact.quotient`."""
    stray = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        stray += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Div)]
    assert not stray, f"true divisions: {stray}"


def _called_name(call: ast.Call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def test_every_elimination_runs_the_one_loop():
    """exact._reduce is the only function that combines two vectors, and the
    retired elimination helpers _cancel and _primitive are gone."""
    stray, retired, looped = [], [], 0
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        inside = {id(node) for f in ast.walk(tree)
                  if isinstance(f, ast.FunctionDef) and f.name == "_reduce"
                  for node in ast.walk(f)}
        calls = [node for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and _called_name(node) == "_combine"]
        stray += [f"{path.name}:{node.lineno}" for node in calls if id(node) not in inside]
        looped += sum(id(node) in inside for node in calls)
        retired += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                    if getattr(node, "name", None) in ("_cancel", "_primitive")
                    or getattr(node, "id", None) in ("_cancel", "_primitive")
                    or getattr(node, "attr", None) in ("_cancel", "_primitive")]
    assert not stray, f"_combine called outside _reduce: {stray}"
    assert not retired, f"retired elimination helpers: {retired}"
    assert looped, "_reduce no longer combines vectors"


def _calls(path: Path, name: str, outside: str = "") -> list:
    """The lines of path that call `name` (a bare name or an attribute), except
    inside a function named `outside`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    inside = {id(node) for f in ast.walk(tree)
              if isinstance(f, ast.FunctionDef) and f.name == outside for node in ast.walk(f)}
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _called_name(node) == name and id(node) not in inside]


def test_every_json_matrix_is_read_by_the_one_reader():
    """A JSON entry is read only inside linalg.map_from_json, which stores it sparse."""
    stray = [line for path in MODULES for line in _calls(path, "_rat_from_json", "map_from_json")]
    assert not stray, f"_rat_from_json called outside map_from_json: {stray}"
    assert _calls(SRC / "linalg.py", "_rat_from_json"), "map_from_json no longer reads entries"


def test_every_form_reduction_is_gated_by_check_closed():
    """forms.check_closed is the one closedness gate: it alone raises NotClosed,
    cli.py gates --reduce through it rather than calling exterior_derivative
    or check_poles, and the retired sign helpers and term_dict are gone."""
    stray = [line for path in MODULES for line in _calls(path, "NotClosed", "check_closed")]
    stray += [line for name in ("exterior_derivative", "check_poles")
              for line in _calls(SRC / "cli.py", name)]
    assert not stray, f"closedness checked outside check_closed: {stray}"
    assert _calls(SRC / "cli.py", "check_closed"), "cli no longer gates --reduce"
    retired = ("_sign_insert", "_sign_remove", "term_dict", "_koszul_int_rows")
    found = [f"{path.name}:{node.lineno}" for path in MODULES
             for node in ast.walk(ast.parse(path.read_text()))
             if {getattr(node, a, None) for a in ("name", "id", "attr")} & set(retired)]
    assert not found, f"retired form helpers: {found}"


def test_the_engine_builds_its_grids_keyed():
    """No module calls the nested DoubleComplex(...) or TripleComplex(...)
    constructors, which re-key and re-check their fields; every grid the
    engine assembles goes through _Grid._build."""
    stray = [line for path in MODULES for name in ("DoubleComplex", "TripleComplex")
             for line in _calls(path, name)]
    assert not stray, f"nested grid constructors called: {stray}"


@pytest.mark.parametrize("name", ["complexes.py", "cech.py", "grid.py"])
def test_loaders_and_grids_build_no_dense_map(name):
    """These modules read JSON maps with map_from_json and assemble maps
    sparse, so none calls the dense LinearMap(...) constructor."""
    stray = _calls(SRC / name, "LinearMap")
    assert not stray, f"dense LinearMap constructor called: {stray}"


def test_grids_assemble_blocks_only_in_the_one_merge():
    """Every total and flattening in grid.py is built by grid._merge, so it is
    the only place there that assembles a map from blocks."""
    tree = ast.parse((SRC / "grid.py").read_text())
    inside = {id(node) for f in ast.walk(tree)
              if isinstance(f, ast.FunctionDef) and f.name == "_merge" for node in ast.walk(f)}
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and _called_name(node) == "from_blocks"]
    stray = [f"grid.py:{node.lineno}" for node in calls if id(node) not in inside]
    assert not stray, f"from_blocks called outside _merge: {stray}"
    assert calls, "_merge no longer assembles blocks"


def test_laws_are_checked_only_where_objects_are_built():
    """A call to validate(...) or x.validate() sits only inside a __post_init__,
    so each complex, grid and sheaf checks its laws once, when it is built."""
    stray = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        inside = {id(node) for f in ast.walk(tree)
                  if isinstance(f, ast.FunctionDef) and f.name == "__post_init__"
                  for node in ast.walk(f)}
        stray += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and _called_name(node) == "validate"
                  and id(node) not in inside]
    assert not stray, f"law checks outside __post_init__: {stray}"


def test_only_json_output_reads_the_dense_matrix():
    """A LinearMap stores its nonzero rows; outside linalg.py the dense
    `.matrix` is read only as the argument of matrix_to_json."""
    stray = []
    for path in MODULES:
        if path.name == "linalg.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = {id(node.args[0]) for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and _called_name(node) == "matrix_to_json"
                   and node.args}
        stray += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "matrix"
                  and id(node) not in allowed]
    assert not stray, f"dense matrix reads outside JSON output: {stray}"


def _child(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=60)


def _imported_modules(node) -> list:
    """The modules an import statement names; none for any other node."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    return [node.module] if isinstance(node, ast.ImportFrom) else []


def test_no_module_generates_code():
    """Value types are exact.Records: no module imports dataclasses, whose
    import alone loads inspect, ast, dis and tokenize, and none compiles
    code at run time with exec, eval or compile."""
    stray = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            builtin = isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("exec", "eval", "compile")
            if builtin or "dataclasses" in _imported_modules(node):
                stray.append(f"{path.name}:{node.lineno}")
    assert not stray, f"code generation in the package: {stray}"


def test_only_the_kernel_imports_fractions():
    """exact.rat and exact.quotient are the one rule for how an entry is
    stored, so no other module imports `fractions`: a layer that reads a
    "p/q" reaches the class through exact._fraction()."""
    stray = [f"{path.name}:{node.lineno}" for path in MODULES if path.name != "exact.py"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if "fractions" in _imported_modules(node)]
    assert not stray, f"fractions imported outside exact.py: {stray}"


# stdlib modules that only code generation or introspection needs
HEAVY = ["ast", "dataclasses", "dis", "inspect", "tokenize"]
# stdlib modules that only a non-integral entry needs (`fractions` imports `decimal`)
RATIONAL = ["decimal", "fractions"]
CLI = "import cohom.cli\nout = cohom.cli.main(sys.argv[1:])"


@functools.cache
def _footprint(statement: str, *argv: str) -> dict:
    """Run `statement` in a fresh child with stdout captured; return the value
    it leaves in `out`, the `cohom.*` modules loaded (short names, sorted),
    the HEAVY and the RATIONAL modules the statement added, and its stdout."""
    body = "".join(f"    {line}\n" for line in statement.splitlines())
    code = ("import contextlib, io, json, sys\n"
            "before, out, stdout = set(sys.modules), None, io.StringIO()\n"
            "with contextlib.redirect_stdout(stdout):\n"
            f"{body}"
            "added = set(sys.modules) - before\n"
            "print(json.dumps({'out': out, 'stdout': stdout.getvalue(),\n"
            "                  'loaded': sorted(m[6:] for m in sys.modules if m.startswith('cohom.')),\n"
            f"                  'heavy': sorted(added & set({HEAVY!r})),\n"
            f"                  'rational': sorted(added & set({RATIONAL!r}))}}))")
    proc = _child("-c", code, *argv)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# what each subcommand loads: the kernel `exact` always, the map layer
# `linalg` wherever maps are built, and never the dense family
SUBCOMMANDS = {
    "derham": (["derham", "--n", "2", "--invert", "2", "--window", "2"],
               ["cli", "exact", "forms"]),
    "hyper": (["hyper", "tests/golden/p1_w4.hyper.json"],
              ["cech", "cli", "complexes", "exact", "grid", "linalg", "spectral"]),
    "cech": (["cech", "tests/golden/cover_seed3.json"],
             ["cech", "cli", "complexes", "exact", "linalg"]),
    "complex": (["complex", "tests/golden/complex_seed1.json"],
                ["cli", "complexes", "exact", "linalg"]),
    "spectral": (["spectral", "tests/golden/nonzero_d2.dc.json"],
                 ["cli", "complexes", "exact", "grid", "linalg", "spectral"]),
    "preset-circle": (["preset", "circle"],
                      ["cech", "cli", "complexes", "exact", "linalg", "presets"]),
    "preset-p1": (["preset", "p1"],
                  ["cech", "cli", "complexes", "exact", "grid", "linalg", "presets", "spectral"]),
}


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_a_subcommand_loads_only_its_own_modules(name):
    argv, loaded = SUBCOMMANDS[name]
    footprint = _footprint(CLI, *argv)
    assert [footprint[k] for k in ("out", "loaded", "heavy")] == [0, loaded, []]


# what `import cohom.<module>` loads: Cech data without de Rham forms and
# without grids or pages until hypercohomology asks for them, forms
# without complexes or maps, random builders without forms, and the
# dense family only for itself
LAYERS = {
    "__init__": [],
    "exact": ["exact"],
    "linalg": ["exact", "linalg"],
    "dense": ["dense", "exact", "linalg"],
    "complexes": ["complexes", "exact", "linalg"],
    "grid": ["complexes", "exact", "grid", "linalg"],
    "spectral": ["complexes", "exact", "grid", "linalg", "spectral"],
    "cech": ["cech", "complexes", "exact", "linalg"],
    "forms": ["exact", "forms"],
    "presets": ["cech", "complexes", "exact", "linalg", "presets"],
    "generators": ["cech", "complexes", "exact", "generators", "grid", "linalg"],
    "cli": ["cli", "exact"],
}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_importing_a_module_loads_only_its_layers(path):
    module = "cohom" if path.stem == "__init__" else f"cohom.{path.stem}"
    footprint = _footprint(f"import {module}")
    assert [footprint["loaded"], footprint["heavy"]] == [LAYERS[path.stem], []]


# the dense names perfbench/tracer.py binds as cohom.linalg.<name>
@pytest.mark.parametrize("name", ["rref", "kernel_basis", "image_basis", "solve", "invert",
                                  "SpanBuilder", "subquotient"])
def test_a_dense_name_loads_dense_on_first_access(name):
    footprint = _footprint("import cohom.linalg\n"
                           "out = ['cohom.dense' in sys.modules]\n"
                           f"out.append(cohom.linalg.{name} is sys.modules['cohom.dense'].{name})")
    assert [footprint["out"], footprint["loaded"]] == [[False, True], ["dense", "exact", "linalg"]]


@pytest.mark.parametrize("case,rational", [
    ("hyper_p1_w4", []), ("complex_seed1", []),
    ("complex_half", RATIONAL), ("derham_n2_reduce_half", RATIONAL),
    ("derham_n2_reduce_int", []),
])
def test_fractions_load_only_for_a_non_integral_entry(case, rational):
    """An integral input never builds a Fraction, so `fractions` and `decimal`
    stay unloaded; a "1/2" loads them, and the output is the golden one."""
    golden = ROOT / "tests" / "golden"
    argv = [str(golden / a) if a.endswith(".json") else a
            for a in json.loads((golden / "cases.json").read_text())[case]]
    footprint = _footprint(CLI, *argv, "--format", "json")
    assert [footprint["out"], footprint["rational"]] == [0, rational]
    assert footprint["stdout"] == (golden / f"{case}.out.json").read_text()


# Source lines of the `cohom` modules each entry point loads, pinned at their
# present sums: a fresh child with no cached bytecode compiles them all, so a
# chain that grows (a benchmark set-up among them) fails here first.  Raise a
# budget only for a reason that is worth the start-up it costs.
LINE_BUDGETS = {
    "derham": (CLI, SUBCOMMANDS["derham"][0], 1234),
    "hyper": (CLI, SUBCOMMANDS["hyper"][0], 2031),
    "cech": (CLI, SUBCOMMANDS["cech"][0], 1453),
    "complex": (CLI, SUBCOMMANDS["complex"][0], 1072),
    "spectral": (CLI, SUBCOMMANDS["spectral"][0], 1650),
    "preset-circle": (CLI, SUBCOMMANDS["preset-circle"][0], 1644),
    "preset-p1": (CLI, SUBCOMMANDS["preset-p1"][0], 2222),
    "preset-torus": (CLI, ["preset", "torus:2,2"], 2850),
    "selftest": (CLI, ["selftest"], 2804),
    "setup-p1_hyper": ("import cohom.presets", [], 1240),
    "setup-derham_forms": ("import cohom.forms", [], 830),
    "setup-small_batch": ("from cohom import cech, complexes, generators, grid, linalg, spectral",
                          [], 1772),
}


@pytest.mark.parametrize("entry", LINE_BUDGETS)
def test_an_entry_point_compiles_no_more_lines_than_its_budget(entry):
    statement, argv, budget = LINE_BUDGETS[entry]
    loaded = _footprint(statement, *argv)["loaded"]
    lines = sum(len((SRC / f"{m}.py").read_text().splitlines()) for m in loaded)
    assert lines <= budget, f"{entry} loads {lines} lines of cohom ({loaded}), over {budget}"


def test_the_layer_tracer_sees_a_subcommand_call(tmp_path):
    """The tracer rebinds functions in each module's namespace; a subcommand,
    or cech_hyper, that imports inside its body reads them there, so the
    call is traced."""
    summary = tmp_path / "summary.json"
    for argv, expected in [
        (["derham", "--n", "2", "--invert", "2", "--window", "2", "--reduce", "dz1"],
         {"forms.derham_cohomology": 1, "cli.main": 1}),
        (["hyper", "tests/golden/p1_w4.hyper.json"],
         {"grid.total": 1, "cech.cech_hyper": 1, "cli.main": 1}),
    ]:
        proc = _child("perfbench/traced_cli.py", str(summary), *argv)
        assert proc.returncode == 0, proc.stderr
        calls = json.loads(summary.read_text())["calls"]
        assert {name: calls.get(name) for name in expected} == expected


def _is_drop_slice(node) -> bool:
    """Whether node is `x[:i] + x[i + 1:]`, a tuple with position i left out."""
    def part(sub, lower):
        return isinstance(sub, ast.Subscript) and isinstance(sub.slice, ast.Slice) \
            and (sub.slice.lower is None) != lower and (sub.slice.upper is None) == lower
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add) \
        and part(node.left, False) and part(node.right, True)


def _function(path: Path, name: str) -> ast.FunctionDef:
    return next(f for f in ast.walk(ast.parse(path.read_text()))
                if isinstance(f, ast.FunctionDef) and f.name == name)


def test_the_cover_layer_drops_a_face_index_in_one_place():
    """cech._drops alone writes the face-drop rule; the cover loaders share
    one face reader and one restriction reader, and the per-loader helpers
    they replaced are gone."""
    stray = []
    for name in ("cech.py", "presets.py", "generators.py"):
        tree = ast.parse((SRC / name).read_text())
        inside = {id(node) for f in ast.walk(tree)
                  if isinstance(f, ast.FunctionDef) and f.name == "_drops" for node in ast.walk(f)}
        stray += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if _is_drop_slice(node) and id(node) not in inside]
    assert not stray, f"face drops written outside cech._drops: {stray}"
    assert any(_is_drop_slice(node) for node in ast.walk(_function(SRC / "cech.py", "_drops")))
    retired = ("_declared_faces", "_restriction_drop")
    found = [f"{path.name}:{node.lineno}" for path in MODULES
             for node in ast.walk(ast.parse(path.read_text()))
             if {getattr(node, a, None) for a in ("name", "id", "attr")} & set(retired)]
    assert not found, f"retired cover readers: {found}"
    for loader in ("cover_from_json", "hyper_from_json"):
        called = {_called_name(node) for node in ast.walk(_function(SRC / "cech.py", loader))
                  if isinstance(node, ast.Call)}
        assert {"_read_faces", "_read_restrictions"} <= called, f"{loader} reads covers its own way"
