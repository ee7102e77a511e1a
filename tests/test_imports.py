"""What the `cohom` modules import, and what a `cohom` run loads.

A stdlib `ast` scan checks that every imported name is used, so deleting
a function must not leave behind an import that only it needed.  Child
processes check that each subcommand loads only its own modules, and
that the benchmark's layer tracer still sees the calls they make.
"""

import ast
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
    takes from the shared column reducer linalg.reduce_columns; it imports
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
    """complexes.cohomology reads its representatives off linalg.reduce_columns,
    not off the dense Gauss-Jordan family."""
    names = _imported_names(ast.parse((SRC / "complexes.py").read_text()))
    assert not names & {"kernel_basis", "image_basis", "subquotient", "rref"}
    assert "reduce_columns" in names


def _called_name(call: ast.Call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


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


@pytest.mark.parametrize("argv,loaded", [
    (["derham", "--n", "2", "--invert", "2", "--window", "2"],
     ["cli", "complexes", "forms", "linalg"]),
    (["hyper", "tests/golden/p1_w4.hyper.json"],
     ["cech", "cli", "complexes", "grid", "linalg", "spectral"]),
], ids=["derham", "hyper"])
def test_a_subcommand_loads_only_its_own_modules(argv, loaded):
    code = ("import io, json, sys, contextlib\n"
            "import cohom.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cohom.cli.main(sys.argv[1:])\n"
            "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('cohom.'))]))")
    proc = _child("-c", code, *argv)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, [f"cohom.{m}" for m in loaded]]


def test_the_layer_tracer_sees_a_subcommand_call(tmp_path):
    """The tracer rebinds functions in each module's namespace; a subcommand
    that imports inside its body reads them there, so the call is traced."""
    summary = tmp_path / "summary.json"
    proc = _child("perfbench/traced_cli.py", str(summary),
                  "derham", "--n", "2", "--invert", "2", "--window", "2", "--reduce", "dz1")
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(summary.read_text())["calls"]
    assert calls["forms.derham_cohomology"] == 1
    assert calls["cli.main"] == 1
