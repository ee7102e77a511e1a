"""Every name a `cohom` module imports is used in that module.

A stdlib `ast` scan: deleting a function must not leave behind an
import that only it needed.  `__init__.py` is exempt, because its
imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cohom"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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
    """Page dims and d_r ranks are counts on the pairing, so spectral.py
    imports no elimination routine; the convergence certificate still
    cross-checks the pages against the separate rank count of
    complexes.cohomology_dims."""
    tree = ast.parse((SRC / "spectral.py").read_text())
    names = _imported_names(tree)
    eliminations = {"rank", "rank_of_rows", "rref", "_echelon", "kernel_basis",
                    "image_basis", "solve", "Subspace"}
    assert not names & eliminations
    assert "cohomology_dims" in names


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
