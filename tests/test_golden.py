"""Golden CLI corpus: every case must reproduce its frozen JSON stdout byte for byte.

tests/golden/cases.json maps a case name to its argv; arguments ending in
.json are input files inside tests/golden.  The expected stdout of
`<argv> --format json` is tests/golden/<name>.out.json.
"""

import json
from pathlib import Path

import pytest

from cohom.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_cli_output(name, capsys):
    argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in CASES[name]]
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.out.json").read_text()
