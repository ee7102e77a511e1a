"""Each complex, grid and sheaf checks its laws once, when it is built.

`complexes.validate` (in every module of the package that binds it) and
the three `validate` methods are wrapped to record every object they
check.  The records keep references, so no id is reused while a case
runs; no object may appear twice.
"""

import random
import sys
from pathlib import Path

import pytest

import cohom.complexes
from cohom.cech import SheafOnCover, cech_hyper
from cohom.cli import main
from cohom.complexes import cohomology
from cohom.generators import random_tensor_double_complex, random_tensor_triple_complex
from cohom.grid import DoubleComplex, TripleComplex, total, totals_agree
from cohom.presets import build_p1
from cohom.spectral import certify_convergence

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture
def checked(monkeypatch):
    seen = []

    def recording(check):
        def record(obj):
            seen.append(obj)
            return check(obj)
        return record

    for cls in (DoubleComplex, TripleComplex, SheafOnCover):
        monkeypatch.setattr(cls, "validate", recording(cls.validate))
    validate = cohom.complexes.validate
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "cohom"]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is validate:
                monkeypatch.setattr(module, attr, recording(validate))
    return seen


def _p1_hyper():
    res = cech_hyper(*build_p1(4))
    return [res.double, res.total]


def _tensor_cohomology_and_certificate():
    dc = random_tensor_double_complex(random.Random(5))[0]
    tot = total(dc)
    cohomology(tot)
    certify_convergence(dc)
    return [dc, tot]


def _triple_totals():
    tc = random_tensor_triple_complex(random.Random(6))
    assert totals_agree(tc)
    return [tc]


def _cech_cli():
    assert main(["cech", str(GOLDEN / "cover_seed3.json")]) == 0
    return []


@pytest.mark.parametrize("case", [_p1_hyper, _tensor_cohomology_and_certificate,
                                  _triple_totals, _cech_cli],
                         ids=["p1_hyper", "tensor", "triple", "cech_cli"])
def test_no_object_is_checked_twice(checked, case):
    must_be_checked = case()
    ids = [id(x) for x in checked]
    assert checked and len(ids) == len(set(ids))
    assert all(id(x) in ids for x in must_be_checked)
