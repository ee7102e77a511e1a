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
import cohom.linalg
from cohom.cech import SheafOnCover, cech_hyper, cech_sheaf_double_complex, function_sheaf
from cohom.cli import main
from cohom.complexes import cohomology
from cohom.generators import random_tensor_double_complex, random_tensor_triple_complex
from cohom.grid import DoubleComplex, TripleComplex, total, totals_agree
from cohom.linalg import LinearMap
from cohom.presets import build_p1
from cohom.spectral import certify_convergence, first_pages, second_pages

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
    assert total(dc) is tot
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


@pytest.mark.parametrize("calls", [
    lambda dc: (cohomology(total(dc)), certify_convergence(dc)),
    lambda dc: (first_pages(dc, 2), second_pages(dc, 2), certify_convergence(dc)),
], ids=["cohomology_then_certificate", "pages_then_certificate"])
def test_a_grid_builds_and_checks_its_total_once(checked, calls):
    """The total is built and checked on the first call and kept on the grid."""
    dc = random_tensor_double_complex(random.Random(5))[0]
    checked.clear()
    calls(dc)
    assert total(dc) is total(dc)
    assert len(checked) == 1 and checked[0] is total(dc)


def test_cech_grid_checks_delta_squared_only_as_its_grid_law(monkeypatch):
    """Three opens with a triple overlap, two levels: the grid checks two
    horizontal squares and two commuting squares, 4 calls of the law kernel
    `products_agree`; no Cech complex per level checks delta.delta = 0 again."""
    sheaf = function_sheaf([{0, 1}, {1, 2}, {1, 3}])
    assert sheaf.nerve.max_dim == 2
    zero = {f: LinearMap.zero(sheaf.space(f), sheaf.space(f)) for f in sheaf.nerve.faces}
    calls = []
    kernel = cohom.linalg.products_agree

    def counted(*maps):
        calls.append(1)
        return kernel(*maps)

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "cohom"]:
        if vars(module).get("products_agree") is kernel:
            monkeypatch.setattr(module, "products_agree", counted)
    cech_sheaf_double_complex(sheaf.nerve, [sheaf, sheaf], [zero])
    assert len(calls) == 4
