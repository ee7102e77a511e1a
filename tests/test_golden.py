"""Golden CLI corpus: every case must reproduce its frozen JSON stdout byte for byte.

tests/golden/cases.json maps a case name to its argv; arguments ending in
.json are input files inside tests/golden.  The expected stdout of
`<argv> --format json` is tests/golden/<name>.out.json.

The assembly corpus below freezes the block-built objects themselves
(flattenings, totals, direct sums, the truncated de Rham complex and the
Cech coboundary) in tests/golden/assembly_<name>.out.json.
"""

import json
import random
from fractions import Fraction
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


# ---------------------------------------------------------------------------
# Assembly corpus: the block-built objects (totals, flattenings, direct sums,
# the truncated de Rham complex, the Cech coboundary) as JSON, frozen in
# tests/golden/assembly_<name>.out.json.


def _labels(spaces):
    return [[repr(lab) for lab in s.labels] for s in spaces]


def _complex_case(cx):
    from cohom.complexes import complex_to_json

    return {"complex": complex_to_json(cx), "labels": _labels(cx.spaces)}


def _double_case(dc):
    from cohom.grid import double_complex_to_json

    return {"double": double_complex_to_json(dc),
            "labels": [_labels(col) for col in dc.cells]}


def _seeded_triple(seed):
    from cohom.generators import random_cochain_complex, random_tensor_triple_complex
    from cohom.grid import tensor_triple_complex

    rng = random.Random(seed)
    if seed != 1380:
        return random_tensor_triple_complex(rng)
    # seed 1380 draws factors of dims (2, 2, 1), (1, 1, 1), (1, 1): bounds 2, 2, 1
    a, _ = random_cochain_complex(rng, max_top=2, max_dim=2)
    b, _ = random_cochain_complex(rng, max_top=2, max_dim=1)
    c, _ = random_cochain_complex(rng, max_top=1, max_dim=1)
    return tensor_triple_complex(a, b, c)


def _assembly_case(name):
    from cohom.cech import cech_complex, cover_from_json
    from cohom.complexes import direct_sum
    from cohom.forms import TorusSpec, truncated_de_rham_complex
    from cohom.generators import random_cochain_complex
    from cohom.grid import double_complex_from_json, flatten_fix_p, flatten_fix_r, total

    if name.startswith("flatten_fix_"):
        fn = flatten_fix_r if name.startswith("flatten_fix_r") else flatten_fix_p
        return _double_case(fn(_seeded_triple(int(name.rpartition("seed")[2]))))
    if name == "total_tensor_seed12":
        data = json.loads((GOLDEN / "tensor_seed12.dc.json").read_text())
        return _complex_case(total(double_complex_from_json(data)))
    if name == "derham_torus_2_1_2":
        return _complex_case(truncated_de_rham_complex(TorusSpec(2, 1, 2)))
    if name == "direct_sum_seed4_seed5":
        a, _ = random_cochain_complex(random.Random(4))
        b, _ = random_cochain_complex(random.Random(5))
        return _complex_case(direct_sum(a, b))
    if name == "cech_cover_seed3":
        data = json.loads((GOLDEN / "cover_seed3.json").read_text())
        return _complex_case(cech_complex(*cover_from_json(data)))
    raise KeyError(name)


# seed 1016 draws three factors with nonzero differentials, so its fix-p
# flattening pins the signs and placement of the kept-axis blocks too
ASSEMBLY_CASES = [f"flatten_fix_{axis}_seed{seed}" for axis in "rp" for seed in (1, 2, 1380)] + [
    "flatten_fix_p_seed1016", "total_tensor_seed12", "derham_torus_2_1_2",
    "direct_sum_seed4_seed5", "cech_cover_seed3"]


def assembly_output(name) -> str:
    return json.dumps(_assembly_case(name), sort_keys=True, indent=1) + "\n"


@pytest.mark.parametrize("name", ASSEMBLY_CASES)
def test_golden_assembly(name):
    assert assembly_output(name) == (GOLDEN / f"assembly_{name}.out.json").read_text()


# ---------------------------------------------------------------------------
# Entry types: an entry is an int when it is integral and a Fraction
# otherwise, never a bool or a float, in every map built from the golden
# inputs and the generator families.


def _entries_are_canonical(m) -> bool:
    return all(type(x) is int or (type(x) is Fraction and x.denominator != 1)
               for row in m.rows for _, x in row)


def _complex_maps(cx):
    from cohom.complexes import cohomology

    return list(cx.diffs) + list(cohomology(cx).representatives)


def _double_maps(dc):
    from cohom.grid import total
    from cohom.spectral import first_pages, second_pages

    tot = total(dc)
    r_inf = max(dc.P, dc.Q) + 2
    pages = first_pages(dc, r_inf) + second_pages(dc, r_inf)
    reps = [x for page in pages for pq in page.span for v in page.representatives(*pq)
            for x in v]
    assert all(type(x) is int or (type(x) is Fraction and x.denominator != 1) for x in reps)
    return [m for col in dc.horiz + dc.vert for m in col] + _complex_maps(tot)


def _golden_input_maps(name):
    from cohom.cech import (cech_complex, cech_sheaf_double_complex, cover_from_json,
                            hyper_from_json)
    from cohom.complexes import complex_from_json
    from cohom.grid import double_complex_from_json

    data = json.loads((GOLDEN / name).read_text())
    if name.startswith("complex_"):
        return _complex_maps(complex_from_json(data))
    if name.startswith("cover_"):
        nerve, sheaf = cover_from_json(data)
        return list(sheaf.restrictions.values()) + _complex_maps(cech_complex(nerve, sheaf))
    if name.endswith(".dc.json"):
        return _double_maps(double_complex_from_json(data))
    nerve, sheaves, level_maps = hyper_from_json(data)
    return [m for s in sheaves for m in s.restrictions.values()] + \
        [m for level in level_maps for m in level.values()] + \
        _double_maps(cech_sheaf_double_complex(nerve, sheaves, level_maps))


def _generated_maps(seed):
    from cohom.cech import cech_complex
    from cohom.generators import (nonzero_d2_double_complex, random_cochain_complex,
                                  random_function_sheaf, random_tensor_double_complex,
                                  random_tensor_triple_complex)
    from cohom.grid import flatten_fix_p, flatten_fix_r
    from cohom.presets import build_circle, build_p1

    rng = random.Random(seed)
    maps = _complex_maps(random_cochain_complex(rng)[0])
    maps += _double_maps(random_tensor_double_complex(rng, max_bound=2)[0])
    triple = random_tensor_triple_complex(rng)
    maps += [m for d in (triple.d1, triple.d2, triple.d3) for m in d.values()]
    for flat in (flatten_fix_r(triple), flatten_fix_p(triple)):
        maps += _double_maps(flat)
    sheaf = random_function_sheaf(rng)
    maps += list(sheaf.restrictions.values()) + _complex_maps(cech_complex(sheaf.nerve, sheaf))
    maps += _double_maps(nonzero_d2_double_complex())
    nerve, circle = build_circle()
    maps += _complex_maps(cech_complex(nerve, circle))
    _, sheaves, level_maps = build_p1(3)
    maps += [m for s in sheaves for m in s.restrictions.values()]
    maps += [m for level in level_maps for m in level.values()]
    return maps


@pytest.mark.parametrize("name", ["complex_seed1.json", "cover_seed3.json", "nonzero_d2.dc.json",
                                  "tensor_seed12.dc.json", "p1_w4.hyper.json"])
def test_golden_inputs_build_maps_of_canonical_entries(name):
    maps = _golden_input_maps(name)
    assert maps and all(_entries_are_canonical(m) for m in maps)


@pytest.mark.parametrize("seed", range(6))
def test_generated_families_build_maps_of_canonical_entries(seed):
    maps = _generated_maps(seed)
    assert maps and all(_entries_are_canonical(m) for m in maps)
