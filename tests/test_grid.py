import random
from fractions import Fraction

import pytest

from cohom.complexes import CochainComplex, cohomology, validate
from cohom.generators import (
    random_cochain_complex,
    random_tensor_double_complex,
    random_tensor_triple_complex,
)
from cohom.grid import (
    DoubleComplex,
    GridTooLarge,
    InvariantViolation,
    flatten_fix_p,
    flatten_fix_r,
    tensor_double_complex,
    tensor_triple_complex,
    total,
    totals_agree,
)
from cohom.linalg import LabeledSpace, LinearMap, freeze_matrix

F = Fraction


def line_complex(dims, maps):
    spaces = tuple(LabeledSpace.make(f"A{k}", d) for k, d in enumerate(dims))
    diffs = tuple(LinearMap(spaces[k], spaces[k + 1], freeze_matrix(maps[k]))
                  for k in range(len(dims) - 1))
    return CochainComplex(0, len(dims) - 1, spaces, diffs)


def test_single_row_total_is_the_row():
    row = line_complex([1, 1], [[[1]]])
    point = CochainComplex(0, 0, (LabeledSpace.make("B", 1),), ())
    dc = tensor_double_complex(row, point)
    assert dc.Q == 0
    tot = total(dc)
    assert tot.dims() == (1, 1)
    assert tot.diffs[0].matrix == ((F(1),),)


def test_single_column_total_is_the_column():
    col = line_complex([1, 1], [[[1]]])
    point = CochainComplex(0, 0, (LabeledSpace.make("B", 1),), ())
    dc = tensor_double_complex(point, col)
    assert dc.P == 0
    tot = total(dc)
    # sign (-1)^0 = +1 on the only column
    assert tot.diffs[0].matrix == ((F(1),),)


def test_total_squares_to_zero_on_tensor_complexes():
    rng = random.Random(11)
    for _ in range(50):
        dc, *_ = random_tensor_double_complex(rng)
        validate(total(dc))  # raises NotAComplex if D^2 != 0


def test_kunneth_dims():
    rng = random.Random(12)
    for _ in range(30):
        dc, a, b, ha, hb = random_tensor_double_complex(rng)
        ht = cohomology(total(dc)).dims
        for deg in range(len(ht)):
            expect = sum(ha[p] * hb[deg - p] for p in range(len(ha))
                         if 0 <= deg - p < len(hb))
            assert ht[deg] == expect


def test_validate_reports_failing_cell():
    s = LabeledSpace.make("c", 1)
    z = LabeledSpace(())
    cells = ((s, s), (s, s))
    ident = LinearMap(s, s, ((F(1),),))
    zero = LinearMap(s, s, ((F(0),),))
    # d . delta != delta . d : horizontal is identity on row 0 only
    horiz = ((ident, zero),)
    vert = ((ident,), (ident,))
    dc = DoubleComplex(1, 1, cells, horiz, vert)
    with pytest.raises(InvariantViolation) as err:
        dc.validate()
    assert err.value.cell == (0, 0)
    assert "commute" in err.value.law


def test_grid_too_large():
    s = LabeledSpace(())
    with pytest.raises(GridTooLarge):
        DoubleComplex(17, 0, tuple((s,) for _ in range(18)),
                      tuple((LinearMap.zero(s, s),) for _ in range(17)), tuple(() for _ in range(18)))


def test_flatten_one_cell():
    point = CochainComplex(0, 0, (LabeledSpace.make("X", 2),), ())
    tc = tensor_triple_complex(point, point, point)
    fr = flatten_fix_r(tc)
    fp = flatten_fix_p(tc)
    assert (fr.P, fr.Q) == (0, 0)
    assert (fp.P, fp.Q) == (0, 0)
    assert fr.cell(0, 0).dim == 8
    assert totals_agree(tc).agree


def test_flatten_2x2x2_invariants_pass():
    rng = random.Random(13)
    for _ in range(20):
        tc = random_tensor_triple_complex(rng)
        flatten_fix_r(tc).validate()
        flatten_fix_p(tc).validate()


def test_totals_agree_on_random_triples():
    rng = random.Random(14)
    for _ in range(30):
        tc = random_tensor_triple_complex(rng)
        cmp = totals_agree(tc)
        assert cmp.agree and cmp.first_mismatch_degree is None


def test_totals_agree_beyond_2x2x2_grids():
    # groupings order cells differently once Q >= 2; the canonical
    # reordering must still make the two totals match
    rng = random.Random(15)
    for _ in range(10):
        a, _ = random_cochain_complex(rng, max_top=2, max_dim=2)
        b, _ = random_cochain_complex(rng, max_top=2, max_dim=1)
        c, _ = random_cochain_complex(rng, max_top=1, max_dim=1)
        tc = tensor_triple_complex(a, b, c)
        assert totals_agree(tc).agree


def test_zero_differential_flattening_dims():
    def zero_complex(dims):
        spaces = tuple(LabeledSpace.make(f"Z{k}", d) for k, d in enumerate(dims))
        diffs = tuple(LinearMap.zero(spaces[k], spaces[k + 1])
                      for k in range(len(dims) - 1))
        return CochainComplex(0, len(dims) - 1, spaces, diffs)

    tc = tensor_triple_complex(zero_complex([1, 1]), zero_complex([1, 1]),
                               zero_complex([1, 1]))
    ta = total(flatten_fix_r(tc))
    tb = total(flatten_fix_p(tc))
    assert ta.dims() == tb.dims() == (1, 3, 3, 1)


def test_broken_commutation_raises_not_silent_false():
    s = LabeledSpace.make("s", 1)
    cells = tuple(tuple(tuple(s for _ in range(2)) for _ in range(2)) for _ in range(2))
    ident = LinearMap(s, s, ((F(1),),))
    zero = LinearMap(s, s, ((F(0),),))
    d1, d2, d3 = {}, {}, {}
    for p in range(2):
        for q in range(2):
            for r in range(2):
                if p == 0:
                    d1[(p, q, r)] = ident if (q, r) == (0, 0) else zero
                if q == 0:
                    d2[(p, q, r)] = ident
                if r == 0:
                    d3[(p, q, r)] = zero
    from cohom.grid import TripleComplex

    tc = TripleComplex(1, 1, 1, cells, d1, d2, d3)
    with pytest.raises(InvariantViolation):
        totals_agree(tc)


def _unit_triple():
    """1x0x0 triple complex with one-dimensional cells and d1 = 1."""
    from cohom.grid import TripleComplex

    s0, s1 = LabeledSpace.make("a", 1), LabeledSpace.make("b", 1)
    cells = (((s0,),), ((s1,),))
    return cells, {(0, 0, 0): LinearMap(s0, s1, ((F(1),),))}


def _bad_codomain():
    cells, d1 = _unit_triple()
    d1[(0, 0, 0)] = LinearMap(cells[0][0][0], LabeledSpace.make("c", 2), ((F(1),), (F(0),)))
    return cells, d1


def _key_outside_grid():
    cells, d1 = _unit_triple()
    s = cells[0][0][0]
    d1[(7, 0, 0)] = LinearMap(s, s, ((F(1),),))
    return cells, d1


def _cells_wrong_shape():
    cells, d1 = _unit_triple()
    return (cells[0] + cells[0], cells[1]), d1


@pytest.mark.parametrize("build", [_bad_codomain, _key_outside_grid, _cells_wrong_shape],
                         ids=["d1_codomain", "d1_key_outside", "cells_shape"])
def test_triple_complex_rejects_malformed_shapes(build):
    from cohom.grid import TripleComplex

    cells, d1 = build()
    with pytest.raises(ValueError):
        TripleComplex(1, 0, 0, cells, d1, {}, {})


def test_unit_triple_is_accepted():
    from cohom.grid import TripleComplex

    cells, d1 = _unit_triple()
    tc = TripleComplex(1, 0, 0, cells, d1, {}, {})
    assert total(flatten_fix_r(tc)).dims() == (1, 1)
