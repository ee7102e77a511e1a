import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from oracles import total_by_formula

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
    TripleComplex,
    flatten_fix_p,
    flatten_fix_r,
    tensor_double_complex,
    tensor_triple_complex,
    total,
    totals_agree,
)
from cohom.linalg import LabeledSpace, LinearMap, freeze_matrix, rat

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
    with pytest.raises(InvariantViolation) as err:
        DoubleComplex(1, 1, cells, horiz, vert)
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


def test_grids_built_keyed_equal_their_nested_rebuilds():
    """Tensor grids and flattenings are built keyed; the nested fields they
    show rebuild an equal grid through the public constructors."""
    rng = random.Random(13)
    for _ in range(10):
        tc = random_tensor_triple_complex(rng)
        assert TripleComplex(tc.P, tc.Q, tc.R, tc.cells, tc.d1, tc.d2, tc.d3) == tc
        for k in (flatten_fix_r(tc), flatten_fix_p(tc), random_tensor_double_complex(rng)[0]):
            rebuilt = DoubleComplex(k.P, k.Q, k.cells, k.horiz, k.vert)
            assert rebuilt == k and hash(rebuilt) == hash(k)
            assert rebuilt._cells == k._cells and rebuilt._maps == k._maps


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

    with pytest.raises(InvariantViolation):
        totals_agree(TripleComplex(1, 1, 1, cells, d1, d2, d3))


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


def _unit_grid(bounds, maps):
    """One-dimensional cells over bounds; maps(axis, cell) is 1 or 0 out of cell."""
    def shift(cell, axis):
        return tuple(x + (a == axis) for a, x in enumerate(cell))

    grid = itertools.product(*(range(b + 1) for b in bounds))
    cells = {c: LabeledSpace.make(str(c), 1) for c in grid}
    d = [{c: LinearMap(s, cells[shift(c, a)], ((F(maps(a, c)),),))
          for c, s in cells.items() if c[a] < bounds[a]} for a in range(len(bounds))]
    if len(bounds) == 3:
        nested = tuple(tuple(tuple(cells[(p, q, r)] for r in range(bounds[2] + 1))
                             for q in range(bounds[1] + 1)) for p in range(bounds[0] + 1))
        return TripleComplex(*bounds, nested, *d)
    P, Q = bounds
    return DoubleComplex(P, Q,
                         tuple(tuple(cells[(p, q)] for q in range(Q + 1)) for p in range(P + 1)),
                         tuple(tuple(d[0][(p, q)] for q in range(Q + 1)) for p in range(P)),
                         tuple(tuple(d[1][(p, q)] for q in range(Q)) for p in range(P + 1)))


@pytest.mark.parametrize("bounds, broken, law", [
    ((2, 0), 0, "horizontal differential squares to zero"),
    ((0, 2), 1, "vertical differential squares to zero"),
    ((2, 0, 0), 0, "d1 squares to zero"),
    ((0, 2, 0), 1, "d2 squares to zero"),
    ((0, 0, 2), 2, "d3 squares to zero"),
])
def test_each_square_law_is_named(bounds, broken, law):
    with pytest.raises(InvariantViolation) as err:
        _unit_grid(bounds, lambda a, cell: 1 if a == broken else 0)
    assert err.value.law == law and err.value.cell == (0,) * len(bounds)


@pytest.mark.parametrize("bounds, pair, law", [
    ((1, 1), (0, 1), "horizontal and vertical differentials commute"),
    ((1, 1, 0), (0, 1), "d1 and d2 commute"),
    ((1, 0, 1), (0, 2), "d1 and d3 commute"),
    ((0, 1, 1), (1, 2), "d2 and d3 commute"),
])
def test_each_commute_law_is_named(bounds, pair, law):
    a, b = pair
    # d_a then d_b is 0 (d_b vanishes past the origin), d_b then d_a is 1
    with pytest.raises(InvariantViolation) as err:
        _unit_grid(bounds, lambda axis, cell: int(axis == a or not any(cell)))
    assert err.value.law == law and err.value.cell == (0,) * len(bounds)


def test_a_cached_total_changes_neither_equality_nor_hash():
    rng = random.Random(7)
    dc, a, b, _, _ = random_tensor_double_complex(rng)
    fresh = tensor_double_complex(a, b)
    total(dc)
    assert "_total" in vars(dc) and "_total" not in vars(fresh)
    assert dc == fresh and fresh == dc and hash(dc) == hash(fresh)


def _total_by_label(tot, key):
    """The basis of each degree of a total complex and its nonzero entries,
    {(degree, row, column): entry}, with every label read through key."""
    basis = [{key(lab) for lab in s.labels} for s in tot.spaces]
    entries = {(deg, key(d.codomain.labels[i]), key(d.domain.labels[j])): x
               for deg, d in enumerate(tot.diffs) for i, row in enumerate(d.rows) for j, x in row}
    return basis, entries


def test_total_matches_the_sign_formula_entry_by_entry():
    rng = random.Random(16)
    unequal_bounds = empty_cells = 0
    for _ in range(40):
        a, _ = random_cochain_complex(rng, max_top=3, max_dim=2)
        b, _ = random_cochain_complex(rng, max_top=2, max_dim=2)
        dc = tensor_double_complex(a, b)
        cells = {(p, q): dc.cells[p][q].labels for p in range(dc.P + 1) for q in range(dc.Q + 1)}
        maps = [{(p, q): m.matrix for p, col in enumerate(stored) for q, m in enumerate(col)}
                for stored in (dc.horiz, dc.vert)]
        assert _total_by_label(total(dc), lambda lab: (lab[:2], lab[2])) == \
            total_by_formula(cells, maps)
        unequal_bounds += dc.P != dc.Q
        empty_cells += not all(cells.values())
    assert unequal_bounds >= 10 and empty_cells >= 10


def test_both_flattenings_total_to_the_sign_formula():
    rng = random.Random(17)
    triples = [random_tensor_triple_complex(rng) for _ in range(10)]
    for _ in range(10):
        a, _ = random_cochain_complex(rng, max_top=2, max_dim=2)
        b, _ = random_cochain_complex(rng, max_top=3, max_dim=1)
        c, _ = random_cochain_complex(rng, max_top=1, max_dim=2)
        triples.append(tensor_triple_complex(a, b, c))
    for n in triples:
        cells = {x: n.cell(*x).labels for x in itertools.product(
            range(n.P + 1), range(n.Q + 1), range(n.R + 1))}
        expected = total_by_formula(cells, [{x: m.matrix for x, m in d.items()}
                                            for d in (n.d1, n.d2, n.d3)])
        for flat in (flatten_fix_r(n), flatten_fix_p(n)):
            assert _total_by_label(total(flat), lambda lab: lab[2]) == expected
    assert len({n.bounds for n in triples}) >= 5


@st.composite
def scaled_triples(draw):
    """A tensor triple of seeded random factors, each differential scaled by
    an int or Fraction, so merged maps carry both kinds of entry."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    factors = []
    for top, dim in ((2, 2), (2, 1), (1, 2)):
        cx, _ = random_cochain_complex(rng, max_top=top, max_dim=dim)
        c = draw(st.sampled_from([1, -1, 2, F(1, 2), F(-2, 3)]))
        factors.append(CochainComplex(0, cx.hi, cx.spaces, tuple(
            LinearMap.sparse(d.domain, d.codomain, [[(j, rat(c * x)) for j, x in row]
                                                    for row in d.rows]) for d in cx.diffs)))
    return tensor_triple_complex(*factors), draw(st.randoms())


@given(scaled_triples())
@settings(max_examples=60, deadline=None)
def test_every_merged_map_is_stored_canonically(case):
    """Each map _merge emits (both flattenings and the total of each) has
    sorted, zero-free rows and equals LinearMap.sparse of its own entries
    given in any order."""
    n, rnd = case
    flats = [flatten_fix_r(n), flatten_fix_p(n)]
    maps = [m for flat in flats for col in flat.horiz + flat.vert for m in col]
    maps += [d for flat in flats for d in total(flat).diffs]
    for m in maps:
        assert all(x != 0 for row in m.rows for _, x in row)
        assert all(a[0] < b[0] for row in m.rows for a, b in zip(row, row[1:]))
        shuffled = [rnd.sample(row, len(row)) for row in m.rows]
        assert m == LinearMap.sparse(m.domain, m.codomain, shuffled)
