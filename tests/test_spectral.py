import random
from fractions import Fraction

import pytest

from cohom.complexes import CochainComplex, cohomology
from cohom.generators import (
    nonzero_d2_double_complex,
    random_tensor_double_complex,
)
from cohom.grid import DoubleComplex, total
from cohom.linalg import LabeledSpace, LinearMap, freeze_matrix, rank
from cohom.spectral import certify_convergence, first_pages, second_pages

F = Fraction


def zero_vertical_complex(dims_by_cell):
    """Double complex with zero vertical maps and zero horizontal maps."""
    P = max(p for p, _ in dims_by_cell)
    Q = max(q for _, q in dims_by_cell)
    cells = tuple(tuple(LabeledSpace(tuple(((p, q), i)
                                           for i in range(dims_by_cell.get((p, q), 0))))
                        for q in range(Q + 1)) for p in range(P + 1))
    horiz = tuple(tuple(LinearMap.zero(cells[p][q], cells[p + 1][q])
                        for q in range(Q + 1)) for p in range(P))
    vert = tuple(tuple(LinearMap.zero(cells[p][q], cells[p][q + 1])
                       for q in range(Q)) for p in range(P + 1))
    return DoubleComplex(P, Q, cells, horiz, vert)


def test_zero_vertical_gives_cells_on_page_one():
    dc = zero_vertical_complex({(0, 0): 2, (1, 0): 1, (0, 1): 3, (1, 1): 1})
    pages = first_pages(dc, 1)
    for (p, q), entry in pages[0].entries.items():
        assert entry.dim == dc.cell(p, q).dim


def test_zero_horizontal_gives_cells_on_second_page_one():
    dc = zero_vertical_complex({(0, 0): 2, (1, 0): 1, (0, 1): 3, (1, 1): 1})
    pages = second_pages(dc, 1)
    # transposed page coordinates: entry (p, q) is input cell (q, p)
    for (p, q), entry in pages[0].entries.items():
        assert entry.dim == dc.cell(q, p).dim


def test_zero_horizontal_nonzero_vertical_second_page_one():
    """E_1 of the row filtration ignores the vertical maps entirely."""
    s2 = LabeledSpace.make("a", 2)
    s1 = LabeledSpace.make("b", 1)
    cells = ((s2, s1),)
    vert = ((LinearMap(s2, s1, freeze_matrix([[1, 0]])),),)
    dc = DoubleComplex(0, 1, cells, (), vert)
    dc.validate()
    page1 = second_pages(dc, 1)[0]
    assert page1.dim(0, 0) == 2 and page1.dim(1, 0) == 1
    # and the d_1 of the second filtration is the vertical map
    assert rank(page1.differentials[(0, 0)]) == 1


def column_cohomology_dims(dc, p):
    spaces = tuple(dc.cell(p, q) for q in range(dc.Q + 1))
    diffs = tuple(dc.vert[p][q] for q in range(dc.Q))
    return cohomology(CochainComplex(0, dc.Q, spaces, diffs)).dims


def row_cohomology_dims(dc, q):
    spaces = tuple(dc.cell(p, q) for p in range(dc.P + 1))
    diffs = tuple(dc.horiz[p][q] for p in range(dc.P))
    return cohomology(CochainComplex(0, dc.P, spaces, diffs)).dims


def test_page_one_is_vertical_cohomology():
    rng = random.Random(21)
    for _ in range(15):
        dc, *_ = random_tensor_double_complex(rng, max_bound=3)
        page1 = first_pages(dc, 1)[0]
        for p in range(dc.P + 1):
            col = column_cohomology_dims(dc, p)
            for q in range(dc.Q + 1):
                assert page1.dim(p, q) == col[q]


def test_second_page_one_is_horizontal_cohomology():
    rng = random.Random(22)
    for _ in range(15):
        dc, *_ = random_tensor_double_complex(rng, max_bound=3)
        page1 = second_pages(dc, 1)[0]
        for q in range(dc.Q + 1):
            row = row_cohomology_dims(dc, q)
            for p in range(dc.P + 1):
                # transposed page coordinates
                assert page1.dim(q, p) == row[p]


def test_page_two_is_cohomology_of_page_one_rows():
    """E_2 dims recomputed independently from the E_1 row complexes."""
    rng = random.Random(23)
    for _ in range(10):
        dc, *_ = random_tensor_double_complex(rng, max_bound=3)
        pages = first_pages(dc, 2)
        e1, e2 = pages
        for q in range(dc.Q + 1):
            spaces = tuple(e1.entries[(p, q)].representatives.basis.domain
                           for p in range(dc.P + 1))
            diffs = tuple(e1.differentials[(p, q)] for p in range(dc.P))
            row = cohomology(CochainComplex(0, dc.P, spaces, diffs)).dims
            for p in range(dc.P + 1):
                assert e2.dim(p, q) == row[p]


def test_tensor_e2_kunneth_and_degeneration():
    rng = random.Random(24)
    for _ in range(10):
        dc, a, b, ha, hb = random_tensor_double_complex(rng, max_bound=3)
        r_inf = max(dc.P, dc.Q) + 2
        pages = first_pages(dc, r_inf)
        e2 = pages[1]
        for p in range(dc.P + 1):
            for q in range(dc.Q + 1):
                expect = (ha[p] if p < len(ha) else 0) * (hb[q] if q < len(hb) else 0)
                assert e2.dim(p, q) == expect
        for page in pages[1:]:
            assert all(d.is_zero() for d in page.differentials.values())
        # the second filtration sees the same dims with axes exchanged
        e2_second = second_pages(dc, 2)[1]
        for p in range(dc.P + 1):
            for q in range(dc.Q + 1):
                assert e2_second.dim(q, p) == e2.dim(p, q)


def test_page_dims_match_kernel_mod_image_of_dr():
    rng = random.Random(25)
    dc, *_ = random_tensor_double_complex(rng, max_bound=3)
    r_inf = max(dc.P, dc.Q) + 2
    pages = first_pages(dc, r_inf)
    for prev, page in zip(pages, pages[1:]):
        r = prev.r
        for (p, q), entry in page.entries.items():
            out = prev.differentials.get((p, q))
            inc = prev.differentials.get((p - r, q + r - 1))
            ker = prev.dim(p, q) - (rank(out) if out else 0)
            im = rank(inc) if inc else 0
            assert entry.dim == ker - im


def test_pages_constant_beyond_bound():
    rng = random.Random(26)
    dc, *_ = random_tensor_double_complex(rng, max_bound=2)
    r_cap = max(dc.P, dc.Q) + 2
    pages = first_pages(dc, dc.P + dc.Q + 2)
    stable = {pq: e.dim for pq, e in pages[r_cap - 1].entries.items()}
    for page in pages[r_cap - 1:]:
        assert {pq: e.dim for pq, e in page.entries.items()} == stable


def test_nonzero_d2_example():
    dc = nonzero_d2_double_complex()
    pages = first_pages(dc, 4)
    e2, e3 = pages[1], pages[2]
    assert e2.dim(0, 1) == 1 and e2.dim(2, 0) == 1
    d2 = e2.differentials[(0, 1)]
    assert rank(d2) == 1
    assert all(e.dim == 0 for e in e3.entries.values())
    cert = certify_convergence(dc)
    assert cert.total_dims == (0, 0, 0, 0)
    assert cert.first_degeneration == 3


def test_rows_exact_except_column_zero_degenerates_at_e2():
    """Rows are surjections with kernel C^q; the second filtration sees
    only the kernel column on page 1 and h(C) on page 2."""
    c_dims = [2, 2, 1]
    c_maps = [[[0, 0], [1, 0]], [[1, 0]]]  # h(C) = (1, 0, 0)
    extra = [1, 2, 1]
    P, Q = 1, 2
    cells = []
    for p in range(P + 1):
        col = []
        for q in range(Q + 1):
            dim = (c_dims[q] + extra[q]) if p == 0 else extra[q]
            col.append(LabeledSpace(tuple(((p, q), i) for i in range(dim))))
        cells.append(tuple(col))
    horiz = []
    for q in range(Q + 1):
        rows = [[F(0)] * (c_dims[q] + extra[q]) for _ in range(extra[q])]
        for i in range(extra[q]):
            rows[i][c_dims[q] + i] = F(1)
        horiz.append(LinearMap(cells[0][q], cells[1][q], freeze_matrix(rows)))
    vert0, vert1 = [], []
    for q in range(Q):
        rows = [[F(0)] * (c_dims[q] + extra[q]) for _ in range(c_dims[q + 1] + extra[q + 1])]
        for i, row in enumerate(c_maps[q]):
            for j, x in enumerate(row):
                rows[i][j] = F(x)
        vert0.append(LinearMap(cells[0][q], cells[0][q + 1], freeze_matrix(rows)))
        vert1.append(LinearMap.zero(cells[1][q], cells[1][q + 1]))
    dc = DoubleComplex(P, Q, tuple(cells), (tuple(horiz),), (tuple(vert0), tuple(vert1)))
    dc.validate()

    pages = second_pages(dc, 3)
    e1, e2 = pages[0], pages[1]
    # page coordinates (p, q) = input cell (q, p): everything in input column 0
    for (p, q), entry in e1.entries.items():
        if q != 0:
            assert entry.dim == 0
    assert [e1.dim(q, 0) for q in range(Q + 1)] == c_dims
    assert [e2.dim(q, 0) for q in range(Q + 1)] == [1, 0, 0]
    assert [d for d in pages[2].differentials.values() if not d.is_zero()] == []
    # matches the direct total cohomology
    assert cohomology(total(dc)).dims == (1, 0, 0, 0)


def test_one_cell_complex_certificate():
    s = LabeledSpace.make("only", 3)
    dc = DoubleComplex(0, 0, ((s,),), (), ((),))
    cert = certify_convergence(dc)
    assert cert.total_dims == (3,)
    assert cert.first_einf[0] == (((0, 0), 3),)
    assert cert.first_degeneration == 1 and cert.second_degeneration == 1
    # E_infinity equals E_1 here
    assert first_pages(dc, 1)[0].dim(0, 0) == 3


def test_certify_convergence_on_tensor_complexes():
    rng = random.Random(27)
    for _ in range(15):
        dc, *_ = random_tensor_double_complex(rng, max_bound=3)
        cert = certify_convergence(dc)
        tot = cohomology(total(dc)).dims
        for deg, cells in cert.first_einf.items():
            assert sum(d for _, d in cells) == tot[deg]
        for deg, cells in cert.second_einf.items():
            assert sum(d for _, d in cells) == tot[deg]


def _two_column_complex(c, d, f_matrices):
    """Columns c and d coupled by the chain map f (checked by validate)."""
    top = max(c.hi, d.hi)

    def pad(cx, q):
        return cx.space(q)

    cells = tuple(tuple(pad(col, q) for q in range(top + 1)) for col in (c, d))
    horiz = ((tuple(LinearMap(pad(c, q), pad(d, q), f_matrices[q])
                    for q in range(top + 1))),)
    vert = (tuple(c.diff(q) if q < c.hi else LinearMap.zero(pad(c, q), pad(c, q + 1))
                  for q in range(top)),
            tuple(d.diff(q) if q < d.hi else LinearMap.zero(pad(d, q), pad(d, q + 1))
                  for q in range(top)))
    dc = DoubleComplex(1, top, cells, horiz, vert)
    dc.validate()
    return dc


def nullhomotopic_cone(rng):
    """Cone of f = d g + g d between two random complexes: (dc, h(C), h(D))."""
    from cohom.generators import random_cochain_complex

    top = rng.randint(1, 3)
    c, hc = random_cochain_complex(rng, max_top=top, max_dim=2)
    d, hd = random_cochain_complex(rng, max_top=top, max_dim=2)
    top = max(c.hi, d.hi)
    # random homotopy g_q : C^q -> D^{q-1}
    g = {}
    for q in range(top + 2):
        rows = [[F(rng.randint(-2, 2)) for _ in range(c.space(q).dim)]
                for _ in range(d.space(q - 1).dim)]
        g[q] = rows
    f_matrices = []
    for q in range(top + 1):
        m = [[F(0)] * c.space(q).dim for _ in range(d.space(q).dim)]
        # d_D . g_q
        for i in range(d.space(q).dim):
            for j in range(c.space(q).dim):
                acc = F(0)
                for t in range(d.space(q - 1).dim):
                    acc += d.diff(q - 1).matrix[i][t] * g[q][t][j] if q - 1 >= 0 else 0
                m[i][j] += acc
        # g_{q+1} . d_C
        for i in range(d.space(q).dim):
            for j in range(c.space(q).dim):
                acc = F(0)
                for t in range(c.space(q + 1).dim):
                    acc += g[q + 1][i][t] * c.diff(q).matrix[t][j]
                m[i][j] += acc
        f_matrices.append(tuple(tuple(r) for r in m))
    return _two_column_complex(c, d, f_matrices), hc, hd


def identity_cone(rng):
    """Cone of the identity of a random complex C: (dc, h(C))."""
    from cohom.generators import random_cochain_complex

    c, hc = random_cochain_complex(rng, max_top=3, max_dim=2)
    f_matrices = [LinearMap.identity(c.space(q)).matrix for q in range(c.hi + 1)]
    return _two_column_complex(c, c, f_matrices), hc


def test_mapping_cone_of_nullhomotopic_map():
    """f = d g + g d is a chain map whose cone splits: H^n(Tot) must be
    h^n(first column) + h^{n-1}(second column), with E_2 = E_1."""
    rng = random.Random(28)
    for _ in range(12):
        dc, hc, hd = nullhomotopic_cone(rng)
        tot_dims = cohomology(total(dc)).dims
        for n in range(len(tot_dims)):
            want = (hc[n] if n < len(hc) else 0) + (hd[n - 1] if 0 <= n - 1 < len(hd) else 0)
            assert tot_dims[n] == want
        pages = first_pages(dc, 2)
        for q in range(dc.Q + 1):
            assert pages[0].dim(0, q) == (hc[q] if q < len(hc) else 0)
            assert pages[0].dim(1, q) == (hd[q] if q < len(hd) else 0)
            assert pages[1].dim(0, q) == pages[0].dim(0, q)
        certify_convergence(dc)


def test_mapping_cone_of_identity_is_acyclic():
    rng = random.Random(29)
    for _ in range(10):
        dc, hc = identity_cone(rng)
        assert all(d == 0 for d in cohomology(total(dc)).dims)
        pages = first_pages(dc, 2)
        for q in range(dc.Q + 1):
            assert pages[0].dim(0, q) == pages[0].dim(1, q) == \
                (hc[q] if q < len(hc) else 0)
            assert pages[1].dim(0, q) == 0 and pages[1].dim(1, q) == 0
        cert = certify_convergence(dc)
        if any(h for h in hc):
            assert cert.first_degeneration == 2


@pytest.mark.parametrize("axis", [0, 1], ids=["first", "second"])
def test_page_representatives_lie_in_the_total_at_their_level(axis):
    """E_r^{a,b} representatives are vectors of total(dc) in F^a with D v in F^{a+r}.

    The filtration degree of a total basis vector is label position 0
    (p) for the first filtration and 1 (q) for the second.
    """
    rng = random.Random(26)
    grids = [nonzero_d2_double_complex()]
    grids += [random_tensor_double_complex(rng, max_bound=3)[0] for _ in range(5)]
    pages_fn = first_pages if axis == 0 else second_pages
    for dc in grids:
        tot = total(dc)
        for page in pages_fn(dc, max(dc.P, dc.Q) + 2):
            for (a, b), entry in page.entries.items():
                n = a + b
                assert entry.representatives.ambient == tot.space(n)
                for v in entry.representatives.vectors:
                    assert all(lab[axis] >= a
                               for lab, x in zip(tot.space(n).labels, v) if x)
                    dv = tot.diff(n).apply(v)
                    assert all(lab[axis] >= a + page.r
                               for lab, x in zip(tot.space(n + 1).labels, dv) if x)
