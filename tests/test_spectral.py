import json
import random
from fractions import Fraction

import pytest

import cohom.spectral as spectral
from cohom.cech import cech_sheaf_double_complex
from cohom.cli import main
from cohom.complexes import CochainComplex, cohomology, cohomology_dims
from cohom.generators import (
    nonzero_d2_double_complex,
    random_function_sheaf,
    random_tensor_double_complex,
)
from cohom.grid import DoubleComplex, double_complex_from_json, total
from cohom.exact import LawViolation
from cohom.linalg import LabeledSpace, LinearMap, freeze_matrix
from cohom.presets import build_p1
from cohom.spectral import certify_convergence, first_pages, second_pages

F = Fraction


def d_rank(page, p, q):
    """Rank of the 0/1 matching d_r out of E_r^{p,q}: its number of distinct targets."""
    return len({t for _, t in page.d_pairs(p, q)})


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
    page = first_pages(dc, 1)[0]
    for p, q in page.span:
        assert page.dim(p, q) == dc.cell(p, q).dim


def test_zero_horizontal_gives_cells_on_second_page_one():
    dc = zero_vertical_complex({(0, 0): 2, (1, 0): 1, (0, 1): 3, (1, 1): 1})
    page = second_pages(dc, 1)[0]
    # transposed page coordinates: entry (p, q) is input cell (q, p)
    for p, q in page.span:
        assert page.dim(p, q) == dc.cell(q, p).dim


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
    assert d_rank(page1, 0, 0) == 1


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
            spaces = tuple(LabeledSpace.make(f"E{p}", e1.dim(p, q)) for p in range(dc.P + 1))
            diffs = []
            for p in range(dc.P):
                rows = [[0] * spaces[p].dim for _ in range(spaces[p + 1].dim)]
                for s, t in e1.d_pairs(p, q):
                    rows[t][s] = 1
                diffs.append(LinearMap(spaces[p], spaces[p + 1], freeze_matrix(rows)))
            row = cohomology(CochainComplex(0, dc.P, spaces, tuple(diffs))).dims
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
            assert not any(page.d_pairs(p, q) for p, q in page.span)
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
        for p, q in page.span:
            ker = prev.dim(p, q) - d_rank(prev, p, q)
            im = d_rank(prev, p - r, q + r - 1)
            assert page.dim(p, q) == ker - im


def test_pages_constant_beyond_bound():
    rng = random.Random(26)
    dc, *_ = random_tensor_double_complex(rng, max_bound=2)
    r_cap = max(dc.P, dc.Q) + 2
    pages = first_pages(dc, dc.P + dc.Q + 2)
    stable = {pq: pages[r_cap - 1].dim(*pq) for pq in pages[r_cap - 1].span}
    for page in pages[r_cap - 1:]:
        assert {pq: page.dim(*pq) for pq in page.span} == stable


def test_nonzero_d2_example():
    dc = nonzero_d2_double_complex()
    pages = first_pages(dc, 4)
    e2, e3 = pages[1], pages[2]
    assert e2.dim(0, 1) == 1 and e2.dim(2, 0) == 1
    assert d_rank(e2, 0, 1) == 1
    assert all(e3.dim(p, q) == 0 for p, q in e3.span)
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
    for p, q in e1.span:
        if q != 0:
            assert e1.dim(p, q) == 0
    assert [e1.dim(q, 0) for q in range(Q + 1)] == c_dims
    assert [e2.dim(q, 0) for q in range(Q + 1)] == [1, 0, 0]
    assert [pq for pq in pages[2].span if pages[2].d_pairs(*pq)] == []
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
            for a, b in page.span:
                n = a + b
                reps = page.representatives(a, b)
                assert len(reps) == page.dim(a, b)
                assert all(len(v) == tot.space(n).dim for v in reps)
                for v in reps:
                    assert all(lab[axis] >= a
                               for lab, x in zip(tot.space(n).labels, v) if x)
                    dv = tot.diff(n).apply(v)
                    assert all(lab[axis] >= a + page.r
                               for lab, x in zip(tot.space(n + 1).labels, dv) if x)


# a line K^{0,0} -> K^{1,0} -> K^{2,0} of one-dimensional cells, the first map
# the identity: Tot^0 is a source paired at distance 1 with the target Tot^1,
# and Tot^2 is an essential
LINE = {"P": 2, "Q": 0, "dims": [[1], [1], [1]], "horiz": [[[["1"]]], [[["0"]]]],
        "vert": [[], [], []]}


def _target_also_a_source(gens):
    dist, column, _ = gens[1][0]
    gens[1][0] = (dist, column, 0)  # the target now maps on to the essential at distance 1


def _target_farther_than_its_source(gens):
    dist, column, target = gens[1][0]
    gens[1][0] = (dist + 1, column, target)


def _target_off_its_cell(gens):
    dist, column, _ = gens[0][0]
    gens[0][0] = (dist, column, 5)  # Tot^1 has one index, so 5 lies on no cell


def _target_below_the_first_index(gens):
    dist, column, _ = gens[0][0]
    gens[0][0] = (dist, column, -1)  # no index, though Python would read it as the last


# two one-dimensional copies of LINE's first map side by side: two sources
# in Tot^0, each paired with its own target in Tot^1 at distance 1
TWO_LINES = {"P": 1, "Q": 0, "dims": [[2], [2]], "horiz": [[[["1", "0"], ["0", "1"]]]],
             "vert": [[], []]}


def _two_sources_share_a_target(gens):
    dist, column, _ = gens[0][1]
    gens[0][1] = (dist, column, gens[0][0][2])


def _two_sources_share_a_target_and_no_other(gens):
    _two_sources_share_a_target(gens)
    _, column, _ = gens[1][1 - gens[0][0][2]]
    gens[1][1 - gens[0][0][2]] = (None, column, None)  # the other target turns essential


# a square: K^{0,0} -> K^{1,0} the identity and every other map zero, so
# Tot^1 holds the target at level 1 and an essential of K^{0,1} at level 0
SQUARE = {"P": 1, "Q": 1, "dims": [[1, 1], [1, 1]], "horiz": [[[["1"]], [["0"]]]],
          "vert": [[[["0"]]], [[["0"]]]]}


def _target_off_its_level(gens):
    dist, column, target = gens[0][0]
    gens[0][0] = (dist, column, 1 - target)


def _target_without_a_source(gens):
    _, column, _ = gens[0][0]
    gens[0][0] = (None, column, None)  # the source turns essential, its target stays a target


MUTATIONS = pytest.mark.parametrize("grid, mutate, pages, law", [
    (LINE, _target_also_a_source, "1", "d_r squares to zero"),
    (LINE, _target_farther_than_its_source, "2", "E_{r+1} = ker d_r / im d_r"),
    (LINE, _target_off_its_cell, "1", "d_r has bidegree (r, 1-r)"),
    (LINE, _target_below_the_first_index, "1", "d_r has bidegree (r, 1-r)"),
    (TWO_LINES, _two_sources_share_a_target, "2", "E_{r+1} = ker d_r / im d_r"),
    (TWO_LINES, _two_sources_share_a_target_and_no_other, "2", "E_{r+1} = ker d_r / im d_r"),
    (SQUARE, _target_off_its_level, "1", "d_r has bidegree (r, 1-r)"),
    (LINE, _target_without_a_source, "2", "E_{r+1} = ker d_r / im d_r"),
], ids=["target_is_a_source", "distance_mismatch", "target_off_its_cell", "negative_target",
        "shared_target", "shared_target_no_other", "target_off_its_level",
        "target_without_a_source"])


def _mutate_pairs(monkeypatch, mutate):
    pairs = spectral._pairs

    def mutated(tot, axis):
        level, gens = pairs(tot, axis)
        mutate(gens)
        return level, gens

    monkeypatch.setattr(spectral, "_pairs", mutated)


@MUTATIONS
def test_mutated_pairing_fails_its_page_law(tmp_path, capsys, monkeypatch, grid, mutate,
                                            pages, law):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    assert main(["spectral", str(path), "--pages", pages]) == 0
    capsys.readouterr()
    _mutate_pairs(monkeypatch, mutate)
    assert main(["spectral", str(path), "--pages", pages]) == 2
    assert f"law '{law}' fails" in capsys.readouterr().err


@MUTATIONS
def test_mutated_pairing_fails_the_same_law_everywhere(tmp_path, capsys, monkeypatch, grid,
                                                       mutate, pages, law):
    """The pages of `cohom spectral`, the library certificate and cech_hyper's
    pages-and-certificate all read one checked pairing, so a broken pairing
    fails the same named law through each of them."""
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    dc = double_complex_from_json(grid)
    tot = total(dc)
    spectral._analyse(dc, tot, cohomology_dims(tot))
    certify_convergence(dc)
    _mutate_pairs(monkeypatch, mutate)
    assert main(["spectral", str(path), "--pages", pages]) == 2
    assert f"law '{law}' fails" in capsys.readouterr().err
    for entry in (lambda: certify_convergence(dc),
                  lambda: spectral._analyse(dc, tot, cohomology_dims(tot))):
        with pytest.raises(LawViolation) as failure:
            entry()
        assert failure.value.law == law


def test_hyper_pages_end_on_the_certificate(monkeypatch):
    """cech_hyper prints pages out to E_inf; its last page must be the E_inf
    that the certificate reads off the pairing."""
    compute = spectral._compute_pages
    monkeypatch.setattr(spectral, "_compute_pages", lambda *args: compute(*args)[:1])
    dc = nonzero_d2_double_complex()
    tot = total(dc)
    with pytest.raises(LawViolation) as failure:
        spectral._analyse(dc, tot, cohomology_dims(tot))
    assert failure.value.law == "the last page is E_inf"


def _cover_grids(rng, count):
    """Cech-sheaf grids of random function sheaves, with one to three levels
    of one sheaf joined by identity or zero level maps (never two identities
    in a row, so the level maps compose to zero)."""
    grids = []
    for _ in range(count):
        sheaf = random_function_sheaf(rng, max_opens=4, max_points=5)
        maps, ident = [], False
        for _ in range(rng.randint(0, 2)):
            ident = not ident and rng.random() < 0.7
            level = {}
            for f in sheaf.nerve.faces:
                space = sheaf.space(f)
                level[f] = LinearMap.identity(space) if ident else LinearMap.zero(space, space)
            maps.append(level)
        grids.append(cech_sheaf_double_complex(sheaf.nerve, [sheaf] * (len(maps) + 1), maps))
    return grids


def _certificate_off_pages(dc):
    """(E_inf sums, degeneration page) of each filtration, read off its pages
    built out to E_inf: E_inf is the last page, and the degeneration page is
    the page after the last one whose d_r is nonzero."""
    r_inf = max(dc.P, dc.Q) + 2
    out = []
    for pages, (A, B) in ((first_pages(dc, r_inf), (dc.P, dc.Q)),
                          (second_pages(dc, r_inf), (dc.Q, dc.P))):
        last = pages[-1]
        einf = {n: tuple(((a, n - a), last.dim(a, n - a))
                         for a in range(max(0, n - B), min(A, n) + 1))
                for n in range(A + B + 1)}
        nonzero = [page.r for page in pages if any(d_rank(page, *pq) for pq in page.span)]
        out.append((einf, max(nonzero, default=0) + 1))
    return out


def test_certificate_matches_the_pages():
    """certify_convergence reads E_inf and the degeneration page off the
    pairing without building a page; both agree with the built pages."""
    rng = random.Random(2028)
    grids = [random_tensor_double_complex(rng, max_bound=b)[0]
             for b in (1, 2, 3, 4) for _ in range(60)]
    grids += [nonzero_d2_double_complex(), cech_sheaf_double_complex(*build_p1(4))]
    grids += _cover_grids(rng, 60)
    assert len(grids) >= 300
    for dc in grids:
        cert = certify_convergence(dc)
        (first, first_r), (second, second_r) = _certificate_off_pages(dc)
        assert cert.total_dims == cohomology(total(dc)).dims
        assert (cert.first_einf, cert.first_degeneration) == (first, first_r)
        assert (cert.second_einf, cert.second_degeneration) == (second, second_r)


def test_a_certificate_builds_no_page(monkeypatch):
    """certify_convergence reads the checked pairing alone: pages are built
    only where they are printed."""
    def fail(*args, **kwargs):
        pytest.fail("a page was built")

    grids = [nonzero_d2_double_complex(), cech_sheaf_double_complex(*build_p1(4)),
             *(random_tensor_double_complex(random.Random(seed))[0] for seed in range(5))]
    monkeypatch.setattr(spectral, "_compute_pages", fail)
    monkeypatch.setattr(spectral.SpectralPage, "__init__", fail)
    for dc in grids:
        certify_convergence(dc)
