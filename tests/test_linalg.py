import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import rank_of_rows as oracle_rank, reduce_columns_by_fractions, rref_by_fractions

from cohom.generators import (
    random_cochain_complex,
    random_function_sheaf,
    random_invertible,
    random_tensor_double_complex,
)
from cohom.exact import ZERO, Record, rat, rat_to_str, reduce_columns
from cohom.linalg import (
    AmbientMismatch,
    ContainmentViolated,
    LabeledSpace,
    LinearMap,
    SpanBuilder,
    Subspace,
    freeze_matrix,
    image_basis,
    invert,
    kernel_basis,
    map_from_json,
    products_agree,
    rank,
    rref,
    solve,
    subquotient,
)

F = Fraction


def lmap(rows, ncols=None):
    nrows = len(rows)
    ncols = ncols if ncols is not None else (len(rows[0]) if rows else 0)
    dom = LabeledSpace.make("d", ncols)
    cod = LabeledSpace.make("c", nrows)
    return LinearMap(dom, cod, freeze_matrix(rows))


def test_rank_zero_map():
    assert rank(LinearMap.zero(LabeledSpace.make("a", 3), LabeledSpace.make("b", 2))) == 0


def test_rank_identity():
    assert rank(LinearMap.identity(LabeledSpace.make("a", 3))) == 3


def test_rank_proportional_rows():
    assert rank(lmap([[1, 2], [2, 4]])) == 1


def test_kernel_of_row_map():
    ker = kernel_basis(lmap([[1, 1]]))
    assert ker.dim == 1
    (v,) = ker.vectors
    assert v[0] == -v[1] != 0


def test_kernel_of_identity_is_zero():
    assert kernel_basis(LinearMap.identity(LabeledSpace.make("a", 2))).dim == 0


def test_kernel_of_zero_map_is_everything():
    m = LinearMap.zero(LabeledSpace.make("a", 3), LabeledSpace.make("b", 2))
    assert kernel_basis(m).dim == 3


def test_kernel_of_a_map_into_the_zero_space_is_labelled_like_any_kernel():
    ker = kernel_basis(LinearMap.zero(LabeledSpace.make("a", 3), LabeledSpace.make("b", 0)))
    assert ker.basis.domain.labels == (("ker", 0), ("ker", 1), ("ker", 2))
    assert ker.basis.rows == (((0, 1),), ((1, 1),), ((2, 1),))


def test_image_cases():
    assert image_basis(LinearMap.zero(LabeledSpace.make("a", 2), LabeledSpace.make("b", 2))).dim == 0
    assert image_basis(LinearMap.identity(LabeledSpace.make("a", 2))).dim == 2
    im = image_basis(lmap([[1], [2]]))
    assert im.vectors == [(F(1), F(2))]


def test_solve_identity_and_zero():
    assert solve(LinearMap.identity(LabeledSpace.make("a", 2)), (F(1), F(0))) == (F(1), F(0))
    m = LinearMap.zero(LabeledSpace.make("a", 2), LabeledSpace.make("b", 1))
    assert solve(m, (F(1),)) is None


def test_solve_underdetermined_substitutes_back():
    m = lmap([[1, 1]])
    x = solve(m, (F(2),))
    assert x is not None
    assert m.apply(x) == (F(2),)


def span(amb, vectors):
    """The subspace of amb spanned by the earliest independent vectors."""
    return image_basis(LinearMap(amb, LabeledSpace.make("v", len(vectors)), vectors).transpose())


def _assert_section_completes_b(z, b, q, sec):
    """Every section column lies in z, and b plus the section is independent."""
    for v in sec.columns:
        assert oracle_rank(z.vectors + [v]) == z.dim
    assert oracle_rank(b.vectors + sec.columns) == b.dim + q.dim


def test_subquotient_plain():
    amb = LabeledSpace.make("a", 3)
    z = Subspace(amb, LinearMap.identity(amb))
    b = span(amb, [(F(1), F(0), F(0))])
    q, sec = subquotient(z, b)
    assert q.dim == 2
    _assert_section_completes_b(z, b, q, sec)


def test_subquotient_z_equals_b():
    amb = LabeledSpace.make("a", 2)
    z = span(amb, [(F(1), F(1))])
    q, _ = subquotient(z, z)
    assert q.dim == 0


def test_subquotient_kernel_vs_image():
    amb = LabeledSpace.make("a", 2)
    z = kernel_basis(LinearMap(amb, LabeledSpace.make("w", 1), freeze_matrix([[0, 1]])))
    b = image_basis(LinearMap(LabeledSpace.make("u", 1), amb, freeze_matrix([[1], [0]])))
    # both are the first axis, so the quotient collapses
    q, _ = subquotient(z, b)
    assert q.dim == 0


def test_subquotient_errors():
    amb = LabeledSpace.make("a", 2)
    other = LabeledSpace.make("b", 2)
    z = span(amb, [(F(1), F(0))])
    b_other = span(other, [(F(1), F(0))])
    with pytest.raises(AmbientMismatch):
        subquotient(z, b_other)
    b_out = span(amb, [(F(0), F(1))])
    with pytest.raises(ContainmentViolated):
        subquotient(z, b_out)


def test_rational_serialization():
    assert rat_to_str(F(3, 2)) == "3/2"
    assert rat_to_str(F(-4, 2)) == "-2"


def _read(rows, nrows=None, ncols=None):
    """The entries map_from_json stores for rows, shaped as given unless told."""
    nrows = len(rows) if nrows is None else nrows
    ncols = (len(rows[0]) if rows else 0) if ncols is None else ncols
    return map_from_json(rows, LabeledSpace.make("d", ncols), LabeledSpace.make("c", nrows),
                         "m").rows


def test_matrix_from_json_accepts_integers_and_rational_strings():
    assert _read([[1, "-2/3"], ["4", 0]]) == (((0, F(1)), (1, F(-2, 3))), ((0, F(4)),))


def _is_stored_entry(got, value) -> bool:
    """got equals value, and is an int exactly when value is integral."""
    return got == value and (type(got) is int) == (value.denominator == 1) \
        and type(got) in (int, Fraction)


def test_matrix_from_json_stores_no_zero():
    assert _read([[0, "0/5", "-0", "+0", "0/7"]]) == ((),)


@pytest.mark.parametrize("text", ["--5", "+5", " 5 ", "1_0", "\u0663", "-0", "007", "3/6",
                                  "12", "-40", "+0", "0/7", " 12 ", "\uff11\uff12", "4/2",
                                  "1.5", "2e3", "9" * 5000])
def test_matrix_from_json_strings_parse_as_fraction_does(text):
    """Every string entry reads exactly as Fraction reads it, an int when integral."""
    try:
        expected = Fraction(text)
    except ValueError:
        with pytest.raises(ValueError, match="m: entry at row 0, column 0"):
            _read([[text]])
        return
    (row,) = _read([[text]])
    if expected == 0:
        assert row == ()
    else:
        ((column, got),) = row
        assert column == 0 and _is_stored_entry(got, expected)


@pytest.mark.parametrize("bad", [0.1, True, False, None, "x", "1/0", [1], 1.0])
def test_matrix_from_json_names_the_bad_entry(bad):
    with pytest.raises(ValueError, match="m: entry at row 1, column 0"):
        _read([["1", "2"], [bad, "3"]])


@pytest.mark.parametrize("rows,nrows,ncols", [([], 0, 2), ([], 2, 0), ([[], []], 2, 0)])
def test_map_from_json_reads_empty_rows_as_a_zero_dimensional_map(rows, nrows, ncols):
    assert _read(rows, nrows, ncols) == ((),) * nrows


@pytest.mark.parametrize("rows,nrows,ncols", [([[0, 0]], 0, 2), ([[0], [0]], 2, 0)])
def test_map_from_json_refuses_entries_on_a_zero_dimensional_map(rows, nrows, ncols):
    """The [] rule reads the rows as given, so a row of zeros is still entries."""
    with pytest.raises(ValueError, match=f"^m: expected a {nrows} x {ncols} matrix, got entries$"):
        _read(rows, nrows, ncols)


@pytest.mark.parametrize("rows,nrows,ncols", [([[]], 2, 0), ([[], [], []], 0, 0), ([[]], 0, 2)])
def test_map_from_json_refuses_a_wrong_count_of_empty_rows(rows, nrows, ncols):
    """Besides [], a zero-dimensional map takes exactly nrows empty rows."""
    with pytest.raises(ValueError,
                       match=rf"^m: matrix has wrong shape \(expected {nrows} x {ncols}\)$"):
        _read(rows, nrows, ncols)


def test_map_from_json_checks_rows_then_entries_then_shape():
    for rows, message in [("x", "m: a matrix must be a list of rows"),
                          ([["1", "2"], "3"], "m: a matrix must be a list of rows"),
                          ([["1"], ["x", "2", "3"]], "m: entry at row 1, column 0"),
                          ([["1", "2"], ["3"]], r"m: matrix has wrong shape \(expected 2 x 2\)")]:
        with pytest.raises(ValueError, match=f"^{message}"):
            _read(rows, 2, 2)


def test_rat_gives_stored_entries_and_refuses_floats_and_booleans():
    assert type(rat(7)) is int and rat(7) == 7
    assert type(rat(F(4, 2))) is int and rat(F(4, 2)) == 2
    assert rat(F(-3, 6)) == F(-1, 2) and type(rat(F(-3, 6))) is Fraction
    for bad in (0.1, 1.0, True, False, "1/2", None):
        with pytest.raises(TypeError, match=repr(bad).replace(".", r"\.")):
            rat(bad)
    with pytest.raises(TypeError):
        freeze_matrix([[F(3, 2), False]])
    for bad in (1.5, 0.0, True, False):
        with pytest.raises(TypeError):
            LinearMap(LabeledSpace.make("d", 1), LabeledSpace.make("c", 1), ((bad,),))
    ((a, b),) = freeze_matrix([[F(6, 3), F(1, 3)]])
    assert type(a) is int and a == 2 and b == F(1, 3)


small_fractions = st.builds(F, st.integers(-6, 6), st.integers(1, 3))


@st.composite
def matrices(draw, max_size=5):
    nrows = draw(st.integers(0, max_size))
    ncols = draw(st.integers(0, max_size))
    rows = [[draw(small_fractions) for _ in range(ncols)] for _ in range(nrows)]
    return lmap(rows, ncols=ncols)


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_rank_nullity(m):
    assert rank(m) + kernel_basis(m).dim == m.domain.dim


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_rank_matches_independent_bareiss_rank(m):
    assert rank(m) == oracle_rank(m.matrix)


@given(matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_solve_consistent_systems(m, data):
    x = tuple(data.draw(small_fractions) for _ in range(m.domain.dim))
    target = m.apply(x)
    got = solve(m, target)
    assert got is not None
    assert m.apply(got) == target


def test_subquotient_dims_randomized():
    rng = random.Random(20240811)
    for _ in range(100):
        adim = rng.randint(1, 6)
        amb = LabeledSpace.make("a", adim)
        nvecs = rng.randint(0, adim)
        vecs = [tuple(F(rng.randint(-3, 3)) for _ in range(adim)) for _ in range(nvecs)]
        b = span(amb, vecs)
        # extend b by a few more vectors to build z containing it
        extra = [tuple(F(rng.randint(-3, 3)) for _ in range(adim))
                 for _ in range(rng.randint(0, adim))]
        z = span(amb, b.vectors + extra)
        q, sec = subquotient(z, b)
        assert q.dim == z.dim - b.dim
        _assert_section_completes_b(z, b, q, sec)


def test_invert_roundtrip():
    m = lmap([[2, 1], [1, 1]])
    inv = invert(m)
    prod = m.compose(LinearMap(m.codomain, m.domain, inv.matrix))
    assert prod.matrix == LinearMap.identity(m.codomain).matrix


def _dense_product(a, b, ncols):
    """Row-by-column product written out entry by entry."""
    return tuple(tuple(sum((a[i][j] * b[j][k] for j in range(len(b))), F(0))
                       for k in range(ncols))
                 for i in range(len(a)))


def _random_rational_rows(rng, nrows, ncols):
    """Sparse rational entries, with some all-zero rows and columns."""
    zero_rows = {i for i in range(nrows) if rng.random() < 0.25}
    zero_cols = {j for j in range(ncols) if rng.random() < 0.25}
    return [[F(rng.randint(-7, 7), rng.choice([1, 2, 3, 5]))
             if i not in zero_rows and j not in zero_cols and rng.random() < 0.4 else F(0)
             for j in range(ncols)] for i in range(nrows)]


def test_compose_and_apply_match_dense_products():
    rng = random.Random(5150)
    for _ in range(200):
        n, m, k = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
        a = lmap(_random_rational_rows(rng, n, m), ncols=m)
        b = LinearMap(LabeledSpace.make("e", k), a.domain,
                      freeze_matrix(_random_rational_rows(rng, m, k)))
        ab = a.compose(b)
        assert ab.domain == b.domain and ab.codomain == a.codomain
        assert ab.matrix == _dense_product(a.matrix, b.matrix, k)
        assert (not any(ab.rows)) == all(x == 0 for row in ab.matrix for x in row)
        v = [F(rng.randint(-4, 4), rng.choice([1, 3])) if rng.random() < 0.5 else F(0)
             for _ in range(m)]
        assert a.apply(v) == tuple(sum((a.matrix[i][j] * v[j] for j in range(m)), F(0))
                                   for i in range(n))


def _stored_canonically(m):
    """Every stored row has nonzero entries only, in strictly increasing column order."""
    return all(x != 0 for row in m.rows for _, x in row) and \
        all(all(a[0] < b[0] for a, b in zip(row, row[1:])) for row in m.rows)


def test_sparse_and_dense_constructors_agree():
    rng = random.Random(2718)
    for _ in range(100):
        n, m = rng.randint(0, 5), rng.randint(0, 5)
        dense = lmap(_random_rational_rows(rng, n, m), ncols=m)
        pairs = [[(j, x) for j, x in enumerate(row) if x] for row in dense.matrix]
        for row in pairs:
            rng.shuffle(row)
        sparse = LinearMap.sparse(dense.domain, dense.codomain, pairs)
        assert sparse == dense and hash(sparse) == hash(dense)
        assert _stored_canonically(sparse)


def test_generated_maps_survive_the_dense_round_trip():
    rng = random.Random(314)
    maps = []
    for _ in range(20):
        maps += random_cochain_complex(rng)[0].diffs
        maps += random_invertible(rng, rng.randint(0, 4))
        dc = random_tensor_double_complex(rng)[0]
        maps += [m for col in dc.horiz + dc.vert for m in col]
        maps += random_function_sheaf(rng).restrictions.values()
    for m in maps:
        assert LinearMap(m.domain, m.codomain, m.matrix) == m
        assert _stored_canonically(m)


def test_no_zero_is_stored_after_cancellation():
    a = lmap([[1, 1]])
    ab = a.compose(LinearMap(LabeledSpace.make("e", 1), a.domain, freeze_matrix([[1], [-1]])))
    assert ab.rows == ((),)
    m = lmap([[1, 2], [3, 4]])
    zero = LinearMap.zero(m.domain, m.domain)
    assert m.compose(zero).rows == ((), ())
    row = lmap([[2, 0, 3]])
    half = LinearMap(row.domain, row.domain,
                     freeze_matrix([[F(-1, 2), 0, 0], [0, 1, 0], [0, 0, F(-1, 2)]]))
    assert row.compose(half).rows == (((0, F(-1)), (2, F(-3, 2))),)
    assert all(_stored_canonically(x) for x in (m.compose(invert(m)), m.compose(zero),
                                                 m.transpose()))


def test_negated_block_is_the_entrywise_negation():
    rng = random.Random(1618)
    for _ in range(50):
        nrows, ncols = rng.randint(0, 4), rng.randint(0, 4)
        m = lmap([[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ncols)]
                  for _ in range(nrows)], ncols)
        negated = LinearMap.from_blocks(m.domain, m.codomain, [0], [0], [(0, 0, -1, m)])
        assert negated == LinearMap(m.domain, m.codomain,
                                    tuple(tuple(-x for x in row) for row in m.matrix))
        dom = LabeledSpace.make("s", 2 * ncols)
        both = LinearMap.from_blocks(dom, m.codomain, [0, ncols], [0],
                                     [(0, 0, 1, m), (0, 1, -1, m)])
        assert both == LinearMap(dom, m.codomain,
                                 tuple(row + tuple(-x for x in row) for row in m.matrix))
        keyed = LinearMap.from_blocks(dom, m.codomain, {(0, 1): 0, (1, 0): ncols}, {(0, 0): 0},
                                      [((0, 0), (1, 0), -1, m), ((0, 0), (0, 1), 1, m)])
        assert keyed == both  # offsets keyed by cell, as grid._merge keys them
        assert all(map(_stored_canonically, (negated, both, keyed)))


sparse_entries = st.one_of(st.just(0), st.just(0), st.integers(-3, 3), small_fractions)


@st.composite
def law_squares(draw):
    """(g, f, h, e, V0, V2): g f and h e both map V0 -> V2, any dimension 0..3,
    with mostly zero int or Fraction entries and each map possibly None; in
    some draws h e rewrites g f (the same maps, or g f after an identity), so
    the law holds without being trivial, or is g f with one entry off by 1/2."""
    v0, v1, v2, w = (LabeledSpace.make(n, draw(st.integers(0, 3))) for n in "abcw")

    def sparse_map(dom, cod):
        return LinearMap(dom, cod, freeze_matrix(
            [[draw(sparse_entries) for _ in range(dom.dim)] for _ in range(cod.dim)]))

    f, g = sparse_map(v0, v1), sparse_map(v1, v2)
    case = draw(st.sampled_from(["random", "same", "through_identity", "one_entry_off"]))
    if case == "same":
        h, e = LinearMap.sparse(v1, v2, g.rows), LinearMap.sparse(v0, v1, f.rows)
    elif case in ("through_identity", "one_entry_off"):
        h, e = g.compose(f), LinearMap.identity(v0)
        if case == "one_entry_off" and v0.dim and v2.dim:
            dense = [list(row) for row in h.matrix]
            dense[draw(st.integers(0, v2.dim - 1))][draw(st.integers(0, v0.dim - 1))] += F(1, 2)
            h = LinearMap(v0, v2, freeze_matrix(dense))
    else:
        e = sparse_map(v0, w)
        h = sparse_map(w, v2)
    g, f, h, e = (None if draw(st.integers(0, 5)) == 0 else m for m in (g, f, h, e))
    return g, f, h, e, v0, v2


@given(law_squares())
@settings(max_examples=300, deadline=None)
def test_the_law_kernel_agrees_with_compose_then_compare(square):
    g, f, h, e, v0, v2 = square

    def product(a, b):
        return a.compose(b) if a is not None and b is not None else LinearMap.zero(v0, v2)

    assert products_agree(g, f, h, e) == (product(g, f) == product(h, e))
    assert products_agree(g, f) == (not any(product(g, f).rows))


@pytest.mark.parametrize("n", [0, 1, 2, 5])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_invertible_returns_its_inverse(seed, n):
    m, inv = random_invertible(random.Random(seed), n)
    eye = LinearMap.identity(m.domain)
    assert m.compose(inv) == eye and inv.compose(m) == eye


@st.composite
def column_problems(draw):
    """(dense rows, column count, column levels, row levels): rational
    entries, some non-integral, with zero columns and repeated (rescaled)
    columns."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    cols = []
    for _ in range(ncols):
        kind = draw(st.sampled_from(["random", "random", "zero", "repeat"]))
        if kind == "zero" or nrows == 0:
            cols.append([F(0)] * nrows)
        elif kind == "repeat" and cols:
            c = draw(st.sampled_from([F(1), F(-1), F(2), F(1, 3)]))
            cols.append([c * x for x in draw(st.sampled_from(cols))])
        else:
            cols.append([draw(small_fractions) if draw(st.booleans()) else F(0)
                         for _ in range(nrows)])
    rows = [[col[i] for col in cols] for i in range(nrows)]
    levels = st.lists(st.integers(0, 2), min_size=ncols, max_size=ncols)
    row_levels = st.lists(st.integers(0, 2), min_size=nrows, max_size=nrows)
    return rows, ncols, draw(levels), draw(row_levels)


@given(column_problems(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_reduce_columns_matches_the_fraction_reduction(problem, filtered):
    """The fraction-free reducer gives the lows of the Fraction reduction, and
    its integer R_j / V_j[j] and V_j / V_j[j] equal the Fraction R_j and V_j,
    under the index order and under the (-p, index) filtration order."""
    rows, ncols, p_col, p_row = problem
    m = lmap(rows, ncols=ncols)
    if filtered:
        order = sorted(range(ncols), key=lambda j: (-p_col[j], j))
        key = lambda i: (-p_row[i], i)  # noqa: E731
    else:
        order, key = range(ncols), None
    want = reduce_columns_by_fractions(rows, ncols, order, key)
    got = list(reduce_columns(m.transpose().rows, order, key))
    assert [j for j, *_ in got] == list(order)
    for j, r, v, low in got:
        w_r, w_v, w_low = want[j]
        assert low == w_low
        assert all(type(x) is int and x for x in (*r.values(), *v.values()))
        s = v[j]
        assert [F(r.get(i, 0), s) for i in range(len(rows))] == w_r
        assert [F(v.get(k, 0), s) for k in range(ncols)] == w_v


@st.composite
def dense_rows(draw):
    """Dense rows of int and Fraction entries, with some all-zero rows and columns."""
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    zero_rows = draw(st.sets(st.integers(0, max(nrows - 1, 0)), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, max(ncols - 1, 0)), max_size=2))
    entry = st.one_of(st.integers(-6, 6), small_fractions, st.just(ZERO))
    return [[ZERO if i in zero_rows or j in zero_cols else draw(entry) for j in range(ncols)]
            for i in range(nrows)]


@given(dense_rows())
@settings(max_examples=200, deadline=None)
def test_rref_matches_the_fraction_gauss_jordan(rows):
    """rref, read off one column reduction, equals the textbook Gauss-Jordan
    over Fraction, and its entries are stored entries (int when integral)."""
    pivots, reduced = rref(rows)
    assert (pivots, reduced) == rref_by_fractions(rows)
    assert all(_is_stored_entry(x, F(x)) for row in reduced for x in row)


def test_rref_of_empty_and_zero_matrices():
    assert rref([]) == rref_by_fractions([]) == ([], [])
    assert rref([(), ()]) == rref_by_fractions([(), ()]) == ([], [])
    assert rref([(0, 0, 0)]) == rref_by_fractions([(0, 0, 0)]) == ([], [])
    assert rref([(0, F(2, 3), 4), (0, 1, 6)]) == ([1], [(0, 1, 6)])


@st.composite
def span_sequences(draw):
    """(length, vectors): random vectors, zero vectors, repeats and Fraction
    multiples of earlier vectors, in a random order."""
    length = draw(st.integers(0, 5))
    vectors: list = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["random", "random", "zero", "repeat", "multiple"]))
        if kind == "zero":
            vectors.append((ZERO,) * length)
        elif kind in ("repeat", "multiple") and vectors:
            c = F(1) if kind == "repeat" else draw(st.sampled_from([F(-1), F(3), F(2, 5)]))
            vectors.append(tuple(c * x for x in draw(st.sampled_from(vectors))))
        else:
            vectors.append(tuple(draw(small_fractions) if draw(st.booleans()) else ZERO
                                 for _ in range(length)))
    return length, vectors


@given(span_sequences())
@settings(max_examples=150, deadline=None)
def test_span_builder_grows_exactly_when_the_oracle_rank_does(problem):
    length, vectors = problem
    span = SpanBuilder(length)
    seen: list = []
    for v in vectors:
        before = oracle_rank(seen)
        seen.append(v)
        assert span.add(v) == (oracle_rank(seen) > before)


def test_span_builder_refuses_zero_repeated_and_multiple_vectors():
    span = SpanBuilder(3)
    assert span.add((1, 2, 0))
    assert not span.add((0, 0, 0))
    assert not span.add((1, 2, 0))
    assert not span.add((F(-1, 3), F(-2, 3), 0))
    assert span.add((0, F(1, 2), 1))
    assert not span.add((2, F(9, 2), 1))
    assert span.add((0, 0, 7))
    assert not span.add((F(5, 7), 1, 1))


@pytest.mark.parametrize("v", [(1, 2), (1, 2, 0, 0), ()])
def test_span_builder_refuses_a_vector_of_another_length(v):
    with pytest.raises(ValueError, match=f"length {len(v)} added to a span of length 3"):
        SpanBuilder(3).add(v)


class Pair(Record):
    first: object
    second: object


class OtherPair(Record):
    first: object
    second: object


def test_a_record_cannot_be_assigned_or_deleted():
    pair, space = Pair(1, 2), LabeledSpace(("a",))
    for obj, name in ((pair, "first"), (pair, "extra"), (space, "labels"), (space, "dim")):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(obj, name, 0)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(obj, name)
    assert (pair.first, pair.second, space.labels, space.dim) == (1, 2, ("a",), 1)


def test_record_equality_and_hash_follow_the_fields_in_order():
    assert Pair._fields == ("first", "second")
    assert Pair(1, (2, 3)) == Pair(1, (2, 3)) and hash(Pair(1, (2, 3))) == hash((1, (2, 3)))
    assert Pair(1, 2) != Pair(2, 1)
    assert repr(Pair(1, "x")) == "Pair(first=1, second='x')"
    a, b = LabeledSpace(("x", "y")), LabeledSpace(("x", "y"))
    assert a == b and hash(a) == hash(b) and a != LabeledSpace(("y", "x"))
    m = LinearMap(a, b, ((1, 0), (0, 2)))
    assert m == LinearMap(a, b, ((1, 0), (0, 2))) != LinearMap(a, b, ((1, 0), (0, 3)))
    assert hash(m) == hash(LinearMap.sparse(a, b, [[(0, 1)], [(1, 2)]]))


def test_records_of_different_classes_are_unequal():
    assert Pair(1, 2) != OtherPair(1, 2)
    assert Pair(1, 2) != (1, 2) and (1, 2) != Pair(1, 2)
    assert len({Pair(1, 2), OtherPair(1, 2)}) == 2


@pytest.mark.parametrize("values", [(), (1,), (1, 2, 3)])
def test_a_wrong_field_count_is_a_type_error_naming_the_class(values):
    with pytest.raises(TypeError, match="Pair takes 2 fields, got"):
        Pair(*values)
