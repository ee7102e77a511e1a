import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import rank_of_rows as oracle_rank

from cohom.generators import (
    random_cochain_complex,
    random_function_sheaf,
    random_invertible,
    random_tensor_double_complex,
)
from cohom.linalg import (
    AmbientMismatch,
    ContainmentViolated,
    LabeledSpace,
    LinearMap,
    Subspace,
    ZERO,
    freeze_matrix,
    image_basis,
    invert,
    kernel_basis,
    matrix_from_json,
    rank,
    rat_to_str,
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
    return image_basis(LinearMap.from_columns(LabeledSpace.make("v", len(vectors)), amb, vectors))


def _assert_section_completes_b(z, b, q, sec):
    """Every section column lies in z, and b plus the section is independent."""
    for v in sec.columns:
        assert oracle_rank(z.vectors + [v]) == z.dim
    assert oracle_rank(b.vectors + sec.columns) == b.dim + q.dim


def test_subquotient_plain():
    amb = LabeledSpace.make("a", 3)
    z = Subspace.full(amb)
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


def test_matrix_from_json_accepts_integers_and_rational_strings():
    assert matrix_from_json([[1, "-2/3"], ["4", 0]]) == ((F(1), F(-2, 3)), (F(4), F(0)))


def test_matrix_from_json_zeros_are_the_shared_zero():
    ((a, b, c),) = matrix_from_json([[0, "0/5", "-0"]])
    assert a is ZERO and b is ZERO and c is ZERO


@pytest.mark.parametrize("text", ["--5", "+5", " 5 ", "1_0", "\u0663", "-0", "007", "3/6",
                                  "12", "-40", "9" * 5000])
def test_matrix_from_json_strings_parse_as_fraction_does(text):
    """Every string entry reads exactly as Fraction reads it."""
    try:
        expected = Fraction(text)
    except ValueError:
        with pytest.raises(ValueError, match="row 0, column 0"):
            matrix_from_json([[text]])
        return
    ((got,),) = matrix_from_json([[text]])
    assert type(got) is Fraction and got == expected
    assert (got is ZERO) == (expected == 0)


@pytest.mark.parametrize("bad", [0.1, True, False, None, "x", "1/0", [1], 1.0])
def test_matrix_from_json_names_the_bad_entry(bad):
    with pytest.raises(ValueError, match="row 1, column 0"):
        matrix_from_json([["1", "2"], [bad, "3"]])


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
        assert ab.is_zero() == all(x == 0 for row in ab.matrix for x in row)
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
    assert ab.rows == ((),) and ab.is_zero()
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
        negated = LinearMap.from_blocks(m.domain, m.codomain, [ncols], [nrows],
                                        {(0, 0): (-1, m)})
        assert negated == LinearMap(m.domain, m.codomain,
                                    tuple(tuple(-x for x in row) for row in m.matrix))
        dom = LabeledSpace.make("s", 2 * ncols)
        both = LinearMap.from_blocks(dom, m.codomain, [ncols, ncols], [nrows],
                                     {(0, 0): (1, m), (0, 1): (-1, m)})
        assert both == LinearMap(dom, m.codomain,
                                 tuple(row + tuple(-x for x in row) for row in m.matrix))
        assert _stored_canonically(negated) and _stored_canonically(both)


@pytest.mark.parametrize("n", [0, 1, 2, 5])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_invertible_returns_its_inverse(seed, n):
    m, inv = random_invertible(random.Random(seed), n)
    eye = LinearMap.identity(m.domain)
    assert m.compose(inv) == eye and inv.compose(m) == eye
