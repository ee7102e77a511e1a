import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from form_builders import random_closed_form, random_form
from oracles import rank_of_rows as oracle_rank

import cohom.forms as forms
from cohom.cli import main
from cohom.complexes import validate
from cohom.forms import (
    AlgebraicForm,
    NotClosed,
    PoleOnNonInvertedAxis,
    TorusSpec,
    VariableCountMismatch,
    cup_table,
    derham_cohomology,
    exterior_derivative,
    form_to_text,
    log_form,
    log_representative,
    multidegree_complex,
    multidegree_split,
    multidegree_window,
    parse_form,
    pole_filtration_dims,
    pole_reduce,
    split_by_multidegree,
    term_multidegree,
    truncated_de_rham_complex,
    wedge,
)
from cohom.exact import LawViolation, WindowExhausted

F = Fraction

d = exterior_derivative


def mono(n, c, exps, dI=()):
    return AlgebraicForm.monomial(n, c, exps, dI)


def test_derivative_basics():
    assert d(mono(1, 1, (1,))) == mono(1, 1, (0,), (1,))
    assert d(mono(1, 1, (-1,))) == mono(1, -1, (-2,), (1,))
    assert d(log_form(1, (1,))).is_zero()


def test_wedge_basics():
    dz1 = mono(2, 1, (0, 0), (1,))
    dz2 = mono(2, 1, (0, 0), (2,))
    assert wedge(dz1, dz1).is_zero()
    assert wedge(dz2, dz1) == dz_wedge_swapped()
    w12 = wedge(log_form(2, (1,)), log_form(2, (2,)))
    assert w12 == log_form(2, (1, 2))


def dz_wedge_swapped():
    return mono(2, -1, (0, 0), (1, 2))


def test_wedge_variable_count_mismatch():
    with pytest.raises(VariableCountMismatch):
        wedge(mono(1, 1, (0,)), mono(2, 1, (0, 0)))


@st.composite
def window_forms(draw, n=3, k=2, W=3, q=None):
    spec = TorusSpec(n, k, W)
    if q is None:
        q = draw(st.integers(0, n))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_form(random.Random(seed), spec, q)


@given(window_forms())
@settings(max_examples=100, deadline=None)
def test_d_squared_zero(w):
    assert d(d(w)).is_zero()


def test_d_squared_zero_many_random_windows():
    rng = random.Random(20240811)
    for _ in range(500):
        n = rng.randint(1, 3)
        k = rng.randint(0, n)
        spec = TorusSpec(n, k, rng.randint(1, 4))
        w = random_form(rng, spec, rng.randint(0, n))
        assert d(d(w)).is_zero()


def test_leibniz_rule_random_pairs():
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randint(1, 3)
        spec = TorusSpec(n, rng.randint(0, n), 3)
        qa = rng.randint(0, n)
        qb = rng.randint(0, n)
        a = random_form(rng, spec, qa)
        b = random_form(rng, spec, qb)
        lhs = d(wedge(a, b))
        sign = -1 if qa % 2 else 1
        rhs = wedge(d(a), b) + wedge(a, d(b)).scale(sign)
        assert lhs == rhs


def test_graded_commutativity():
    rng = random.Random(42)
    for _ in range(100):
        n = rng.randint(1, 3)
        spec = TorusSpec(n, n, 3)
        qa, qb = rng.randint(0, n), rng.randint(0, n)
        a, b = random_form(rng, spec, qa), random_form(rng, spec, qb)
        sign = -1 if (qa * qb) % 2 else 1
        assert wedge(a, b) == wedge(b, a).scale(sign)


def test_derivative_preserves_multidegree():
    rng = random.Random(43)
    for _ in range(100):
        n = rng.randint(1, 3)
        spec = TorusSpec(n, rng.randint(0, n), 3)
        w = random_form(rng, spec, rng.randint(0, n - 1) if n > 1 else 0)
        degrees = {term_multidegree(exps, dI) for exps, dI, _ in w.terms}
        for exps, dI, _ in d(w).terms:
            assert term_multidegree(exps, dI) in degrees


# ---------------------------------------------------------------------------
# multidegree components


def test_component_m0_is_log_basis():
    spec = TorusSpec(1, 1, 4)
    cx = multidegree_complex(spec, (0,))
    assert cx.dims() == (1, 1)
    assert not any(row for dd in cx.diffs for row in dd.rows)


def test_component_m3_multiplication():
    spec = TorusSpec(1, 1, 4)
    cx = multidegree_complex(spec, (3,))
    assert cx.dims() == (1, 1)
    assert cx.diffs[0].matrix == ((F(3),),)


def test_polynomial_axis_positive_multidegree_exact():
    spec = TorusSpec(1, 0, 4)
    for m in range(1, 5):
        cx = multidegree_complex(spec, (m,))
        dims = cx.dims()
        assert dims == (1, 1)
        from cohom.linalg import rank

        assert rank(cx.diffs[0]) == 1  # multiplication by m is injective
    split = multidegree_split(spec)
    from cohom.linalg import rank

    h0 = sum(cx.space(0).dim - rank(cx.diffs[0]) for cx in split.values())
    assert h0 == 1  # only m = 0 contributes


def test_component_matrices_match_exterior_derivative():
    """The Koszul matrices must agree with d applied to the actual forms.

    Basis vector (m, I) of a component is the form z^{m - chi_I} dz_I.
    """
    rng = random.Random(48)
    for _ in range(40):
        n = rng.randint(1, 3)
        spec = TorusSpec(n, rng.randint(0, n), 3)
        m = rng.choice(multidegree_window(spec))
        cx = multidegree_complex(spec, m)
        for q in range(n):
            index = {lab: i for i, lab in enumerate(cx.space(q + 1).labels)}
            for j, (_, I) in enumerate(cx.space(q).labels):
                exps = tuple(mi - (1 if i + 1 in I else 0) for i, mi in enumerate(m))
                expected = [F(0)] * cx.space(q + 1).dim
                for e, J, c in d(AlgebraicForm.monomial(n, 1, exps, I)).terms:
                    assert term_multidegree(e, J) == m
                    expected[index[(m, J)]] = c
                got = tuple(row[j] for row in cx.diff(q).matrix)
                assert got == tuple(expected)


def reference_koszul(spec, m, q):
    """(source basis, target basis, matrix) of d_q at multidegree m, from
    the definition d(z^{m - chi_I} dz_I) = sum_i m_i dz_i /\\ dz_I; the
    sign of dz_i /\\ dz_I is counted from the inversions of the word (i, I)."""
    if any(m[i] < 0 for i in range(spec.k, spec.n)):
        return [], [], ()
    pool = [i for i in range(1, spec.n + 1) if i <= spec.k or m[i - 1] >= 1]
    src = list(itertools.combinations(pool, q))
    dst = list(itertools.combinations(pool, q + 1))
    rows = []
    for J in dst:
        row = []
        for I in src:
            extra = set(J) - set(I)
            if len(extra) == 1 and set(I) < set(J):
                word = (extra.pop(),) + I
                inversions = sum(1 for a in range(len(word)) for b in range(a + 1, len(word))
                                 if word[a] > word[b])
                row.append(F(m[word[0] - 1] * (-1) ** inversions))
            else:
                row.append(F(0))
        rows.append(tuple(row))
    return src, dst, tuple(rows)


def small_specs():
    return [TorusSpec(n, k, W) for n in range(4) for k in range(n + 1) for W in range(1, 4)]


def test_multidegree_complex_matches_reference_koszul():
    for spec in small_specs():
        off_window = [tuple(-1 if i == spec.n - 1 else 1 for i in range(spec.n)),
                      (spec.window + 2,) * spec.n]
        for m in multidegree_window(spec) + off_window:
            cx = multidegree_complex(spec, m)
            for q in range(spec.n):
                src, dst, rows = reference_koszul(spec, m, q)
                assert cx.space(q).labels == tuple((m, I) for I in src)
                assert cx.space(q + 1).labels == tuple((m, J) for J in dst)
                assert cx.diff(q).matrix == rows


@pytest.mark.parametrize("spec", small_specs() + [TorusSpec(4, 4, 2)], ids=str)
def test_derham_component_ranks_match_bareiss_oracle(monkeypatch, spec):
    """Every component's Koszul matrix, ranked on its own by the oracle, has the
    rank derham_cohomology used for it: that of the first component of its
    class (admissible axes, support of m), the only one it ranks."""
    seen = []
    echelon = forms._echelon

    def recording(rows):
        rows = [list(row) for row in rows]
        pivots = echelon(rows)
        seen.append((rows, len(pivots)))
        return pivots

    monkeypatch.setattr(forms, "_echelon", recording)
    derham_cohomology(spec)

    def koszul_class(m):
        pool = tuple(i for i in range(1, spec.n + 1) if i <= spec.k or m[i - 1] >= 1)
        return pool, tuple(x != 0 for x in m)

    firsts = {}
    for m in multidegree_window(spec):
        firsts.setdefault(koszul_class(m), m)
    ranked = [(m, q) for m in firsts.values() for q in range(spec.n)]
    assert len(seen) == len(ranked)
    used = dict(zip(ranked, seen))
    for (m, q), (rows, _) in used.items():
        src, _, matrix = reference_koszul(spec, m, q)
        dense = [[0] * len(src) for _ in rows]
        for dense_row, row in zip(dense, rows):
            for j, x in row:
                dense_row[j] = x
        assert tuple(map(tuple, dense)) == matrix
    for m in multidegree_window(spec):
        for q in range(spec.n):
            _, _, matrix = reference_koszul(spec, m, q)
            assert oracle_rank(matrix) == used[(firsts[koszul_class(m)], q)][1]


def flip_first_d1_sign(skeleton):
    def flipped(n, pool):
        bases, rows = skeleton(n, pool)
        if len(rows) < 2 or not rows[1]:
            return bases, rows
        (j, a, s), *rest = rows[1][0]
        return bases, (rows[0], (((j, a, -s), *rest),) + rows[1][1:]) + rows[2:]
    return flipped


def test_mutated_koszul_sign_fails_the_exactness_check(monkeypatch, capsys):
    # at n = 3 a flipped sign in d_1 makes d_1 invertible where every m_i != 0
    monkeypatch.setattr(forms, "_koszul_skeleton", flip_first_d1_sign(forms._koszul_skeleton))
    # reported at the first multidegree in window order with every m_i != 0
    with pytest.raises(WindowExhausted, match=r"at multidegree \(-1, -1, -1\);"):
        derham_cohomology(TorusSpec(3, 3, 2))
    assert main(["derham", "--n", "3", "--invert", "3", "--window", "2"]) == 2
    assert "nonzero cohomology at multidegree (-1, -1, -1); enlarge the window" \
        in capsys.readouterr().err


def test_mutated_koszul_sign_that_keeps_every_rank_fails_d_squared(monkeypatch, capsys):
    # at n = 2 the flipped sign leaves every rank and the dims (1, 2, 1) unchanged
    monkeypatch.setattr(forms, "_koszul_skeleton", flip_first_d1_sign(forms._koszul_skeleton))
    with pytest.raises(LawViolation, match="the Koszul differential squares to zero"):
        derham_cohomology(TorusSpec(2, 2, 3))
    assert main(["derham", "--n", "2", "--invert", "2", "--window", "3"]) == 2
    assert "law 'the Koszul differential squares to zero' fails" in capsys.readouterr().err


def test_forced_rank_deficit_fails_the_exactness_check(monkeypatch, capsys):
    echelon = forms._echelon
    monkeypatch.setattr(forms, "_echelon", lambda rows: dict(list(echelon(rows).items())[1:]))
    # the first nonzero multidegree in window order is reported
    with pytest.raises(WindowExhausted, match=r"at multidegree \(-1, 0\);"):
        derham_cohomology(TorusSpec(2, 1, 2))
    assert main(["derham", "--n", "2", "--invert", "1", "--window", "2"]) == 2
    assert "nonzero cohomology at multidegree (-1, 0); enlarge the window" \
        in capsys.readouterr().err


def test_a_window_over_the_budget_is_refused_before_any_rank(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("work began before the budget check")

    monkeypatch.setattr(forms, "_echelon", refuse)
    monkeypatch.setattr(forms, "_koszul_skeleton", refuse)
    spec = TorusSpec(4, 4, 6)
    assert forms.multidegree_count(spec) == 20_736
    with pytest.raises(ValueError, match="20736 multidegree components, over the limit"):
        derham_cohomology(spec)
    # 2^12 components fit the window budget, but the work grows as 4^n
    spec = TorusSpec(12, 12, 1)
    assert forms.multidegree_count(spec) == 4096 <= forms.MAX_MULTIDEGREES
    limit = f"12 variables, over the limit of {forms.MAX_TORUS_N}"
    with pytest.raises(ValueError, match=limit):
        derham_cohomology(spec)
    assert main(["derham", "--n", "12", "--invert", "12", "--window", "1"]) == 1
    assert limit in capsys.readouterr().err
    n = forms.MAX_TORUS_N
    forms.check_window_budget(TorusSpec(n, n, 1))


def test_nonzero_multidegree_zero_differential_is_a_law_violation(monkeypatch, capsys):
    monkeypatch.setattr(forms, "_echelon", lambda rows: {0: {0: 1}})
    with pytest.raises(LawViolation, match="the multidegree-zero differential vanishes"):
        derham_cohomology(TorusSpec(1, 1, 2))
    assert main(["derham", "--n", "1", "--invert", "1", "--window", "2"]) == 2
    assert "law 'the multidegree-zero differential vanishes' fails" in capsys.readouterr().err


def test_koszul_skeleton_cache_is_keyed_on_structure():
    forms._koszul_skeleton.cache_clear()
    for k in range(5):
        derham_cohomology(TorusSpec(4, k, 3))
    info = forms._koszul_skeleton.cache_info()
    # one lookup per class (admissible axes, support of m) of the 3,376
    # components: an inverted axis is always admissible and a polynomial one
    # exactly when in the support, so each k has 2^4 classes; at most one
    # skeleton per admissible-axis set in {1..4}
    assert info.hits + info.misses == 5 * 2 ** 4
    assert info.currsize <= 2 ** 4


def test_truncated_complex_is_valid_and_splits():
    spec = TorusSpec(2, 1, 2)
    cx = truncated_de_rham_complex(spec)
    validate(cx)
    total = [0] * (spec.n + 1)
    for m, comp in multidegree_split(spec).items():
        for q in range(spec.n + 1):
            total[q] += comp.space(q).dim
    assert list(cx.dims()) == total


def test_derham_dims_binomials():
    for n in range(0, 4):
        for k in range(0, n + 1):
            spec = TorusSpec(n, k, 4)
            rep = derham_cohomology(spec)
            assert rep.dims == tuple(comb(k, q) for q in range(n + 1))


# ---------------------------------------------------------------------------
# pole reduction


def test_pole_reduce_log_generator():
    spec = TorusSpec(1, 1, 4)
    w0, a1, theta = pole_reduce(log_form(1, (1,)), spec, 1)
    assert w0.is_zero() and theta.is_zero()
    assert a1 == mono(1, 1, (0,))


def test_pole_reduce_exact_form():
    spec = TorusSpec(1, 1, 4)
    w0, a1, theta = pole_reduce(mono(1, 1, (-2,), (1,)), spec, 1)
    assert w0.is_zero() and a1.is_zero()
    assert theta == mono(1, -1, (-1,))


def test_pole_reduce_w1_wedge_w2():
    spec = TorusSpec(2, 2, 4)
    w0, a1, theta = pole_reduce(wedge(log_form(2, (1,)), log_form(2, (2,))), spec, 1)
    assert w0.is_zero() and theta.is_zero()
    assert a1 == log_form(2, (2,))


def test_pole_reduce_rejects_open_forms():
    spec = TorusSpec(1, 1, 4)
    with pytest.raises(NotClosed):
        pole_reduce(mono(1, 1, (-1,)), spec, 1)  # d(1/z) != 0


def test_pole_reduce_rejects_bad_axis_and_poles():
    spec = TorusSpec(2, 1, 4)
    with pytest.raises(PoleOnNonInvertedAxis):
        pole_reduce(mono(2, 1, (0, 0), (1,)), spec, 2)
    with pytest.raises(PoleOnNonInvertedAxis):
        pole_reduce(d(mono(2, 1, (0, -1))), spec, 1)


def test_pole_reduce_identity_on_random_closed_forms():
    rng = random.Random(44)
    for (k, n) in [(1, 1), (2, 2), (2, 3)]:
        spec = TorusSpec(n, k, 4)
        for _ in range(30):
            q = rng.randint(1, n)
            phi = random_closed_form(rng, spec, q)
            axis = rng.randint(1, k)
            w0, a1, theta = pole_reduce(phi, spec, axis)
            # identity is asserted inside; check the advertised shapes here
            assert all(exps[axis - 1] >= 0 for exps, _, _ in w0.terms)
            assert all(exps[axis - 1] == 0 and axis not in dI
                       for exps, dI, _ in a1.terms)
            lhs = w0 + wedge(log_form(n, (axis,)), a1) + d(theta)
            assert lhs == phi


# ---------------------------------------------------------------------------
# log representatives and the ring structure


def test_log_representative_examples():
    spec = TorusSpec(2, 2, 4)
    vec, xi = log_representative(log_form(2, (1,)), spec)
    assert vec == {(1,): F(1)} and xi.is_zero()

    vec, xi = log_representative(d(mono(2, 1, (1, 1))), spec)
    assert vec == {}
    assert xi == mono(2, 1, (1, 1))

    phi = log_form(2, (1, 2)).scale(3) + d(mono(2, 1, (-1, 0), (2,)))
    vec, xi = log_representative(phi, spec)
    assert vec == {(1, 2): F(3)}


def test_log_representative_left_inverse():
    rng = random.Random(45)
    for _ in range(50):
        n = rng.randint(1, 3)
        k = rng.randint(1, n)
        spec = TorusSpec(n, k, 3)
        q = rng.randint(0, min(k, n))
        coeffs = {}
        for I in itertools.combinations(range(1, k + 1), q):
            coeffs[I] = F(rng.randint(-4, 4), rng.choice([1, 2]))
        target = {I: c for I, c in coeffs.items() if c}
        phi = AlgebraicForm.zero(n, q)
        for I, c in target.items():
            phi = phi + log_form(n, I).scale(c)
        if q >= 1:
            phi = phi + d(random_form(rng, spec, q - 1))
        vec, xi = log_representative(phi, spec)
        assert vec == target


def test_log_representative_not_closed():
    spec = TorusSpec(1, 1, 4)
    with pytest.raises(NotClosed):
        log_representative(mono(1, 1, (1,)), spec)


def test_cup_table_is_free_exterior_algebra():
    for k in range(0, 4):
        spec = TorusSpec(k if k else 1, k, 4)
        table = cup_table(spec)
        for (I, J), vec in table.items():
            if set(I) & set(J):
                assert vec == {}
            else:
                union = tuple(sorted(I + J))
                inversions = sum(1 for i in I for j in J if i > j)
                sign = F(-1) ** inversions
                expect = {union: sign}
                assert vec == expect


def test_cup_table_anticommutes():
    spec = TorusSpec(2, 2, 4)
    table = cup_table(spec)
    assert table[((1,), (2,))] == {(1, 2): F(1)}
    assert table[((2,), (1,))] == {(1, 2): F(-1)}
    assert table[((1,), (1,))] == {}


# ---------------------------------------------------------------------------
# pole filtration


def test_pole_filtration_k1():
    rep = pole_filtration_dims(TorusSpec(1, 1, 4), 3)
    assert rep.levels[0] == (1, 0)
    assert all(lv == (1, 1) for lv in rep.levels[1:])
    assert rep.stabilization == 1


def test_pole_filtration_k0_is_constant():
    rep = pole_filtration_dims(TorusSpec(2, 0, 3), 2)
    assert all(lv == (1, 0, 0) for lv in rep.levels)
    assert rep.stabilization == 0


def test_pole_filtration_torus_presets():
    for n in range(4):
        for k in range(n + 1):
            rep = pole_filtration_dims(TorusSpec(n, k, 4), 2)
            assert rep.levels[0] == tuple([1] + [0] * n)
            assert rep.levels[1] == rep.levels[2] == tuple(comb(k, q) for q in range(n + 1))
            assert rep.stabilization == (1 if k else 0)


# ---------------------------------------------------------------------------
# syntax


def test_parse_and_print_roundtrip():
    w = parse_form("3/2 * z1^-2 z2^1 dz1^dz3", 3)
    assert w == mono(3, F(3, 2), (-2, 1, 0), (1, 3))
    assert form_to_text(w) == "3/2 z1^-2 z2 dz1^dz3"
    again = parse_form(form_to_text(w), 3)
    assert again == w


def test_parse_signs_and_sums():
    w = parse_form("z1 dz2 - 2 z2 dz1 + 1/3 dz2", 2)
    expect = (mono(2, 1, (1, 0), (2,)) + mono(2, -2, (0, 1), (1,))
              + mono(2, F(1, 3), (0, 0), (2,)))
    assert w == expect


def cycle_sign(perm) -> int:
    """(-1)^(len - number of cycles) of the permutation i -> perm[i - 1]."""
    seen, cycles = set(), 0
    for start in perm:
        cycles += start not in seen
        while start not in seen:
            seen.add(start)
            start = perm[start - 1]
    return (-1) ** (len(perm) - cycles)


def test_parse_unsorted_dz_normalizes_sign():
    assert parse_form("dz2^dz1", 2) == mono(2, -1, (0, 0), (1, 2))
    assert parse_form("dz1^dz1", 2).is_zero()
    for perm in itertools.permutations((1, 2, 3, 4)):
        text = "^".join(f"dz{i}" for i in perm)
        assert parse_form(text, 4) == mono(4, cycle_sign(perm), (0,) * 4, (1, 2, 3, 4)), text


NO_FACTOR = [("*", 3, "term with no factor"), ("* *", 1, "term with no factor"),
             ("z1 -", 3, "dangling sign in form"), ("13-*", 3, "dangling sign in form"),
             ("z1 + * *", 3, "dangling sign in form")]


@pytest.mark.parametrize("text,n,message", NO_FACTOR, ids=[text for text, _, _ in NO_FACTOR])
def test_parse_refuses_a_term_with_no_factor(text, n, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        parse_form(text, n)


def test_parse_zero_terms_do_not_fix_the_degree():
    dz1 = mono(2, 1, (0, 0), (1,))
    assert parse_form("dz1^dz1 + dz1", 2) == parse_form("dz1 + dz1^dz1", 2) == dz1
    assert parse_form("0 dz1 + z1", 2) == parse_form("z1 + 0 dz1", 2) == mono(2, 1, (1, 0))
    assert parse_form("0 dz1 - dz2^dz2", 2) == AlgebraicForm.zero(2, 0)
    with pytest.raises(ValueError, match="^terms of mixed form degree$"):
        parse_form("0 + dz1 + z1", 2)


def test_parse_rejects_junk():
    with pytest.raises(ValueError):
        parse_form("z1 + qq", 1)
    with pytest.raises(ValueError):
        parse_form("z5", 2)


def test_split_by_multidegree_partitions_terms():
    rng = random.Random(47)
    spec = TorusSpec(2, 2, 3)
    w = random_form(rng, spec, 1, max_terms=6)
    parts = split_by_multidegree(w)
    back = AlgebraicForm.zero(2, 1)
    for m, part in parts.items():
        assert {term_multidegree(exps, dI) for exps, dI, _ in part.terms} <= {m}
        back = back + part
    assert back == w
