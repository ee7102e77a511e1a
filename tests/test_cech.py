import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import pad, per_point_cech_dims, simplicial_cohomology_dims

from cohom.cech import (
    CoverNerve,
    IncompatibleRestrictions,
    LevelMapMismatch,
    SheafOnCover,
    cech_cohomology,
    cech_complex,
    cech_hyper,
    cover_from_json,
    cover_to_json,
    function_sheaf,
)
from cohom.complexes import cohomology
from cohom.generators import (permute_cover, random_cochain_complex, random_function_sheaf,
                              random_invertible)
from cohom.grid import InvariantViolation
from cohom.linalg import LabeledSpace, LinearMap, freeze_matrix


def test_nerve_validation():
    with pytest.raises(ValueError):
        CoverNerve(2, frozenset({(0,)}))  # singleton (1,) missing
    with pytest.raises(ValueError):
        CoverNerve(2, frozenset({(0,), (1,), (1, 0)}))  # not increasing
    with pytest.raises(ValueError):
        CoverNerve(3, frozenset({(0,), (1,), (2,), (0, 1, 2)}))  # not downward closed


def test_single_open_cover():
    sheaf = function_sheaf([{0, 1, 2}])
    rep = cech_cohomology(sheaf.nerve, sheaf)
    assert rep.dims == (3,)


def test_disjoint_opens_have_no_higher_faces():
    sheaf = function_sheaf([{0}, {1}])
    assert sheaf.nerve.max_dim == 0
    assert cech_cohomology(sheaf.nerve, sheaf).dims == (2,)


def test_mayer_vietoris_circle_two_arcs():
    """Two arcs glued along a two-point overlap: the classic circle."""
    faces = frozenset({(0,), (1,), (0, 1)})
    nerve = CoverNerve(2, faces)
    spaces = {
        (0,): LabeledSpace((("U0", 0),)),
        (1,): LabeledSpace((("U1", 0),)),
        (0, 1): LabeledSpace((("U01", 0), ("U01", 1))),
    }
    both = freeze_matrix([[1], [1]])
    restrictions = {
        ((0, 1), 0): LinearMap(spaces[(1,)], spaces[(0, 1)], both),
        ((0, 1), 1): LinearMap(spaces[(0,)], spaces[(0, 1)], both),
    }
    sheaf = SheafOnCover(nerve, spaces, restrictions)
    rep = cech_cohomology(nerve, sheaf)
    assert rep.dims == (1, 1)


def three_arc_circle():
    faces = frozenset({(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)})
    nerve = CoverNerve(3, faces)
    spaces = {f: LabeledSpace(((f, 0),)) for f in faces}
    one = freeze_matrix([[1]])
    restrictions = {}
    for f in faces:
        if len(f) == 2:
            for i in range(2):
                restrictions[(f, i)] = LinearMap(spaces[f[:i] + f[i + 1:]], spaces[f], one)
    return nerve, SheafOnCover(nerve, spaces, restrictions)


def test_three_arc_circle_against_simplicial_oracle():
    nerve, sheaf = three_arc_circle()
    rep = cech_cohomology(nerve, sheaf)
    oracle = simplicial_cohomology_dims(nerve.faces)
    assert list(rep.dims) == oracle == [1, 1]


def test_function_sheaf_shared_point():
    sheaf = function_sheaf([{0, 1}, {0, 2}, {0, 3}])
    assert (0, 1, 2) in sheaf.nerve.faces
    for face in sheaf.nerve.faces:
        assert 0 in sheaf.space(face).labels


def test_function_sheaf_validates():
    rng = random.Random(31)
    for _ in range(25):
        sheaf = random_function_sheaf(rng, max_opens=4, max_points=6)
        sheaf.validate()


def test_delta_squared_zero_on_random_function_sheaves():
    rng = random.Random(32)
    for _ in range(50):
        sheaf = random_function_sheaf(rng)
        cx = cech_complex(sheaf.nerve, sheaf)  # validate() inside raises otherwise
        assert hash(cx) == hash(cech_complex(sheaf.nerve, sheaf))  # a hashable value


@st.composite
def point_covers(draw):
    universe = draw(st.integers(1, 6))
    n_opens = draw(st.integers(1, 4))
    return [draw(st.sets(st.integers(0, universe - 1), min_size=1))
            for _ in range(n_opens)]


@given(point_covers())
@settings(max_examples=60, deadline=None)
def test_cech_euler_characteristic_counts_points(points):
    """chi of the Cech complex equals the number of covered points.

    Each covered point contributes a full simplex, whose Euler
    characteristic is 1, so chi(cochain dims) = chi(cohomology) =
    #covered points.
    """
    sheaf = function_sheaf(points)
    cx = cech_complex(sheaf.nerve, sheaf)
    chi = sum((-1) ** k * d for k, d in enumerate(cx.dims()))
    covered = set().union(*points)
    assert chi == len(covered)
    dims = cohomology(cx).dims
    assert sum((-1) ** k * d for k, d in enumerate(dims)) == chi


def test_per_point_oracle_on_random_function_sheaves():
    rng = random.Random(33)
    for _ in range(50):
        points = []
        universe = rng.randint(1, 8)
        for _ in range(rng.randint(1, 5)):
            size = rng.randint(1, universe)
            points.append(frozenset(rng.sample(range(universe), size)))
        sheaf = function_sheaf(points)
        dims = list(cech_cohomology(sheaf.nerve, sheaf).dims)
        expected = per_point_cech_dims(points)
        top = max(len(dims), len(expected))
        assert pad(dims, top) == pad(expected, top)


def test_incompatible_restrictions_detected():
    nerve, sheaf = three_arc_circle()
    faces = frozenset(set(nerve.faces) | {(0, 1, 2)})
    nerve2 = CoverNerve(3, faces)
    spaces = dict(sheaf.spaces)
    spaces[(0, 1, 2)] = LabeledSpace((((0, 1, 2), 0),))
    one = freeze_matrix([[1]])
    minus = freeze_matrix([[-1]])
    restrictions = dict(sheaf.restrictions)
    for i in range(3):
        sub = tuple(x for j, x in enumerate((0, 1, 2)) if j != i)
        mat = minus if i == 0 else one
        restrictions[((0, 1, 2), i)] = LinearMap(spaces[sub], spaces[(0, 1, 2)], mat)
    with pytest.raises(IncompatibleRestrictions):
        SheafOnCover(nerve2, spaces, restrictions)


def test_reordering_opens_preserves_dims():
    rng = random.Random(34)
    for _ in range(20):
        sheaf = random_function_sheaf(rng)
        dims = cohomology(cech_complex(sheaf.nerve, sheaf)).dims
        perm = list(range(sheaf.nerve.opens))
        rng.shuffle(perm)
        permuted = permute_cover(sheaf, perm)
        dims2 = cohomology(cech_complex(permuted.nerve, permuted)).dims
        assert dims == dims2


# ---------------------------------------------------------------------------
# hypercohomology


def test_hyper_single_level_equals_cech_cohomology():
    rng = random.Random(35)
    for _ in range(10):
        sheaf = random_function_sheaf(rng, max_opens=4, max_points=6)
        res = cech_hyper(sheaf.nerve, [sheaf], [])
        plain = cech_cohomology(sheaf.nerve, sheaf)
        top = len(res.dims)
        assert pad(list(res.dims), top) == pad(list(plain.dims), top)


def test_hyper_single_open_cover_is_complex_cohomology():
    rng = random.Random(36)
    for _ in range(10):
        cx, h = random_cochain_complex(rng, max_top=3)
        nerve = CoverNerve(1, frozenset({(0,)}))
        face = (0,)
        sheaves = []
        for q in cx.degrees():
            space = LabeledSpace(tuple((face, lab) for lab in cx.space(q).labels))
            sheaves.append(SheafOnCover(nerve, {face: space}, {}))
        maps = []
        for q in range(cx.lo, cx.hi):
            maps.append({face: LinearMap(sheaves[q].space(face),
                                         sheaves[q + 1].space(face),
                                         cx.diff(q).matrix)})
        res = cech_hyper(nerve, sheaves, maps)
        assert res.dims == h


def test_hyper_zero_level_maps_sum_by_antidiagonal():
    rng = random.Random(37)
    for _ in range(5):
        sheaf0 = random_function_sheaf(rng, max_opens=3, max_points=5)
        nerve = sheaf0.nerve
        # second level: same spaces under fresh labels, same restrictions
        relabel = {f: LabeledSpace(tuple(("L1", f, lab) for lab in sheaf0.space(f).labels))
                   for f in nerve.faces}
        restr = {}
        for (f, i), m in sheaf0.restrictions.items():
            sub = f[:i] + f[i + 1:]
            restr[(f, i)] = LinearMap(relabel[sub], relabel[f], m.matrix)
        sheaf1 = SheafOnCover(nerve, relabel, restr)
        zero_maps = {f: LinearMap.zero(sheaf0.space(f), sheaf1.space(f))
                     for f in nerve.faces}
        res = cech_hyper(nerve, [sheaf0, sheaf1], [zero_maps])
        h0 = list(cech_cohomology(nerve, sheaf0).dims)
        for deg, dim in enumerate(res.dims):
            want = (h0[deg] if deg < len(h0) else 0) + (h0[deg - 1] if 0 <= deg - 1 < len(h0) else 0)
            assert dim == want


def test_level_map_mismatch_detected():
    sheaf = function_sheaf([{0, 1}, {1, 2}])
    nerve = sheaf.nerve
    relabel = {f: LabeledSpace(tuple(("L1", f, lab) for lab in sheaf.space(f).labels))
               for f in nerve.faces}
    restr = {}
    for (f, i), m in sheaf.restrictions.items():
        sub = f[:i] + f[i + 1:]
        restr[(f, i)] = LinearMap(relabel[sub], relabel[f], m.matrix)
    sheaf1 = SheafOnCover(nerve, relabel, restr)
    maps = {f: LinearMap.zero(sheaf.space(f), sheaf1.space(f)) for f in nerve.faces}
    # break commutation on one face only
    maps[(0,)] = LinearMap(sheaf.space((0,)), sheaf1.space((0,)),
                           freeze_matrix([[1, 0], [0, 1]]))
    with pytest.raises(InvariantViolation) as err:
        cech_hyper(nerve, [sheaf, sheaf1], [maps])
    assert err.value.cell == (0, 0)
    assert err.value.law == "horizontal and vertical differentials commute"


def _three_levels_on_one_open(second_maps):
    """Q -> Q -> Q on a single open, with the identity as the first level map."""
    nerve = CoverNerve(1, frozenset({(0,)}))
    sheaves = [SheafOnCover(nerve, {(0,): LabeledSpace.make(f"L{q}", 1)}, {}) for q in range(3)]
    first = {(0,): LinearMap(sheaves[0].space((0,)), sheaves[1].space((0,)), freeze_matrix([[1]]))}
    return nerve, sheaves, [first, second_maps(sheaves[1].space((0,)), sheaves[2].space((0,)))]


def test_level_maps_that_do_not_compose_to_zero_are_detected():
    identity = _three_levels_on_one_open(
        lambda dom, cod: {(0,): LinearMap(dom, cod, freeze_matrix([[1]]))})
    with pytest.raises(InvariantViolation) as err:
        cech_hyper(*identity)
    assert err.value.cell == (0, 0)
    assert err.value.law == "vertical differential squares to zero"
    zero = _three_levels_on_one_open(lambda dom, cod: {(0,): LinearMap.zero(dom, cod)})
    assert cech_hyper(*zero).dims == (0, 0, 1)


def test_missing_level_map_is_detected():
    with pytest.raises(LevelMapMismatch, match="level map 1 missing or mis-shaped"):
        cech_hyper(*_three_levels_on_one_open(lambda dom, cod: {}))


def test_cover_json_roundtrip():
    nerve, sheaf = three_arc_circle()
    data = cover_to_json(nerve, sheaf)
    nerve2, sheaf2 = cover_from_json(data)
    assert nerve2.faces == nerve.faces
    assert cech_cohomology(nerve2, sheaf2).dims == (1, 1)


# ---------------------------------------------------------------------------
# the coboundary, entry by entry


def _without(face, i):
    """face with the index at position i left out (the oracle's own drop)."""
    return tuple(a for a in face if a != face[i])


def _matmul(a, b):
    return [[sum((Fraction(x) * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
            for row in a]


def _conjugated(sheaf, rng):
    """The sheaf with each face's basis changed by a random invertible matrix
    m_f: restriction (f, i) becomes m_f r m_sub^-1, so it is no 0/1 pattern."""
    change = {f: [m.matrix for m in random_invertible(rng, sheaf.space(f).dim)]
              for f in sheaf.nerve.faces}
    restrictions = {}
    for (f, i), r in sheaf.restrictions.items():
        rows = _matmul(_matmul(change[f][0], r.matrix), change[_without(f, i)][1])
        restrictions[f, i] = LinearMap(r.domain, r.codomain, freeze_matrix(rows))
    return SheafOnCover(sheaf.nerve, dict(sheaf.spaces), restrictions)


def _check_coboundary(sheaf, labels_of, restriction_of):
    """cech_complex(sheaf)'s delta against (delta w)_g = sum_i (-1)^i r_(g,i) w_(g minus i),
    with the faces' labels and restriction matrices given by the two callables."""
    cx = cech_complex(sheaf.nerve, sheaf)
    for p in range(cx.hi):
        src, dst = cx.space(p).labels, cx.space(p + 1).labels
        want = [[Fraction(0)] * len(src) for _ in dst]
        for g in (f for f in sheaf.nerve.faces if len(f) == p + 2):
            for i in range(len(g)):
                sub = _without(g, i)
                for r, row in enumerate(restriction_of(g, i)):
                    for c, x in enumerate(row):
                        want[dst.index((g, labels_of(g)[r]))][src.index((sub, labels_of(sub)[c]))] \
                            += (-1) ** i * x
        assert [list(row) for row in cx.diff(p).matrix] == want, f"delta from degree {p}"


def test_coboundary_matches_the_alternating_sum_entry_by_entry():
    """On conjugated random covers, on a permutation of each, and through the
    JSON cover format, delta is the textbook alternating sum entry by entry."""
    rng = random.Random(38)
    for _ in range(60):
        sheaf = _conjugated(random_function_sheaf(rng, max_opens=4, max_points=5), rng)
        nerve = sheaf.nerve
        labels = {f: sheaf.space(f).labels for f in nerve.faces}
        _check_coboundary(sheaf, labels.get, lambda f, i: sheaf.restriction(f, i).matrix)

        perm = list(range(nerve.opens))
        rng.shuffle(perm)
        inverse = [perm.index(a) for a in range(nerve.opens)]

        def back(g):
            return tuple(sorted(inverse[a] for a in g))

        def moved(g, j):
            """The original restriction carried to position j of the permuted face g."""
            f = back(g)
            return sheaf.restriction(f, f.index(inverse[g[j]])).matrix

        permuted = permute_cover(sheaf, perm)
        assert permuted.nerve.faces == {tuple(sorted(perm[a] for a in f)) for f in nerve.faces}
        _check_coboundary(permuted, lambda g: labels[back(g)], moved)

        nerve2, sheaf2 = cover_from_json(json.loads(json.dumps(cover_to_json(nerve, sheaf))))
        assert nerve2 == nerve
        assert all(sheaf2.space(f).dim == sheaf.space(f).dim for f in nerve.faces)
        assert sheaf2.restrictions.keys() == sheaf.restrictions.keys()
        assert all(sheaf2.restriction(f, i).matrix == m.matrix
                   for (f, i), m in sheaf.restrictions.items())
