import json
import random
from fractions import Fraction

import pytest

from oracles import cohomology_classes_by_fractions, rank_of_rows as oracle_rank

from cohom.cech import cech_complex, cech_sheaf_double_complex
from cohom.complexes import (
    CochainComplex,
    NotAComplex,
    cohomology,
    cohomology_dims,
    complex_from_json,
    complex_to_json,
    direct_sum,
    euler_characteristic,
    validate,
)
from cohom.generators import (
    conjugate_complex,
    random_cochain_complex,
    random_function_sheaf,
    random_tensor_double_complex,
)
from cohom.grid import total
from cohom.linalg import (
    LabeledSpace,
    LinearMap,
    freeze_matrix,
    image_basis,
    kernel_basis,
    subquotient,
)
from cohom.presets import build_p1

F = Fraction


def single_space_complex():
    s = LabeledSpace.make("K0", 1)
    return CochainComplex(0, 0, (s,), ())


def identity_complex():
    s0, s1 = LabeledSpace.make("K0", 1), LabeledSpace.make("K1", 1)
    return CochainComplex(0, 1, (s0, s1), (LinearMap(s0, s1, freeze_matrix([[1]])),))


def test_validate_zero_complex():
    validate(single_space_complex())


def test_validate_rejects_id_id():
    s = [LabeledSpace.make(f"K{k}", 1) for k in range(3)]
    with pytest.raises(NotAComplex) as err:
        CochainComplex(0, 2, tuple(s), (
            LinearMap(s[0], s[1], freeze_matrix([[1]])),
            LinearMap(s[1], s[2], freeze_matrix([[1]])),
        ))
    assert err.value.degree == 0


def test_list_fields_are_refused():
    """A complex is hashed (for instance by a tracer keyed on its inputs), so
    spaces or diffs given as lists are refused when it is built."""
    cx = identity_complex()
    for spaces, diffs in ((list(cx.spaces), cx.diffs), (cx.spaces, list(cx.diffs))):
        with pytest.raises(ValueError, match="must be tuples"):
            CochainComplex(0, 1, spaces, diffs)
    assert hash(cx) == hash(identity_complex())


def test_cohomology_of_point():
    assert cohomology(single_space_complex()).dims == (1,)


def test_cohomology_of_identity():
    assert cohomology(identity_complex()).dims == (0, 0)


def test_direct_sum_with_zero_keeps_dims():
    a = identity_complex()
    zero = CochainComplex(0, 0, (LabeledSpace(()),), ())
    s = direct_sum(a, zero)
    assert s.dims() == a.dims()
    assert cohomology(s).dims == cohomology(a).dims


def test_direct_sum_point_and_identity():
    s = direct_sum(single_space_complex(), identity_complex())
    assert cohomology(s).dims == (1, 0)


def test_direct_sum_doubles_cohomology():
    rng = random.Random(5)
    a, ha = random_cochain_complex(rng)
    both = direct_sum(a, a)
    assert cohomology(both).dims == tuple(2 * h for h in ha)


def test_cohomology_additive_on_random_pairs():
    rng = random.Random(99)
    for _ in range(20):
        a, ha = random_cochain_complex(rng, max_top=3)
        b, hb = random_cochain_complex(rng, max_top=3)
        s = direct_sum(a, b)
        dims = cohomology(s).dims
        lo, hi = s.lo, s.hi
        for deg in range(lo, hi + 1):
            expect = (ha[deg] if deg < len(ha) else 0) + (hb[deg] if deg < len(hb) else 0)
            assert dims[deg - lo] == expect


def test_euler_characteristic_on_random_complexes():
    rng = random.Random(20240811)
    for _ in range(100):
        cx, _ = random_cochain_complex(rng)
        rep = cohomology(cx)
        assert euler_characteristic(cx.dims(), cx.lo) == euler_characteristic(rep.dims, rep.lo)


def test_random_complexes_match_construction_cohomology():
    rng = random.Random(7)
    for _ in range(50):
        cx, h = random_cochain_complex(rng)
        assert cohomology(cx).dims == h


def test_representatives_are_cocycles():
    rng = random.Random(17)
    for _ in range(20):
        cx, _ = random_cochain_complex(rng)
        rep = cohomology(cx)
        for deg in cx.degrees():
            d = cx.diff(deg)
            for col in rep.representatives[deg - cx.lo].columns:
                assert all(x == 0 for x in d.apply(col))


def test_json_roundtrip():
    rng = random.Random(3)
    cx, _ = random_cochain_complex(rng)
    data = complex_to_json(cx)
    back = complex_from_json(json.loads(json.dumps(data)))
    assert back.dims() == cx.dims()
    assert [d.matrix for d in back.diffs] == [d.matrix for d in cx.diffs]
    assert cohomology(back).dims == cohomology(cx).dims


def _oracle_dims(cx):
    """Rank-nullity with the independent Bareiss rank of tests/oracles.py."""
    ranks = [0] + [oracle_rank(d.matrix) for d in cx.diffs] + [0]
    return tuple(cx.space(k).dim - ranks[i + 1] - ranks[i]
                 for i, k in enumerate(cx.degrees()))


def _dims_cases():
    rng = random.Random(606)
    cases = [("random", random_cochain_complex(rng)[0]) for _ in range(25)]
    cases += [("tensor", total(random_tensor_double_complex(rng)[0])) for _ in range(8)]
    cases.append(("p1_w4", total(cech_sheaf_double_complex(*build_p1(4)))))
    cases += [("conjugated", conjugate_complex(rng, random_cochain_complex(rng)[0]))
              for _ in range(25)]
    cases += [("cech", cech_complex(sheaf.nerve, sheaf))
              for sheaf in (random_function_sheaf(rng) for _ in range(25))]
    return cases


@pytest.mark.parametrize("kind", ["random", "tensor", "p1_w4"])
def test_cohomology_dims_match_representatives_and_oracle(kind):
    cases = [cx for k, cx in _dims_cases() if k == kind]
    assert cases
    for cx in cases:
        dims = cohomology_dims(cx)
        assert dims == cohomology(cx).dims == _oracle_dims(cx)
    if kind == "p1_w4":
        assert dims == (1, 0, 1)


def _dense_cohomology(cx):
    """Per degree, the classes and section of the dense Gauss-Jordan
    subquotient ker d_n / im d_{n-1}."""
    return [subquotient(kernel_basis(cx.diff(k)), image_basis(cx.diff(k - 1)))
            for k in cx.degrees()]


def _oracle_cohomology(cx):
    """Per degree, the class labels and representative matrix that the
    Fraction Gauss-Jordan of tests/oracles.py chooses."""
    out = []
    for k in cx.degrees():
        dim = cx.space(k).dim
        classes = cohomology_classes_by_fractions(dim, cx.diff(k).matrix,
                                                  cx.diff(k - 1).matrix)
        labels = LabeledSpace(tuple(("cls", c) for c, _ in classes))
        out.append((labels, tuple(tuple(v[i] for _, v in classes) for i in range(dim))))
    return out


@pytest.mark.parametrize("kind", ["random", "conjugated", "tensor", "cech", "p1_w4"])
def test_representatives_match_the_dense_subquotient(kind):
    """The column reducer and the dense subquotient both pick the classes,
    labels and representative matrices of the independent Fraction
    Gauss-Jordan oracle; the dims also equal the Bareiss rank-nullity count."""
    cases = [cx for k, cx in _dims_cases() if k == kind]
    assert cases
    for cx in cases:
        rep = cohomology(cx)
        dense = _dense_cohomology(cx)
        oracle = _oracle_cohomology(cx)
        assert rep.dims == tuple(q.dim for q, _ in oracle) == _oracle_dims(cx)
        for sparse, (q, section), (labels, matrix) in zip(rep.representatives, dense, oracle):
            assert sparse.domain == q == labels
            assert sparse.matrix == section.matrix == matrix
