"""Acceptance suite: one test per criterion, one printed line per criterion.

All equalities are exact rational identities (zero tolerance); the only
numeric bounds are the per-criterion wall-clock limits.  Run with
`pytest tests/test_acceptance.py -v -s` to see the pass/fail lines.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb

import pytest

from form_builders import random_closed_form
from oracles import pad, per_point_cech_dims

from cohom.cech import cech_cohomology, cech_complex, function_sheaf
from cohom.complexes import cohomology, validate
from cohom.forms import (
    TorusSpec,
    cup_table,
    derham_cohomology,
    exterior_derivative,
    log_form,
    pole_filtration_dims,
    pole_reduce,
    wedge,
)
from cohom.generators import (
    nonzero_d2_double_complex,
    random_tensor_double_complex,
    random_tensor_triple_complex,
)
from cohom.grid import total, totals_agree
from cohom.presets import build_torus, p1_report
from cohom.spectral import certify_convergence, first_pages

F = Fraction


@contextmanager
def criterion(number, description, limit=None):
    t0 = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - t0
        if limit is not None and elapsed >= limit:
            raise AssertionError(
                f"time limit {limit}s exceeded ({elapsed:.2f}s)")
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description} ({time.monotonic() - t0:.2f}s)")


@pytest.fixture(scope="module")
def covers_200():
    rng = random.Random(746)
    out = []
    for _ in range(200):
        universe = rng.randint(1, 8)
        n_opens = rng.randint(1, 5)
        points = [frozenset(rng.sample(range(universe), rng.randint(1, universe)))
                  for _ in range(n_opens)]
        out.append((points, function_sheaf(points)))
    return out


@pytest.fixture(scope="module")
def tensors_200():
    rng = random.Random(829)
    return [random_tensor_double_complex(rng, max_bound=4, cell_cap=3)
            for _ in range(200)]


def test_criterion_01_cech_coboundary_squares_to_zero(covers_200):
    with criterion(1, "delta^2 = 0 on 200 random function-sheaf covers", limit=5.0):
        for _, sheaf in covers_200:
            cx = cech_complex(sheaf.nerve, sheaf)
            validate(cx)  # raises NotAComplex on any nonvanishing composite


def test_criterion_02_per_point_oracle(covers_200):
    with criterion(2, "Cech dims equal per-point simplicial oracle on 200 covers",
                   limit=30.0):
        for points, sheaf in covers_200:
            dims = list(cech_cohomology(sheaf.nerve, sheaf).dims)
            expected = per_point_cech_dims(points)
            top = max(len(dims), len(expected))
            assert pad(dims, top) == pad(expected, top)


def test_criterion_03_total_differential_kunneth(tensors_200):
    with criterion(3, "D^2 = 0 and Kunneth dims on 200 tensor double complexes"):
        for dc, a, b, ha, hb in tensors_200:
            tot = total(dc)
            validate(tot)  # D^2 = 0 exactly
            # brute-force both sides of the product formula
            left = cohomology(tot).dims
            ha_direct = cohomology(a).dims
            hb_direct = cohomology(b).dims
            assert ha_direct == ha and hb_direct == hb
            for deg in range(len(left)):
                right = sum(ha_direct[p] * hb_direct[deg - p]
                            for p in range(len(ha_direct))
                            if 0 <= deg - p < len(hb_direct))
                assert left[deg] == right


def test_criterion_04_triple_flattenings_bit_exact():
    with criterion(4, "both flattenings of 100 triple complexes share one total"):
        rng = random.Random(911)
        for _ in range(100):
            tc = random_tensor_triple_complex(rng)
            cmp = totals_agree(tc)
            assert cmp.agree and cmp.first_mismatch_degree is None


def test_criterion_05_spectral_convergence(tensors_200):
    with criterion(5, "convergence certificates for both filtrations plus a "
                      "nonzero d_2 instance"):
        for dc, *_ in tensors_200:
            cert = certify_convergence(dc)
            for deg, cells in cert.first_einf.items():
                assert sum(d for _, d in cells) == cert.total_dims[deg]
            for deg, cells in cert.second_einf.items():
                assert sum(d for _, d in cells) == cert.total_dims[deg]
        dc = nonzero_d2_double_complex()
        pages = first_pages(dc, 4)
        e2, e3, e4 = pages[1], pages[2], pages[3]
        assert len({t for _, t in e2.d_pairs(0, 1)}) == 1
        assert e2.dims() == {(0, 1): 1, (2, 0): 1}
        assert all(e3.dim(p, q) == 0 for p, q in e3.span)
        assert all(e4.dim(p, q) == 0 for p, q in e4.span)  # E_3 = E_inf
        cert = certify_convergence(dc)
        assert cert.total_dims == (0, 0, 0, 0)


def test_criterion_06_exterior_algebra():
    with criterion(6, "de Rham dims are binomial and cup products are the free "
                      "exterior algebra", limit=60.0):
        for n in range(0, 4):
            for k in range(0, n + 1):
                rep = derham_cohomology(TorusSpec(n, k, 4))
                assert rep.dims == tuple(comb(k, q) for q in range(n + 1))
        for k in range(0, 4):
            spec = TorusSpec(max(k, 1), k, 4)
            table = cup_table(spec)
            for qa in range(k + 1):
                for qb in range(k + 1):
                    for I in itertools.combinations(range(1, k + 1), qa):
                        for J in itertools.combinations(range(1, k + 1), qb):
                            vec = table[(I, J)]
                            if set(I) & set(J):
                                assert vec == {}
                            else:
                                sign = F(-1) ** sum(1 for i in I for j in J if i > j)
                                assert vec == {tuple(sorted(I + J)): sign}


def test_criterion_07_pole_reduction():
    with criterion(7, "pole-reduction identity on 100 closed forms per (k, n)",
                   limit=30.0):
        rng = random.Random(1031)
        for (k, n) in [(1, 1), (2, 2), (2, 3)]:
            spec = TorusSpec(n, k, 4)
            for _ in range(100):
                q = rng.randint(1, n)
                phi = random_closed_form(rng, spec, q)
                axis = rng.randint(1, k)
                w0, a1, theta = pole_reduce(phi, spec, axis)
                # identity, exactly
                rebuilt = w0 + wedge(log_form(n, (axis,)), a1) \
                    + exterior_derivative(theta)
                assert rebuilt == phi
                # closedness and pole-freeness postconditions
                assert exterior_derivative(w0).is_zero()
                assert exterior_derivative(a1).is_zero()
                assert all(exps[axis - 1] >= 0 for exps, _, _ in w0.terms)
                assert all(exps[axis - 1] == 0 and axis not in dI
                           for exps, dI, _ in a1.terms)


def test_criterion_08_affine_torus_betti_numbers():
    with criterion(8, "torus presets report the Betti numbers of (S^1)^k"):
        expected = {(1, 1): (1, 1), (2, 2): (1, 2, 1), (3, 3): (1, 3, 3, 1)}
        for (k, n), dims in expected.items():
            spec = build_torus(k, n)
            assert derham_cohomology(spec).dims == dims


def test_criterion_09_projective_line():
    with criterion(9, "p1 preset: dims (1,0,1), window-stable, Hodge E_1 pattern",
                   limit=10.0):
        rep = p1_report(4)  # internally recomputes at window 6 and compares
        assert rep.dims == (1, 0, 1)
        nonzero = {pq: d for pq, d in rep.e1_second.items() if d}
        assert nonzero == {(0, 0): 1, (1, 1): 1}


def test_criterion_10_pole_filtration_direct_limit():
    with criterion(10, "pole filtration stabilizes at level 1 with polynomial "
                       "level 0"):
        for (k, n) in [(1, 1), (2, 2), (3, 3)]:
            spec = build_torus(k, n)
            rep = pole_filtration_dims(spec, 3)
            assert rep.levels[0] == tuple([1] + [0] * n)
            assert rep.stabilization == 1
            final = tuple(comb(k, q) for q in range(n + 1))
            assert all(lv == final for lv in rep.levels[1:])
