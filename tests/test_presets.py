from math import comb

import pytest

from cohom.cech import cech_cohomology, cech_hyper
from cohom.forms import derham_cohomology
from cohom.presets import (
    ParameterOutOfRange,
    build_circle,
    build_p1,
    build_torus,
    p1_report,
    torus_report,
    trivial_cover_hyper,
)
from cohom.spectral import certify_convergence


def test_circle_dims():
    nerve, sheaf = build_circle()
    rep = cech_cohomology(nerve, sheaf)
    assert rep.dims == (1, 1)
    assert nerve.max_dim == 1  # no faces above degree 1


def test_torus_preset_dims():
    expected = {(1, 1): (1, 1), (2, 2): (1, 2, 1), (3, 3): (1, 3, 3, 1)}
    for (k, n), dims in expected.items():
        spec = build_torus(k, n)
        assert derham_cohomology(spec).dims == dims
    # every preset 0 <= k <= n <= 3 has the binomial Betti numbers
    for n in range(4):
        for k in range(n + 1):
            assert derham_cohomology(build_torus(k, n)).dims == \
                tuple(comb(k, q) for q in range(n + 1))


def test_torus_preset_window():
    assert build_torus(2, 3).window == 4


def test_torus_parameter_validation():
    with pytest.raises(ParameterOutOfRange):
        build_torus(2, 1)
    with pytest.raises(ParameterOutOfRange):
        build_torus(1, 4)
    with pytest.raises(ParameterOutOfRange):
        build_torus(-1, 1)


def test_torus_derham_agrees_with_trivial_cover_hyper():
    for (k, n) in [(1, 1), (2, 2), (3, 3), (1, 2)]:
        tr = torus_report(k, n)
        assert tr.derham_dims == tr.hyper_dims


def _label_weight(lab):
    """Weight of a monomial label under wt(z) = wt(dz) = 1, wt(w) = wt(dw) = -1."""
    wt = {"z": 1, "dz": 1, "w": -1, "dw": -1}
    _, kind, j = lab
    if kind == "z":
        return j * wt["z"]
    if kind == "w":
        return j * wt["w"]
    if kind == "zdz":
        return j * wt["z"] + wt["dz"]
    return j * wt["w"] + wt["dw"]


def test_p1_structure_maps_are_weight_homogeneous():
    nerve, sheaves, maps = build_p1(4)
    for sheaf in sheaves:
        for (face, i), m in sheaf.restrictions.items():
            for r, row in enumerate(m.matrix):
                for c, x in enumerate(row):
                    if x != 0:
                        assert _label_weight(m.codomain.labels[r]) == \
                            _label_weight(m.domain.labels[c])
    for m in maps[0].values():
        for r, row in enumerate(m.matrix):
            for c, x in enumerate(row):
                if x != 0:
                    assert _label_weight(m.codomain.labels[r]) == \
                        _label_weight(m.domain.labels[c])


def test_p1_dims_and_hodge_pattern():
    rep = p1_report(4)
    assert rep.dims == (1, 0, 1)
    nonzero = {pq: d for pq, d in rep.e1_second.items() if d}
    assert nonzero == {(0, 0): 1, (1, 1): 1}
    cert = rep.hyper.certificate
    assert (cert.first_degeneration, cert.second_degeneration) == (2, 1)


def test_p1_window_stability():
    assert p1_report(3).dims == p1_report(5).dims == (1, 0, 1)


def test_p1_window_validation():
    with pytest.raises(ParameterOutOfRange):
        build_p1(2)


def test_p1_h1_of_functions_vanishes():
    """Cech H^1 of the degree-0 level is zero: E_1 entry for it is empty."""
    rep = p1_report(4)
    # second-page coordinates (p, q) = input cell (q, p):
    # input (1, 0) = H^1 of level 0, input (0, 1) = H^0 of level 1
    assert rep.e1_second[(0, 1)] == 0
    assert rep.e1_second[(1, 0)] == 0


def test_p1_einf_sums_agree_with_totals():
    nerve, sheaves, maps = build_p1(4)
    res = cech_hyper(nerve, sheaves, maps)
    cert = certify_convergence(res.double)
    assert cert.total_dims == (1, 0, 1)
    for deg, cells in cert.first_einf.items():
        assert sum(x for _, x in cells) == cert.total_dims[deg]
    for deg, cells in cert.second_einf.items():
        assert sum(x for _, x in cells) == cert.total_dims[deg]


def test_trivial_cover_hyper_spectral_degenerates():
    spec = build_torus(2, 2)
    res = trivial_cover_hyper(spec)
    # one open: nothing beyond Cech degree 0
    assert res.double.P == 0
