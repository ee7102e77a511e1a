"""Preset builders: the 3-arc circle cover, affine torus models, and the
weight-truncated projective line.

The projective-line preset covers P^1 by two affine charts with
coordinate rings Q[z] and Q[w], glued over Q[z, 1/z] by w -> 1/z and
dw -> -dz/z^2.  All section spaces are truncated to weights in [-W, W]
under wt(z) = wt(dz) = 1, wt(w) = wt(dw) = -1; truncation stability
under W -> W + 2 is the correctness guard.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .cech import CoverNerve, HyperResult, SheafOnCover, _drops, cech_hyper
from .linalg import (LabeledSpace, LawViolation, LinearMap, ONE, Record, WindowExhausted,
                     reduce_columns)

if TYPE_CHECKING:
    from .forms import TorusSpec


class ParameterOutOfRange(ValueError):
    """A preset argument outside its range: malformed input, not a broken law."""


def build_circle():
    """Three arcs covering a circle: pairwise overlaps, no triple overlap."""
    faces = frozenset({(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)})
    nerve = CoverNerve(3, faces)
    line = {f: LabeledSpace(((f, "c"),)) for f in faces}
    restrictions = {(f, i): LinearMap(line[sub], line[f], ((ONE,),))
                    for f in faces for i, sub in _drops(f)}
    return nerve, SheafOnCover(nerve, line, restrictions)


def build_torus(k: int, n: int) -> TorusSpec:
    from .forms import TorusSpec

    if not 0 <= k <= n <= 3:
        raise ParameterOutOfRange("torus presets need 0 <= k <= n <= 3")
    return TorusSpec(n, k, 4)


def _mono_space(face, kind: str, exponents) -> LabeledSpace:
    return LabeledSpace(tuple((face, kind, j) for j in exponents))


def build_p1(weight_window: int):
    """Cech data of the projective line truncated to weights [-W, W].

    Returns (nerve, [level-0 sheaf, level-1 sheaf], level maps) ready for
    cech_hyper.  Labels: ("z", j) is z^j, ("w", j) is w^j, ("zdz", j) is
    z^j dz, ("wdw", j) is w^j dw.
    """
    W = weight_window
    if W < 3:
        raise ParameterOutOfRange("p1 window must be at least 3")
    faces = frozenset({(0,), (1,), (0, 1)})
    nerve = CoverNerve(2, faces)

    U0, U1, U01 = (0,), (1,), (0, 1)
    s0 = {
        U0: _mono_space(U0, "z", range(0, W + 1)),
        U1: _mono_space(U1, "w", range(0, W + 1)),
        U01: _mono_space(U01, "z", range(-W, W + 1)),
    }
    s1 = {
        U0: _mono_space(U0, "zdz", range(0, W)),
        U1: _mono_space(U1, "wdw", range(0, W)),
        U01: _mono_space(U01, "zdz", range(-W - 1, W)),
    }

    def matrix(dom: LabeledSpace, cod: LabeledSpace, images: dict) -> LinearMap:
        """images: domain label -> list of (codomain label, coefficient),
        each codomain label at most once."""
        index = {lab: i for i, lab in enumerate(cod.labels)}
        cols = [[(index[tgt], c) for tgt, c in images.get(lab, [])] for lab in dom.labels]
        return LinearMap.sparse_columns(dom, cod, cols)

    r0 = {
        (U01, 1): matrix(s0[U0], s0[U01],
                         {(U0, "z", j): [((U01, "z", j), ONE)] for j in range(0, W + 1)}),
        (U01, 0): matrix(s0[U1], s0[U01],
                         {(U1, "w", j): [((U01, "z", -j), ONE)] for j in range(0, W + 1)}),
    }
    r1 = {
        (U01, 1): matrix(s1[U0], s1[U01],
                         {(U0, "zdz", j): [((U01, "zdz", j), ONE)] for j in range(0, W)}),
        (U01, 0): matrix(s1[U1], s1[U01],
                         {(U1, "wdw", j): [((U01, "zdz", -j - 2), -ONE)] for j in range(0, W)}),
    }
    sheaf0 = SheafOnCover(nerve, s0, r0)
    sheaf1 = SheafOnCover(nerve, s1, r1)

    d_maps = {
        U0: matrix(s0[U0], s1[U0],
                   {(U0, "z", j): [((U0, "zdz", j - 1), j)]
                    for j in range(1, W + 1)}),
        U1: matrix(s0[U1], s1[U1],
                   {(U1, "w", j): [((U1, "wdw", j - 1), j)]
                    for j in range(1, W + 1)}),
        U01: matrix(s0[U01], s1[U01],
                    {(U01, "z", j): [((U01, "zdz", j - 1), j)]
                     for j in range(-W, W + 1) if j != 0}),
    }
    return nerve, [sheaf0, sheaf1], [d_maps]


_W_DEFAULT = 4

# p1_report runs cech_hyper at W and W + 2.  Measured with Python 3.11 on a
# 2-vCPU container with this limit lifted, `cohom preset p1` takes 0.26 s and
# 20 MB at W = 128, 0.48 s and 28 MB at W = 512, 0.81 s and 39 MB at W = 1024.
MAX_P1_WINDOW = 128


def check_p1_window(weight_window: int) -> None:
    """Refuse a p1 window outside 3 <= W <= MAX_P1_WINDOW."""
    if not 3 <= weight_window <= MAX_P1_WINDOW:
        raise ParameterOutOfRange(f"p1 window {weight_window} is outside 3..{MAX_P1_WINDOW}")


class P1Report(Record):
    window: int
    dims: tuple                    # hypercohomology dims (degree 0..2)
    e1_second: dict                # (p, q) -> dim, page coordinates of second_pages
    h2_representative: str         # label of the generating 1-cochain
    hyper: HyperResult


def p1_report(weight_window: int = _W_DEFAULT) -> P1Report:
    """Hypercohomology of the p1 preset with the stability guard."""
    check_p1_window(weight_window)
    dims_by_window = {}
    results = {}
    for W in (weight_window, weight_window + 2):
        nerve, sheaves, maps = build_p1(W)
        res = cech_hyper(nerve, sheaves, maps)
        dims_by_window[W] = res.dims
        results[W] = res
    if dims_by_window[weight_window] != dims_by_window[weight_window + 2]:
        raise WindowExhausted(
            f"p1 dims changed between windows {weight_window} and {weight_window + 2}")
    res = results[weight_window]
    e1 = {pq: len(idx) for pq, idx in sorted(res.second[0].span.items())}

    # the degree-2 class is generated by the 1-cochain z^-1 dz on the overlap
    tot2 = res.total.space(2)
    label = ((0, 1), ((0, 1), "zdz", -1))
    if _is_coboundary(res.total.diff(1), tot2.labels.index((1, 1, label))):
        raise LawViolation("z^-1 dz is not a coboundary", f"window {weight_window}")
    return P1Report(weight_window, res.dims, e1,
                    "z^-1 dz on U_01 (Cech degree 1, form level 1)", res)


def _is_coboundary(d: LinearMap, i: int) -> bool:
    """Whether basis vector i of the codomain lies in the image of d: appended
    after the columns of d, it reduces to zero."""
    cols = d.transpose().rows + (((i, ONE),),)
    *_, (_, _, _, low) = reduce_columns(cols, range(len(cols)))
    return low is None


class TorusReport(Record):
    k: int
    n: int
    derham_dims: tuple
    hyper_dims: tuple
    log_generators: tuple


def torus_report(k: int, n: int) -> TorusReport:
    """Affine-torus dims from the form complex and from the trivial cover.

    The single-open Cech route must reproduce the de Rham dims: with one
    open set hypercohomology is just the cohomology of the section
    complex.  The cross-check runs at window 1; the dims cannot depend on
    the window because derham_cohomology verifies that every nonzero
    multidegree component of the preset window is exact.
    """
    from .forms import TorusSpec, derham_cohomology

    spec = build_torus(k, n)
    report = derham_cohomology(spec)
    hyper = trivial_cover_hyper(TorusSpec(spec.n, spec.k, 1))
    return TorusReport(k, n, report.dims, hyper.dims, report.generators)


def trivial_cover_hyper(spec: TorusSpec) -> HyperResult:
    """cech_hyper of the truncated de Rham complex on a single-open cover."""
    from .forms import truncated_de_rham_complex

    nerve = CoverNerve(1, frozenset({(0,)}))
    cx = truncated_de_rham_complex(spec)
    sheaves = [SheafOnCover(nerve, {(0,): space}, {}) for space in cx.spaces]
    return cech_hyper(nerve, sheaves, [{(0,): d} for d in cx.diffs])
