"""Pages read off the filtered reduction against the approximate-cycle oracle.

For both filtrations the engine's pages must match spectral_oracle.py on
every page dim, every d_r rank and the degeneration page, and each page's
index sets and d_r must match a filter of the pairing made for that page
alone.
"""

import random
from fractions import Fraction

import pytest

from spectral_oracle import oracle_pages, transpose
from test_spectral import _cover_grids, identity_cone, nullhomotopic_cone

from cohom.cech import cech_sheaf_double_complex
from cohom.generators import (
    nonzero_d2_double_complex,
    random_invertible,
    random_tensor_double_complex,
)
from cohom.grid import DoubleComplex
from cohom.linalg import LabeledSpace, LinearMap, invert
from cohom.presets import build_p1
from cohom.spectral import certify_convergence, first_pages, page_to_json, second_pages


def _tensor_grids():
    return [random_tensor_double_complex(random.Random(seed), max_bound=3)[0]
            for seed in range(100, 130)]


def zigzag_grid(rng) -> DoubleComplex:
    """Direct sum of random dots, squares and zigzags, in a random basis per cell.

    A zigzag x -> y_1 <- z_1 -> y_2 <- ... -> y_r (horizontal arrows to the
    right, vertical arrows up) starting at column p carries a nonzero d_r of
    the column filtration from p to p + r; half of the grids are transposed
    so that the row filtration sees long differentials too.
    """
    P, Q = rng.randint(1, 4), rng.randint(1, 3)
    count = {(p, q): 0 for p in range(P + 1) for q in range(Q + 1)}
    arrows = {"h": [], "v": []}

    def new(p, q):
        count[(p, q)] += 1
        return p, q, count[(p, q)] - 1

    for _ in range(rng.randint(2, 6)):
        kind = rng.choice(["dot", "square", "zigzag", "zigzag"])
        if kind == "dot":
            new(rng.randint(0, P), rng.randint(0, Q))
        elif kind == "square":
            p, q = rng.randint(0, P - 1), rng.randint(0, Q - 1)
            a, b, c, e = new(p, q), new(p + 1, q), new(p, q + 1), new(p + 1, q + 1)
            arrows["h"] += [(a, b), (c, e)]
            arrows["v"] += [(a, c), (b, e)]
        else:
            r = rng.randint(1, min(P, Q + 1))
            p, q = rng.randint(0, P - r), rng.randint(r - 1, Q)
            prev = new(p, q)
            for k in range(1, r + 1):
                y = new(p + k, q - k + 1)
                arrows["h"].append((prev, y))
                if k < r:
                    prev = new(p + k, q - k)
                    arrows["v"].append((prev, y))
    cells = tuple(tuple(LabeledSpace.make(f"c{p}{q}", count[(p, q)]) for q in range(Q + 1))
                  for p in range(P + 1))
    basis = {pq: random_invertible(rng, n)[0].matrix for pq, n in count.items()}

    def space_map(src, dst, kind):
        dom, cod = cells[src[0]][src[1]], cells[dst[0]][dst[1]]
        rows = [[0] * dom.dim for _ in range(cod.dim)]
        for (a, b) in arrows[kind]:
            if a[:2] == src and b[:2] == dst:
                rows[b[2]][a[2]] = 1
        m = LinearMap(dom, cod, tuple(tuple(Fraction(x) for x in row) for row in rows))
        a_dst = LinearMap(cod, cod, basis[dst])
        a_src = invert(LinearMap(dom, dom, basis[src]))
        return a_dst.compose(m).compose(a_src)

    horiz = tuple(tuple(space_map((p, q), (p + 1, q), "h") for q in range(Q + 1))
                  for p in range(P))
    vert = tuple(tuple(space_map((p, q), (p, q + 1), "v") for q in range(Q))
                 for p in range(P + 1))
    dc = DoubleComplex(P, Q, cells, horiz, vert)
    dc.validate()
    return transpose(dc) if rng.random() < 0.5 else dc


def _zigzag_grids():
    rng = random.Random(30)
    return [zigzag_grid(rng) for _ in range(30)]


def _nullhomotopic_cones():
    rng = random.Random(28)
    return [nullhomotopic_cone(rng)[0] for _ in range(12)]


def _identity_cones():
    rng = random.Random(29)
    return [identity_cone(rng)[0] for _ in range(10)]


def _cover_grids_with_a_2_face():
    """Cech-sheaf grids of seeded function-sheaf covers whose nerve has a 2-face
    (P >= 2), so a block of delta keyed by a 2-face meets its three signed drops."""
    rng, grids = random.Random(34), []
    while len(grids) < 6:
        grids += [dc for dc in _cover_grids(rng, 1) if dc.P >= 2]
    return grids


FAMILIES = {
    "tensor_grids": _tensor_grids,
    "nonzero_d2": lambda: [nonzero_d2_double_complex()],
    "nullhomotopic_cones": _nullhomotopic_cones,
    "identity_cones": _identity_cones,
    "zigzag_grids": _zigzag_grids,
    "p1_w4": lambda: [cech_sheaf_double_complex(*build_p1(4))],
    "cech_2_faces": _cover_grids_with_a_2_face,
}


def _degeneration(pages) -> int:
    """First r from which every d_r of the computed pages has rank 0."""
    r0 = len(pages) + 1
    for r in range(len(pages), 0, -1):
        if any(pages[r - 1]["ranks"].values()):
            break
        r0 = r
    return r0


def _as_oracle_pages(pages):
    out = []
    for page in pages:
        js = page_to_json(page)
        out.append({"dims": {(e["p"], e["q"]): e["dim"] for e in js["dims"]},
                    "ranks": {(e["p"], e["q"]): e["rank"] for e in js["d_r_ranks"]}})
    return out


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_pages_match_oracle(family):
    for dc in FAMILIES[family]():
        r_inf = max(dc.P, dc.Q) + 2
        want_first = oracle_pages(dc, r_inf)
        want_second = oracle_pages(transpose(dc), r_inf)
        assert _as_oracle_pages(first_pages(dc, r_inf)) == want_first
        assert _as_oracle_pages(second_pages(dc, r_inf)) == want_second
        cert = certify_convergence(dc)
        assert cert.first_degeneration == _degeneration(want_first)
        assert cert.second_degeneration == _degeneration(want_second)


def _filtered_pages(dc, axis, gens, r_max):
    """(span, d) of E_1..E_r_max, each filtered from the pairing on its own:
    E_r^{a,b} keeps the indices of Tot^{a+b} at level a whose distance is
    None or >= r, and d_r sends each source at distance r to the position
    of its target on E_r^{a+r, b-r+1}.  Tot^n lists its cells by ascending
    first index."""
    A, B = (dc.P, dc.Q) if axis == 0 else (dc.Q, dc.P)
    level = [[(p, n - p)[axis] for p in range(dc.P + 1) if 0 <= n - p <= dc.Q
              for _ in range(dc.cell(p, n - p).dim)] for n in range(dc.P + dc.Q + 1)]
    pages = []
    for r in range(1, r_max + 1):
        span = {(a, b): tuple(i for i, g in enumerate(gens[a + b])
                              if level[a + b][i] == a and (g[0] is None or g[0] >= r))
                for a in range(A + 1) for b in range(B + 1)}
        d = {}
        for (p, q), idx in span.items():
            g = gens[p + q]
            src = [(s, g[i][2]) for s, i in enumerate(idx) if g[i][0] == r and g[i][2] is not None]
            if src:
                d[(p, q)] = [(s, span[(p + r, q - r + 1)].index(t)) for s, t in src]
        pages.append((span, d))
    return pages


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_pages_match_a_per_page_filter_of_the_pairing(family):
    for dc in FAMILIES[family]():
        r_inf = max(dc.P, dc.Q) + 2
        for axis, pages_fn in enumerate((first_pages, second_pages)):
            pages = pages_fn(dc, r_inf)
            gens = pages[0].gens
            assert all(page.gens is gens for page in pages)
            assert [(page.span, page.d) for page in pages] == \
                _filtered_pages(dc, axis, gens, r_inf)
