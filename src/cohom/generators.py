"""Seeded random builders for self-tests and property tests.

Random complexes are direct sums of shifted elementary pieces
(0 -> Q -> 0 and 0 -> Q -> Q -> 0) conjugated by random invertible
matrices, so d.d = 0 holds by construction, the true cohomology is the
count of one-term pieces per degree, and the matrices are still dense
enough to exercise the elimination paths.
"""

from __future__ import annotations

import random

from .cech import CoverNerve, SheafOnCover, _drops, function_sheaf
from .complexes import CochainComplex
from .grid import DoubleComplex, TripleComplex, tensor_double_complex, tensor_triple_complex
from .exact import ONE, ZERO
from .linalg import LabeledSpace, LinearMap


def random_invertible(rng: random.Random, n: int) -> tuple:
    """(m, m^-1): m = E_k ... E_1 applies k = 2n random elementary row operations
    to the identity, and m^-1 = E_1^-1 ... E_k^-1 undoes them in reverse order;
    it is built alongside m, each E^-1 applied as a column operation."""
    space = LabeledSpace.make("v", n)
    rows = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    inv = [list(r) for r in rows]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        for r in inv:
            r[j] -= c * r[i]
    return tuple(LinearMap(space, space, tuple(map(tuple, m))) for m in (rows, inv))


def random_cochain_complex(rng: random.Random, max_top: int = 4, max_dim: int = 3):
    """Random valid bounded complex; returns (complex, true cohomology dims).

    Layout before conjugation: in degree k the first two_term[k-1]
    coordinates are targets of d_{k-1}, the next two_term[k] are sources
    of d_k, the rest are one-term pieces (the surviving cohomology).
    """
    top = rng.randint(0, max_top)
    dims = [rng.randint(0, max_dim) for _ in range(top + 1)]
    if sum(dims) == 0:
        dims[rng.randint(0, top)] = 1
    rem = list(dims)
    two_term = [0] * max(top, 0)
    for k in range(top):
        t = rng.randint(0, min(rem[k], rem[k + 1]))
        two_term[k] = t
        rem[k] -= t
        rem[k + 1] -= t
    spaces = tuple(LabeledSpace.make(f"K{k}", dims[k]) for k in range(top + 1))
    diffs = []
    for k in range(top):
        rows = [[ZERO] * dims[k] for _ in range(dims[k + 1])]
        src_off = two_term[k - 1] if k > 0 else 0
        for t in range(two_term[k]):
            rows[t][src_off + t] = ONE
        diffs.append(LinearMap(spaces[k], spaces[k + 1], tuple(tuple(r) for r in rows)))
    return conjugate_complex(rng, CochainComplex(0, top, spaces, tuple(diffs))), tuple(rem)


def conjugate_complex(rng: random.Random, cx: CochainComplex) -> CochainComplex:
    """Change of basis in every degree; cohomology dims are untouched."""
    ps = [[LinearMap.sparse(s, s, m.rows) for m in random_invertible(rng, s.dim)]
          for s in cx.spaces]
    new_diffs = tuple(ps[i + 1][0].compose(d).compose(ps[i][1])
                      for i, d in enumerate(cx.diffs))
    return CochainComplex(cx.lo, cx.hi, cx.spaces, new_diffs)


def random_function_sheaf(rng: random.Random, max_opens: int = 5,
                          max_points: int = 8) -> SheafOnCover:
    universe = rng.randint(1, max_points)
    n_opens = rng.randint(1, max_opens)
    points = []
    for _ in range(n_opens):
        size = rng.randint(1, universe)
        points.append(frozenset(rng.sample(range(universe), size)))
    return function_sheaf(points)


def random_tensor_double_complex(rng: random.Random, max_bound: int = 4,
                                 cell_cap: int = 3):
    """Tensor double complex with cell dims bounded by cell_cap.

    Returns (double complex, factor A, factor B, true h(A), true h(B)).
    """
    caps = [(a, b) for a in range(1, cell_cap + 1)
            for b in range(1, cell_cap + 1) if a * b <= cell_cap]
    cap_a, cap_b = rng.choice(caps)
    a, ha = random_cochain_complex(rng, max_top=max_bound, max_dim=cap_a)
    b, hb = random_cochain_complex(rng, max_top=max_bound, max_dim=cap_b)
    return tensor_double_complex(a, b), a, b, ha, hb


def random_tensor_triple_complex(rng: random.Random) -> TripleComplex:
    """2x2x2 tensor triple complex (bounds 1, 1, 1), cell dims <= 2."""
    factors = []
    for _ in range(3):
        cx, _ = random_cochain_complex(rng, max_top=1, max_dim=2)
        if cx.hi == 0:
            one = LabeledSpace.make("pad", 1)
            cx = CochainComplex(0, 1, (cx.space(0), one),
                                (LinearMap.zero(cx.space(0), one),))
        factors.append(cx)
    return tensor_triple_complex(*factors)


def nonzero_d2_double_complex() -> DoubleComplex:
    """Minimal grid with a nonzero page-2 differential.

    One generator x at (0,1) with delta x = y at (1,1); z at (1,0) with
    d z = y and delta z = w at (2,0).  The total cohomology vanishes,
    pages 1 and 2 keep x and w alive, and d_2 [x] = [w].
    """
    dims = {(0, 1): 1, (1, 1): 1, (1, 0): 1, (2, 0): 1}
    cells = {(p, q): LabeledSpace(tuple(((p, q), i) for i in range(dims.get((p, q), 0))))
             for p in range(3) for q in range(2)}

    def maps(dp, dq, ones):
        """Every map one step (dp, dq) along: the 1 x 1 identity at the cells in ones, else zero."""
        return {(p, q): LinearMap.sparse(c, cells[p + dp, q + dq], [((0, ONE),)] if (p, q) in ones
                                         else [()] * cells[p + dp, q + dq].dim)
                for (p, q), c in cells.items() if (p + dp, q + dq) in cells}

    return DoubleComplex._build((2, 1), cells, [maps(1, 0, {(0, 1), (1, 0)}), maps(0, 1, {(1, 0)})])


def permute_cover(sheaf: SheafOnCover, perm: list[int]) -> SheafOnCover:
    """Relabel the opens of a cover by a permutation; spaces are reused."""
    nerve = sheaf.nerve
    new_faces = frozenset(tuple(sorted(perm[a] for a in f)) for f in nerve.faces)
    new_nerve = CoverNerve(nerve.opens, new_faces)
    spaces = {}
    restrictions = {}
    for f in nerve.faces:
        g = tuple(sorted(perm[a] for a in f))
        spaces[g] = sheaf.space(f)
        for i, _ in _drops(f):
            restrictions[(g, g.index(perm[f[i]]))] = sheaf.restriction(f, i)
    return SheafOnCover(new_nerve, spaces, restrictions)
