"""Seeded random builders for self-tests and property tests.

Random complexes are direct sums of shifted elementary pieces
(0 -> Q -> 0 and 0 -> Q -> Q -> 0) conjugated by random invertible
matrices, so d.d = 0 holds by construction, the true cohomology is the
count of one-term pieces per degree, and the matrices are still dense
enough to exercise the elimination paths.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .cech import CoverNerve, SheafOnCover, function_sheaf
from .complexes import CochainComplex
from .forms import AlgebraicForm, TorusSpec, exterior_derivative, log_form
from .grid import DoubleComplex, TripleComplex, tensor_double_complex, tensor_triple_complex
from .linalg import LabeledSpace, LinearMap, ONE, ZERO


def random_invertible(rng: random.Random, n: int, ops: int = None) -> tuple:
    """(m, m^-1): m = E_k ... E_1 applies random elementary row operations to
    the identity, and m^-1 = E_1^-1 ... E_k^-1 undoes them in reverse order;
    it is built alongside m, each E^-1 applied as a column operation."""
    space = LabeledSpace.make("v", n)
    rows = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    inv = [list(r) for r in rows]
    if ops is None:
        ops = 2 * n
    for _ in range(ops if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = Fraction(rng.choice([-2, -1, 1, 2]))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        for r in inv:
            r[j] -= c * r[i]
    return tuple(LinearMap(space, space, tuple(map(tuple, m))) for m in (rows, inv))


def random_cochain_complex(rng: random.Random, max_top: int = 4,
                           max_dim: int = 3, conjugate: bool = True):
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
    cx = CochainComplex(0, top, spaces, tuple(diffs))
    if conjugate:
        cx = conjugate_complex(rng, cx)
    return cx, tuple(rem)


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
    def space(p, q, d):
        return LabeledSpace(tuple(((p, q), i) for i in range(d)))

    dims = {(0, 1): 1, (1, 1): 1, (1, 0): 1, (2, 0): 1}
    cells = tuple(tuple(space(p, q, dims.get((p, q), 0)) for q in range(2))
                  for p in range(3))
    one = ((ONE,),)
    horiz = []
    for p in range(2):
        col = []
        for q in range(2):
            if (p, q) == (0, 1) or (p, q) == (1, 0):
                col.append(LinearMap(cells[p][q], cells[p + 1][q], one))
            else:
                col.append(LinearMap.zero(cells[p][q], cells[p + 1][q]))
        horiz.append(tuple(col))
    vert = []
    for p in range(3):
        col = []
        for q in range(1):
            if (p, q) == (1, 0):
                col.append(LinearMap(cells[p][q], cells[p][q + 1], one))
            else:
                col.append(LinearMap.zero(cells[p][q], cells[p][q + 1]))
        vert.append(tuple(col))
    return DoubleComplex(2, 1, cells, tuple(horiz), tuple(vert))


def random_form(rng: random.Random, spec: TorusSpec, q: int,
                max_terms: int = 4) -> AlgebraicForm:
    """Random q-form with window exponents; may be zero."""
    import itertools

    if not 0 <= q <= spec.n:
        return AlgebraicForm.zero(spec.n, max(q, 0))
    subsets = list(itertools.combinations(range(1, spec.n + 1), q))
    out = AlgebraicForm.zero(spec.n, q)
    for _ in range(rng.randint(0, max_terms)):
        dI = rng.choice(subsets)
        exps = []
        for i in range(1, spec.n + 1):
            lo = -spec.window if spec.inverted(i) else 0
            exps.append(rng.randint(lo, spec.window))
        coeff = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))
        out = out + AlgebraicForm.monomial(spec.n, coeff, tuple(exps), dI)
    return out


def random_closed_form(rng: random.Random, spec: TorusSpec, q: int) -> AlgebraicForm:
    """d(random form) plus a random combination of log generators."""
    import itertools

    phi = exterior_derivative(random_form(rng, spec, q - 1)) if q >= 1 \
        else AlgebraicForm.zero(spec.n, 0)
    if q == 0:
        phi = AlgebraicForm.monomial(spec.n, rng.randint(1, 5), (0,) * spec.n)
    for I in itertools.combinations(range(1, spec.k + 1), q):
        c = rng.choice([0, 0, 1, -1, 2, Fraction(1, 2)])
        if c:
            phi = phi + log_form(spec.n, I).scale(c)
    return phi


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
        if len(f) < 2:
            continue
        for i in range(len(f)):
            dropped = perm[f[i]]
            restrictions[(g, g.index(dropped))] = sheaf.restriction(f, i)
    return SheafOnCover(new_nerve, spaces, restrictions)
