"""Independent brute-force oracles used by the tests.

These build matrices directly from first principles (simplicial
coboundaries with literal +/-1 entries, point-by-point decompositions)
and never go through the production assembly paths they are checking.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

ZERO = Fraction(0)
ONE = Fraction(1)


def rank_of_rows(rows) -> int:
    """Exact rank by fraction-free (Bareiss) elimination over the integers.

    Rows are scaled to integers first; every division below is exact
    because each entry stays a minor of the scaled matrix.
    """
    m = []
    for row in rows:
        scale = lcm(*(Fraction(x).denominator for x in row))
        m.append([int(Fraction(x) * scale) for x in row])
    ncols = len(m[0]) if m else 0
    rank, prev = 0, 1
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        top = m[rank]
        for i in range(rank + 1, len(m)):
            m[i] = [(top[col] * x - m[i][col] * y) // prev for x, y in zip(m[i], top)]
        prev = top[col]
        rank += 1
    return rank


def simplicial_cohomology_dims(faces) -> list[int]:
    """Unreduced simplicial cohomology dims of an abstract complex.

    faces: iterable of strictly increasing vertex tuples (all dimensions,
    downward closed).  The coboundary matrices are written out entry by
    entry from the alternating-sum definition and the dims come from the
    rank-nullity count dim C^p - rank d_p - rank d_{p-1}.
    """
    faces = sorted(set(map(tuple, faces)), key=lambda f: (len(f), f))
    if not faces:
        return []
    top = max(len(f) for f in faces) - 1
    by_dim = {p: [f for f in faces if len(f) == p + 1] for p in range(top + 1)}
    ranks = []
    for p in range(top):
        src, dst = by_dim[p], by_dim[p + 1]
        src_index = {f: i for i, f in enumerate(src)}
        rows = []
        for g in dst:
            row = [ZERO] * len(src)
            for i in range(len(g)):
                sub = g[:i] + g[i + 1:]
                row[src_index[sub]] += ONE if i % 2 == 0 else -ONE
            rows.append(tuple(row))
        ranks.append(rank_of_rows(rows))
    dims = []
    for p in range(top + 1):
        d_out = ranks[p] if p < top else 0
        d_in = ranks[p - 1] if p > 0 else 0
        dims.append(len(by_dim[p]) - d_out - d_in)
    return dims


def per_point_cech_dims(points) -> list[int]:
    """Expected Cech cohomology of function-sheaf data, point by point.

    For each point s, the opens containing s span a full simplex in the
    nerve; the Cech complex splits into one simplicial cochain complex
    per point, so the expected dims are the sum of the per-point
    simplicial dims (each brute-forced independently).
    """
    universe = set()
    for s in points:
        universe |= set(s)
    total: list[int] = []
    for pt in sorted(universe):
        carriers = [i for i, s in enumerate(points) if pt in s]
        if not carriers:
            continue
        simplex = []
        import itertools

        for size in range(1, len(carriers) + 1):
            simplex.extend(itertools.combinations(carriers, size))
        dims = simplicial_cohomology_dims(simplex)
        for i, d in enumerate(dims):
            if i >= len(total):
                total.extend([0] * (i + 1 - len(total)))
            total[i] += d
    return total


def pad(dims, length) -> list[int]:
    out = list(dims) + [0] * (length - len(dims))
    return out[:length]


def reduce_columns_by_fractions(matrix, ncols: int, order, key=None) -> dict:
    """The textbook left-to-right column reduction R = M V over Fraction.

    matrix is a list of dense rows, ncols long each.  Columns are taken in order; a column
    is reduced by an earlier one while that one owns its low (its largest
    nonzero row under key), subtracting the multiple that clears the low.
    Returns {j: (R_j, V_j, low)} with R_j and V_j dense lists, V_j[j] = 1
    and low None when R_j = 0.
    """
    nrows = len(matrix)
    owner: dict = {}
    out = {}
    for j in order:
        r = [Fraction(matrix[i][j]) for i in range(nrows)]
        v = [ONE if k == j else ZERO for k in range(ncols)]
        while True:
            low = max((i for i in range(nrows) if r[i] != 0), key=key, default=None)
            if low is None or low not in owner:
                break
            r_low, v_low = owner[low]
            c = r[low] / r_low[low]
            r = [x - c * y for x, y in zip(r, r_low)]
            v = [x - c * y for x, y in zip(v, v_low)]
        if low is not None:
            owner[low] = (r, v)
        out[j] = (r, v, low)
    return out


def rref_by_fractions(rows):
    """Reduced row echelon form by textbook Gauss-Jordan over Fraction.

    rows is a list of dense rows.  Returns (pivot columns in increasing
    order, the nonzero reduced rows as tuples, in pivot order).
    """
    m = [[Fraction(x) for x in row] for row in rows]
    ncols = len(m[0]) if m else 0
    pivots: list = []
    for col in range(ncols):
        top = len(pivots)
        piv = next((i for i in range(top, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[top], m[piv] = m[piv], m[top]
        lead = m[top][col]
        m[top] = [x / lead for x in m[top]]
        for i in range(len(m)):
            c = m[i][col]
            if i != top and c != 0:
                m[i] = [x - c * y for x, y in zip(m[i], m[top])]
        pivots.append(col)
    return pivots, [tuple(row) for row in m[:len(pivots)]]


def cohomology_classes_by_fractions(dim: int, d_out, d_in) -> list:
    """The classes of ker d_out / im d_in on Q^dim, with representatives.

    d_out is the dense matrix of the map out of Q^dim (rows of length
    dim, possibly none), d_in that of the map into it (dim rows).  The
    kernel basis is the RREF one: per free column f of d_out, e_f minus
    column f of the RREF at its pivot rows; the coordinate of a kernel
    vector x on it is x[f].  The classes are the positions c of the free
    columns outside the pivots of the RREF of the image columns'
    coordinates.  Returns [(c, representative as a tuple of Fractions)].
    """
    pivots, reduced = rref_by_fractions(d_out)
    free = [f for f in range(dim) if f not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * dim
        v[f] = ONE
        for p, row in zip(pivots, reduced):
            v[p] = -row[f]
        basis.append(tuple(v))
    coords = [[col[f] for f in free] for col in zip(*d_in)]
    taken, _ = rref_by_fractions(coords)
    return [(c, basis[c]) for c in range(len(free)) if c not in taken]


def total_by_formula(cells: dict, maps: list) -> tuple:
    """The total complex of a grid, written out entry by entry from
    D = d_0 + (-1)^{x_0} d_1 + (-1)^{x_0 + x_1} d_2 + ... on cell x.

    cells maps each grid point x to the basis labels of its cell; maps[a]
    maps x to the dense matrix (a list of rows) of the differential along
    axis a out of x, and an absent x is a zero map.  Returns the basis of
    each total degree as a set of (x, label) and the nonzero entries of D
    as {(degree, (y, row label), (x, column label)): entry}.
    """
    basis = [set() for _ in range(max(map(sum, cells)) + 1)]
    for x, labels in cells.items():
        basis[sum(x)].update((x, lab) for lab in labels)
    entries = {}
    for a, axis_maps in enumerate(maps):
        for x, matrix in axis_maps.items():
            y = x[:a] + (x[a] + 1,) + x[a + 1:]
            sign = -1 if sum(x[:a]) % 2 else 1
            for i, row in enumerate(matrix):
                for j, v in enumerate(row):
                    if v:
                        entries[(sum(x), (y, cells[y][i]), (x, cells[x][j]))] = sign * Fraction(v)
    return basis, entries
