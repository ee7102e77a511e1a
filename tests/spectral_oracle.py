"""Reference spectral pages from approximate cycles, for cross-checking.

This is the span-and-solve page builder the engine used before it read
pages off one filtered column reduction.  For the column filtration
F_p Tot^n = sum_{p' >= p} K^{p', n-p'} it builds

    Z_r^{p,q} = { x in F_p Tot^{p+q} : D x in F_{p+r} },
    E_r^{p,q} = Z_r^{p,q} / ( Z_{r-1}^{p+1,q-1} + D Z_{r-1}^{p-r+1,q+r-2} ),

and d_r by applying D to representatives and solving for coordinates
in the target page entry.  From the package it reads only the cells and
the stored maps of the grid, and builds grids with the `DoubleComplex`
constructor: it lays out Tot and applies D itself, and its spans,
solves and ranks are its own, so its pages share neither assembly nor
elimination code with the pages it checks.  Pass `transpose(dc)` for
the row filtration.
"""

from __future__ import annotations

from fractions import Fraction

from oracles import rank_of_rows

from cohom.grid import DoubleComplex

ZERO = Fraction(0)


def transpose(dc: DoubleComplex) -> DoubleComplex:
    """The grid with p and q exchanged: cell (q, p) of the result is cell (p, q)
    of dc, and the vertical maps become the horizontal ones."""
    P, Q = dc.P, dc.Q

    def swap(grid, outer, inner):
        return tuple(tuple(grid[i][j] for i in range(outer)) for j in range(inner))

    return DoubleComplex(Q, P, swap(dc.cells, P + 1, Q + 1),
                         swap(dc.vert, P + 1, Q), swap(dc.horiz, P, Q + 1))


def _dot(pairs, vec) -> Fraction:
    return sum((c * vec[i] for i, c in pairs if vec[i] != 0), ZERO)


class _Span:
    """Incremental span; each stored row is zero at the earlier pivots
    and has leading entry 1 at its own."""

    def __init__(self):
        self.rows: list = []  # (pivot, row)

    def add(self, v) -> bool:
        """Add v to the span; True iff it enlarged the span."""
        v = list(v)
        for piv, row in self.rows:
            a = v[piv]
            if a != 0:
                v = [x - a * y for x, y in zip(v, row)]
        piv = next((i for i, x in enumerate(v) if x != 0), None)
        if piv is None:
            return False
        lead = v[piv]
        self.rows.append((piv, [x / lead for x in v]))
        return True


def _solve_in_span(vectors, target):
    """Coefficients c with sum c_i vectors[i] = target, or None.

    Plain Gauss-Jordan elimination on the augmented matrix
    [vectors | target], one row per ambient coordinate.
    """
    k = len(vectors)
    m = [[v[r] for v in vectors] + [target[r]] for r in range(len(target))]
    pivots: list = []
    for col in range(k + 1):
        top = len(pivots)
        piv = next((i for i in range(top, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        if col == k:
            return None  # a pivot in the target column: target is outside the span
        m[top], m[piv] = m[piv], m[top]
        lead = m[top][col]
        m[top] = [x / lead for x in m[top]]
        for i in range(len(m)):
            f = m[i][col]
            if i != top and f != 0:
                m[i] = [x - f * y for x, y in zip(m[i], m[top])]
        pivots.append(col)
    coeffs = [ZERO] * k
    for i, col in enumerate(pivots):
        coeffs[col] = m[i][k]
    return coeffs


class _Filtration:
    """Column filtration data of Tot(dc), laid out from the cells of dc.

    Tot^n lists the cells (p, n - p) by ascending p, and D on cell (p, q)
    is horiz + (-1)^p vert, written here entry by entry as Fractions.
    """

    def __init__(self, dc: DoubleComplex):
        self.P, self.Q = dc.P, dc.Q
        self.n_max = dc.P + dc.Q
        self.level = []  # level[n][i]: the p of index i of Tot^n
        offset = []      # offset[n][p]: the index of the first basis vector of cell (p, n - p)
        for n in range(self.n_max + 1):
            offset.append({})
            self.level.append([])
            for p in range(max(0, n - dc.Q), min(dc.P, n) + 1):
                offset[n][p] = len(self.level[n])
                self.level[n] += [p] * dc.cells[p][n - p].dim
        self.d = []  # d[n][i]: the nonzero (column, entry) pairs of row i of D on Tot^n
        for n in range(self.n_max):
            rows: list = [[] for _ in self.level[n + 1]]
            for p, col0 in offset[n].items():
                q = n - p
                blocks = [(dc.horiz[p][q], p + 1, 1)] if p < dc.P else []
                blocks += [(dc.vert[p][q], p, (-1) ** p)] if q < dc.Q else []
                for m, dst, sign in blocks:
                    for i, row in enumerate(m.rows, offset[n + 1][dst]):
                        for j, x in row:
                            rows[i].append((col0 + j, sign * Fraction(x)))
            self.d.append(rows)
        self._zcache: dict = {}

    def degree_dim(self, n: int) -> int:
        return len(self.level[n]) if 0 <= n <= self.n_max else 0

    def z_spaces(self, p: int, n: int) -> list:
        """Bases of {x in F_p Tot^n : D x in F_t Tot^{n+1}} for t = 0..P+1."""
        key = (p, n)
        if key in self._zcache:
            return self._zcache[key]
        dim_n = self.degree_dim(n)
        start = next((i for i, lv in enumerate(self.level[n]) if lv >= p), dim_n)
        basis = []
        for i in range(start, dim_n):
            v = [ZERO] * dim_n
            v[i] = Fraction(1)
            basis.append(tuple(v))
        snapshots = [list(basis)]
        rows_by_block: dict = {}
        if n < self.n_max:
            for i, pairs in enumerate(self.d[n]):
                rows_by_block.setdefault(self.level[n + 1][i], []).append(pairs)
        for t in range(0, self.P + 1):
            for pairs in rows_by_block.get(t, []):
                vals = [_dot(pairs, b) for b in basis]
                piv = next((i for i, v in enumerate(vals) if v != 0), None)
                if piv is None:
                    continue
                pv, pb = vals[piv], basis[piv]
                new_basis = []
                for i, b in enumerate(basis):
                    if i == piv:
                        continue
                    if vals[i] == 0:
                        new_basis.append(b)
                    else:
                        f = vals[i] / pv
                        new_basis.append(tuple(x - f * y for x, y in zip(b, pb)))
                basis = new_basis
            snapshots.append(list(basis))
        self._zcache[key] = snapshots
        return snapshots

    def z_basis(self, p: int, t: int, n: int) -> list:
        """Basis of {x in F_max(p,0) Tot^n : D x in F_min(t,P+1)}."""
        if n < 0 or n > self.n_max or p > self.P:
            return []
        return self.z_spaces(max(p, 0), n)[max(min(t, self.P + 1), 0)]

    def apply_d(self, n: int, v):
        return tuple(_dot(pairs, v) for pairs in self.d[n]) if n < self.n_max else ()


def oracle_pages(dc: DoubleComplex, r_max: int) -> list[dict]:
    """Per page r = 1..r_max: {"dims": {(p, q): dim}, "ranks": {(p, q): rank d_r}}."""
    filt = _Filtration(dc)
    P, Q = dc.P, dc.Q
    pages = []
    for r in range(1, r_max + 1):
        data = {}
        for p in range(P + 1):
            for q in range(Q + 1):
                n = p + q
                den_vectors = list(filt.z_basis(p + 1, p + r, n))
                for v in filt.z_basis(p - r + 1, p, n - 1):
                    den_vectors.append(filt.apply_d(n - 1, v))
                builder = _Span()
                den_basis = [v for v in den_vectors if builder.add(v)]
                reps = [v for v in filt.z_basis(p, p + r, n) if builder.add(v)]
                data[(p, q)] = (den_basis, reps)
        ranks = {}
        for p in range(P + 1):
            for q in range(Q + 1):
                tp, tq = p + r, q - r + 1
                if not (0 <= tp <= P and 0 <= tq <= Q):
                    continue
                den_t, reps_t = data[(tp, tq)]
                cols = []
                for x in data[(p, q)][1]:
                    coeffs = _solve_in_span(den_t + reps_t, filt.apply_d(p + q, x))
                    assert coeffs is not None, "d_r image escapes the target page entry"
                    cols.append(tuple(coeffs[len(den_t):]))
                ranks[(p, q)] = rank_of_rows(cols)
        pages.append({"dims": {pq: len(v[1]) for pq, v in data.items()}, "ranks": ranks})
    return pages
