"""Bounded double and triple complexes and their total complexes.

Conventions: both differentials of a double complex commute (the sign
lives in the total differential, never in the stored maps); the total
differential restricted to cell (p, q) is horiz + (-1)^p vert; cells
inside a total degree are ordered by ascending first index.  Every grid
checks its laws (`validate`) when it is built, as `CochainComplex` does.
A double complex keeps its total complex, a pure function of the grid,
from the first `total` call, so the cohomology, both page sequences and
the certificate of one grid share one checked `CochainComplex`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .complexes import CochainComplex
from .linalg import (
    CohomError,
    LabeledSpace,
    LinearMap,
    ONE,
    ZERO_SPACE,
    check_declared_dim,
    int_from_json,
    matrix_from_json_shaped,
    matrix_to_json,
)

MAX_BOUND = 16


class InvariantViolation(CohomError):
    def __init__(self, cell, law: str):
        self.cell = cell
        self.law = law
        super().__init__(f"{law} fails at cell {cell}")


class GridTooLarge(CohomError):
    pass


@dataclass(frozen=True)
class DoubleComplex:
    """First-quadrant grid K^{p,q}, 0 <= p <= P, 0 <= q <= Q.

    horiz[p][q] : K^{p,q} -> K^{p+1,q}  (p < P)
    vert[p][q]  : K^{p,q} -> K^{p,q+1}  (q < Q)
    """

    P: int
    Q: int
    cells: tuple[tuple[LabeledSpace, ...], ...]
    horiz: tuple[tuple[LinearMap, ...], ...]
    vert: tuple[tuple[LinearMap, ...], ...]

    def __post_init__(self):
        if self.P < 0 or self.Q < 0:
            raise ValueError("negative bounds")
        if self.P > MAX_BOUND or self.Q > MAX_BOUND:
            raise GridTooLarge(f"bounds ({self.P}, {self.Q}) exceed {MAX_BOUND}")
        if len(self.cells) != self.P + 1 or any(len(col) != self.Q + 1 for col in self.cells):
            raise ValueError("cells shape does not match bounds")
        if len(self.horiz) != self.P or any(len(col) != self.Q + 1 for col in self.horiz):
            raise ValueError("horiz shape does not match bounds")
        if len(self.vert) != self.P + 1 or any(len(col) != self.Q for col in self.vert):
            raise ValueError("vert shape does not match bounds")
        for axis, (dp, dq) in enumerate(((1, 0), (0, 1))):
            for p, q in itertools.product(range(self.P + 1 - dp), range(self.Q + 1 - dq)):
                m = self.map(axis, p, q)
                if m.domain != self.cells[p][q] or m.codomain != self.cells[p + dp][q + dq]:
                    raise ValueError(f"{('horiz', 'vert')[axis]} map at {(p, q)} has wrong spaces")
        self.validate()

    def cell(self, p: int, q: int) -> LabeledSpace:
        return self.cells[p][q]

    def map(self, axis: int, p: int, q: int) -> LinearMap:
        """horiz (axis 0) or vert (axis 1) out of cell (p, q)."""
        return (self.horiz, self.vert)[axis][p][q]

    def validate(self) -> None:
        """delta.delta = 0, d.d = 0 and commutation on every cell."""
        _check_laws((self.P, self.Q), self.map,
                    lambda a: f"{('horizontal', 'vertical')[a]} differential squares to zero",
                    lambda a, b: "horizontal and vertical differentials commute")


def _swap(grid, outer: int, inner: int) -> tuple:
    """grid[i][j] as [j][i], for an outer x inner grid."""
    return tuple(tuple(grid[i][j] for i in range(outer)) for j in range(inner))


def _shift(cell: tuple, axis: int) -> tuple:
    return tuple(x + 1 if a == axis else x for a, x in enumerate(cell))


def _check_laws(bounds: tuple, map, square_law, commute_law) -> None:
    """Each map(axis, *cell) squares to zero and each pair commutes, cell by cell;
    square_law(a) and commute_law(a, b) name the law that fails."""
    axes = range(len(bounds))
    for cell in itertools.product(*(range(b + 1) for b in bounds)):
        for a in axes:
            if cell[a] + 2 <= bounds[a] and \
                    not map(a, *_shift(cell, a)).compose(map(a, *cell)).is_zero():
                raise InvariantViolation(cell, square_law(a))
        for a, b in itertools.combinations(axes, 2):
            if cell[a] < bounds[a] and cell[b] < bounds[b]:
                x = map(b, *_shift(cell, a)).compose(map(a, *cell))
                y = map(a, *_shift(cell, b)).compose(map(b, *cell))
                if x != y:
                    raise InvariantViolation(cell, commute_law(a, b))


def _antidiagonal(n: int, lo: int, hi: int) -> list[tuple[int, int]]:
    """Pairs (i, n - i) with 0 <= i <= lo and 0 <= n - i <= hi, ascending i."""
    return [(i, n - i) for i in range(max(0, n - hi), min(lo, n) + 1)]


def _merged_map(domain: LabeledSpace, codomain: LabeledSpace, src: tuple, dst: tuple,
                bounds: tuple[int, int], first, second) -> LinearMap:
    """first + (-1)^i second from one antidiagonal into the next.

    src and dst are the (cells, dims) of the two antidiagonals; first(i, j)
    maps cell (i, j) to (i + 1, j) and second(i, j) to (i, j + 1).
    """
    dst_index = {cell: k for k, cell in enumerate(dst[0])}
    blocks = {}
    for k, (i, j) in enumerate(src[0]):
        if i < bounds[0]:
            blocks[(dst_index[(i + 1, j)], k)] = (1, first(i, j))
        if j < bounds[1]:
            blocks[(dst_index[(i, j + 1)], k)] = (-1 if i % 2 else 1, second(i, j))
    return LinearMap.from_blocks(domain, codomain, src[1], dst[1], blocks)


def total(k: DoubleComplex) -> CochainComplex:
    """Total complex with differential delta + (-1)^p d on cell (p, q),
    built and checked on the first call and kept on the grid."""
    tot = k.__dict__.get("_total")
    if tot is not None:
        return tot
    cells = k.cells
    diag = []  # (cells, dims) of each antidiagonal
    for n in range(k.P + k.Q + 1):
        cs = _antidiagonal(n, k.P, k.Q)
        diag.append((cs, [cells[p][q].dim for p, q in cs]))
    spaces = tuple(LabeledSpace(tuple((p, q, lab) for p, q in cs for lab in cells[p][q].labels))
                   for cs, _ in diag)
    diffs = tuple(_merged_map(spaces[n], spaces[n + 1], diag[n], diag[n + 1], (k.P, k.Q),
                              lambda p, q: k.horiz[p][q], lambda p, q: k.vert[p][q])
                  for n in range(k.P + k.Q))
    tot = CochainComplex(0, k.P + k.Q, spaces, diffs)
    object.__setattr__(k, "_total", tot)
    return tot


@dataclass(frozen=True)
class TripleComplex:
    """Trigraded grid with three commuting differentials d1, d2, d3.

    d1, d2 and d3 map (p, q, r) to the cell one step along the first,
    second and third axis; absent keys are zero maps.
    """

    P: int
    Q: int
    R: int
    cells: tuple[tuple[tuple[LabeledSpace, ...], ...], ...]
    d1: dict  # (p,q,r) -> LinearMap to (p+1,q,r), present for p < P
    d2: dict
    d3: dict

    def __post_init__(self):
        for bound in self.bounds:
            if bound < 0:
                raise ValueError("negative bounds")
            if bound > MAX_BOUND:
                raise GridTooLarge(f"bound {bound} exceeds {MAX_BOUND}")
        if len(self.cells) != self.P + 1 or \
                any(len(col) != self.Q + 1 for col in self.cells) or \
                any(len(row) != self.R + 1 for col in self.cells for row in col):
            raise ValueError("cells shape does not match bounds")
        for axis, maps in enumerate((self.d1, self.d2, self.d3)):
            for key, m in maps.items():
                if len(key) != 3 or not self._inside(key) or not self._inside(_shift(key, axis)):
                    raise ValueError(f"d{axis + 1} key {key} is outside the grid")
                if m.domain != self.cell(*key) or m.codomain != self.cell(*_shift(key, axis)):
                    raise ValueError(f"d{axis + 1} map at {key} has wrong spaces")
        self.validate()

    @property
    def bounds(self) -> tuple[int, int, int]:
        return (self.P, self.Q, self.R)

    def _inside(self, cell: tuple) -> bool:
        return all(0 <= x <= b for x, b in zip(cell, self.bounds))

    def cell(self, p, q, r) -> LabeledSpace:
        if 0 <= p <= self.P and 0 <= q <= self.Q and 0 <= r <= self.R:
            return self.cells[p][q][r]
        return ZERO_SPACE

    def map(self, axis: int, p, q, r) -> LinearMap:
        """d_{axis+1} out of cell (p, q, r); the zero map where none is stored."""
        m = (self.d1, self.d2, self.d3)[axis].get((p, q, r))
        return m or LinearMap.zero(self.cell(p, q, r), self.cell(*_shift((p, q, r), axis)))

    def validate(self) -> None:
        """Each d_a squares to zero and each pair d_a, d_b commutes, cell by cell."""
        _check_laws(self.bounds, self.map, lambda a: f"d{a + 1} squares to zero",
                    lambda a, b: f"d{a + 1} and d{b + 1} commute")


def flatten(n: TripleComplex, axis: int) -> DoubleComplex:
    """Merge two adjacent axes of a triple complex into one.

    axis 0 merges (p, q) into the horizontal degree, with differential
    d1 + (-1)^p d2, and keeps r vertical with d3.  axis 1 keeps p
    horizontal with d1 and merges (q, r) into the vertical degree, with
    differential d2 + (-1)^q d3.  Inside a merged degree the cells are
    ordered by ascending first merged index; labels are ((p, q, r), label).
    """
    kept = 2 if axis == 0 else 0
    pair = n.bounds[axis:axis + 2]
    M, T = sum(pair), n.bounds[kept]

    def at(i, j, t):  # (p, q, r) of merged pair (i, j) at kept index t
        return (i, j, t) if axis == 0 else (t, i, j)

    # diag[m][t]: (cells, dims) of the antidiagonal m of the merged pair at kept index t
    diag = []
    for m in range(M + 1):
        ij = _antidiagonal(m, *pair)
        diag.append([(ij, [n.cell(*at(i, j, t)).dim for i, j in ij]) for t in range(T + 1)])
    cells = tuple(tuple(LabeledSpace(tuple((at(i, j, t), lab) for i, j in diag[m][t][0]
                                           for lab in n.cell(*at(i, j, t)).labels))
                        for t in range(T + 1)) for m in range(M + 1))

    def kept_map(m, t):  # block-diagonal d on the kept axis
        ij = diag[m][t][0]
        return LinearMap.from_blocks(cells[m][t], cells[m][t + 1], diag[m][t][1],
                                     diag[m][t + 1][1],
                                     {(k, k): (1, n.map(kept, *at(i, j, t)))
                                      for k, (i, j) in enumerate(ij)})

    merged = tuple(tuple(_merged_map(cells[m][t], cells[m + 1][t], diag[m][t], diag[m + 1][t],
                                     pair, lambda i, j: n.map(axis, *at(i, j, t)),
                                     lambda i, j: n.map(axis + 1, *at(i, j, t)))
                         for t in range(T + 1)) for m in range(M))
    vert = tuple(tuple(kept_map(m, t) for t in range(T)) for m in range(M + 1))
    if axis == 0:
        return DoubleComplex(M, T, cells, merged, vert)
    return DoubleComplex(T, M, _swap(cells, M + 1, T + 1), _swap(vert, M + 1, T),
                         _swap(merged, M, T + 1))


def flatten_fix_r(n: TripleComplex) -> DoubleComplex:
    """Group p+q = k on the horizontal axis, keep r vertical."""
    return flatten(n, 0)


def flatten_fix_p(n: TripleComplex) -> DoubleComplex:
    """Keep p horizontal, group q+r = l on the vertical axis."""
    return flatten(n, 1)


@dataclass(frozen=True)
class TotalsComparison:
    agree: bool
    first_mismatch_degree: Optional[int]

    def __bool__(self) -> bool:
        return self.agree


def totals_agree(n: TripleComplex) -> TotalsComparison:
    """Compare the single complexes of the two flattenings bit-exactly.

    Each total differential is compared as its set of (row cell label,
    column cell label, entry) nonzero entries, with the ((p,q,r), label)
    cell labels of the triple, so the result is independent of the
    grouping order of each flattening.
    """
    ta = total(flatten_fix_r(n))
    tb = total(flatten_fix_p(n))
    if ta.dims() != tb.dims():
        for deg in ta.degrees():
            if ta.space(deg).dim != tb.space(deg).dim:
                return TotalsComparison(False, deg)
    for i, deg in enumerate(range(ta.lo, ta.hi)):
        if _cell_entries(ta.diffs[i]) != _cell_entries(tb.diffs[i]):
            return TotalsComparison(False, deg)
    return TotalsComparison(True, None)


def _cell_entries(m: LinearMap) -> set:
    """The nonzero entries of a total differential keyed by cell labels;
    total() wraps flattening labels as (x, y, ((p,q,r), inner))."""
    rows, cols = m.codomain.labels, m.domain.labels
    return {(rows[i][2], cols[j][2], x) for i, row in enumerate(m.rows) for j, x in row}


def double_complex_to_json(k: DoubleComplex) -> dict:
    return {
        "P": k.P,
        "Q": k.Q,
        "dims": [[k.cells[p][q].dim for q in range(k.Q + 1)] for p in range(k.P + 1)],
        "horiz": [[matrix_to_json(k.horiz[p][q].matrix) for q in range(k.Q + 1)]
                  for p in range(k.P)],
        "vert": [[matrix_to_json(k.vert[p][q].matrix) for q in range(k.Q)]
                 for p in range(k.P + 1)],
    }


def double_complex_from_json(data: dict) -> DoubleComplex:
    P, Q = int_from_json(data["P"], "P"), int_from_json(data["Q"], "Q")
    for name, outer, inner in (("dims", P + 1, Q + 1), ("horiz", P, Q + 1), ("vert", P + 1, Q)):
        raw = data[name]
        if not isinstance(raw, list) or len(raw) != outer or \
                any(not isinstance(col, list) or len(col) != inner for col in raw):
            raise ValueError(f"{name} shape does not match bounds (expected {outer} x {inner})")
    dims = [[int_from_json(d, f"dims[{p}][{q}]") for q, d in enumerate(col)]
            for p, col in enumerate(data["dims"])]
    check_declared_dim(sum(map(sum, dims)))
    cells = tuple(tuple(LabeledSpace(tuple(((p, q), j) for j in range(dims[p][q])))
                        for q in range(Q + 1)) for p in range(P + 1))
    horiz = tuple(tuple(LinearMap(cells[p][q], cells[p + 1][q],
                                  matrix_from_json_shaped(data["horiz"][p][q],
                                                          cells[p + 1][q].dim,
                                                          cells[p][q].dim,
                                                          f"horiz[{p}][{q}]"))
                        for q in range(Q + 1)) for p in range(P))
    vert = tuple(tuple(LinearMap(cells[p][q], cells[p][q + 1],
                                 matrix_from_json_shaped(data["vert"][p][q],
                                                         cells[p][q + 1].dim,
                                                         cells[p][q].dim,
                                                         f"vert[{p}][{q}]"))
                       for q in range(Q)) for p in range(P + 1))
    return DoubleComplex(P, Q, cells, horiz, vert)


def _kron(domain: LabeledSpace, codomain: LabeledSpace, *factors: LinearMap) -> LinearMap:
    """Kronecker product of the factor matrices, first factor outermost."""
    rows = [((0, ONE),)]
    for m in factors:
        n = m.domain.dim
        rows = [[(j * n + k, x * y) for j, x in a for k, y in b] for a in rows for b in m.rows]
    return LinearMap.sparse(domain, codomain, rows)


def _tensor_grid(factors: tuple[CochainComplex, ...]):
    """Cells A^p (x) B^q (x) ... and, per axis, the map d of that factor
    tensored with identities, keyed by the source cell."""
    for f in factors:
        if f.lo != 0:
            raise ValueError("tensor factors must start in degree 0")
    bounds = tuple(f.hi for f in factors)
    cells = {}
    for cell in itertools.product(*(range(b + 1) for b in bounds)):
        spaces = [f.space(x).labels for f, x in zip(factors, cell)]
        cells[cell] = LabeledSpace(tuple(itertools.product(*spaces)))
    maps = []
    for axis, f in enumerate(factors):
        maps.append({cell: _kron(space, cells[_shift(cell, axis)],
                                 *(f.diff(x) if a == axis else LinearMap.identity(g.space(x))
                                   for a, (g, x) in enumerate(zip(factors, cell))))
                     for cell, space in cells.items() if cell[axis] < bounds[axis]})
    return bounds, cells, maps


def tensor_double_complex(a: CochainComplex, b: CochainComplex) -> DoubleComplex:
    """K^{p,q} = A^p (x) B^q with commuting differentials dA(x)1 and 1(x)dB."""
    (P, Q), cells, (d1, d2) = _tensor_grid((a, b))
    return DoubleComplex(
        P, Q, tuple(tuple(cells[(p, q)] for q in range(Q + 1)) for p in range(P + 1)),
        tuple(tuple(d1[(p, q)] for q in range(Q + 1)) for p in range(P)),
        tuple(tuple(d2[(p, q)] for q in range(Q)) for p in range(P + 1)))


def tensor_triple_complex(a: CochainComplex, b: CochainComplex,
                          c: CochainComplex) -> TripleComplex:
    """N^{p,q,r} = A^p (x) B^q (x) C^r with the three factor differentials."""
    (P, Q, R), cells, (d1, d2, d3) = _tensor_grid((a, b, c))
    return TripleComplex(P, Q, R, tuple(tuple(tuple(cells[(p, q, r)] for r in range(R + 1))
                                              for q in range(Q + 1)) for p in range(P + 1)),
                         d1, d2, d3)
