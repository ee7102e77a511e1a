"""Bounded double and triple complexes and their total complexes.

The differentials of a grid commute; signs live only in merged maps.
Every total and every flattening is one operation, `_merge`: it sums the
cells of two adjacent axes along antidiagonals, ascending in the first
merged index, with differential d_axis + (-1)^{x[axis]} d_{axis+1} on
cell x and every other axis block-diagonal, so the total differential on
cell (p, q) is horiz + (-1)^p vert.  Every grid checks its laws
(`validate`) when it is built, and a double complex keeps its total
complex from the first `total` call, so the cohomology, both page
sequences and the certificate of one grid share one checked total.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .complexes import CochainComplex
from .linalg import (
    CohomError,
    LabeledSpace,
    LinearMap,
    ONE,
    Record,
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


class GridTooLarge(ValueError):
    """A bound over MAX_BOUND: an input error, like any other budget."""


def _check_bounds(bounds: tuple) -> None:
    if min(bounds) < 0:
        raise ValueError("negative bounds")
    if max(bounds) > MAX_BOUND:
        raise GridTooLarge(f"bounds {bounds} exceed {MAX_BOUND}")


def _points(bounds: tuple):
    """The cells of a grid with these bounds, in row-major order."""
    return itertools.product(*(range(b + 1) for b in bounds))


def _shift(cell: tuple, axis: int) -> tuple:
    return cell[:axis] + (cell[axis] + 1,) + cell[axis + 1:]


def _leaves(nested, bounds: tuple, name: str) -> list:
    """The entries of nested sequences over a grid with these bounds, row-major."""
    level = [nested]
    for b in bounds:
        if set(map(len, level)) - {b + 1}:
            raise ValueError(f"{name} shape does not match bounds")
        level = [y for x in level for y in x]
    return level


class _Grid:
    """The body a double and a triple complex share.  The leading fields are
    the bounds, `_names` names the stored map of each axis, `_stored` lists
    per axis each stored map with the cell it leaves, and `_laws` names the
    law of each axis (squares to zero) and pair of axes (commute)."""

    def __post_init__(self):
        bounds = self.bounds
        _check_bounds(bounds)
        cells = dict(zip(_points(bounds), _leaves(self.cells, bounds, "cells")))
        for a, (name, stored) in enumerate(zip(self._names, self._stored(bounds))):
            for x, m in stored:
                y = _shift(x, a) if x in cells else None
                if y not in cells:
                    raise ValueError(f"{name} key {x} is outside the grid")
                if m.domain != cells[x] or m.codomain != cells[y]:
                    raise ValueError(f"{name} map at {x} has wrong spaces")
        self.validate()

    @property
    def bounds(self) -> tuple:
        return self._values(self)[:len(self._names)]

    def cell(self, *x) -> LabeledSpace:
        """The space at x; the zero space outside the grid."""
        space = self.cells
        for i in x:
            if not 0 <= i < len(space):
                return ZERO_SPACE
            space = space[i]
        return space

    def validate(self) -> None:
        """Each differential squares to zero and each pair commutes, cell by cell."""
        bounds, map, axes = self.bounds, self.map, range(len(self._names))
        for x in _points(bounds):
            for a in axes:
                if x[a] + 2 <= bounds[a] and \
                        not map(a, *_shift(x, a)).compose(map(a, *x)).is_zero():
                    raise InvariantViolation(x, self._laws[(a,)])
            for a, b in itertools.combinations(axes, 2):
                if x[a] < bounds[a] and x[b] < bounds[b] and \
                        map(b, *_shift(x, a)).compose(map(a, *x)) != \
                        map(a, *_shift(x, b)).compose(map(b, *x)):
                    raise InvariantViolation(x, self._laws[(a, b)])


class DoubleComplex(_Grid, Record):
    """First-quadrant grid K^{p,q}, 0 <= p <= P, 0 <= q <= Q.

    horiz[p][q] : K^{p,q} -> K^{p+1,q}  (p < P)
    vert[p][q]  : K^{p,q} -> K^{p,q+1}  (q < Q)
    """

    P: int
    Q: int
    cells: tuple[tuple[LabeledSpace, ...], ...]
    horiz: tuple[tuple[LinearMap, ...], ...]
    vert: tuple[tuple[LinearMap, ...], ...]

    _names = ("horiz", "vert")
    _laws = {(0,): "horizontal differential squares to zero",
             (1,): "vertical differential squares to zero",
             (0, 1): "horizontal and vertical differentials commute"}

    def _stored(self, bounds: tuple) -> list:
        P, Q = bounds
        return [zip(_points((P - 1, Q)), _leaves(self.horiz, (P - 1, Q), "horiz")),
                zip(_points((P, Q - 1)), _leaves(self.vert, (P, Q - 1), "vert"))]

    def map(self, axis: int, p: int, q: int) -> LinearMap:
        """horiz (axis 0) or vert (axis 1) out of cell (p, q)."""
        return (self.horiz, self.vert)[axis][p][q]


class TripleComplex(_Grid, Record):
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

    _names = ("d1", "d2", "d3")
    _laws = {(0,): "d1 squares to zero", (1,): "d2 squares to zero", (2,): "d3 squares to zero",
             (0, 1): "d1 and d2 commute", (0, 2): "d1 and d3 commute", (1, 2): "d2 and d3 commute"}

    def _stored(self, bounds: tuple) -> list:
        return [self.d1.items(), self.d2.items(), self.d3.items()]

    def map(self, axis: int, p, q, r) -> LinearMap:
        """d_{axis+1} out of cell (p, q, r); the zero map where none is stored."""
        m = (self.d1, self.d2, self.d3)[axis].get((p, q, r))
        return m or LinearMap.zero(self.cell(p, q, r), self.cell(*_shift((p, q, r), axis)))


def _merge(bounds: tuple, cell, map, axis: int, label) -> tuple:
    """Merge axes axis and axis + 1 of a grid into one, along antidiagonals.

    cell(*x) is the space at x and map(a, *x) the differential along axis a
    out of x.  Merged cell y sums the cells x with x[axis] + x[axis + 1] =
    y[axis], by ascending x[axis], and labels their basis label(x, lab).  Its
    differential along the merged axis is d_axis + (-1)^{x[axis]} d_{axis+1}
    on cell x; along every other axis it is block-diagonal.  Returns the
    merged bounds, the cells and, per merged axis, the maps, keyed by cell.
    """
    lo, hi = bounds[axis], bounds[axis + 1]
    merged = bounds[:axis] + (lo + hi,) + bounds[axis + 2:]
    cells, parts = {}, {}
    for y in _points(merged):
        n, pre, post = y[axis], y[:axis], y[axis + 1:]
        xs = [pre + (i, n - i) + post for i in range(max(0, n - hi), min(lo, n) + 1)]
        spaces = [cell(*x) for x in xs]
        cells[y] = LabeledSpace(tuple([label(x, lab) for x, s in zip(xs, spaces)
                                       for lab in s.labels]))
        parts[y] = xs, [s.dim for s in spaces]
    maps = []
    for a in range(len(merged)):
        steps = {}
        for y, (xs, dims) in parts.items():
            if y[a] == merged[a]:
                continue
            z = _shift(y, a)
            if a != axis:  # the kept axis a + (a > axis) of x, block-diagonal
                blocks = {(k, k): (1, map(a + (a > axis), *x)) for k, x in enumerate(xs)}
            else:  # x at k in y's antidiagonal; z's starts one cell later when y[axis] >= hi
                blocks, late = {}, y[axis] >= hi
                for k, x in enumerate(xs):
                    if x[axis] < lo:
                        blocks[(k + 1 - late, k)] = (1, map(axis, *x))
                    if x[axis + 1] < hi:
                        blocks[(k - late, k)] = (-1 if x[axis] % 2 else 1, map(axis + 1, *x))
            steps[y] = LinearMap.from_blocks(cells[y], cells[z], dims, parts[z][1], blocks)
        maps.append(steps)
    return merged, cells, maps


def total(k: DoubleComplex) -> CochainComplex:
    """The total complex, labels (p, q, label), built and checked once and kept on the grid."""
    if "_total" in k.__dict__:
        return k._total
    (n,), cells, (diffs,) = _merge(k.bounds, k.cell, k.map, 0, lambda x, lab: (*x, lab))
    tot = CochainComplex(0, n, tuple(cells.values()), tuple(diffs.values()))
    object.__setattr__(k, "_total", tot)
    return tot


def _double(bounds: tuple, cells: dict, maps: list) -> DoubleComplex:
    """The double complex of cells and per-axis maps keyed by cell."""
    P, Q = bounds
    keyed = ((cells, 0, 0), (maps[0], 1, 0), (maps[1], 0, 1))
    return DoubleComplex(P, Q, *(tuple(tuple(d[(p, q)] for q in range(Q + 1 - dq))
                                       for p in range(P + 1 - dp)) for d, dp, dq in keyed))


def flatten(n: TripleComplex, axis: int) -> DoubleComplex:
    """The double complex of a triple with axes axis and axis + 1 merged:
    axis 0 merges (p, q) horizontally, with d1 + (-1)^p d2, beside d3;
    axis 1 merges (q, r) vertically, with d2 + (-1)^q d3, beside d1.
    Labels are ((p, q, r), label)."""
    return _double(*_merge(n.bounds, n.cell, n.map, axis, lambda x, lab: (x, lab)))


def flatten_fix_r(n: TripleComplex) -> DoubleComplex:
    """Group p+q = k on the horizontal axis, keep r vertical."""
    return flatten(n, 0)


def flatten_fix_p(n: TripleComplex) -> DoubleComplex:
    """Keep p horizontal, group q+r = l on the vertical axis."""
    return flatten(n, 1)


class TotalsComparison(Record):
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
    out = {"P": k.P, "Q": k.Q, "dims": [[c.dim for c in col] for col in k.cells]}
    for name in k._names:
        out[name] = [[matrix_to_json(m.matrix) for m in col] for col in getattr(k, name)]
    return out


def double_complex_from_json(data: dict) -> DoubleComplex:
    P, Q = int_from_json(data["P"], "P"), int_from_json(data["Q"], "Q")
    _check_bounds((P, Q))
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
    maps = [tuple(tuple(LinearMap(cells[p][q], cells[p + dp][q + dq], matrix_from_json_shaped(
                            data[name][p][q], cells[p + dp][q + dq].dim, cells[p][q].dim,
                            f"{name}[{p}][{q}]"))
                        for q in range(Q + 1 - dq)) for p in range(P + 1 - dp))
            for name, dp, dq in (("horiz", 1, 0), ("vert", 0, 1))]
    return DoubleComplex(P, Q, cells, *maps)


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
    return _double(*_tensor_grid((a, b)))


def tensor_triple_complex(a: CochainComplex, b: CochainComplex,
                          c: CochainComplex) -> TripleComplex:
    """N^{p,q,r} = A^p (x) B^q (x) C^r with the three factor differentials."""
    (P, Q, R), cells, maps = _tensor_grid((a, b, c))
    return TripleComplex(P, Q, R, tuple(tuple(tuple(cells[(p, q, r)] for r in range(R + 1))
                                              for q in range(Q + 1)) for p in range(P + 1)),
                         *maps)
