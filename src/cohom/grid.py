"""Bounded double and triple complexes and their total complexes.

A grid keeps its cells and per-axis maps in dicts keyed by cell (an
absent map is zero); nested fields given to a constructor are keyed once,
and a grid built keyed nests them only when read.  Every total and every
flattening is one `_merge` of two adjacent axes along antidiagonals, with
d_axis + (-1)^{x[axis]} d_{axis+1} on cell x, so the total differential
on (p, q) is horiz + (-1)^p vert.  A grid checks its laws when it is
built (`validate`, one `linalg.products_agree` per square) and keeps its
total from the first `total` call, so all its readers share one total.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from operator import attrgetter
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
    map_from_json,
    matrix_to_json,
    products_agree,
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


def _shift(cell: tuple, axis: int, step: int = 1) -> tuple:
    return cell[:axis] + (cell[axis] + step,) + cell[axis + 1:]


def _by_cell(nested, bounds: tuple, name: str) -> dict:
    """The entries of nested sequences over a grid with these bounds, keyed by cell."""
    level = {(): nested}
    for b in bounds:
        if any(not isinstance(seq, (list, tuple)) or len(seq) != b + 1 for seq in level.values()):
            shape = " x ".join(str(c + 1) for c in bounds)
            raise ValueError(f"{name} shape does not match bounds (expected {shape})")
        level = {x + (i,): v for x, seq in level.items() for i, v in enumerate(seq)}
    return level


def _nest(keyed: dict, bounds: tuple, prefix: tuple = ()):
    """The values of keyed over a grid with these bounds, nested by axis."""
    if len(prefix) == len(bounds):
        return keyed[prefix]
    return tuple(_nest(keyed, bounds, prefix + (i,)) for i in range(bounds[len(prefix)] + 1))


class _Grid:
    """A double or triple complex.  `_names` and `_laws` name each axis's maps and
    laws; `_nested_maps` says whether the map fields nest like `cells` or are keyed.
    A grid built keyed shows its nested fields as views built on their first read."""

    def __post_init__(self):
        bounds = self.bounds
        _check_bounds(bounds)
        if "_cells" not in self.__dict__:  # built from nested fields: check and key them
            cells = _by_cell(self.cells, bounds, "cells")
            maps = [_by_cell(getattr(self, n), _shift(bounds, a, -1), n) if self._nested_maps
                    else getattr(self, n) for a, n in enumerate(self._names)]
            for a, (name, stored) in enumerate(zip(self._names, maps)):
                for x, m in stored.items():
                    y = _shift(x, a) if x in cells else None
                    if y not in cells:
                        raise ValueError(f"{name} key {x} is outside the grid")
                    if m.domain != cells[x] or m.codomain != cells[y]:
                        raise ValueError(f"{name} map at {x} has wrong spaces")
            self.__dict__.update(_cells=cells, _maps=maps)
        self.validate()

    @classmethod
    def _build(cls, bounds: tuple, cells: dict, maps: list):
        """The grid of keyed cells and maps whose spaces match by construction."""
        grid = cls.__new__(cls)
        grid.__dict__.update(zip(cls._fields, bounds), _cells=cells, _maps=maps)
        grid.__post_init__()
        return grid

    cells = cached_property(lambda g: _nest(g._cells, g.bounds))

    def cell(self, *x) -> LabeledSpace:
        """The space at x; the zero space outside the grid."""
        return self._cells.get(x, ZERO_SPACE)

    def validate(self) -> None:
        """Each differential squares to zero and each pair commutes, cell by cell."""
        bounds, maps, axes = self.bounds, self._maps, range(len(self._names))
        for x in _points(bounds):
            for a in axes:
                if x[a] + 2 <= bounds[a] and \
                        not products_agree(maps[a].get(_shift(x, a)), maps[a].get(x)):
                    raise InvariantViolation(x, self._laws[(a,)])
            for a, b in itertools.combinations(axes, 2):
                if x[a] < bounds[a] and x[b] < bounds[b] and \
                        not products_agree(maps[b].get(_shift(x, a)), maps[a].get(x),
                                           maps[a].get(_shift(x, b)), maps[b].get(x)):
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
    bounds = property(attrgetter("P", "Q"))
    _nested_maps = True
    horiz, vert = (cached_property(lambda g, a=a: _nest(g._maps[a], _shift(g.bounds, a, -1)))
                   for a in range(2))


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
    bounds = property(attrgetter("P", "Q", "R"))
    _nested_maps = False
    d1, d2, d3 = (cached_property(lambda g, a=a: g._maps[a]) for a in range(3))


def _merge(grid: _Grid, axis: int, nest: bool) -> tuple:
    """Merge axes axis and axis + 1 of a grid: cell y sums the cells x with
    x[axis] + x[axis + 1] = y[axis], by ascending x[axis], labelled (x, label)
    if nest, else (*x, label), with d_axis + (-1)^{x[axis]} d_{axis+1} on x
    along the merged axis and block-diagonal maps along the others, each map
    written in one pass from block offsets computed once per cell.  Returns
    the merged bounds, the cells and, per merged axis, the maps, keyed by cell."""
    bounds, spaces, stored = grid.bounds, grid._cells, grid._maps
    lo, hi = bounds[axis], bounds[axis + 1]
    merged = bounds[:axis] + (lo + hi,) + bounds[axis + 2:]
    cells, parts = {}, {}
    for y in _points(merged):
        n, pre, post = y[axis], y[:axis], y[axis + 1:]
        xs = [pre + (i, n - i) + post for i in range(max(0, n - hi), min(lo, n) + 1)]
        cells[y] = LabeledSpace(tuple([(x, lab) if nest else (*x, lab)
                                       for x in xs for lab in spaces[x].labels]))
        parts[y] = xs, list(itertools.accumulate([spaces[x].dim for x in xs], initial=0))
    d0, d1 = stored[axis], stored[axis + 1]
    maps = []
    for a in range(len(merged)):
        steps, kept = {}, stored[a + (a > axis)]
        for y, (xs, offsets) in parts.items():
            if y[a] == merged[a]:
                continue
            z = _shift(y, a)
            if a != axis:  # the kept axis a + (a > axis) of x, block-diagonal
                blocks = [(k, k, 1, kept[x]) for k, x in enumerate(xs) if x in kept]
            else:  # x at k in y's antidiagonal; z's starts one cell later when y[axis] >= hi
                late = y[axis] >= hi
                blocks = [(k + 1 - late, k, 1, d0[x]) for k, x in enumerate(xs) if x in d0] + \
                    [(k - late, k, -1 if x[axis] % 2 else 1, d1[x])
                     for k, x in enumerate(xs) if x in d1]
            steps[y] = LinearMap.from_blocks(cells[y], cells[z], offsets, parts[z][1], blocks)
        maps.append(steps)
    return merged, cells, maps


def total(k: DoubleComplex) -> CochainComplex:
    """The total complex, labels (p, q, label), built and checked once and kept on the grid."""
    if "_total" in k.__dict__:
        return k._total
    (n,), cells, (diffs,) = _merge(k, 0, False)
    tot = CochainComplex(0, n, tuple(cells.values()), tuple(diffs.values()))
    object.__setattr__(k, "_total", tot)
    return tot


def flatten_fix_r(n: TripleComplex) -> DoubleComplex:
    """Group p+q horizontally (d1 + (-1)^p d2), keep r vertical (d3); labels ((p,q,r), lab)."""
    return DoubleComplex._build(*_merge(n, 0, True))


def flatten_fix_p(n: TripleComplex) -> DoubleComplex:
    """Keep p horizontal (d1), group q+r vertically (d2 + (-1)^q d3); labels ((p,q,r), lab)."""
    return DoubleComplex._build(*_merge(n, 1, True))


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
    dims = {(p, q): int_from_json(d, f"dims[{p}][{q}]")
            for (p, q), d in _by_cell(data["dims"], (P, Q), "dims").items()}
    check_declared_dim(sum(dims.values()))
    cells = {x: LabeledSpace(tuple((x, j) for j in range(d))) for x, d in dims.items()}
    maps = [{x: map_from_json(rows, cells[x], cells[_shift(x, a)], f"{name}[{x[0]}][{x[1]}]")
             for x, rows in _by_cell(data[name], _shift((P, Q), a, -1), name).items()}
            for a, name in enumerate(DoubleComplex._names)]
    return DoubleComplex._build((P, Q), cells, maps)


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
    for cell in _points(bounds):
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
    return DoubleComplex._build(*_tensor_grid((a, b)))


def tensor_triple_complex(a: CochainComplex, b: CochainComplex,
                          c: CochainComplex) -> TripleComplex:
    """N^{p,q,r} = A^p (x) B^q (x) C^r with the three factor differentials."""
    return TripleComplex._build(*_tensor_grid((a, b, c)))
