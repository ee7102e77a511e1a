"""The dense Gauss-Jordan family over the map layer, kept for its readers.

No command runs these functions: only the tests and the benchmark's
layer tracer, which binds rref, kernel_basis, image_basis, solve, invert,
SpanBuilder.add and subquotient as `cohom.linalg.<name>`, reach them, so
`linalg` forwards those names here and loads this module on first use.
Each reads one column reduction (`_coordinates`) through the kernel's
elimination step.  No engine module imports this file.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .exact import (ONE, ZERO, CohomError, Record, _echelon, _reduce, _scaled, quotient,
                    reduce_columns)
from .linalg import AmbientMismatch, LabeledSpace, LinearMap, Vector, _nonzeros, rank


class ContainmentViolated(CohomError):
    pass


class Subspace(Record):
    """Subspace of an ambient space, given by an independent-column basis map."""

    ambient: LabeledSpace
    basis: LinearMap

    def __post_init__(self):
        if self.basis.codomain != self.ambient:
            raise AmbientMismatch("basis must land in the ambient space")
        if rank(self.basis) != self.basis.domain.dim:
            raise ValueError("basis columns must be linearly independent")

    @property
    def dim(self) -> int:
        return self.basis.domain.dim

    @property
    def vectors(self) -> list[Vector]:
        return self.basis.columns


def _coordinates(cols: Sequence) -> tuple[list, dict]:
    """(pivots, coords) from one reduction of the columns cols[j], given as
    (row, entry) pairs, in index order: the pivots are the columns no earlier
    one spans, increasing; every other column j has V_j on j and earlier
    pivots, so -V_j / V_j[j] off j, coords[j] = {pivot: entry}, is its column
    of the reduced row echelon form."""
    pivots, coords = [], {}
    for j, _, v, low in reduce_columns(cols, range(len(cols))):
        if low is None:
            s = -v[j]
            coords[j] = {p: quotient(x, s) for p, x in v.items() if p != j}
        else:
            pivots.append(j)
    return pivots, coords


def rref(rows: Sequence[Sequence]) -> tuple[list[int], list[Vector]]:
    """Reduced row echelon form.

    Returns (pivot column indices in increasing order, the nonzero
    reduced rows with leading entry 1, in pivot order).  The reduced
    form is unique, so it does not depend on the elimination order.
    """
    ncols = len(rows[0]) if rows else 0
    pivots, coords = _coordinates([_nonzeros(col) for col in zip(*rows)])
    reduced = {p: [ONE if j == p else ZERO for j in range(ncols)] for p in pivots}
    for j, c in coords.items():
        for p, x in c.items():
            reduced[p][j] = x
    return pivots, [tuple(reduced[p]) for p in pivots]


def kernel_basis(m: LinearMap) -> Subspace:
    """Subspace of the domain spanned by an exact kernel basis: for each
    free column f, e_f minus its coordinates in the pivot columns."""
    _, coords = _coordinates(m.transpose().rows)
    vectors = [[(f, ONE)] + [(p, -x) for p, x in c.items()] for f, c in coords.items()]
    dom = LabeledSpace(tuple(("ker", f) for f in coords))
    return Subspace(m.domain, LinearMap.sparse_columns(dom, m.domain, vectors))


def image_basis(m: LinearMap) -> Subspace:
    """Span of the columns of m; basis = earliest independent columns."""
    columns = m.columns
    kept = [columns[j] for j in sorted(_echelon(m.rows))]
    dom = LabeledSpace(tuple(("im", i) for i in range(len(kept))))
    return Subspace(m.codomain, LinearMap.from_columns(dom, m.codomain, kept))


def solve(m: LinearMap, target: Sequence) -> Optional[Vector]:
    """Deterministic solution x of m x = target, or None if inconsistent.

    The target's coordinates in the pivot columns of m, in index order;
    the free variables are zero.
    """
    if len(target) != m.codomain.dim:
        raise ValueError("target length does not match codomain")
    n = m.domain.dim
    pivots, coords = _coordinates(m.transpose().rows + (_nonzeros(target),))
    if n in pivots:
        return None
    return tuple(coords[n].get(j, ZERO) for j in range(n))


def invert(m: LinearMap) -> LinearMap:
    """Inverse of a square invertible map: column i is the coordinates of
    e_i in the columns of m, from one reduction of [m | 1]."""
    n = m.domain.dim
    if m.codomain.dim != n:
        raise AmbientMismatch("only square maps can be inverted")
    pivots, coords = _coordinates(m.transpose().rows + LinearMap.identity(m.codomain).rows)
    if pivots != list(range(n)):
        raise ValueError("map is not invertible")
    return LinearMap.sparse_columns(m.codomain, m.domain,
                                    [coords[n + i].items() for i in range(n)])


class SpanBuilder:
    """Incremental span of vectors, each reduced by those that enlarged it."""

    def __init__(self, length: int):
        self.length = length
        self._owner: dict = {}

    def add(self, v: Sequence) -> bool:
        """Add v to the span; True iff it enlarged the span."""
        if len(v) != self.length:
            raise ValueError(f"vector of length {len(v)} added to a span of length {self.length}")
        return _reduce(_scaled(_nonzeros(v))[0], {}, self._owner, min)[2] is not None


def subquotient(z: Subspace, b: Subspace):
    """Concrete quotient z/b with a section.

    Returns (quotient space, section: quotient -> ambient).  Each section
    column is a basis vector of z, and the section columns together with
    b form a basis of z.
    """
    if z.ambient != b.ambient:
        raise AmbientMismatch("subquotient arguments live in different spaces")
    # coordinates of b in z, from one reduction of [z | b]; the z columns are
    # independent, so a pivot in the b block means b is not inside z
    zdim, zcols = z.dim, z.basis.transpose().rows
    pivots, coords = _coordinates(zcols + b.basis.transpose().rows)
    if any(c >= zdim for c in pivots):
        raise ContainmentViolated("divisor subspace is not contained in the ambient cycles")
    # the z coordinates that b does not reach index the classes
    taken = set(_echelon(coords[j].items() for j in range(zdim, zdim + b.dim)))
    free = [j for j in range(zdim) if j not in taken]
    qspace = LabeledSpace(tuple(("cls", j) for j in free))
    return qspace, LinearMap.sparse_columns(qspace, z.ambient, [zcols[j] for j in free])
