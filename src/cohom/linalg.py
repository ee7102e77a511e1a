"""Exact linear algebra over the rationals.

Everything downstream (cochain complexes, spectral pages, Cech covers,
de Rham forms) reduces to ranks, kernels, images and subquotients of
matrices with Fraction entries.  All results are exact; pivoting is
deterministic (first nonzero entry in row-major scan order) so that
representative bases are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence


class CohomError(Exception):
    """Base class for mathematical-invariant errors in this package."""


class LawViolation(CohomError):
    """An internal self-check failed; `law` names the identity that broke."""

    def __init__(self, law: str, detail: str = ""):
        self.law = law
        super().__init__(f"law '{law}' fails" + (f": {detail}" if detail else ""))


class AmbientMismatch(CohomError):
    pass


class ContainmentViolated(CohomError):
    pass


Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def rat_to_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def rat_from_str(s: str) -> Fraction:
    return Fraction(s)


def freeze_matrix(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(rat(x) for x in row) for row in rows)


def matrix_to_json(rows: Matrix) -> list[list[str]]:
    return [[rat_to_str(x) for x in row] for row in rows]


def _rat_from_json(x, i: int, j: int) -> Fraction:
    """A JSON integer or a string Fraction parses; floats and booleans are refused."""
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"entry at row {i}, column {j} is not an integer or a "
                     f"'p/q' string: {x!r}")


def matrix_from_json(rows: Sequence[Sequence[str]]) -> Matrix:
    if not isinstance(rows, (list, tuple)) or \
            not all(isinstance(row, (list, tuple)) for row in rows):
        raise ValueError("a matrix must be a list of rows")
    return tuple(tuple(_rat_from_json(x, i, j) for j, x in enumerate(row))
                 for i, row in enumerate(rows))


def matrix_from_json_shaped(rows: Sequence[Sequence[str]], nrows: int, ncols: int) -> Matrix:
    """Parse a matrix and validate it against the expected shape.

    When either side is zero-dimensional an empty array [] is accepted
    as shorthand for the degenerate matrix.
    """
    mat = matrix_from_json(rows)
    if nrows == 0 or ncols == 0:
        if any(row for row in mat):
            raise ValueError(f"expected a {nrows} x {ncols} matrix, got entries")
        return tuple(() for _ in range(nrows))
    if len(mat) != nrows or any(len(r) != ncols for r in mat):
        raise ValueError(f"matrix has wrong shape (expected {nrows} x {ncols})")
    return mat


@dataclass(frozen=True)
class LabeledSpace:
    """Finite-dimensional rational vector space with ordered, distinct labels."""

    labels: tuple

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be pairwise distinct")

    @property
    def dim(self) -> int:
        return len(self.labels)

    @staticmethod
    def make(prefix: str, dim: int) -> "LabeledSpace":
        return LabeledSpace(tuple((prefix, i) for i in range(dim)))

    def zero_vector(self) -> Vector:
        return (ZERO,) * self.dim

    def basis_vector(self, i: int) -> Vector:
        return tuple(ONE if j == i else ZERO for j in range(self.dim))


ZERO_SPACE = LabeledSpace(())


@dataclass(frozen=True)
class LinearMap:
    """Matrix of shape codomain.dim x domain.dim acting on column vectors."""

    domain: LabeledSpace
    codomain: LabeledSpace
    matrix: Matrix

    def __post_init__(self):
        if len(self.matrix) != self.codomain.dim:
            raise ValueError("row count does not match codomain dimension")
        for row in self.matrix:
            if len(row) != self.domain.dim:
                raise ValueError("column count does not match domain dimension")

    @staticmethod
    def zero(domain: LabeledSpace, codomain: LabeledSpace) -> "LinearMap":
        return LinearMap(domain, codomain, ((ZERO,) * domain.dim,) * codomain.dim)

    @staticmethod
    def identity(space: LabeledSpace) -> "LinearMap":
        n = space.dim
        return LinearMap(space, space,
                         tuple(tuple(ONE if i == j else ZERO for j in range(n))
                               for i in range(n)))

    @staticmethod
    def from_columns(domain: LabeledSpace, codomain: LabeledSpace,
                     columns: Sequence[Vector]) -> "LinearMap":
        if len(columns) != domain.dim:
            raise ValueError("need one column per domain basis vector")
        rows = tuple(tuple(col[i] for col in columns) for i in range(codomain.dim))
        return LinearMap(domain, codomain, rows)

    @property
    def columns(self) -> list[Vector]:
        return [tuple(row[j] for row in self.matrix) for j in range(self.domain.dim)]

    def apply(self, v: Sequence[Fraction]) -> Vector:
        if len(v) != self.domain.dim:
            raise ValueError("vector length does not match domain")
        return tuple(sum((row[j] * v[j] for j in range(len(v)) if v[j] != 0), ZERO)
                     for row in self.matrix)

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other."""
        if other.codomain != self.domain:
            raise AmbientMismatch("composition domain/codomain mismatch")
        cols = [self.apply(c) for c in other.columns]
        return LinearMap.from_columns(other.domain, self.codomain, cols)

    def add(self, other: "LinearMap") -> "LinearMap":
        if other.domain != self.domain or other.codomain != self.codomain:
            raise AmbientMismatch("sum of maps with different spaces")
        return LinearMap(self.domain, self.codomain,
                         tuple(tuple(a + b for a, b in zip(r1, r2))
                               for r1, r2 in zip(self.matrix, other.matrix)))

    def scale(self, c) -> "LinearMap":
        c = rat(c)
        return LinearMap(self.domain, self.codomain,
                         tuple(tuple(c * x for x in row) for row in self.matrix))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.matrix for x in row)


@dataclass(frozen=True)
class Subspace:
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

    @staticmethod
    def zero(ambient: LabeledSpace) -> "Subspace":
        return Subspace(ambient, LinearMap.zero(ZERO_SPACE, ambient))

    @staticmethod
    def full(ambient: LabeledSpace) -> "Subspace":
        return Subspace(ambient, LinearMap.identity(ambient))

    @staticmethod
    def from_vectors(ambient: LabeledSpace, vectors: Sequence[Vector],
                     prefix: str = "b") -> "Subspace":
        """Span of the given vectors; dependent ones dropped deterministically."""
        kept = independent_subset(vectors)
        dom = LabeledSpace(tuple((prefix, i) for i in range(len(kept))))
        return Subspace(ambient, LinearMap.from_columns(dom, ambient, kept))

    def contains(self, v: Vector) -> bool:
        return solve(self.basis, v) is not None


# ---------------------------------------------------------------------------
# Row reduction.  Rows are cleared to integers and reduced with cross
# multiplication plus gcd normalization; Fractions reappear only at the end.


def _to_int_rows(rows: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    out = []
    for row in rows:
        scale = 1
        for x in row:
            d = x.denominator
            scale = scale * d // gcd(scale, d)
        out.append([x.numerator * (scale // x.denominator) for x in row])
    return out


def _normalize_int_row(row: list[int]) -> list[int]:
    g = 0
    for x in row:
        if x:
            g = gcd(g, abs(x))
    if g > 1:
        row = [x // g for x in row]
    return row


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[int], list[Vector]]:
    """Reduced row echelon form with deterministic pivoting.

    Returns (pivot column indices, nonzero reduced rows with leading 1).
    Pivot choice: scan columns left to right, take the first unused row
    with a nonzero entry.
    """
    work = _to_int_rows(rows)
    nrows = len(work)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    pivot_rows: list[int] = []
    used = [False] * nrows
    for col in range(ncols):
        sel = -1
        for i in range(nrows):
            if not used[i] and work[i][col] != 0:
                sel = i
                break
        if sel < 0:
            continue
        used[sel] = True
        pivots.append(col)
        pivot_rows.append(sel)
        p = work[sel][col]
        for i in range(nrows):
            if i != sel and work[i][col] != 0:
                a = work[i][col]
                work[i] = _normalize_int_row(
                    [p * x - a * y for x, y in zip(work[i], work[sel])])
    reduced: list[Vector] = []
    for col, i in zip(pivots, pivot_rows):
        p = work[i][col]
        reduced.append(tuple(Fraction(x, p) for x in work[i]))
    return pivots, reduced


def rank_of_rows(rows: Sequence[Sequence[Fraction]]) -> int:
    if not rows or not rows[0]:
        return 0
    pivots, _ = rref(rows)
    return len(pivots)


def rank(m: LinearMap) -> int:
    """Exact rank over the rationals."""
    if m.domain.dim == 0 or m.codomain.dim == 0:
        return 0
    pivots, _ = rref(m.matrix)
    return len(pivots)


def kernel_basis(m: LinearMap) -> Subspace:
    """Subspace of the domain spanned by an exact kernel basis."""
    n = m.domain.dim
    if n == 0:
        return Subspace.zero(m.domain)
    if m.codomain.dim == 0:
        return Subspace.full(m.domain)
    pivots, reduced = rref(m.matrix)
    pivot_set = set(pivots)
    free_cols = [j for j in range(n) if j not in pivot_set]
    vectors = []
    for f in free_cols:
        v = [ZERO] * n
        v[f] = ONE
        for i, pc in enumerate(pivots):
            v[pc] = -reduced[i][f]
        vectors.append(tuple(v))
    dom = LabeledSpace(tuple(("ker", j) for j in free_cols))
    return Subspace(m.domain, LinearMap.from_columns(dom, m.domain, vectors))


def image_basis(m: LinearMap) -> Subspace:
    """Span of the columns of m; basis = earliest independent columns."""
    if m.domain.dim == 0 or m.codomain.dim == 0:
        return Subspace.zero(m.codomain)
    cols = m.columns
    kept = [cols[j] for j in _pivot_columns(cols)]
    dom = LabeledSpace(tuple(("im", i) for i in range(len(kept))))
    return Subspace(m.codomain, LinearMap.from_columns(dom, m.codomain, kept))


def _pivot_columns(cols: Sequence[Vector]) -> list[int]:
    """Indices of the earliest linearly independent subset of the columns."""
    if not cols:
        return []
    rows = [tuple(col[i] for col in cols) for i in range(len(cols[0]))]
    if not rows:
        return []
    pivots, _ = rref(rows)
    return pivots


def independent_subset(vectors: Sequence[Vector]) -> list[Vector]:
    idx = _pivot_columns(list(vectors))
    return [vectors[i] for i in idx]


def solve(m: LinearMap, target: Sequence[Fraction]) -> Optional[Vector]:
    """Deterministic solution x of m x = target, or None if inconsistent.

    Free variables are set to zero; pivots are chosen in fixed scan order.
    """
    if len(target) != m.codomain.dim:
        raise ValueError("target length does not match codomain")
    n = m.domain.dim
    target = tuple(rat(t) for t in target)
    if n == 0:
        return () if all(t == 0 for t in target) else None
    aug = [row + (t,) for row, t in zip(m.matrix, target)]
    if not aug:
        return (ZERO,) * n
    pivots, reduced = rref(aug)
    if n in pivots:
        return None
    x = [ZERO] * n
    for pc, row in zip(pivots, reduced):
        x[pc] = row[n]
    return tuple(x)


def invert(m: LinearMap) -> LinearMap:
    """Inverse of a square invertible map (one augmented elimination)."""
    n = m.domain.dim
    if m.codomain.dim != n:
        raise AmbientMismatch("only square maps can be inverted")
    if n == 0:
        return LinearMap(m.codomain, m.domain, ())
    eye = [tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)]
    aug = [row + eye[i] for i, row in enumerate(m.matrix)]
    pivots, reduced = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("map is not invertible")
    inv_rows = tuple(row[n:] for row in reduced)
    return LinearMap(m.codomain, m.domain, inv_rows)


class SpanBuilder:
    """Incremental span of vectors with echelon-form membership reduction."""

    def __init__(self, length: int):
        self.length = length
        self.rows: list[Vector] = []     # each with leading coefficient 1
        self.pivots: list[int] = []      # strictly increasing is NOT required

    def reduce(self, v: Sequence[Fraction]) -> Vector:
        v = list(v)
        for piv, row in zip(self.pivots, self.rows):
            a = v[piv]
            if a != 0:
                v = [x - a * y for x, y in zip(v, row)]
        return tuple(v)

    def add(self, v: Sequence[Fraction]) -> bool:
        """Add v to the span; True iff it enlarged the span."""
        res = self.reduce(v)
        piv = next((i for i, x in enumerate(res) if x != 0), None)
        if piv is None:
            return False
        lead = res[piv]
        self.rows.append(tuple(x / lead for x in res))
        self.pivots.append(piv)
        return True

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, v: Sequence[Fraction]) -> bool:
        return all(x == 0 for x in self.reduce(v))


def subquotient(z: Subspace, b: Subspace):
    """Concrete quotient z/b with projection and section.

    Returns (quotient space, projection: ambient -> quotient,
    section: quotient -> ambient).  projection . section = id, projection
    kills b, and each section column is a representative inside z.
    """
    if z.ambient != b.ambient:
        raise AmbientMismatch("subquotient arguments live in different spaces")
    zvecs = z.vectors
    # coordinates of b inside z; failure of any solve means b is not inside z
    bcoords = []
    for col in b.vectors:
        c = solve(z.basis, col)
        if c is None:
            raise ContainmentViolated("divisor subspace is not contained in the ambient cycles")
        bcoords.append(c)

    zdim, adim = z.dim, z.ambient.dim
    # reduce b-coordinates (as rows) to find pivot coordinates of the image
    if bcoords:
        bpivots, brows = rref(bcoords)
    else:
        bpivots, brows = [], []
    bpivot_set = set(bpivots)
    free = [j for j in range(zdim) if j not in bpivot_set]
    qspace = LabeledSpace(tuple(("cls", j) for j in free))

    # section: class j -> the z basis vector with that coordinate
    section_cols = [zvecs[j] for j in free]
    section = LinearMap.from_columns(qspace, z.ambient, section_cols)

    # projection: extend z to a full basis of the ambient space, read off
    # z-coordinates, then reduce modulo b and keep the free coordinates.
    std = [tuple(ONE if i == j else ZERO for j in range(adim)) for i in range(adim)]
    builder = SpanBuilder(adim)
    for v in zvecs:
        builder.add(v)
    full = list(zvecs)
    for e in std:
        if builder.dim == adim:
            break
        if builder.add(e):
            full.append(e)
    dom_full = LabeledSpace(tuple(("f", i) for i in range(adim)))
    inv = invert(LinearMap.from_columns(dom_full, z.ambient, full))
    proj_cols = []
    for i in range(adim):
        c = inv.apply(std[i])
        zcoord = list(c[:zdim])
        # reduce modulo the rref rows of b-coordinates
        for pc, row in zip(bpivots, brows):
            a = zcoord[pc]
            if a != 0:
                zcoord = [x - a * y for x, y in zip(zcoord, row)]
        proj_cols.append(tuple(zcoord[j] for j in free))
    projection = LinearMap.from_columns(z.ambient, qspace, proj_cols)
    return qspace, projection, section
