"""Exact linear algebra over the rationals.

Everything downstream (cochain complexes, spectral pages, Cech covers,
de Rham forms) reduces to ranks, kernels, images and subquotients of
matrices with Fraction entries.  All results are exact.  Every rank and
every reduced row echelon form comes from one sparse, fraction-free
elimination over the integers (`_echelon`); the reduced row echelon
form of a matrix is unique, so kernel, image and solution bases do not
depend on which row is chosen as a pivot and are reproducible across
runs.  Cohomology representatives and the spectral pairing come from one
sparse column reduction (`reduce_columns`).  A `LinearMap` stores only
its nonzero entries, row by row, so products, block copies and
eliminations read them directly; `from_blocks` negates a block of sign
-1 as it copies it.  A map is densified (`LinearMap.matrix`) only for
JSON output and for the dense functions the benchmark tracer still binds
(rref, kernel_basis, image_basis, solve, invert, subquotient).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd
from typing import Iterable, Iterator, Optional, Sequence


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


def freeze_matrix(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(rat(x) for x in row) for row in rows)


def matrix_to_json(rows: Matrix) -> list[list[str]]:
    return [[rat_to_str(x) for x in row] for row in rows]


def _rat_from_json(x, i: int, j: int) -> Fraction:
    """A JSON integer or a string Fraction parses; floats and booleans are refused.

    Zero entries are the shared ZERO, which `_nonzeros` skips by identity.
    """
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x) if x else ZERO
    if isinstance(x, str):
        try:
            v = Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
        else:
            return v if v else ZERO
    raise ValueError(f"entry at row {i}, column {j} is not an integer or a "
                     f"'p/q' string: {x!r}")


def int_from_json(x, field: str, signed: bool = False) -> int:
    """A JSON integer, non-negative unless signed; booleans, floats and
    strings are refused with a ValueError naming the field."""
    if isinstance(x, int) and not isinstance(x, bool) and (signed or x >= 0):
        return x
    kind = "an integer" if signed else "a non-negative integer"
    raise ValueError(f"{field} must be {kind}, got {x!r}")


# Most basis vectors one JSON input may declare in all.  Measured with Python
# 3.11 on a 2-vCPU container with this limit lifted, `cohom complex` on {"dims":
# [0, N], "diffs": [[]]} takes 0.16 s and 19 MB at N = 1000, 0.32 s and 29 MB at 10,000.
MAX_DECLARED_DIM = 1000


def check_declared_dim(total: int) -> None:
    """Refuse an input that declares more than MAX_DECLARED_DIM basis vectors in all."""
    if total > MAX_DECLARED_DIM:
        raise ValueError(f"the input declares {total} basis vectors in all, "
                         f"over the limit of {MAX_DECLARED_DIM}")


def matrix_from_json(rows: Sequence[Sequence[str]]) -> Matrix:
    if not isinstance(rows, (list, tuple)) or \
            not all(isinstance(row, (list, tuple)) for row in rows):
        raise ValueError("a matrix must be a list of rows")
    return tuple(tuple(_rat_from_json(x, i, j) for j, x in enumerate(row))
                 for i, row in enumerate(rows))


def matrix_from_json_shaped(rows: Sequence[Sequence[str]], nrows: int, ncols: int,
                            field: str) -> Matrix:
    """Parse the matrix at `field` and validate it against the expected shape;
    a malformed entry or a wrong shape is a ValueError naming the field.

    When either side is zero-dimensional an empty array [] is accepted
    as shorthand for the degenerate matrix.
    """
    try:
        mat = matrix_from_json(rows)
    except ValueError as e:
        raise ValueError(f"{field}: {e}") from None
    if nrows == 0 or ncols == 0:
        if any(row for row in mat):
            raise ValueError(f"{field}: expected a {nrows} x {ncols} matrix, got entries")
        return tuple(() for _ in range(nrows))
    if len(mat) != nrows or any(len(r) != ncols for r in mat):
        raise ValueError(f"{field}: matrix has wrong shape (expected {nrows} x {ncols})")
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


ZERO_SPACE = LabeledSpace(())


@dataclass(frozen=True, init=False)
class LinearMap:
    """Matrix of shape codomain.dim x domain.dim acting on column vectors.

    Stored sparse: rows[i] holds the (column, entry) pairs of the nonzero
    entries of row i in increasing column order, so equal matrices have
    equal rows and `==` and `hash` keep their dense meaning.
    """

    domain: LabeledSpace
    codomain: LabeledSpace
    rows: tuple

    def __init__(self, domain: LabeledSpace, codomain: LabeledSpace, matrix: Matrix):
        """The map with the dense matrix `matrix`."""
        if any(len(row) != domain.dim for row in matrix):
            raise ValueError("column count does not match domain dimension")
        self._store(domain, codomain, tuple(map(tuple, map(_nonzeros, matrix))))

    @classmethod
    def sparse(cls, domain: LabeledSpace, codomain: LabeledSpace, rows) -> "LinearMap":
        """The map whose row i has the nonzero (column, entry) pairs rows[i],
        in any order and each column at most once."""
        m = cls.__new__(cls)
        m._store(domain, codomain, tuple(map(tuple, map(sorted, rows))))
        return m

    def _store(self, domain: LabeledSpace, codomain: LabeledSpace, rows: tuple) -> None:
        if len(rows) != codomain.dim:
            raise ValueError("row count does not match codomain dimension")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "rows", rows)

    @staticmethod
    def zero(domain: LabeledSpace, codomain: LabeledSpace) -> "LinearMap":
        return LinearMap.sparse(domain, codomain, [()] * codomain.dim)

    @staticmethod
    def identity(space: LabeledSpace) -> "LinearMap":
        return LinearMap.sparse(space, space, [((i, ONE),) for i in range(space.dim)])

    @staticmethod
    def from_columns(domain: LabeledSpace, codomain: LabeledSpace,
                     columns: Sequence[Vector]) -> "LinearMap":
        return LinearMap(codomain, domain, columns).transpose()

    @staticmethod
    def from_blocks(domain: LabeledSpace, codomain: LabeledSpace,
                    src_dims: Sequence[int], dst_dims: Sequence[int],
                    blocks: dict) -> "LinearMap":
        """Block map from signed blocks {(i, j): (sign, LinearMap from source
        block j to target block i)}, sign 1 or -1.

        The domain is the direct sum of blocks of dims src_dims, the
        codomain that of dst_dims, both in order; absent blocks are zero.
        """
        src_offsets = list(accumulate(src_dims, initial=0))
        dst_offsets = list(accumulate(dst_dims, initial=0))
        rows: list = [[] for _ in range(codomain.dim)]
        for (i, j), (sign, block) in blocks.items():
            c0 = src_offsets[j]
            for r, row in enumerate(block.rows, dst_offsets[i]):
                if sign < 0:
                    rows[r] += [(c0 + c, -x) for c, x in row]
                elif row:
                    rows[r] += [(c0 + c, x) for c, x in row] if c0 else row
        return LinearMap.sparse(domain, codomain, rows)

    @property
    def matrix(self) -> Matrix:
        """The dense matrix, for JSON output and the dense readers."""
        out = []
        for row in self.rows:
            dense = [ZERO] * self.domain.dim
            for j, x in row:
                dense[j] = x
            out.append(tuple(dense))
        return tuple(out)

    def transpose(self) -> "LinearMap":
        cols: list = [[] for _ in range(self.domain.dim)]
        for i, row in enumerate(self.rows):
            for j, x in row:
                cols[j].append((i, x))
        return LinearMap.sparse(self.codomain, self.domain, cols)

    @property
    def columns(self) -> list[Vector]:
        return list(self.transpose().matrix)

    def apply(self, v: Sequence[Fraction]) -> Vector:
        if len(v) != self.domain.dim:
            raise ValueError("vector length does not match domain")
        nz = dict(_nonzeros(v))
        return tuple(sum((x * nz[j] for j, x in row if j in nz), ZERO) for row in self.rows)

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other, summing products of nonzero entries only."""
        if other.codomain != self.domain:
            raise AmbientMismatch("composition domain/codomain mismatch")
        out = []
        for row in self.rows:
            acc: dict = {}
            for j, x in row:
                for k, y in other.rows[j]:
                    acc[k] = acc.get(k, ZERO) + x * y
            out.append([(k, t) for k, t in acc.items() if t])
        return LinearMap.sparse(other.domain, self.codomain, out)

    def is_zero(self) -> bool:
        return not any(self.rows)


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
    def full(ambient: LabeledSpace) -> "Subspace":
        return Subspace(ambient, LinearMap.identity(ambient))


# ---------------------------------------------------------------------------
# Row reduction.  One kernel, `_echelon`, serves every rank and every
# reduced row echelon form: rows are cleared to integers and kept sparse
# (column -> int), and each elimination step cross-multiplies two rows
# and divides out the gcd of the result.  Fractions reappear only in the
# rows that `rref` returns.


def _nonzeros(row: Sequence[Fraction]) -> list:
    """The (column, entry) pairs of the nonzero entries of a dense row.

    Entries that are the shared ZERO are skipped by identity, without a
    Fraction comparison, which is why every module takes its zero from
    here.
    """
    return [(j, x) for j, x in enumerate(row) if x is not ZERO and x]


def _primitive(row: dict) -> dict:
    """row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return {j: x // g for j, x in row.items()} if g > 1 else row


def _int_row(nz: list) -> dict:
    """A primitive integer multiple of the sparse rational row nz."""
    scale = 1
    for _, x in nz:
        d = x.denominator
        if d != 1:
            scale = scale * d // gcd(scale, d)
    return _primitive({j: x.numerator * (scale // x.denominator) for j, x in nz})


def _cancel(r: dict, s: dict, c: int) -> dict:
    """The primitive integer combination of r and s with column c cleared."""
    a, p = r[c], s[c]
    g = gcd(a, p)
    a, p = a // g, p // g
    out = {j: p * x for j, x in r.items()}
    for j, y in s.items():
        t = out.get(j, 0) - a * y
        if t:
            out[j] = t
        else:
            del out[j]
    return _primitive(out)


def _echelon(rows) -> dict:
    """Row echelon form of sparse rows given as (column, entry) pairs.

    Returns {pivot column: primitive integer row whose leading column it
    is}; its size is the rank.
    """
    pivots: dict = {}
    for nz in rows:
        r = _int_row(nz)
        while r:
            c = min(r)
            s = pivots.get(c)
            if s is None:
                pivots[c] = r
                break
            r = _cancel(r, s, c)
    return pivots


def _subtract(y: dict, c: Fraction, x: dict) -> None:
    """y -= c * x on sparse vectors, dropping zeros."""
    for i, xi in x.items():
        t = y.get(i, ZERO) - c * xi
        if t:
            y[i] = t
        else:
            del y[i]


def reduce_columns(m: LinearMap, order: Iterable[int], key=None) -> Iterator[tuple]:
    """Left-to-right reduction R = m V of the columns in order: each column
    is reduced by earlier ones until none owns its low, its largest row
    under key (the row index when key is None).  Yields (j, R_j, V_j, low)
    with R_j, V_j sparse dicts and low None when R_j = 0; V_j has a 1 at j
    and is supported on j and the earlier columns with R != 0."""
    cols = [dict(col) for col in m.transpose().rows]
    owner: dict = {}  # low -> (R, V) of the column that owns it
    for j in order:
        r, v = cols[j], {j: ONE}
        while r:
            low = max(r, key=key)
            if low not in owner:
                owner[low] = (r, v)
                break
            r_low, v_low = owner[low]
            c = r[low] / r_low[low]
            _subtract(r, c, r_low)
            _subtract(v, c, v_low)
        else:
            low = None
        yield j, r, v, low


# rref, kernel_basis, image_basis, solve, invert, SpanBuilder and subquotient stay while
# perfbench/tracer.py binds them; tests/test_bench_bindings.py requires the bindings to resolve.
def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[int], list[Vector]]:
    """Reduced row echelon form.

    Returns (pivot column indices in increasing order, the nonzero
    reduced rows with leading entry 1, in pivot order).  The reduced
    form is unique, so it does not depend on the elimination order.
    """
    ncols = len(rows[0]) if rows else 0
    echelon = _echelon(map(_nonzeros, rows))
    pivots = sorted(echelon)
    done: dict = {}  # pivot column -> row with zeros in every other pivot column
    for c in reversed(pivots):
        r = echelon[c]
        for j in [j for j in r if j != c and j in done]:
            r = _cancel(r, done[j], j)
        done[c] = r
    reduced: list[Vector] = []
    for c in pivots:
        r, lead = done[c], done[c][c]
        v = [ZERO] * ncols
        for j, x in r.items():
            v[j] = Fraction(x, lead)
        reduced.append(tuple(v))
    return pivots, reduced


def rank(m: LinearMap) -> int:
    """Exact rank over the rationals."""
    return len(_echelon(m.rows))


def kernel_basis(m: LinearMap) -> Subspace:
    """Subspace of the domain spanned by an exact kernel basis."""
    n = m.domain.dim
    if m.codomain.dim == 0:
        return Subspace.full(m.domain)
    pivots, reduced = rref(m.matrix)
    pivot_set = set(pivots)
    free_cols = [j for j in range(n) if j not in pivot_set]
    vectors = [[(f, ONE)] + [(pc, -row[f]) for pc, row in zip(pivots, reduced) if row[f]]
               for f in free_cols]
    dom = LabeledSpace(tuple(("ker", j) for j in free_cols))
    return Subspace(m.domain, LinearMap.sparse(m.domain, dom, vectors).transpose())


def image_basis(m: LinearMap) -> Subspace:
    """Span of the columns of m; basis = earliest independent columns."""
    columns = m.columns
    kept = [columns[j] for j in sorted(_echelon(m.rows))]
    dom = LabeledSpace(tuple(("im", i) for i in range(len(kept))))
    return Subspace(m.codomain, LinearMap.from_columns(dom, m.codomain, kept))


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


def subquotient(z: Subspace, b: Subspace):
    """Concrete quotient z/b with a section.

    Returns (quotient space, section: quotient -> ambient).  Each section
    column is a basis vector of z, and the section columns together with
    b form a basis of z.
    """
    if z.ambient != b.ambient:
        raise AmbientMismatch("subquotient arguments live in different spaces")
    # coordinates of b inside z, from one elimination of [z | b]; a pivot
    # in the b block means b is not inside z
    zdim = z.dim
    pivots, reduced = rref([zr + br for zr, br in zip(z.basis.matrix, b.basis.matrix)])
    if any(c >= zdim for c in pivots):
        raise ContainmentViolated("divisor subspace is not contained in the ambient cycles")
    bcoords = zip(*(row[zdim:] for row in reduced))
    # the z coordinates that b does not reach index the classes
    taken = set(_echelon(map(_nonzeros, bcoords)))
    free = [j for j in range(zdim) if j not in taken]
    qspace = LabeledSpace(tuple(("cls", j) for j in free))
    zvecs = z.vectors
    section = LinearMap.from_columns(qspace, z.ambient, [zvecs[j] for j in free])
    return qspace, section
