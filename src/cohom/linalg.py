"""The map layer: labelled spaces and exact linear maps over the rationals.

Everything downstream (cochain complexes, spectral pages, Cech covers,
de Rham forms) reduces to maps between labelled spaces, with entries and
elimination from the kernel in `exact`.  A `LinearMap` stores only its
nonzero entries, row by row, and a map in a JSON input is read straight
into them (`map_from_json`); `from_blocks` copies signed blocks at
precomputed offsets, negating a block of sign -1 as it copies it.  Every
law of the form g f == h e (d d = 0, commuting squares, cocycles) is
decided by one kernel, `products_agree`, row by row without building
either product.  A map is densified (`LinearMap.matrix`) only for JSON
output.  The dense functions the benchmark tracer still binds live in
`dense`, which a name of theirs read here loads on first use.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .exact import ONE, ZERO, CohomError, Record, _echelon, _fraction, rat, rat_to_str


class AmbientMismatch(CohomError):
    pass


Vector = tuple  # of int or Fraction entries
Matrix = tuple[Vector, ...]


def freeze_matrix(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(rat(x) for x in row) for row in rows)


def matrix_to_json(rows: Matrix) -> list[list[str]]:
    return [[rat_to_str(x) for x in row] for row in rows]


def _rat_from_json(x, i: int, j: int):
    """A JSON integer, or a string read to the value Fraction gives it, as a
    stored entry; floats and booleans are refused.  int() reads the integer
    strings Fraction reads; what it refuses (a fraction, or more digits than
    its limit) goes to Fraction."""
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        try:
            return int(x)
        except ValueError:
            pass
        try:
            return rat(_fraction()(x))
        except (ValueError, ZeroDivisionError):
            pass
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


class LabeledSpace(Record):
    """Rational space with ordered, distinct labels; hot, so `__init__` and `==` are its own."""

    labels: tuple

    def __init__(self, labels: tuple):
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dim", len(labels))
        self.__post_init__()

    def __post_init__(self):
        if len(set(self.labels)) != self.dim:
            raise ValueError("labels must be pairwise distinct")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.labels is other.labels or self.labels == other.labels

    __hash__ = Record.__hash__

    @staticmethod
    def make(prefix: str, dim: int) -> "LabeledSpace":
        return LabeledSpace(tuple((prefix, i) for i in range(dim)))


ZERO_SPACE = LabeledSpace(())


class LinearMap(Record):
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

    @classmethod
    def sparse_columns(cls, domain: LabeledSpace, codomain: LabeledSpace,
                       cols) -> "LinearMap":
        """The map whose column c has the nonzero (row, entry) pairs cols[c];
        built column by column, its rows come out sorted."""
        rows: list = [[] for _ in range(codomain.dim)]
        for c, col in enumerate(cols):
            for i, x in col:
                rows[i].append((c, x))
        m = cls.__new__(cls)
        m._store(domain, codomain, tuple(map(tuple, rows)))
        return m

    def _store(self, domain: LabeledSpace, codomain: LabeledSpace, rows: tuple) -> None:
        if len(rows) != codomain.dim:
            raise ValueError("row count does not match codomain dimension")
        self.__dict__.update(domain=domain, codomain=codomain, rows=rows)

    @staticmethod
    def zero(domain: LabeledSpace, codomain: LabeledSpace) -> "LinearMap":
        return LinearMap.sparse(domain, codomain, [()] * codomain.dim)

    @staticmethod
    def identity(space: LabeledSpace) -> "LinearMap":
        return LinearMap.sparse(space, space, [((i, ONE),) for i in range(space.dim)])

    @staticmethod
    def from_blocks(domain: LabeledSpace, codomain: LabeledSpace, src_offsets: Sequence[int],
                    dst_offsets: Sequence[int], blocks: Iterable[tuple]) -> "LinearMap":
        """Block map from blocks (i, j, sign, m), sign 1 or -1 and m a map from
        source block j, at column src_offsets[j] of the domain, to target
        block i, at row dst_offsets[i] of the codomain; absent blocks are zero.
        """
        rows: list = [[] for _ in range(codomain.dim)]
        for i, j, sign, block in blocks:
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
        """The transpose, built on the first call and kept beside the fields:
        a total's differentials are read by columns by cohomology and by both
        filtrations' pairings."""
        if "_t" not in self.__dict__:
            self.__dict__["_t"] = LinearMap.sparse_columns(self.codomain, self.domain, self.rows)
        return self._t

    @property
    def columns(self) -> list[Vector]:
        return list(self.transpose().matrix)

    def apply(self, v: Sequence) -> Vector:
        if len(v) != self.domain.dim:
            raise ValueError("vector length does not match domain")
        nz = dict(_nonzeros(v))
        return tuple(rat(sum(x * nz[j] for j, x in row if j in nz)) for row in self.rows)

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other, summing products of nonzero entries only."""
        if other.codomain != self.domain:
            raise AmbientMismatch("composition domain/codomain mismatch")
        out = []
        for row in self.rows:
            acc: dict = {}
            for j, x in row:
                for k, y in other.rows[j]:
                    acc[k] = acc.get(k, 0) + x * y
            out.append([(k, t if type(t) is int else rat(t)) for k, t in acc.items() if t])
        return LinearMap.sparse(other.domain, self.codomain, out)


def map_from_json(rows, domain: LabeledSpace, codomain: LabeledSpace,
                  field: str) -> LinearMap:
    """The map at `field` of a JSON input, given as a list of rows of entries,
    stored as the nonzero entries of each row.  A malformed matrix, a malformed
    entry or a wrong shape, checked in that order, is a ValueError naming the
    field.  When either side is zero-dimensional, [] also stands for the zero
    map; any other list of rows must have the declared shape.
    """
    if not isinstance(rows, (list, tuple)) or \
            not all(isinstance(row, (list, tuple)) for row in rows):
        raise ValueError(f"{field}: a matrix must be a list of rows")
    try:
        nonzero = tuple(tuple((j, y) for j, x in enumerate(row) if (y := _rat_from_json(x, i, j)))
                        for i, row in enumerate(rows))
    except ValueError as e:
        raise ValueError(f"{field}: {e}") from None
    nrows, ncols = codomain.dim, domain.dim
    if (nrows == 0 or ncols == 0) and any(rows):
        raise ValueError(f"{field}: expected a {nrows} x {ncols} matrix, got entries")
    if not rows and (nrows == 0 or ncols == 0):
        nonzero = ((),) * nrows
    elif len(rows) != nrows or any(len(row) != ncols for row in rows):
        raise ValueError(f"{field}: matrix has wrong shape (expected {nrows} x {ncols})")
    m = LinearMap.__new__(LinearMap)
    m._store(domain, codomain, nonzero)
    return m


def products_agree(g: Optional[LinearMap], f: Optional[LinearMap],
                   h: Optional[LinearMap] = None, e: Optional[LinearMap] = None) -> bool:
    """Whether g f == h e, decided row by row without building either product;
    a None factor is the zero map, so products_agree(g, f) says g f == 0.  The
    caller has checked that the spaces match."""
    pairs = [(s, a.rows, b.rows) for s, a, b in ((1, g, f), (-1, h, e))
             if a is not None and b is not None]
    for i in range(len(pairs[0][1]) if pairs else 0):
        acc: dict = {}
        for s, a, b in pairs:
            for j, x in a[i]:
                x *= s
                for k, y in b[j]:
                    acc[k] = acc.get(k, 0) + x * y
        if any(acc.values()):
            return False
    return True


def _nonzeros(row: Sequence) -> list:
    """The (column, stored entry) pairs of the nonzero entries of a dense row.

    Entries that are the shared ZERO are skipped by identity, without a
    comparison, which is why every module takes its zero from `exact`; every
    other entry goes through `rat`, so a False or a 0.0 is refused too.
    """
    return [(j, rat(x)) for j, x in enumerate(row) if x is not ZERO and (x or rat(x))]


def rank(m: LinearMap) -> int:
    """Exact rank over the rationals."""
    return len(_echelon(m.rows))


_DENSE = {"rref", "kernel_basis", "image_basis", "solve", "invert", "SpanBuilder", "subquotient",
          "Subspace", "ContainmentViolated"}


def __getattr__(name: str):
    """A name of the dense family, read from `dense` (imported on first use)."""
    if name not in _DENSE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import dense
    return getattr(dense, name)
