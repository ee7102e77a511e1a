"""Exact linear algebra over the rationals.

Everything downstream (cochain complexes, spectral pages, Cech covers,
de Rham forms) reduces to ranks, kernels, images and subquotients of
rational matrices.  A stored entry is an `int` when integral and a
`Fraction` otherwise (`rat`), so integer inputs pay for no `Fraction`
arithmetic; both compare and hash alike.  All results are exact: no
entry is divided with `/`.  One fraction-free sparse elimination step,
`_reduce`, serves every caller: a rank is a row reduction (`_echelon`),
and representatives, the spectral pairing, reduced row echelon forms,
kernels, solutions, inverses and subquotients read one column reduction
(`reduce_columns`), whose integer columns are divided by their one scale
only on output (`quotient`).  A `LinearMap` stores only its nonzero
entries, row by row, and a map in a JSON input is read straight into
them (`map_from_json`); `from_blocks` copies signed blocks at precomputed
offsets, negating a block of sign -1 as it copies it.  Every law of the
form g f == h e (d d = 0, commuting squares, cocycles) is decided by one
kernel, `products_agree`, row by row without building either product.
A map is densified (`LinearMap.matrix`) only for JSON output
and for the dense functions the benchmark tracer still binds (rref,
kernel_basis, image_basis, solve, invert, subquotient).  Every value
type is a `Record`: defining one generates no code.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import gcd, lcm
from operator import attrgetter
from typing import Iterable, Iterator, Optional, Sequence


class CohomError(Exception):
    """Base class for mathematical-invariant errors in this package."""


class LawViolation(CohomError):
    """An internal self-check failed; `law` names the identity that broke."""

    def __init__(self, law: str, detail: str = ""):
        self.law = law
        super().__init__(f"law '{law}' fails" + (f": {detail}" if detail else ""))


class WindowExhausted(CohomError):
    """A truncation window is too small for the answer to be stable."""


class AmbientMismatch(CohomError):
    pass


class ContainmentViolated(CohomError):
    pass


Vector = tuple  # of int or Fraction entries
Matrix = tuple[Vector, ...]

ZERO = 0
ONE = 1


def rat(x):
    """The int or Fraction x as a stored entry: an int when integral."""
    if type(x) is int or isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"an entry must be an int or a Fraction, not {x!r}")


def quotient(x: int, s: int):
    """The rational x / s of two ints, as a stored entry."""
    return x // s if x % s == 0 else Fraction(x, s)


def rat_to_str(x) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


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
            return rat(Fraction(x))
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


class Record:
    """An immutable value whose fields are the names its class annotates, in order.

    Built positionally, then checked by `__post_init__`.  `==` holds only within
    one class and, like `hash`, reads the fields alone, not values kept beside them.
    """

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._values = attrgetter(*cls._fields)  # one field's value, or a tuple of several

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} fields, "
                            f"got {len(values)}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"a {type(self).__name__} is immutable: {name!r} cannot change")

    __delattr__ = __setattr__


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
    def from_columns(domain: LabeledSpace, codomain: LabeledSpace,
                     columns: Sequence[Vector]) -> "LinearMap":
        return LinearMap(codomain, domain, columns).transpose()

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


# ---------------------------------------------------------------------------
# Elimination.  `_reduce` is the one loop, on vectors cleared to integers and
# kept sparse (index -> int).  A rank is a row reduction that carries nothing
# (`_echelon`); representatives, the spectral pairing, and every reduced row
# echelon form, kernel, solution, inverse and subquotient read one column
# reduction (`reduce_columns`).


def _nonzeros(row: Sequence) -> list:
    """The (column, stored entry) pairs of the nonzero entries of a dense row.

    Entries that are the shared ZERO are skipped by identity, without a
    comparison, which is why every module takes its zero from here; every
    other entry goes through `rat`, so a False or a 0.0 is refused too.
    """
    return [(j, rat(x)) for j, x in enumerate(row) if x is not ZERO and (x or rat(x))]


def _scaled(nz) -> tuple[dict, int]:
    """(s x, s) for the sparse rational vector x given as (index, entry)
    pairs, with s the lcm of its denominators, so s x has int entries."""
    x = dict(nz)
    for t in x.values():
        if type(t) is not int:
            break
    else:
        return x, 1
    s = lcm(*(t.denominator for t in x.values()))
    return {i: t.numerator * (s // t.denominator) for i, t in x.items()}, s


def _combine(p: int, x: dict, a: int, y: dict) -> dict:
    """p x - a y on sparse integer vectors, dropping zeros."""
    out = {i: p * t for i, t in x.items()} if p != 1 else dict(x)
    for i, t in y.items():
        t = out.get(i, 0) - a * t
        if t:
            out[i] = t
        else:
            del out[i]
    return out


def _reduce(r: dict, v: dict, owner: dict, pick) -> tuple:
    """Reduce the integer vector r by owner, {low: (R, V) that owns it}, until
    none owns its low pick(r), carrying the integer vector v alongside (nothing
    when v and every V are empty): each step clears the low by integer
    cross-multiplication with its owner and divides r and v by their joint
    gcd.  Returns (r, v, low), low None when r reduces to zero; otherwise
    owner gains (r, v) at low."""
    while r:
        low = pick(r)
        o = owner.get(low)
        if o is None:
            owner[low] = (r, v)
            return r, v, low
        r_low, v_low = o
        a, b = r[low], r_low[low]
        g = gcd(a, b)
        a, b = a // g, b // g
        r, v = _combine(b, r, a, r_low), _combine(b, v, a, v_low) if v else v
        g = gcd(*r.values(), *v.values())
        if g > 1:
            r = {i: x // g for i, x in r.items()}
            v = {i: x // g for i, x in v.items()}
    return r, v, None


def _echelon(rows) -> dict:
    """Row echelon form of sparse rows given as (column, entry) pairs: {pivot
    column: integer row whose leading column it is}; its size is the rank."""
    owner: dict = {}
    for nz in rows:
        if nz:
            _reduce(_scaled(nz)[0], {}, owner, min)
    return {c: r for c, (r, _) in owner.items()}


def reduce_columns(cols: Sequence, order: Iterable[int], key=None) -> Iterator[tuple]:
    """Left-to-right reduction R = m V of the columns of a map m, cols[j]
    holding the (row, entry) pairs of column j, in order: each column is
    reduced by earlier ones until none owns its low, its largest row under
    key (the row index when key is None).

    Fraction-free: column j starts as s times itself, V = {j: s}, with s
    the lcm of its denominators.  Yields (j, R_j, V_j, low), R_j and V_j
    sparse dicts of ints, low None when R_j = 0, and V_j supported on j and
    earlier columns with R != 0.  The rational reduction (a 1 at j) is
    R_j / V_j[j] and V_j / V_j[j].
    """
    owner: dict = {}  # low -> (R, V) of the column that owns it
    pick = max if key is None else partial(max, key=key)
    for j in order:
        r, s = _scaled(cols[j])
        r, v, low = _reduce(r, {j: s}, owner, pick)
        yield j, r, v, low


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


# rref, kernel_basis, image_basis, solve, invert, SpanBuilder and subquotient stay while
# perfbench/tracer.py binds them; tests/test_bench_bindings.py requires the bindings to resolve.
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


def rank(m: LinearMap) -> int:
    """Exact rank over the rationals."""
    return len(_echelon(m.rows))


def dims_from_ranks(sizes, ranks) -> tuple[int, ...]:
    """dim K^n - rank d_n - rank d_{n-1}, given every degree's size and every d's rank."""
    r = [0, *ranks, 0]
    return tuple(s - r[i + 1] - r[i] for i, s in enumerate(sizes))


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
